"""Datasets, standardized designs and least-squares primitives.

All model-selection machinery in this package operates on a *standardized*
design: predictor columns are optionally centered, then divided by their
Euclidean norm so that every column has unit norm, and the response receives
the same centering. Two parametrizations are supported:

* ``practical`` -- an intercept is implicit: columns and response are
  centered before scaling, and the effective sample size is ``n - 1``.
* ``formal`` -- no intercept: data enter as-is and the effective sample
  size is ``n``.

Coefficients live on two scales. ``theta`` denotes coefficients of the
standardized columns, ``beta = theta / scales`` the coefficients of the raw
columns. Residual sums of squares of a model are always computed on the
standardized data; for any column subset they agree with the residual of the
corresponding raw-data fit (with intercept, in practical mode).

The least-squares primitives share one factorization, :func:`_factor`: a
single column-pivoted thin QR of the relevant columns, which gives the
numerical rank, the orthonormal basis of the span and the triangular factor
for coefficients at once. :func:`ls_fit` and the greedy path in ``selection``
use it; every projection residual (:func:`rss`, the margins in ``identify``)
is the one routine :func:`_residual_sq` on the :func:`span_basis` of the columns.
The package's three QR kernels call LAPACK directly, with the workspace sizes
and result layouts of the wrappers they replace, so the same bytes:
:func:`_factor` makes scipy's ``geqp3``/``orgqr`` calls (workspace asked once
per shape), :func:`_thin_q` (the greedy path's k x k QR, the pivot basis in
``simlab``) runs numpy's ``geqrf``/``orgqr`` gufuncs. numpy and scipy ship
separate OpenBLAS builds, which can round apart, so each kernel stays with its
library; ``tests/test_design.py`` pins both against their wrappers.

Many responses on one design (a block of fixed-design replicates in
``simlab``) run the same least squares as one (B, n) stack: the private
``_ls_block`` factors the model once and treats every row, and ``ls_fit`` is
its block of one. A row's result is the bytes of its own one-response call,
by one rule: every matrix-vector product of a stack is ``_gemv_rows``,
``np.matmul(a, ys[:, :, None])``, which runs one BLAS gemv per row with the
strides of ``a @ y``; residual sums of squares are ``np.vecdot`` (one
``ddot`` per row, as ``r @ r``); elementwise work, ``cumsum`` and reductions
run along each contiguous row. Two alternatives are not allowed here: ``ys @
a.T`` is one gemm, which rounds most rows differently (96% of rows in a
random sample, numpy 2.4 OpenBLAS on x86-64), and a multi-right-hand-side
triangular solve, which moved 79% of coefficient columns, so ``dtrtrs``
stays one call per row.
"""

from __future__ import annotations

import csv
import enum
import json
import numbers
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Iterable

import numpy as np
from numpy.linalg._umath_linalg import qr_r_raw, qr_reduced
from scipy.linalg.lapack import dgeqp3, dorgqr, dtrtrs

from .errors import (
    DegenerateResidual,
    RankDeficient,
    TooManyPredictors,
    ZeroNormColumn,
)

# Relative tolerance on pivoted-QR diagonal entries used to call a set of
# columns rank deficient; the package's only rank rule.
RANK_TOL = 1e-10

# Below this RSS the residual is treated as exactly zero (t-stats undefined).
DEGENERATE_RSS = 1e-12

_ZERO_NORM_TOL = 1e-12


class Parametrization(str, enum.Enum):
    """Centering convention of the standardized design."""

    PRACTICAL = "practical"
    FORMAL = "formal"

    def n_effective(self, n: int) -> int:
        """Sample size available to least squares (centering costs one)."""
        return n - 1 if self is Parametrization.PRACTICAL else n


@dataclass(frozen=True, eq=False)
class Dataset:
    """Raw observations: predictor matrix ``x`` (n rows) and response ``y``."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float).ravel()
        if x.ndim != 2:
            raise ValueError("x must be a 2-d array")
        if x.shape[0] != y.shape[0]:
            raise ValueError(f"x has {x.shape[0]} rows but y has {y.shape[0]}")
        if x.shape[0] < 1 or x.shape[1] < 1:
            raise ValueError("need at least one observation and one predictor")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("non-finite values in data")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    @classmethod
    def from_csv(
        cls,
        path,
        *,
        has_header: bool = True,
        response: "str | int | None" = None,
    ) -> "Dataset":
        """Load a dataset from a delimited text file.

        Parameters
        ----------
        path : str or Path
            CSV file with one row per observation.
        has_header : bool
            Whether the first row holds column names.
        response : str, int or None
            Response column: a header name (requires ``has_header``), a
            0-based column index, or None for the last column.
        """
        with open(path, newline="") as fh:
            rows = [row for row in csv.reader(fh) if row and any(c.strip() for c in row)]
        if not rows:
            raise ValueError(f"{path}: empty file")
        header = None
        if has_header:
            header = [c.strip() for c in rows[0]]
            rows = rows[1:]
            if not rows:
                raise ValueError(f"{path}: header but no data rows")
        ncol = len(rows[0])
        if ncol < 2:
            raise ValueError("need at least one predictor column plus the response")
        if isinstance(response, str):
            if header is None:
                raise ValueError("response given by name but file has no header")
            try:
                ycol = header.index(response)
            except ValueError:
                raise ValueError(f"no column named {response!r} in header {header}") from None
        elif response is None:
            ycol = ncol - 1
        else:
            ycol = _column_index(response)
            if not 0 <= ycol < ncol:
                raise ValueError(f"response column {ycol} out of range for {ncol} columns")
        if any(len(row) != ncol for row in rows):
            raise ValueError(f"{path}: ragged rows")
        try:
            data = np.array([[float(c) for c in row] for row in rows])
        except ValueError as exc:
            raise ValueError(f"{path}: non-numeric cell ({exc})") from None
        y = data[:, ycol]
        x = np.delete(data, ycol, axis=1)
        return cls(x=x, y=y)


def _column_index(j, what: str = "column index") -> int:
    """``j`` as a 0-based column index, or as the integer argument ``what``:
    an int or numpy integer, never a bool or a float (which would truncate);
    anything else raises ValueError naming ``what``."""
    if type(j) is int:
        return j
    if isinstance(j, numbers.Integral) and not isinstance(j, bool):
        return int(j)
    raise ValueError(f"{what} must be an integer, got {j!r}")


@dataclass(frozen=True)
class ModelSet:
    """Immutable set of 0-based column indices, stored sorted."""

    indices: tuple

    def __post_init__(self):
        idx = tuple(map(_column_index, self.indices))
        if idx and min(idx) < 0:
            raise ValueError(f"negative column index in {idx}")
        if list(idx) != sorted(set(idx)):
            raise ValueError(f"indices must be strictly increasing: {idx}")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def of(cls, indices: "Iterable[int] | ModelSet") -> "ModelSet":
        """Normalize any iterable of indices (deduplicated, sorted)."""
        if isinstance(indices, ModelSet):
            return indices
        return cls(tuple(sorted(set(map(_column_index, indices)))))

    @classmethod
    def empty(cls) -> "ModelSet":
        return cls(())

    @classmethod
    def full(cls, p: int) -> "ModelSet":
        return cls(tuple(range(p)))

    def __len__(self):
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __contains__(self, j):
        return _column_index(j) in self.indices

    def union(self, other) -> "ModelSet":
        return ModelSet.of(set(self.indices) | set(ModelSet.of(other).indices))

    def minus(self, other) -> "ModelSet":
        drop = set(ModelSet.of(other).indices)
        return ModelSet(tuple(j for j in self.indices if j not in drop))

    def issubset(self, other) -> bool:
        return set(self.indices) <= set(ModelSet.of(other).indices)


# metadata of a dataclass field that its JsonFields form leaves out
NOT_JSON = {"json": False}


class JsonFields:
    """Base of the dataclass results whose JSON form is their fields, by
    name, except those whose metadata is ``NOT_JSON``: a nested JsonFields
    value becomes its own form, an enum member its value, an array its list,
    a ModelSet its index list, a tuple a list; scalars, dicts and None pass
    through."""

    def to_json_dict(self) -> dict:
        out = {}
        for f in fields(self):
            if not f.metadata.get("json", True):
                continue
            v = getattr(self, f.name)
            if isinstance(v, JsonFields):
                v = v.to_json_dict()
            elif isinstance(v, enum.Enum):
                v = v.value
            elif isinstance(v, np.ndarray):
                v = v.tolist()
            elif isinstance(v, ModelSet):
                v = list(v.indices)
            elif isinstance(v, tuple):
                v = list(v)
            out[f.name] = v
        return out


def json_text(blob) -> str:
    """The text of every JSON artifact the package writes: keys sorted,
    two-space indent, one trailing newline."""
    return json.dumps(blob, indent=2, sort_keys=True) + "\n"


@dataclass(frozen=True, eq=False)
class StandardizedDesign(JsonFields):
    """Unit-norm (and possibly centered) design with matching response.

    Attributes
    ----------
    x0 : ndarray, shape (n, p)
        Standardized columns; each has Euclidean norm 1.
    y0 : ndarray, shape (n,)
        Response after the mode's centering.
    scales : ndarray, shape (p,)
        Norms of the (centered) raw columns; ``beta = theta / scales``.
    mode : Parametrization
    """

    x0: np.ndarray
    y0: np.ndarray
    scales: np.ndarray
    mode: Parametrization

    @property
    def n(self) -> int:
        return self.x0.shape[0]

    @property
    def p(self) -> int:
        return self.x0.shape[1]

    @property
    def n_effective(self) -> int:
        return self.mode.n_effective(self.n)

    @cached_property
    def gram(self) -> np.ndarray:
        """Gram matrix of the standardized columns (unit diagonal)."""
        return self.x0.T @ self.x0

    def columns(self, model) -> np.ndarray:
        return self.x0[:, list(ModelSet.of(model).indices)]

    def to_json_dict(self) -> dict:
        return {**super().to_json_dict(), "n": self.n, "p": self.p}


def standardize(data: Dataset, mode="practical") -> StandardizedDesign:
    """Center (practical mode) and scale a dataset to unit column norms.

    Raises
    ------
    ZeroNormColumn
        If some column has norm < 1e-12 after centering (e.g. a constant
        column in practical mode).
    """
    mode = Parametrization(mode)
    xc = _center(data.x, mode)  # always a new array, so scaled in place
    scales = np.sqrt(np.add.reduce(xc * xc, axis=0))  # np.linalg.norm's sum, no conj() copy
    bad = np.nonzero(scales < _ZERO_NORM_TOL)[0]
    if bad.size:
        raise ZeroNormColumn(int(bad[0]), float(scales[bad[0]]))
    xc /= scales
    return StandardizedDesign(x0=xc, y0=_center(data.y, mode), scales=scales, mode=mode)


def _center(a: np.ndarray, mode, axis: int = 0) -> np.ndarray:
    """The centering rule of :func:`standardize`, for X and y alike: ``a``
    centered along ``axis`` in the practical mode, copied in the formal one.
    A (B, n) stack of responses is centered along axis 1, row by row."""
    if Parametrization(mode) is Parametrization.PRACTICAL:
        return a - a.mean(axis=axis, keepdims=True)
    return a.copy()


def _check_indices(design: StandardizedDesign, model: ModelSet) -> None:
    if model and model.indices[-1] >= design.p:
        raise ValueError(f"column index {model.indices[-1]} out of range for p={design.p}")


_QR_WORK: dict = {}  # x.shape: the geqp3 and orgqr workspace sizes


def _factor(x: np.ndarray):
    """The one factorization: pivoted thin QR ``x[:, perm] = q @ r`` and the
    numerical rank, the count of ``|r_kk| > RANK_TOL * |r_00|``. scipy's
    economic pivoted ``qr``: ``q`` F-ordered, ``r`` C-ordered, ``perm`` int32."""
    a = np.asarray_chkfinite(x)
    if a.ndim != 2:
        raise ValueError("expected a 2-D array")
    (m, n), k = a.shape, min(a.shape)
    if a.size == 0:
        q, r = np.empty_like(a, shape=(m, k)), np.empty_like(a, shape=(k, n))
        return q, r, np.arange(n, dtype=np.int32), 0
    if a.shape not in _QR_WORK:
        qr, _, tau, work, _ = dgeqp3(a, lwork=-1)
        _QR_WORK[a.shape] = int(work[0]), int(dorgqr(qr[:, :k], tau, lwork=-1)[1][0])
    lwork_p, lwork_q = _QR_WORK[a.shape]
    qr, jpvt, tau, _, info = dgeqp3(a, lwork=lwork_p)
    r = qr[:k].copy()
    for i in range(1, k):
        r[i, :i] = 0.0  # np.triu's bytes
    q, _, info_q = dorgqr(qr[:, :k], tau, lwork=lwork_q, overwrite_a=1)
    if min(info, info_q) < 0:
        raise ValueError("illegal value in an argument of internal geqp3/orgqr")
    d = np.abs(np.diag(r))
    rank = int(np.sum(d > RANK_TOL * d[0])) if d[0] > 0.0 else 0
    return q, r, jpvt - 1, rank


def _thin_q(a: np.ndarray) -> np.ndarray:
    """numpy's reduced ``qr(a)[0]``, C-ordered, of a finite ``a``."""
    a = np.array(np.asarray_chkfinite(a), dtype=float)
    tau = qr_r_raw(a, signature="d->d")  # overwrites a
    return qr_reduced(a, tau, signature="dd->d")


def _solve_upper(r: np.ndarray, b: np.ndarray, *, check_r: bool = True) -> np.ndarray:
    """``x`` with ``r @ x = b`` for an upper-triangular ``r``: the LAPACK
    ``trtrs`` call scipy's triangular solve makes, with its layout rule (a
    ``r`` that is not F-contiguous is solved as the lower system ``r.T``
    transposed), so the same bytes, and its checks, without its wrapper.
    ``check_r=False`` skips the finiteness check of an ``r`` that passed it
    once already."""
    if (check_r and not np.isfinite(r).all()) or not np.isfinite(b).all():
        raise ValueError("array must not contain infs or NaNs")
    if r.flags.f_contiguous:
        x, info = dtrtrs(r, b, lower=0, trans=0)
    else:
        x, info = dtrtrs(r.T, b, lower=1, trans=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return x


def span_basis(x: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span, tolerant to rank deficiency."""
    q, _, _, rank = _factor(x)
    return q[:, :rank]


def _full_rank_factor(cols: np.ndarray, model: ModelSet):
    """``_factor`` of a model's columns; rank-deficient sets raise."""
    q, r, perm, rank = _factor(cols)
    if rank < len(model):
        raise RankDeficient(model)
    return q, r, perm


def _gemv_rows(a: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """``a @ y`` for each row ``y`` of ``ys``, each row the bytes of that
    one-response product (see the module docstring)."""
    return np.matmul(a, ys[:, :, None])[..., 0]


def _residual_sq(design: StandardizedDesign, v: np.ndarray, cols, *, strict: bool = False) -> float:
    """||v - proj_span(columns)||^2 over the :func:`span_basis` of the
    columns in the given order; dependent columns raise
    :class:`RankDeficient` with ``strict`` and are tolerated without. No
    columns give the (n, 0) basis, so ``v`` itself: ``||v||^2``."""
    cols = list(cols)
    q = span_basis(design.x0[:, cols])
    if strict and q.shape[1] < len(cols):
        raise RankDeficient(cols)
    w = v - q @ (q.T @ v)
    return float(w @ w)


def rss(design: StandardizedDesign, model) -> float:
    """Residual sum of squares of the least-squares fit on ``model``.

    The empty model returns ``||y0||^2``. Rank-deficient column sets raise
    :class:`RankDeficient`.
    """
    model = ModelSet.of(model)
    _check_indices(design, model)
    return _residual_sq(design, design.y0, model.indices, strict=True)


@dataclass(frozen=True, eq=False)
class LsFit(JsonFields):
    """Least-squares fit on a standardized design restricted to ``model``.

    ``t_squared`` holds squared t-statistics aligned with ``model.indices``;
    it is None when the fit was allowed to have a ~0 residual.
    """

    model: ModelSet
    theta_hat: np.ndarray
    beta_hat: np.ndarray
    rss: float
    df_resid: int
    t_squared: "np.ndarray | None"


def ls_fit(design: StandardizedDesign, model, *, allow_degenerate: bool = False) -> LsFit:
    """Least squares of ``y0`` on the model's standardized columns.

    Squared t-statistics use the mode's residual degrees of freedom
    ``n_effective - |model|``. With ``allow_degenerate`` a ~0 residual yields
    ``t_squared=None`` instead of raising :class:`DegenerateResidual`.

    Raises
    ------
    TooManyPredictors
        If ``|model| >= n_effective`` (no residual degrees of freedom).
    RankDeficient, DegenerateResidual
    """
    model = ModelSet.of(model)
    theta, beta, rss_b, t2 = _ls_block(
        design, model, design.y0[None], allow_degenerate=allow_degenerate
    )
    t2 = None if np.isnan(t2[0]).any() else t2[0]
    return LsFit(model, theta[0], beta[0], float(rss_b[0]), design.n_effective - len(model), t2)


def _ls_block(
    design: StandardizedDesign, model: ModelSet, ys: np.ndarray, *, allow_degenerate: bool
):
    """:func:`ls_fit` of each row of ``ys`` (B, n) on one sorted ``model``:
    ``theta`` and ``beta`` (B, k), ``rss`` (B,) and ``t_squared`` (B, k),
    whose rows are NaN where the residual is ~0 (allowed only with
    ``allow_degenerate``; the empty model keeps empty rows). One
    factorization serves the block, each row keeps its own bytes."""
    _check_indices(design, model)
    k = len(model)
    n_eff = design.n_effective
    if k >= n_eff:
        raise TooManyPredictors(f"|model|={k} but n_effective={n_eff}")
    if k == 0:
        empty = np.zeros((len(ys), 0))
        return empty, empty, np.vecdot(ys, ys), empty
    q, rmat, perm = _full_rank_factor(design.columns(model), model)
    rinv = _solve_upper(rmat, np.eye(k))
    unit_var = np.empty(k)  # the diagonal of (X'X)^{-1}
    unit_var[perm] = np.sum(rinv * rinv, axis=1)
    qty = _gemv_rows(q.T, ys)
    theta = np.empty_like(qty)
    for row, b in zip(theta, qty):
        row[perm] = _solve_upper(rmat, b, check_r=False)  # rmat checked above
    resid = ys - _gemv_rows(q, qty)
    rss_b = np.vecdot(resid, resid)
    ok = rss_b >= DEGENERATE_RSS
    if not (allow_degenerate or ok.all()):
        bad = float(rss_b[~ok][0])
        raise DegenerateResidual(f"rss={bad:.3e} on model {tuple(model)}")
    t2 = np.full_like(theta, np.nan)
    t2[ok] = theta[ok] * theta[ok] / (unit_var * (rss_b[ok, None] / (n_eff - k)))
    return theta, theta / design.scales[list(model.indices)], rss_b, t2
