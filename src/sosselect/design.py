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

Designs sharing their columns (one fixed-design block in ``simlab``) may share
a :class:`FactorCache` of that X-side work. Only ``ls_fit`` keys it on the
sorted model (``q``, ``r``, ``perm``, the diagonal of (X'X)^{-1}, the scales
slice); ``gic_path`` keys it on the ordered sequence, as pivoting depends on
column order. A hit returns the very arrays a fresh factorization computes, so
results are byte-identical; a raise is never stored. A cache serves only the
``x0`` and ``scales`` arrays it was made for; ``standardize`` attaches none.
"""

from __future__ import annotations

import csv
import enum
import json
import numbers
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Iterable

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dtrtrs

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
        idx = tuple(_column_index(j) for j in self.indices)
        if any(j < 0 for j in idx):
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
    def _sorted(cls, indices: tuple) -> "ModelSet":
        """A set of ``indices`` the caller knows to be a strictly increasing
        tuple of non-negative Python ints; skips the checks."""
        model = object.__new__(cls)
        object.__setattr__(model, "indices", indices)
        return model

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

    def __bool__(self):
        return bool(self.indices)

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
    factors : FactorCache or None
    """

    x0: np.ndarray
    y0: np.ndarray
    scales: np.ndarray
    mode: Parametrization
    factors: "FactorCache | None" = field(default=None, repr=False, metadata=NOT_JSON)

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
    if mode is Parametrization.PRACTICAL:
        xc = data.x - data.x.mean(axis=0)
    else:
        xc = data.x.copy()
    scales = np.linalg.norm(xc, axis=0)
    bad = np.nonzero(scales < _ZERO_NORM_TOL)[0]
    if bad.size:
        raise ZeroNormColumn(int(bad[0]), float(scales[bad[0]]))
    return StandardizedDesign(
        x0=xc / scales, y0=_center_response(data.y, mode), scales=scales, mode=mode
    )


def _center_response(y: np.ndarray, mode) -> np.ndarray:
    """The response half of :func:`standardize`: centered in the practical
    mode, copied in the formal one."""
    if Parametrization(mode) is Parametrization.PRACTICAL:
        return y - y.mean()
    return y.copy()


def _check_indices(design: StandardizedDesign, model: ModelSet) -> None:
    if model and model.indices[-1] >= design.p:
        raise ValueError(f"column index {model.indices[-1]} out of range for p={design.p}")


def _factor(x: np.ndarray):
    """The one factorization: pivoted thin QR ``x[:, perm] = q @ r`` and the
    numerical rank, the count of ``|r_kk| > RANK_TOL * |r_00|``."""
    q, r, perm = scipy.linalg.qr(x, mode="economic", pivoting=True)
    d = np.abs(np.diag(r))
    rank = int(np.sum(d > RANK_TOL * d[0])) if d.size and d[0] > 0.0 else 0
    return q, r, perm, rank


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


class FactorCache(dict):
    """X-side least-squares work on one design's ``x0`` and ``scales``."""

    def __init__(self, design: StandardizedDesign):
        super().__init__()
        self.x0, self.scales = design.x0, design.scales


def _cached(design: StandardizedDesign, key, build):
    """``build()``, kept under ``key`` in the design's cache if that cache
    was made for this very ``x0`` and ``scales``."""
    cache = design.factors
    if cache is None or cache.x0 is not design.x0 or cache.scales is not design.scales:
        return build()
    if key not in cache:
        cache[key] = build()
    return cache[key]


def _ls_factors(design: StandardizedDesign, model: ModelSet):
    """``q, r, perm``, the diagonal of (X'X)^{-1} and the scales of a
    non-empty model."""

    def build():
        q, r, perm = _full_rank_factor(design.columns(model), model)
        rinv = _solve_upper(r, np.eye(len(model)))
        unit_var = np.empty(len(model))
        unit_var[perm] = np.sum(rinv * rinv, axis=1)
        return q, r, perm, unit_var, design.scales[list(model.indices)]

    return _cached(design, ("ls", model.indices), build)


def _residual_sq(design: StandardizedDesign, v: np.ndarray, cols, *, strict: bool = False) -> float:
    """||v - proj_span(columns)||^2 over the :func:`span_basis` of the
    columns in the given order; dependent columns raise
    :class:`RankDeficient` with ``strict`` and are tolerated without."""
    cols = list(cols)
    if not cols:
        return float(v @ v)
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
    _check_indices(design, model)
    k = len(model)
    n_eff = design.n_effective
    if k >= n_eff:
        raise TooManyPredictors(f"|model|={k} but n_effective={n_eff}")
    if k == 0:
        r0 = float(design.y0 @ design.y0)
        return LsFit(model, np.zeros(0), np.zeros(0), r0, n_eff, np.zeros(0))
    q, rmat, perm, unit_var, scales = _ls_factors(design, model)
    qty = q.T @ design.y0
    theta = np.empty(k)
    theta[perm] = _solve_upper(rmat, qty, check_r=False)  # checked by _ls_factors
    resid = design.y0 - q @ qty
    rss_val = float(resid @ resid)
    df = n_eff - k
    if rss_val < DEGENERATE_RSS:
        if not allow_degenerate:
            raise DegenerateResidual(f"rss={rss_val:.3e} on model {tuple(model)}")
        t2 = None
    else:
        t2 = theta * theta / (unit_var * (rss_val / df))
    return LsFit(model, theta, theta / scales, rss_val, df, t2)
