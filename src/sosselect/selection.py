"""Ordering by t-statistics, greedy selection over nested prefixes, and
exhaustive subset search under the same information criterion.

The criterion throughout is ``crit(J) = rss(J) + r * |J|`` with a fixed
penalty ``r >= 0``. The greedy path evaluates it only on prefixes of a fixed
predictor ordering. The prefix residuals come from the design module's one
pivoted QR of the ordered columns: its R, re-ordered to the ordering and
re-triangularized by a k x k QR, gives the orthonormal prefix directions, and
each removes its squared inner product with the response. Exhaustive search
walks the subset lattice depth-first, extending a Gram-Schmidt basis by one
column per node, so every subset costs one orthogonalization instead of a
fresh factorization. Both searches serve a block of responses on one design
(the replicates of a fixed-design experiment), each response's result the
bytes of its own call: the walk depends on the design alone, so one walk
serves the block; the ordering fit factors once per screened set and the
prefix path once per ordering, and each treats its (B, n) stack of responses
by the design module's stacked-gemv rule. The public calls are blocks of
one; an empty screened set is ordered by its k = 0 fit, and an empty
ordering's path factors its (n, 0) columns, like any other.
The walk owns the default size cap ``min(p, n_effective - 1)``, which leaves
every model a residual degree of freedom, and the subset budget; a column
counts as dependent by the design module's ``RANK_TOL``.

Tie rules are exact (no tolerance): equal criterion values resolve to the
smaller model, then to the lexicographically smallest index tuple; equal
t-statistics order by ascending column index. They act on computed values:
subsets with the same span in exact arithmetic (one holds a copy of a column
of the other) can differ in the last bits of their RSS, and then need not
resolve lexicographically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .design import (
    DEGENERATE_RSS,
    NOT_JSON,
    RANK_TOL,
    JsonFields,
    LsFit,
    ModelSet,
    Parametrization,
    StandardizedDesign,
    _check_indices,
    _column_index,
    _full_rank_factor,
    _gemv_rows,
    _ls_block,
    _residual_sq,
    _thin_q,
    ls_fit,
)
from .errors import EnumerationTooLarge, ScreenTooLarge, TooManyPredictors
from .lasso import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    LassoFit,
    PenaltyPair,
    ScreenResult,
    screen,
    solve_lasso,
)

ENUMERATION_BUDGET = 1_000_000


@dataclass(frozen=True)
class Ordering(JsonFields):
    """Predictor visit order; ``t_squared`` aligns with ``sequence`` and is
    None when the order came from the zero-residual fallback."""

    sequence: tuple
    t_squared: "tuple | None" = None

    def __len__(self):
        return len(self.sequence)


def order_by_t(
    design: StandardizedDesign, s1, *, allow_degenerate: bool = False
) -> Ordering:
    """Sort the columns of ``s1`` by decreasing squared t-statistic.

    Ties break toward the smaller column index. Equivalently the sequence
    sorts the leave-one-out residuals ``rss(s1 minus j)`` in non-increasing
    order, which is also the fallback used when the full fit's residual is
    ~0 and t-statistics are undefined (``allow_degenerate=True``; otherwise
    that situation raises :class:`DegenerateResidual`). An empty ``s1``
    gives ``Ordering((), ())``.
    """
    seqs, t2 = _order_block(
        design, ModelSet.of(s1), design.y0[None], allow_degenerate=allow_degenerate
    )
    t2 = None if np.isnan(t2[0]).any() else tuple(t2[0].tolist())
    return Ordering(sequence=tuple(seqs[0].tolist()), t_squared=t2)


def _order_block(
    design: StandardizedDesign, s1: ModelSet, ys: np.ndarray, *, allow_degenerate: bool
):
    """:func:`order_by_t` of ``s1`` for each row of ``ys`` (B, n): the
    sequences (B, k) and their squared t-statistics in that order, NaN in the
    rows the leave-one-out fallback ordered (k = 0 for an empty ``s1``). One
    fit of ``s1`` serves the block."""
    _, _, rss_b, t2 = _ls_block(design, s1, ys, allow_degenerate=allow_degenerate)
    by_t = np.argsort(-t2, axis=1, kind="stable")  # a tie keeps the smaller index first
    seqs = np.array(s1.indices, dtype=int)[by_t]
    for b in np.flatnonzero(rss_b < DEGENERATE_RSS):
        loo = {j: _residual_sq(design, ys[b], s1.minus([j]).indices, strict=True) for j in s1}
        seqs[b] = sorted(s1.indices, key=lambda j: (-loo[j], j))
    return seqs, np.take_along_axis(t2, by_t, axis=1)


@dataclass(frozen=True, eq=False)
class GicPath(JsonFields):
    """Criterion values along nested prefixes of an ordering.

    ``rss_path[k]`` is the residual sum of squares of the first k columns
    (k = 0 is the empty model); ``values[k] = rss_path[k] + penalty * k``;
    ``selected_size`` is the smallest minimizer of ``values``.
    """

    rss_path: np.ndarray
    values: np.ndarray
    selected_size: int
    penalty: float


def gic_path(design: StandardizedDesign, ordering: Ordering, r: float) -> GicPath:
    """Evaluate the criterion on every prefix of ``ordering``.

    One factorization of the ordered columns yields all prefix residuals:
    the k-th orthonormal prefix direction removes ``(q_k' y0)^2`` from the
    running RSS.
    """
    rss_path, values, sizes = _path_block(design, tuple(ordering.sequence), design.y0[None], r)
    return GicPath(rss_path=rss_path[0], values=values[0], selected_size=int(sizes[0]), penalty=r)


def _path_block(design: StandardizedDesign, seq: tuple, ys: np.ndarray, r: float):
    """:func:`gic_path` of ordering ``seq`` for each row of ``ys`` (B, n):
    ``rss_path`` and ``values`` (B, k + 1) and the selected sizes (B,). One
    factorization of the ordered columns serves the block."""
    if not 0.0 <= r < math.inf:
        raise ValueError(f"penalty r must be finite and nonnegative, got {r!r}")
    model = ModelSet.of(seq)
    if len(model) != len(seq):
        raise ValueError("ordering contains repeated indices")
    _check_indices(design, model)
    # a rank-deficient prefix would contribute a spurious ~0 direction
    q, rmat, perm = _full_rank_factor(design.x0[:, list(seq)], model)
    # R back in the ordering, re-triangularized: its Q turns q into the
    # orthonormal prefix directions
    q2 = _thin_q(rmat[:, np.argsort(perm)])
    contrib = _gemv_rows(q2.T, _gemv_rows(q.T, ys)) ** 2
    removed = np.concatenate([np.zeros((len(ys), 1)), np.cumsum(contrib, axis=1)], axis=1)
    rss_path = np.maximum(np.vecdot(ys, ys)[:, None] - removed, 0.0)
    values = rss_path + r * np.arange(len(seq) + 1)
    # first minimum = smallest size on ties
    return rss_path, values, np.argmin(values, axis=1)


@dataclass(frozen=True)
class ExhaustiveResult(JsonFields):
    """Best subset under the criterion, with enumeration accounting."""

    model: ModelSet
    value: float
    rss: float
    evaluated: int
    skipped: int


def exhaustive_gic(
    design: StandardizedDesign, r: float, max_size: "int | None" = None
) -> ExhaustiveResult:
    """Minimize the criterion over all column subsets up to ``max_size``.

    The default size cap is ``min(p, n_effective - 1)``, so a model always
    keeps a residual degree of freedom. Rank-deficient subsets are skipped
    and counted (a dependent column prunes its whole depth-first subtree,
    every member of which is also dependent). Raises
    :class:`EnumerationTooLarge` when the subset count exceeds the 1e6 budget.
    """
    return _exhaustive_block(design, [design.y0], r, max_size)[0]


def _exhaustive_block(
    design: StandardizedDesign, responses, r: float, max_size: "int | None" = None
) -> list:
    """:func:`exhaustive_gic` for several responses on one design.

    One depth-first walk extends the Gram-Schmidt basis once per node; the
    whole block of responses then removes its squared inner products with the
    new direction. Every result keeps the bytes of a one-response scalar walk
    (``max(c - float(q @ y) ** 2, 0.0)``): ``np.vecdot`` runs one BLAS
    ``ddot`` per response row on the same strided ``qbasis`` column view, and
    ``np.float_power`` squares by C ``pow`` as Python's ``** 2`` does. Measured
    with numpy 2.4's OpenBLAS on x86-64, the gemv ``ys @ q`` rounds 74% of
    rows differently, a contiguous copy of ``q`` takes another ``ddot``
    kernel (76% of rows differ), and ``c * c`` differs in 1,748 of 2M values.
    """
    if not 0.0 <= r < math.inf:
        raise ValueError(f"penalty r must be finite and nonnegative, got {r!r}")
    x0 = design.x0
    n, p = x0.shape
    if max_size is not None and _column_index(max_size, "max_size") < 0:
        raise ValueError(f"max_size must be nonnegative, got {max_size!r}")
    max_size = min(p, design.n_effective - 1 if max_size is None else int(max_size))
    total = sum(math.comb(p, k) for k in range(0, max_size + 1))
    EnumerationTooLarge.check(total, ENUMERATION_BUDGET, "subsets")

    ys = np.array(responses, dtype=float)
    r_empty = np.vecdot(ys, ys)
    best_val, best_rss = r_empty.copy(), r_empty.copy()
    keys = [(0, ())]  # models that reached some response's best value
    best_at = np.zeros(len(ys), dtype=np.intp)  # each response's index into keys
    qbasis = np.zeros((n, max_size))
    stack = [0] * (max_size + 1)
    evaluated = 1  # empty model
    skipped = 0

    def visit(start: int, depth: int, cur_rss: np.ndarray):
        nonlocal evaluated, skipped
        if depth == max_size:
            return
        for j in range(start, p):
            col = x0[:, j]
            w = col - qbasis[:, :depth] @ (qbasis[:, :depth].T @ col)
            w -= qbasis[:, :depth] @ (qbasis[:, :depth].T @ w)
            nw = math.sqrt(w.dot(w))
            if nw <= RANK_TOL:  # unit-norm columns: the design's relative rank rule
                free = p - j - 1
                skipped += sum(
                    math.comb(free, e) for e in range(0, max_size - depth)
                )
                continue
            qbasis[:, depth] = w / nw
            stack[depth] = j
            size = depth + 1
            key = (size, tuple(stack[:size]))
            evaluated += 1
            child = cur_rss - np.float_power(np.vecdot(ys, qbasis[:, depth]), 2.0)
            child[0.0 > child] = 0.0  # Python's max(x, 0.0): keeps -0.0 and NaN
            val = child + r * size
            take = val <= best_val
            if np.count_nonzero(take):
                for k in (val == best_val).nonzero()[0]:  # exact ties only
                    take[k] = key < keys[best_at[k]]
                best_at[take] = len(keys)
                keys.append(key)
                best_val[take], best_rss[take] = val[take], child[take]
            visit(j + 1, depth + 1, child)

    visit(0, 0, r_empty)
    return [
        ExhaustiveResult(
            model=ModelSet.of(keys[at][1]),
            value=float(val),
            rss=float(rss_k),
            evaluated=evaluated,
            skipped=skipped,
        )
        for at, val, rss_k in zip(best_at, best_val, best_rss)
    ]


@dataclass(frozen=True, eq=False)
class SelectionOutcome(JsonFields):
    """End-to-end result of a screening/ordering/selection run."""

    algorithm: str
    mode: Parametrization
    penalties: PenaltyPair
    screen: "ScreenResult | None"  # None marks the full-model (no-screen) path
    ordering: Ordering
    path: GicPath
    selected: ModelSet
    refit: LsFit
    lasso: "LassoFit | None"
    design: StandardizedDesign = field(metadata=NOT_JSON)


def _finish(algorithm, design, penalties, scr, fit, ordering) -> SelectionOutcome:
    """Cut the ordering's criterion path and refit the selected prefix."""
    path = gic_path(design, ordering, penalties.r)
    # the ordering is a permutation of a ModelSet, so its sorted prefix is one
    selected = ModelSet._sorted(tuple(sorted(ordering.sequence[: path.selected_size])))
    return SelectionOutcome(
        algorithm=algorithm,
        mode=design.mode,
        penalties=penalties,
        screen=scr,
        ordering=ordering,
        path=path,
        selected=selected,
        refit=ls_fit(design, selected, allow_degenerate=True),
        lasso=fit,
        design=design,
    )


def _check_design(design) -> None:
    """A pipeline call takes the standardized design, not the raw data."""
    if not isinstance(design, StandardizedDesign):
        raise TypeError(
            f"expected a StandardizedDesign (see standardize), got {type(design).__name__}"
        )


def run_sos(
    design: StandardizedDesign,
    penalties: PenaltyPair,
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SelectionOutcome:
    """Screen with the Lasso, order by t-statistics, select by the criterion.

    An empty screened set short-circuits to the empty selection with a null
    refit.

    Raises
    ------
    TypeError
        If ``design`` is not a :class:`StandardizedDesign`, as in
        :func:`run_os`.
    ScreenTooLarge
        If the screened set reaches the effective sample size, so no
        ordering fit exists.
    NotConverged
        If coordinate descent hits ``max_iter`` before its certificate.
    """
    _check_design(design)
    fit = solve_lasso(design, penalties.r_l, tol=tol, max_iter=max_iter)
    scr = screen(fit)  # raises NotConverged on an uncertified fit
    if len(scr.s1) >= design.n_effective:
        raise ScreenTooLarge(f"|S1|={len(scr.s1)} >= n_effective={design.n_effective}")
    ordering = order_by_t(design, scr.s1, allow_degenerate=True)
    return _finish("sos", design, penalties, scr, fit, ordering)


def run_os(design: StandardizedDesign, penalties: PenaltyPair) -> SelectionOutcome:
    """Order all columns by t-statistics and select by the criterion.

    Requires ``p < n_effective`` and a full-rank design.
    """
    _check_design(design)
    if design.p >= design.n_effective:
        raise TooManyPredictors(
            f"p={design.p} >= n_effective={design.n_effective}; screen first"
        )
    ordering = order_by_t(design, ModelSet.full(design.p), allow_degenerate=True)
    return _finish("os", design, penalties, None, None, ordering)
