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
fresh factorization. The walk depends on the design alone, so one walk
serves a block of responses on the same design (the replicates of a
fixed-design experiment); each response's result is exactly that of its own
walk. The walk owns the default size cap ``min(p, n_effective - 1)``, which
leaves every model a residual degree of freedom, and the subset budget; a
column counts as dependent by the design module's ``RANK_TOL``.

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
    NOT_JSON,
    RANK_TOL,
    JsonFields,
    LsFit,
    ModelSet,
    Parametrization,
    StandardizedDesign,
    _cached,
    _check_indices,
    _full_rank_factor,
    ls_fit,
    rss,
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
    that situation raises :class:`DegenerateResidual`).
    """
    s1 = ModelSet.of(s1)
    if not s1:
        return Ordering(sequence=(), t_squared=())
    fit = ls_fit(design, s1, allow_degenerate=allow_degenerate)
    if fit.t_squared is not None:
        keyed = sorted(zip(s1.indices, fit.t_squared), key=lambda it: (-it[1], it[0]))
        return Ordering(
            sequence=tuple(j for j, _ in keyed),
            t_squared=tuple(float(v) for _, v in keyed),
        )
    loo = {j: rss(design, s1.minus([j])) for j in s1.indices}
    seq = sorted(s1.indices, key=lambda j: (-loo[j], j))
    return Ordering(sequence=tuple(seq), t_squared=None)


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
    if not 0.0 <= r < math.inf:
        raise ValueError(f"penalty r must be finite and nonnegative, got {r!r}")
    seq = list(ordering.sequence)
    r_empty = float(design.y0 @ design.y0)
    if not seq:
        path = np.array([r_empty])
        return GicPath(rss_path=path, values=path.copy(), selected_size=0, penalty=r)

    def build():
        # checked here: a cache hit is this very ordering, checked when built
        model = ModelSet.of(seq)
        if len(model) != len(seq):
            raise ValueError("ordering contains repeated indices")
        _check_indices(design, model)
        # a rank-deficient prefix would contribute a spurious ~0 direction
        q, rmat, perm = _full_rank_factor(design.x0[:, seq], model)
        # R back in the ordering, re-triangularized: its Q turns q into the
        # orthonormal prefix directions
        return q, np.linalg.qr(rmat[:, np.argsort(perm)])[0]

    q, q2 = _cached(design, ("path", tuple(seq)), build)
    contrib = (q2.T @ (q.T @ design.y0)) ** 2
    rss_path = np.maximum(r_empty - np.concatenate([[0.0], np.cumsum(contrib)]), 0.0)
    values = rss_path + r * np.arange(len(seq) + 1)
    selected = int(np.argmin(values))  # first minimum = smallest size on ties
    return GicPath(rss_path=rss_path, values=values, selected_size=selected, penalty=r)


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

    One depth-first walk extends the Gram-Schmidt basis once per node; each
    response then removes its own squared inner product with the new
    direction. Every result equals the one-response walk's exactly.
    """
    if not 0.0 <= r < math.inf:
        raise ValueError(f"penalty r must be finite and nonnegative, got {r!r}")
    x0 = design.x0
    n, p = x0.shape
    max_size = min(p, design.n_effective - 1 if max_size is None else max_size)
    total = sum(math.comb(p, k) for k in range(0, max_size + 1))
    EnumerationTooLarge.check(total, ENUMERATION_BUDGET, "subsets")

    ys = list(responses)
    r_empty = [float(y @ y) for y in ys]
    best_val = list(r_empty)
    best_key = [(0, ())] * len(ys)
    best_rss = list(r_empty)
    qbasis = np.zeros((n, max_size))
    stack = [0] * (max_size + 1)
    evaluated = 1  # empty model
    skipped = 0

    def visit(start: int, depth: int, cur_rss: list):
        nonlocal evaluated, skipped
        if depth == max_size:
            return
        for j in range(start, p):
            col = x0[:, j]
            w = col - qbasis[:, :depth] @ (qbasis[:, :depth].T @ col)
            w -= qbasis[:, :depth] @ (qbasis[:, :depth].T @ w)
            nw = float(np.linalg.norm(w))
            if nw <= RANK_TOL:  # unit-norm columns: the design's relative rank rule
                free = p - j - 1
                skipped += sum(
                    math.comb(free, e) for e in range(0, max_size - depth)
                )
                continue
            qbasis[:, depth] = w / nw
            q = qbasis[:, depth]
            stack[depth] = j
            size = depth + 1
            penalty = r * size
            key = (size, tuple(stack[:size]))
            evaluated += 1
            child_rss = [max(c - float(q @ y) ** 2, 0.0) for c, y in zip(cur_rss, ys)]
            for k, rss_k in enumerate(child_rss):
                val = rss_k + penalty
                if val < best_val[k] or (val == best_val[k] and key < best_key[k]):
                    best_val[k], best_key[k], best_rss[k] = val, key, rss_k
            visit(j + 1, depth + 1, child_rss)

    visit(0, 0, r_empty)
    return [
        ExhaustiveResult(
            model=ModelSet.of(key[1]),
            value=val,
            rss=rss_k,
            evaluated=evaluated,
            skipped=skipped,
        )
        for key, val, rss_k in zip(best_key, best_val, best_rss)
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
    return _sos_from_fit(
        design, penalties, solve_lasso(design, penalties.r_l, tol=tol, max_iter=max_iter)
    )


def _sos_from_fit(
    design: StandardizedDesign, penalties: PenaltyPair, fit: LassoFit
) -> SelectionOutcome:
    """:func:`run_sos` from its Lasso fit ``fit`` at ``penalties.r_l`` on
    ``design``; a fixed-design experiment solves a block of them at once."""
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
