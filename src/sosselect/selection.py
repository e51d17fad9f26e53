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
walk.

Tie rules are exact (no tolerance): equal criterion values resolve to the
smaller model, then to the lexicographically smallest index tuple; equal
t-statistics order by ascending column index. They act on computed values:
subsets with the same span in exact arithmetic (one holds a copy of a column
of the other) can differ in the last bits of their RSS, and then need not
resolve lexicographically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import (
    LsFit,
    ModelSet,
    Parametrization,
    StandardizedDesign,
    _cached,
    _full_rank_factor,
    ls_fit,
    rss,
    standardize,
)
from .errors import (
    EnumerationTooLarge,
    ScreenTooLarge,
    TooManyPredictors,
)
from .lasso import LassoFit, PenaltyPair, ScreenResult, screen, solve_lasso

ENUMERATION_BUDGET = 1_000_000

# Gram-Schmidt residual norm below which a unit-norm column is declared
# dependent on the current subset (matches the design-module rank rule).
_GS_TOL = 1e-10


@dataclass(frozen=True)
class Ordering:
    """Predictor visit order; ``t_squared`` aligns with ``sequence`` and is
    None when the order came from the zero-residual fallback."""

    sequence: tuple
    t_squared: "tuple | None" = None

    def __len__(self):
        return len(self.sequence)

    def to_json_dict(self) -> dict:
        return {
            "sequence": list(self.sequence),
            "t_squared": None if self.t_squared is None else list(self.t_squared),
        }


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
class GicPath:
    """Criterion values along nested prefixes of an ordering.

    ``rss_path[k]`` is the residual sum of squares of the first k columns
    (k = 0 is the empty model); ``values[k] = rss_path[k] + penalty * k``;
    ``selected_size`` is the smallest minimizer of ``values``.
    """

    rss_path: np.ndarray
    values: np.ndarray
    selected_size: int
    penalty: float

    def to_json_dict(self) -> dict:
        return {
            "rss_path": self.rss_path.tolist(),
            "values": self.values.tolist(),
            "selected_size": self.selected_size,
            "penalty": self.penalty,
        }


def gic_path(design: StandardizedDesign, ordering: Ordering, r: float) -> GicPath:
    """Evaluate the criterion on every prefix of ``ordering``.

    One factorization of the ordered columns yields all prefix residuals:
    the k-th orthonormal prefix direction removes ``(q_k' y0)^2`` from the
    running RSS.
    """
    if r < 0:
        raise ValueError("penalty r must be nonnegative")
    seq = list(ordering.sequence)
    r_empty = float(design.y0 @ design.y0)
    if not seq:
        path = np.array([r_empty])
        return GicPath(rss_path=path, values=path.copy(), selected_size=0, penalty=r)
    model = ModelSet.of(seq)
    if len(model) != len(seq):
        raise ValueError("ordering contains repeated indices")
    if model.indices[-1] >= design.p:
        raise ValueError("ordering index out of range")

    def build():
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
class ExhaustiveResult:
    """Best subset under the criterion, with enumeration accounting."""

    model: ModelSet
    value: float
    rss: float
    evaluated: int
    skipped: int

    def to_json_dict(self) -> dict:
        return {
            "model": list(self.model.indices),
            "value": self.value,
            "rss": self.rss,
            "evaluated": self.evaluated,
            "skipped": self.skipped,
        }


def _enumeration_size(p: int, max_size: int) -> int:
    return sum(math.comb(p, k) for k in range(0, max_size + 1))


def exhaustive_gic(
    design: StandardizedDesign, r: float, max_size: "int | None" = None
) -> ExhaustiveResult:
    """Minimize the criterion over all column subsets up to ``max_size``.

    Rank-deficient subsets are skipped and counted (a dependent column
    prunes its whole depth-first subtree, every member of which is also
    dependent). Raises :class:`EnumerationTooLarge` when the subset count
    exceeds the 1e6 budget.
    """
    if max_size is None:
        max_size = min(design.p, design.n_effective)
    return _exhaustive_block(design.x0, [design.y0], r, max_size)[0]


def _exhaustive_block(x0: np.ndarray, responses, r: float, max_size: int) -> list:
    """:func:`exhaustive_gic` for several responses on one design.

    One depth-first walk extends the Gram-Schmidt basis once per node; each
    response then removes its own squared inner product with the new
    direction. Every result equals the one-response walk's exactly.
    """
    if r < 0:
        raise ValueError("penalty r must be nonnegative")
    n, p = x0.shape
    max_size = min(max_size, p)
    total = _enumeration_size(p, max_size)
    if total > ENUMERATION_BUDGET:
        raise EnumerationTooLarge(f"{total} subsets exceed budget {ENUMERATION_BUDGET}")

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
            if nw <= _GS_TOL:
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
class SelectionOutcome:
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
    design: StandardizedDesign

    def to_json_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "mode": self.mode.value,
            "penalties": {"r": self.penalties.r, "r_l": self.penalties.r_l},
            "screen": None if self.screen is None else self.screen.to_json_dict(),
            "ordering": self.ordering.to_json_dict(),
            "path": self.path.to_json_dict(),
            "selected": list(self.selected.indices),
            "refit": self.refit.to_json_dict(),
            "lasso": None if self.lasso is None else self.lasso.to_json_dict(),
        }


def _finish(design, ordering, r):
    path = gic_path(design, ordering, r)
    selected = ModelSet.of(ordering.sequence[: path.selected_size])
    refit = ls_fit(design, selected, allow_degenerate=True)
    return path, selected, refit


def run_sos(
    data,
    mode="practical",
    penalties: "PenaltyPair | None" = None,
    *,
    tol: float = 1e-8,
    max_iter: int = 10_000,
) -> SelectionOutcome:
    """Screen with the Lasso, order by t-statistics, select by the criterion.

    ``data`` may be a :class:`Dataset` or an already standardized design
    (whose mode then wins). An empty screened set short-circuits to the
    empty selection with a null refit.

    Raises
    ------
    ScreenTooLarge
        If the screened set reaches the effective sample size, so no
        ordering fit exists.
    NotConverged
        If coordinate descent hits ``max_iter`` before its certificate.
    """
    if penalties is None:
        raise ValueError("penalties are required (see default_penalties)")
    design = data if isinstance(data, StandardizedDesign) else standardize(data, mode)
    fit = solve_lasso(design, penalties.r_l, tol=tol, max_iter=max_iter)
    scr = screen(fit)  # raises NotConverged on an uncertified fit
    if len(scr.s1) >= design.n_effective:
        raise ScreenTooLarge(f"|S1|={len(scr.s1)} >= n_effective={design.n_effective}")
    ordering = order_by_t(design, scr.s1, allow_degenerate=True)
    path, selected, refit = _finish(design, ordering, penalties.r)
    return SelectionOutcome(
        algorithm="sos",
        mode=design.mode,
        penalties=penalties,
        screen=scr,
        ordering=ordering,
        path=path,
        selected=selected,
        refit=refit,
        lasso=fit,
        design=design,
    )


def run_os(
    data,
    mode="practical",
    r: "float | None" = None,
    *,
    penalties: "PenaltyPair | None" = None,
) -> SelectionOutcome:
    """Order all columns by t-statistics and select by the criterion.

    Requires ``p < n_effective`` and a full-rank design. Either a bare
    penalty ``r`` or a :class:`PenaltyPair` may be given.
    """
    if penalties is None:
        if r is None:
            raise ValueError("an ordering penalty r is required")
        penalties = PenaltyPair(r=float(r), r_l=2.0 * math.sqrt(float(r)))
    design = data if isinstance(data, StandardizedDesign) else standardize(data, mode)
    if design.p >= design.n_effective:
        raise TooManyPredictors(
            f"p={design.p} >= n_effective={design.n_effective}; screen first"
        )
    ordering = order_by_t(design, ModelSet.full(design.p), allow_degenerate=True)
    path, selected, refit = _finish(design, ordering, penalties.r)
    return SelectionOutcome(
        algorithm="os",
        mode=design.mode,
        penalties=penalties,
        screen=None,
        ordering=ordering,
        path=path,
        selected=selected,
        refit=refit,
        lasso=None,
        design=design,
    )
