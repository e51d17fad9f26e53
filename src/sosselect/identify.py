"""Identifiability margins and restricted eigenvalues of a design.

Two families of quantities are computed for a sparse truth
``theta_star`` supported on ``T``:

* projection margins ``delta``: the squared distance between the true mean
  ``X0_T theta_star`` and the span of a competing column set. Scaled
  variants minimize over supersets of T of a given size with one true
  column removed; the identifiability margin minimizes over all small sets
  that miss part of T.
* restricted eigenvalues ``kappa^2(J, c)``: the minimum of ``nu' Sigma nu``
  over unit ``||nu_J||`` and the cone ``|nu_Jc|_1 <= c |nu_J|_1``. This is
  non-convex jointly, so it is estimated by alternating minimization (exact
  convex step in ``nu_Jc`` via accelerated projected gradient, normalized
  gradient steps in ``nu_J``) from many restarts, batched across restarts,
  subsets and every estimate of a report: equal searches run once, a start
  row drawn several times runs once with its count as weight, and all
  searches of one size run in one pass. Every estimate is asked for by one
  request builder, which routes each witness (finite, of length p) to a
  subset. The l1-ball projection is exact; the search skips it when a
  certified row sum puts every row inside its ball.
  Certified envelopes accompany every estimate: ``lambda_min(Sigma)`` from
  below, ``lambda_min(Sigma_J)`` (the c = 0 value, also the estimate's
  initialization) from above.

The estimate is an upper bound of the true minimum (it is the value of a
feasible point), so inequality checks that place it on the small side are
seeded with the construction witnessing the corresponding proof; this keeps
those checks one-sided: they cannot fail merely because a restart wandered.
Every inequality check, here and in ``lasso``, allows the relative fp slack
of ``_le``. Each enumeration budget has one guard, checked before the work
starts; :func:`check_propositions` checks all of its budgets first.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .design import (
    JsonFields,
    ModelSet,
    StandardizedDesign,
    _check_indices,
    _column_index,
    _residual_sq,
)
from .errors import EnumerationTooLarge

DELTA_BUDGET = 1_000_000
KAPPA_BUDGET = 10_000
# rows (start rows plus rows of Sigma's off-J block) searched at once; bounds
# the working set of kappa_uniform to a few MB per array at any C(p, s)
_KAPPA_BLOCK_ROWS = 4096

_EIG_CLIP = 0.0  # eigenvalues of gram matrices are >= 0 up to fp noise
_EPS = float(np.finfo(float).eps)
_SLACK = 1e-9  # relative fp slack of every inequality check
_V_ITERS = 40  # accelerated projected-gradient steps per off-J update
# FISTA's momentum (t_k - 1) / t_{k+1} per step; t_k restarts at 1 every round
_MOMENTUM = tuple(
    (t_k - 1.0) / t_next
    for t_k, t_next in itertools.pairwise(itertools.accumulate(
        range(_V_ITERS), lambda t, _: 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t)), initial=1.0
    ))
)
_MAX_OUTER = 50  # alternating rounds before a subset's search stops
DEFAULT_RESTARTS = 64  # start rows of each restricted-eigenvalue search


@dataclass(frozen=True, eq=False)
class TruthSpec(JsonFields):
    """True support and coefficients (both scales) plus noise variance."""

    support: ModelSet
    beta_star: np.ndarray
    theta_star: np.ndarray
    sigma2: float = 1.0

    def __post_init__(self):
        beta = np.asarray(self.beta_star, dtype=float).ravel()
        theta = np.asarray(self.theta_star, dtype=float).ravel()
        if len(self.support) == 0:
            raise ValueError("true support must be nonempty")
        if beta.shape[0] != len(self.support) or theta.shape[0] != len(self.support):
            raise ValueError("coefficient arrays must align with the support")
        if np.any(beta == 0.0) or np.any(theta == 0.0):
            raise ValueError("support coefficients must be nonzero")
        if not (np.isfinite(beta).all() and np.isfinite(theta).all()):
            raise ValueError("support coefficients must be finite")
        if not 0.0 <= self.sigma2 < math.inf:  # a NaN sigma2 fails too
            raise ValueError(f"sigma2 must be nonnegative and finite, got {self.sigma2!r}")
        object.__setattr__(self, "beta_star", beta)
        object.__setattr__(self, "theta_star", theta)

    @classmethod
    def from_beta(cls, design: StandardizedDesign, support, beta_values, sigma2=1.0):
        """The truth whose coefficient on column ``support[k]`` is
        ``beta_values[k]``, with the support in any order. A repeated,
        out-of-range or non-integer index raises ValueError."""
        idx = [_column_index(j) for j in support]
        beta = np.asarray(beta_values, dtype=float).ravel()
        if len(set(idx)) < len(idx):
            raise ValueError("support repeats an index")
        if any(not 0 <= j < design.p for j in idx):
            raise ValueError(f"support indices must lie in 0..{design.p - 1}, got {idx}")
        if beta.shape[0] != len(idx):
            raise ValueError("coefficient arrays must align with the support")
        support, beta = ModelSet(tuple(sorted(idx))), beta[np.argsort(idx)]
        theta = beta * design.scales[list(support.indices)]
        return cls(support=support, beta_star=beta, theta_star=theta, sigma2=float(sigma2))

    @property
    def t(self) -> int:
        return len(self.support)

    @property
    def theta_min(self) -> float:
        return float(np.min(np.abs(self.theta_star)))

    def full_theta(self, p: int) -> np.ndarray:
        out = np.zeros(p)
        out[list(self.support.indices)] = self.theta_star
        return out


def _le(lhs: float, rhs: float) -> bool:
    """``lhs <= rhs`` up to the relative fp slack ``_SLACK``."""
    return bool(lhs <= rhs + _SLACK * max(1.0, abs(rhs)))


def _guard_competitors(p: int, t: int) -> None:
    total = sum(math.comb(p, k) for k in range(0, t + 1))
    EnumerationTooLarge.check(total, DELTA_BUDGET, "competitors")


def _guard_scaled(p: int, t: int, s: int) -> None:
    EnumerationTooLarge.check(math.comb(p - t, s - t) * t, DELTA_BUDGET, "projections")


def _guard_subsets(p: int, s: int) -> None:
    EnumerationTooLarge.check(math.comb(p, s), KAPPA_BUDGET, "subsets")


def _signal(design: StandardizedDesign, truth: TruthSpec) -> np.ndarray:
    return design.columns(truth.support) @ truth.theta_star


def delta_pair(design: StandardizedDesign, truth: TruthSpec, competitor) -> float:
    """Squared distance from the true mean to the competitor's column span.

    Zero exactly when the competitor's span contains the true mean (e.g.
    any superset of the support). The competitor must be full rank (or
    empty); rank-deficient sets raise :class:`RankDeficient`.
    """
    comp = ModelSet.of(competitor)
    _check_indices(design, comp)
    return _residual_sq(design, _signal(design, truth), comp.indices, strict=True)


def delta_scaled(design: StandardizedDesign, truth: TruthSpec, s: int) -> float:
    """Margin of the hardest one-true-column deletion among supersets of T
    of size at most ``s``.

    Projections onto a span only shrink distances as the span grows, so the
    minimum over sizes <= s is attained at size exactly s; only extensions
    ``E`` of size ``s - t`` are enumerated.
    """
    return delta_scaled_argmin(design, truth, s)[0]


def delta_scaled_argmin(design: StandardizedDesign, truth: TruthSpec, s: int):
    """Like :func:`delta_scaled` but also returns the minimizing (j, J)."""
    t, p, s = truth.t, design.p, _column_index(s, "s")
    if not t <= s <= p:
        raise ValueError(f"need t={t} <= s <= p={p}, got s={s}")
    _guard_scaled(p, t, s)
    others = [j for j in range(p) if j not in truth.support]
    v = _signal(design, truth)
    best = (math.inf, None, None)
    tset = truth.support.indices
    for extra in itertools.combinations(others, s - t):
        for j in tset:
            keep = [i for i in tset if i != j] + list(extra)
            val = _residual_sq(design, v, keep)
            if val < best[0]:
                best = (val, j, tuple(sorted(keep)))
    return best


def _competitor_margins(design: StandardizedDesign, truth: TruthSpec) -> dict:
    """Margin against every competing set of size <= t other than T."""
    v = _signal(design, truth)
    return {
        ModelSet(combo): _residual_sq(design, v, combo)
        for size in range(0, truth.t + 1)
        for combo in itertools.combinations(range(design.p), size)
        if combo != truth.support.indices
    }


def delta_identifiability(design: StandardizedDesign, truth: TruthSpec) -> float:
    """Smallest margin against any competing set of size <= t missing truth.

    Also cross-checks the chain ``delta(T, p) <= delta(T)`` (projection
    monotonicity); a violation beyond fp slack means a defect and raises.
    """
    _guard_competitors(design.p, truth.t)
    best = min(_competitor_margins(design, truth).values())
    d_p = delta_scaled(design, truth, design.p)
    if not _le(d_p, best):
        raise AssertionError(
            f"delta(T,p)={d_p} exceeds delta(T)={best}; projection chain broken"
        )
    return best


@dataclass(frozen=True)
class KappaEstimate(JsonFields):
    """Restricted-eigenvalue estimate with certified envelopes.

    ``value`` estimates ``kappa^2`` from above (it is a feasible objective);
    ``lower_cert <= true kappa^2 <= value`` always, and
    ``true kappa^2 <= upper_cert`` (the cone contains the c = 0 slice).
    """

    value: float
    lower_cert: float
    upper_cert: float
    restarts: int
    converged_fraction: float

    @property
    def kappa(self) -> float:
        return math.sqrt(max(self.value, 0.0))

    def to_json_dict(self) -> dict:
        return {**super().to_json_dict(), "kappa": self.kappa}


def _shortcut_bound(radii: np.ndarray, q: int) -> np.ndarray:
    """Row sums of q magnitudes at or under this bound, summed in any order,
    put numpy's ``sum(|row|)`` at or under ``radii``.

    Summed in any order, q terms >= 0 with exact sum S give fl(S) within
    S (1 -+ g), g = (q-1) u / (1 - (q-1) u), u = eps / 2 (additions never err
    by underflow). So numpy's sum is at most another order's sum times
    (1+g)/(1-g) = 1 / (1 - (q-1) eps), and a sum at most radius
    (1 - (q-1) eps) puts the row's numpy sum at or below its radius. The
    bound radius (1 - 4 q eps) stays under that after its two roundings
    unless the product is subnormal; then every sum at or under it is below
    2^-1021, where sums of q terms are exact in any order."""
    return radii * (1.0 - 4 * q * _EPS)


def _project_l1_rows(v: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Project each row of v (its last axis) onto the l1 ball of the matching
    radius; leading axes are flattened into rows and restored.

    A row is moved exactly when numpy's ``sum(|row|)`` exceeds its radius;
    when none is, v is returned as is. The search skips the call when a BLAS
    row sum puts every row under its ``_shortcut_bound``."""
    shape = v.shape
    q = shape[-1]
    v = v.reshape(-1, q)
    radii = radii.reshape(-1)
    a = np.abs(v)
    over = a.sum(axis=1) > radii
    if not over.any():
        return v.reshape(shape)
    out = v.copy()
    rows = np.nonzero(over)[0]
    s = -np.sort(-a[rows], axis=1)
    css = np.cumsum(s, axis=1)
    ks = np.arange(1, q + 1)
    keep = s > (css - radii[rows, None]) / ks
    kmax = np.maximum(keep.sum(axis=1), 1)
    tau = (css[np.arange(len(rows)), kmax - 1] - radii[rows]) / kmax
    tau = np.maximum(tau, 0.0)
    out[rows] = np.sign(v[rows]) * np.maximum(a[rows] - tau[:, None], 0.0)
    return out.reshape(shape)


def _batched_objective(u, v, s_jj, s_oj, s_oo):
    """``nu' Sigma nu`` per row, for row stacks (B, m, .) of B subsets."""
    quad_u = np.einsum("bij,bij->bi", u @ s_jj, u)
    cross = np.einsum("bij,bij->bi", v @ s_oj, u)
    quad_v = np.einsum("bij,bij->bi", v @ s_oo, v)
    return quad_u + 2.0 * cross + quad_v


def _lam_min(sigma: np.ndarray) -> float:
    return float(max(scipy.linalg.eigvalsh(sigma)[0], _EIG_CLIP))


def _restart_rows(k: int, restarts: int):
    """On-J start directions shared by every subset of size k, drawn as
    ``restarts`` rows, random sign patterns then random Gaussian directions
    (seed 97531), and returned as the distinct rows in first-drawn order with
    how many times each was drawn.

    ``restarts // 2`` sign rows hold at most 2^k distinct rows, so they
    repeat when 2^k < restarts / 2: at k = 2 and 64 restarts the draw holds
    36 distinct rows, at k = 1 at most two (the rows +1 and -1)."""
    rng = np.random.default_rng(97531)
    half = restarts // 2
    signs = rng.choice([-1.0, 1.0], size=(half, k)) / math.sqrt(k)
    gauss = rng.standard_normal((restarts - half, k))
    gauss /= np.linalg.norm(gauss, axis=1, keepdims=True)
    rows = np.vstack([signs, gauss])
    _, first, counts = np.unique(
        rows.view(f"V{rows.itemsize * k}").ravel(), return_index=True, return_counts=True
    )
    order = np.argsort(first)
    return rows[first[order]], counts[order]


def _witness_rows(jj, others, c, extra_starts):
    """Witness vectors split into a stack of on-J rows of unit norm and one
    of off-J rows projected into the cone; witnesses vanishing on J are
    dropped, so the stacks may have 0 rows."""
    eu, ev = [], []
    for nu in extra_starts or ():
        nj = float(np.linalg.norm(nu[jj]))
        if nj <= 0:
            continue
        eu.append(nu[jj] / nj)
        ev.append(nu[others] / nj)
    eu = np.reshape(eu, (len(eu), len(jj)))
    ev = np.reshape(ev, (len(ev), len(others)))
    return eu, _project_l1_rows(ev, c * np.abs(eu).sum(axis=1))  # feasible at fp edges


def _alternating_min(u, v, s_jj, s_oj, s_oo, top_v, lam_j, c, weight):
    """Alternating minimization of ``nu' Sigma nu`` for B searches at once.

    ``u`` (B, m, k) and ``v`` (B, m, q) hold each search's m start rows on and
    off J, ``top_v`` (B,) the largest eigenvalue of its Sigma_JcJc (half the
    Lipschitz constant of the off-J gradient) and ``c`` (B, 1) its cone
    constant. ``weight`` (B, m) counts how many start rows each row stands
    for: a row drawn several times runs once, and padding rows weigh 0. A
    search leaves the active set after the first outer iteration in which
    none of its rows improved. Returns each search's best objective and the
    weighted fraction of its rows that had stopped improving.
    """
    n_sub, m, q = u.shape[0], u.shape[1], v.shape[2]
    best_out = np.empty(n_sub)
    frac_out = np.empty(n_sub)
    live = np.arange(n_sub)
    top = top_v[:, None, None]
    eta0 = np.array([0.5 / max(lam, 1e-6) for lam in lam_j])
    ones = np.ones(q)

    v = v.copy()  # its buffer is reused below; the caller's array is not
    best = _batched_objective(u, v, s_jj, s_oj, s_oo)
    prev = best.copy()
    improving = np.ones((n_sub, m), dtype=bool)
    for _ in range(_MAX_OUTER):
        # exact convex step in the off-J block (accelerated projected gradient,
        # step 1 / (2 top) on the gradient 2 (u Sigma_JJc + z Sigma_JcJc)), in
        # buffers made once per round: w and v swap after each step
        radii = c * np.abs(u).sum(axis=2)
        bound = _shortcut_bound(radii, q).ravel()
        u_soj = u @ s_oj.transpose(0, 2, 1)
        # (2 g) / (2 top) and g / top round the same quotient, broadcast or not
        tops = np.broadcast_to(top, v.shape).copy()
        z, w, mag, sums = v.copy(), np.empty_like(v), np.empty(v.shape), np.empty(bound.size)
        mag_rows = mag.reshape(-1, q)

        def project(a, radii, bound):
            # the projection runs only when a row may leave its ball, and
            # then returns a or a projected copy
            np.abs(a, out=mag)
            if np.count_nonzero(np.dot(mag_rows, ones, out=sums) > bound):
                return _project_l1_rows(a, radii)
            return a

        for coef in _MOMENTUM:
            np.matmul(z, s_oo, out=w)
            w += u_soj
            w /= tops
            np.subtract(z, w, out=w)
            w = project(w, radii, bound)
            np.subtract(w, v, out=z)
            z *= coef
            z += w
            v, w = w, v
        v = project(v, radii, bound)

        # normalized gradient steps in the on-J block, with backtracking; v
        # stays fixed through them, so its product with Sigma_JcJ is made
        # once, and u's product with Sigma_JJ moves along with u
        v_soj = v @ s_oj

        def h(uu, uu_s):
            val = np.einsum("bij,bij->bi", uu_s, uu)
            val += 2.0 * np.einsum("bij,bij->bi", v_soj, uu)
            return val

        eta = np.repeat(eta0[:, None], m, axis=1)
        us = u @ s_jj
        hu = h(u, us)
        for _ in range(4):
            grad_u = 2.0 * (us + v_soj)
            cand = u - eta[:, :, None] * grad_u
            # np.linalg.norm(cand, axis=2, keepdims=True), without its wrapper
            norms = np.sqrt(np.add.reduce(cand * cand, axis=2, keepdims=True))
            cand = np.where(norms > 1e-12, cand / np.where(norms > 0, norms, 1.0), u)
            cand_s = cand @ s_jj
            hc = h(cand, cand_s)
            better = hc < hu
            keep = better[:, :, None]
            u, us = np.where(keep, cand, u), np.where(keep, cand_s, us)
            hu = np.where(better, hc, hu)
            eta = np.where(better, eta, eta * 0.25)
        # u moved: re-fit the off-J block budget before scoring
        radii = c * np.abs(u).sum(axis=2)
        v = project(v, radii, _shortcut_bound(radii, q).ravel())

        cur = _batched_objective(u, v, s_jj, s_oj, s_oo)
        best = np.minimum(best, cur)
        improving = (prev - cur) > 1e-10 * np.maximum(prev, 1.0)
        prev = cur
        going = improving.any(axis=1)
        if going.all():
            continue
        done = ~going
        best_out[live[done]] = best[done].min(axis=1)
        frac_out[live[done]] = 1.0
        if not going.any():
            return best_out, frac_out
        live = live[going]
        u, v, best, prev, improving = (a[going] for a in (u, v, best, prev, improving))
        s_jj, s_oj, s_oo, top, eta0, c, weight = (
            a[going] for a in (s_jj, s_oj, s_oo, top, eta0, c, weight)
        )
    best_out[live] = best.min(axis=1)
    frac_out[live] = (weight * ~improving).sum(axis=1) / weight.sum(axis=1)
    return best_out, frac_out


def _subset_eigh(sigma, jj):
    """The Gram block Sigma_JJ, its clipped smallest eigenvalue and a unit
    eigenvector for it; the only eigen-decomposition of a Sigma_JJ block."""
    sub = sigma[np.ix_(jj, jj)]
    evals, evecs = scipy.linalg.eigh(sub)
    return sub, float(max(evals[0], _EIG_CLIP)), evecs[:, 0]


def _estimate(design, requests) -> list:
    """Answer estimate requests ``(subsets, c, restarts, routed)`` at once;
    each asks for ``min over J in subsets of kappa^2(J, c)`` over equal-size
    subsets J, with ``routed`` mapping a subset's position to its witnesses.

    With c = 0 or J every column the cone is the c = 0 slice, so each
    subset's value is exactly ``lambda_min(Sigma_JJ)`` and no restart runs.
    Otherwise each subset is one search, started from the distinct restart
    directions of its size (each weighted by how often it was drawn) plus
    its own leading eigenvector and witnesses. Equal searches (same J, c,
    restarts and witness rows) run once, whichever requests ask for them.
    Searches of the same size run as one batch, in blocks of at most
    ``_KAPPA_BLOCK_ROWS`` rows (start rows of the largest search plus rows
    of Sigma's off-J block, per search); within a block, each search's start
    rows are padded to the block's count with copies of its eigenvector row
    of weight 0. Searches share no arithmetic, so batching changes no
    result. Padding and running a repeated row once change none either as
    long as each product rounds a row alone, the same at any position and
    row count: with numpy 2.4's OpenBLAS 0.3.31 on x86-64 under the SkylakeX
    and Haswell kernels that holds while a search's off-J rows have under 8
    entries at size 1 and under 16 at larger sizes. Past that, BLAS can round
    a row differently at another position or row count, and a value can move
    by a few ulps (1 to 4 seen at size 1 with 8 to 11 off-J columns; under
    Sandybridge 1 to 2 already with 5 and 7). ``lambda_min`` of Sigma
    and of each Sigma_JJ is computed once per call, and each request's
    estimate is folded over its own subsets, in their order.
    """
    p, sigma = design.p, design.gram
    lam_full = _lam_min(sigma)
    bases, groups, plans, best, frac = {}, {}, [], {}, {}
    eighs = {jj: _subset_eigh(sigma, jj) for jj in {tuple(j) for r in requests for j in r[0]}}
    for subsets, c, restarts, routed in requests:
        k = len(subsets[0])
        if c == 0.0 or k == p:
            plans.append(None)
            continue
        if (k, restarts) not in bases:
            bases[k, restarts] = _restart_rows(k, restarts)
        (base, counts), keys = bases[k, restarts], []
        for pos, jj in enumerate(subsets):
            others = [i for i in range(p) if i not in jj]
            eu, ev = _witness_rows(jj, others, c, routed.get(pos))
            key = (tuple(jj), c, restarts, eu.tobytes(), ev.tobytes())
            # the key fixes the size, so equal searches meet in one dict
            start = (len(base) + 1 + len(eu), others, base, counts, eu, ev)
            groups.setdefault(k, {}).setdefault(key, start)
            keys.append(key)
        plans.append(keys)

    for k, members in groups.items():
        members = list(members.items())
        most = max(start[0] for _, start in members)
        per_block = max(_KAPPA_BLOCK_ROWS // (most + p - k), 1)
        for lo in range(0, len(members), per_block):
            block = members[lo : lo + per_block]
            m = max(start[0] for _, start in block)
            s_jj, s_oj, s_oo, top_v, lam_j, u0, v0 = [], [], [], [], [], [], []
            weight = np.zeros((len(block), m), dtype=int)
            for b, ((jj, *_), (rows, others, base, counts, eu, ev)) in enumerate(block):
                sub, lam, vec = eighs[jj]
                s_jj.append(sub)
                lam_j.append(lam)
                pad = m - rows  # eigenvector copies of weight 0 after the real rows
                u0.append(np.vstack([base, vec[None, :], eu, np.tile(vec, (pad, 1))]))
                v0.append(np.zeros((m, p - k)))
                v0[-1][len(base) + 1 : rows] = ev
                weight[b, : len(base)] = counts
                weight[b, len(base) : rows] = 1
                s_oj.append(sigma[np.ix_(others, jj)])
                s_oo.append(sigma[np.ix_(others, others)])
                top_v.append(float(max(scipy.linalg.eigvalsh(s_oo[-1])[-1], 1e-12)))
            cs = np.array([[key[1]] for key, _ in block], dtype=float)
            vals, fracs = _alternating_min(
                np.stack(u0), np.stack(v0), np.stack(s_jj), np.stack(s_oj),
                np.stack(s_oo), np.array(top_v), np.array(lam_j), cs, weight,
            )
            vals = np.maximum(vals, lam_full)  # can't undercut the global floor
            for (key, _), val, fr in zip(block, vals, fracs):
                best[key], frac[key] = val, fr

    out = []
    for (subsets, _, restarts, _), keys in zip(requests, plans):
        uppers = np.array([eighs[tuple(jj)][1] for jj in subsets])
        if keys is None:
            values, fracs, restarts = uppers, np.ones(1), 0
        else:
            values = np.array([best[key] for key in keys])
            fracs = np.array([frac[key] for key in keys])
        # a searched value is floored at lam_full; an exact one is a second
        # LAPACK route to the same number and may sit a few ulps below it
        value = float(values.min())
        out.append(KappaEstimate(
            value, min(lam_full, value), float(uppers.min()), restarts, float(np.mean(fracs))
        ))
    return out


def _check_search(c, restarts) -> int:
    """``restarts`` as an int, once it and the cone constant ``c`` are valid."""
    restarts = _column_index(restarts, "restarts")
    if not c >= 0 or restarts < 1:  # a NaN c fails too
        raise ValueError(f"need cone constant c >= 0 and restarts >= 1, got {c}, {restarts}")
    return restarts


def _subsets(p: int, s: int, name: str) -> list:
    """Every size-``min(s, p)`` column subset, in lexicographic order, once
    ``s`` is an integer >= 1 (``name`` in the error) and the subset budget
    are checked."""
    s = min(_column_index(s, name), p)
    if s < 1:
        raise ValueError(f"{name} must be >= 1")
    _guard_subsets(p, s)
    return list(itertools.combinations(range(p), s))


def _request(design, subsets, c, restarts, extra_starts):
    """The estimate request for ``min over J in subsets of kappa^2(J, c)``,
    once ``c``, ``restarts`` and the witnesses are valid: each witness a
    finite vector of length p. A witness is routed to the subset holding its
    |J| largest-magnitude coordinates (ties to the smaller index), or to the
    first subset when none does, so one subset takes every witness."""
    p, restarts = design.p, _check_search(c, restarts)
    witnesses = [np.asarray(nu, dtype=float) for nu in extra_starts or ()]
    if not all(nu.shape == (p,) and np.isfinite(nu).all() for nu in witnesses):
        raise ValueError(f"extra_starts must hold finite vectors of length p={p}")
    position = {tuple(jj): pos for pos, jj in enumerate(subsets)}
    routed: dict = {}
    for nu in witnesses:
        top = np.lexsort((np.arange(p), -np.abs(nu)))[: len(subsets[0])]
        routed.setdefault(position.get(tuple(sorted(top.tolist())), 0), []).append(nu)
    return [list(jj) for jj in subsets], c, restarts, routed


def kappa(
    design: StandardizedDesign,
    j_set,
    c: float,
    *,
    restarts: int = DEFAULT_RESTARTS,
    extra_starts=None,
) -> KappaEstimate:
    """Estimate ``kappa^2(J, c)`` by batched alternating minimization.

    Restarts initialize the on-J block with random sign patterns and random
    directions (off-J block zero); `extra_starts` adds full-length witness
    vectors whose initial objective is recorded before any optimization, so
    the returned value never exceeds a supplied witness's objective. The
    ``c = 0`` case (and J every column) is an exact eigenvalue problem and
    skips optimization. ``restarts`` must be at least 1 and every witness a
    finite vector of length p.
    """
    j_set = ModelSet.of(j_set)
    if not j_set:
        raise ValueError("J must be nonempty")
    _check_indices(design, j_set)
    return _estimate(design, [_request(design, [j_set.indices], c, restarts, extra_starts)])[0]


def min_subset_eigen(design: StandardizedDesign, size: int):
    """Smallest eigenvalue over all size-``size`` column subsets.

    Returns (value, subset, full-length eigenvector). Enumeration is guarded
    by the same budget as :func:`kappa_uniform`.
    """
    best = (math.inf, None, None)
    for combo in _subsets(design.p, size, "size"):
        _, lam, vec_j = _subset_eigh(design.gram, combo)
        if lam < best[0]:
            vec = np.zeros(design.p)
            vec[list(combo)] = vec_j
            best = (lam, ModelSet.of(combo), vec)
    return best


def kappa_uniform(
    design: StandardizedDesign,
    s: int,
    c: float,
    *,
    restarts: int = DEFAULT_RESTARTS,
    extra_starts=None,
) -> KappaEstimate:
    """Estimate ``kappa^2(s, c) = min over |J| = s of kappa^2(J, c)``.

    The quantity is non-increasing in s, so enumerating size exactly s
    covers all smaller sizes. Witness vectors in ``extra_starts``, each
    finite and of length p, are routed to the subset holding their s
    largest-magnitude coordinates.
    """
    subsets = _subsets(design.p, s, "s")
    return _estimate(design, [_request(design, subsets, c, restarts, extra_starts)])[0]


def _prop5_witness(design, truth, kept):
    """Vector with the margin projection's residual coefficients.

    For the minimizing deletion of true column j within a superset J, the
    residual ``X0_T theta - proj`` equals ``X0 nu`` for nu carrying
    theta_star on T and minus the projection coefficients on J minus j; its
    restricted objective links the margin to the restricted eigenvalue.
    """
    keep = list(kept)
    nu = truth.full_theta(design.p)
    nu[keep] -= np.linalg.lstsq(design.x0[:, keep], _signal(design, truth), rcond=None)[0]
    return nu


@dataclass(frozen=True, eq=False)
class IdentifiabilityReport:
    """Margins, restricted eigenvalues and inequality flags for a truth."""

    truth: TruthSpec
    delta_t: float
    delta_p: float
    delta_scaled: dict
    delta_pairwise: dict
    kappa_support: KappaEstimate
    kappa_uniform_t: KappaEstimate
    flags: dict = field(default_factory=dict)

    @property
    def all_flags_ok(self) -> bool:
        return all(ok for ok in self.flags.values() if ok is not None)

    def to_json_dict(self) -> dict:
        return {
            "truth": self.truth.to_json_dict(),
            "delta_identifiability": self.delta_t,
            "delta_full": self.delta_p,
            "delta_scaled": {str(s): v for s, v in sorted(self.delta_scaled.items())},
            "delta_pairwise": [
                {"model": list(m.indices), "value": v}
                for m, v in sorted(self.delta_pairwise.items(), key=lambda kv: kv[0].indices)
            ],
            "kappa_support": self.kappa_support.to_json_dict(),
            "kappa_uniform_t": self.kappa_uniform_t.to_json_dict(),
            "flags": dict(self.flags),
        }


def check_propositions(
    design: StandardizedDesign,
    truth: TruthSpec,
    *,
    restarts: int = DEFAULT_RESTARTS,
) -> IdentifiabilityReport:
    """Compute the identifiability report and verify the cross-quantity
    inequalities that tie margins to restricted eigenvalues.

    Flags (all should be True on any design):

    * ``eigenvalue_lower``: every pairwise margin is at least
      ``lambda_min(Sigma over J union T) * ||theta outside J||^2``.
    * ``cone_collapse``: estimated ``kappa^2(s, c)`` is at most
      ``(floor(c)+1) * min-subset-eigenvalue at size (floor(c)+1) s``,
      checked at (s, c) = (t, 3) and (t, 1).
    * ``margin_support`` : ``kappa^2(T,3) * theta_min^2 <= delta(T, t)``.
    * ``margin_uniform``: ``kappa^2(t,3) * theta_min^2 <= 4 delta(T, 4t)``.
    * ``scale_chain``: ``delta(T, p) <= delta(T)``.

    ``restarts >= 1`` and every budget that raises (competitors, each scaled
    size, the size-t subsets) are checked before any enumeration runs; a
    cone-collapse size over budget only skips that check, and each distinct
    cone-collapse size is enumerated once. When both cone-collapse checks are
    skipped, ``cone_collapse`` is None (JSON null), not True, and
    ``all_flags_ok`` passes over it.
    """
    p, t = design.p, truth.t
    sizes = range(t, min(4 * t, p) + 1)
    _check_search(3.0, restarts)
    _guard_competitors(p, t)
    for s in sizes:
        _guard_scaled(p, t, s)
    _guard_subsets(p, t)
    pairwise = _competitor_margins(design, truth)
    delta_t_val = min(pairwise.values())

    argmins = {s: delta_scaled_argmin(design, truth, s) for s in sizes}
    scaled = {s: val for s, (val, _, _) in argmins.items()}
    delta_p_val = scaled[p] if p in scaled else delta_scaled(design, truth, p)

    flags = {}

    def lower_ok(m, val):
        union = sorted(set(m.indices) | set(truth.support.indices))
        lam = _lam_min(design.gram[np.ix_(union, union)])
        outside = [i for i, j in enumerate(truth.support.indices) if j not in m]
        return _le(lam * float(np.sum(truth.theta_star[outside] ** 2)), val)

    flags["eigenvalue_lower"] = all(lower_ok(m, val) for m, val in pairwise.items())

    # margin witnesses: residual-coefficient vectors of the minimizing
    # deletions; cone-collapse witnesses: smallest-eigenvalue subset vectors.
    # Every estimate of the report is answered by one batched search.
    s_here, s4 = min(t, p), min(4 * t, p)
    witness = [_prop5_witness(design, truth, argmins[s][2]) for s in (s_here, s4)]
    uniform = _subsets(p, t, "t")
    requests = [
        _request(design, [truth.support.indices], 3.0, restarts, witness[:1]),
        _request(design, uniform, 3.0, restarts, witness[1:]),
    ]
    caps, eigens = [], {}
    for s_chk, c_chk in ((t, 3.0), (t, 1.0)):
        blow = int(math.floor(c_chk)) + 1
        size = min(blow * s_chk, p)  # both checks ask for size p when 2t >= p
        try:
            if size not in eigens:
                eigens[size] = min_subset_eigen(design, size)
        except EnumerationTooLarge:
            continue
        lam2, _, eigvec = eigens[size]
        requests.append(_request(design, uniform, c_chk, restarts, [eigvec]))
        caps.append(blow * lam2)
    kappa_support, kappa_unif, *collapse = _estimate(design, requests)

    flags["margin_support"] = _le(kappa_support.value * truth.theta_min**2, scaled[s_here])
    flags["margin_uniform"] = _le(kappa_unif.value * truth.theta_min**2, 4.0 * scaled[s4])
    collapse_ok = [_le(est.value, cap) for est, cap in zip(collapse, caps)]
    flags["cone_collapse"] = all(collapse_ok) if collapse_ok else None

    flags["scale_chain"] = _le(delta_p_val, delta_t_val)

    return IdentifiabilityReport(
        truth=truth,
        delta_t=delta_t_val,
        delta_p=delta_p_val,
        delta_scaled=scaled,
        delta_pairwise=pairwise,
        kappa_support=kappa_support,
        kappa_uniform_t=kappa_unif,
        flags=flags,
    )
