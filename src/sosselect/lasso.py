"""L1-penalized least squares on standardized designs, and the two-stage
thresholding that screens candidate predictors.

The objective solved here is

    ||y0 - X0 theta||^2 + 2 * r_l * |theta|_1

over the standardized design, so with unit-norm columns the cyclic
coordinate-descent update is an exact soft-threshold at ``r_l``. Convergence
is certified by the KKT residual: for active coordinates the column/residual
inner product must equal ``r_l * sign(theta_j)``, for inactive ones it must
not exceed ``r_l`` in absolute value.

One private driver, ``_lasso_block``, runs the descent for a (B, n) stack of
responses on one design (the replicates of a fixed-design experiment, or a
block of one: ``solve_lasso`` is that block). Each sweep picks its kernel
from the live width, the rows not yet stopped. While two or more run, a
coordinate step is one ``np.vecdot`` over the stack. The last row steps on
Python floats and skips a coordinate at zero whose inner product the previous
KKT check certifies to stay within ``r_l``: its update would change nothing.
Both kernels make one ``ddot`` per visited coordinate with the same column
view and the same roundings around it, and the KKT check is the design
module's stacked gemv, so a response's fit is the same bytes in any block.
Each kernel is the faster one where it runs (one BLAS thread, 2-vCPU Xeon):
at n = 200, p = 1000 the stacked kernel on one row took about 90 ms per fit
against 3-4 ms on Python floats, and at n = 80, p = 6 the Python-float sweep
row by row took about 19 ms per 128 responses against 2 ms for the stack.

Screening keeps coefficients above ``6 r_l`` (first stage) and then above
``6 r_l * sqrt(max(|S0|, 1))`` (second stage); both thresholds are inclusive.
``screen`` and ``event_a`` are blocks of one of ``_screen_block`` (the one
owner of both thresholds) and ``_event_a_block``, which treat a stack of
fits or noise vectors at once, each row the bytes of its own call
(``event_a``'s product is the design module's stacked gemv). Screening needs
a converged fit; the check returns its ``NotConverged`` error for the caller
to raise, one fit or a block of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import JsonFields, ModelSet, StandardizedDesign, _column_index, _gemv_rows
from .errors import KappaDegenerate, NotConverged
from .identify import _le, kappa

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 10_000


@dataclass(frozen=True)
class PenaltyPair(JsonFields):
    """GIC penalty ``r`` and Lasso penalty ``r_l``."""

    r: float
    r_l: float

    def __post_init__(self):
        if not (0.0 <= self.r < math.inf and 0.0 <= self.r_l < math.inf):
            raise ValueError(f"penalties must be finite and nonnegative, got {self}")


def default_penalties(p: int, sigma2: float, a: float) -> PenaltyPair:
    """Penalty pair ``r = 4 sigma2 ln(p) / a``, ``r_l = 2 sqrt(r)``.

    This sits exactly on the lower admissible boundary of the selection
    penalty and couples the Lasso penalty so that ``r_l^2 = 4 r``.
    """
    if _column_index(p, "p") < 2:
        raise ValueError("need at least two candidate predictors")
    if not 0.0 < a < 1.0:
        raise ValueError("a must lie in (0, 1)")
    if not sigma2 >= 0.0:  # a NaN sigma2 fails too
        raise ValueError("sigma2 must be nonnegative")
    r = 4.0 * sigma2 * math.log(p) / a
    return PenaltyPair(r=r, r_l=2.0 * math.sqrt(r))


@dataclass(frozen=True, eq=False)
class LassoFit(JsonFields):
    """Solution of the penalized problem at penalty ``penalty`` (= r_l)."""

    theta_hat: np.ndarray
    beta_hat: np.ndarray
    penalty: float
    kkt_gap: float
    iterations: int
    converged: bool


def _kkt_block(x0: np.ndarray, ys: np.ndarray, theta: np.ndarray, r_l: float):
    """KKT gaps (B,) of the rows of ``theta`` (B, p) for the rows of ``ys``
    (B, n), with the gradients ``grad = X0' full`` (B, p) and the residuals
    ``full = y0 - X0 theta`` (B, n) they come from; every product is the
    design module's stacked gemv, so each row is the bytes of its own call.
    A gap is the largest violation of the conditions in the module docstring."""
    full = ys - _gemv_rows(x0, theta)
    grad = _gemv_rows(x0.T, full)
    gaps = np.maximum(np.abs(grad) - r_l, 0.0)
    active = theta != 0.0
    gaps[active] = np.abs(grad - r_l * np.sign(theta))[active]
    return gaps.max(axis=1, initial=0.0), grad, full


def _checked(r_l: float, v, length: int, name: str) -> np.ndarray:
    """``v`` as a float vector, after checking that ``r_l`` is finite and
    nonnegative and ``v`` finite of shape (length,); ValueError names the
    argument that is not."""
    if not 0.0 <= r_l < math.inf:
        raise ValueError(f"r_l must be finite and nonnegative, got {r_l!r}")
    v = np.asarray(v, dtype=float)
    if v.shape != (length,):
        raise ValueError(f"{name} must have length {length}, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} must be finite")
    return v


def kkt_gap(design: StandardizedDesign, theta: np.ndarray, r_l: float) -> float:
    """Max violation of the stationarity conditions (0 at an exact solution)."""
    theta = _checked(r_l, theta, design.p, "theta")
    return float(_kkt_block(design.x0, design.y0[None], theta[None], r_l)[0][0])


def solve_lasso(
    design: StandardizedDesign,
    r_l: float,
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    theta0: "np.ndarray | None" = None,
) -> LassoFit:
    """Cyclic coordinate descent with residual updates, from ``theta0`` or
    zero: :func:`_lasso_block` of one response.

    Each sweep updates every coordinate in index order by soft-thresholding
    ``theta_j + x_j' resid`` at ``r_l`` (columns have unit norm). Stops when
    the KKT gap falls to ``tol``; if ``max_iter`` sweeps pass first, the last
    iterate is returned with ``converged=False``.
    """
    theta = _checked(r_l, np.zeros(design.p) if theta0 is None else theta0, design.p, "theta0")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    if _column_index(max_iter, "max_iter") < 0:
        raise ValueError(f"max_iter must be nonnegative, got {max_iter!r}")
    return _lasso_block(
        design, design.y0[None], r_l, tol=tol, max_iter=max_iter, theta0=theta[None]
    )[0]


def _lasso_block(
    design: StandardizedDesign,
    responses,
    r_l: float,
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    theta0: "np.ndarray | None" = None,
) -> list:
    """The descent of :func:`solve_lasso` for each row of ``responses`` (B,
    n) on one design, from the rows of ``theta0`` (B, p) or from zero: the
    one descent driver (see the module docstring).

    Every row runs the same cyclic order, soft-threshold, KKT stop and
    ``max_iter`` on one (B, n) residual stack and leaves it when it stops.
    The stacked kernel writes a coordinate and its residual row only in the
    rows where it moved, so an unmoved +0.0 never turns into -0.0, and has no
    skip rule: at small p the visit costs less than its certificate. ``r_l``
    is checked by the callers (:func:`solve_lasso`, :class:`PenaltyPair`).
    """
    x0 = design.x0
    ys = np.array(responses, dtype=float)  # always a copy, C-ordered (B, n)
    theta = np.zeros((len(ys), design.p)) if theta0 is None else np.array(theta0, dtype=float)
    cols = list(x0.T)  # the strided column views, made once
    fits = [None] * len(ys)
    live = np.arange(len(ys))
    gap, grad, full = _kkt_block(x0, ys, theta, r_l)
    resid = full.copy()
    coef = None  # the last row's coefficients, once one is left
    sweep = 0
    while True:
        done = ~(gap > tol) | (sweep >= max_iter)
        if done.any():
            for k in np.flatnonzero(done):
                fits[live[k]] = LassoFit(
                    theta_hat=theta[k].copy(), beta_hat=theta[k] / design.scales, penalty=r_l,
                    kkt_gap=float(gap[k]), iterations=sweep, converged=bool(gap[k] <= tol),
                )
            state = (a[~done] for a in (live, theta, gap, grad, full, ys, resid))
            live, theta, gap, grad, full, ys, resid = state
        if not live.size:
            return fits
        if live.size > 1:
            for j, col in enumerate(cols):
                old = theta[:, j]
                z = old + np.vecdot(col, resid)
                new = np.copysign(np.maximum(np.abs(z) - r_l, 0.0), z)
                rows = np.flatnonzero(new != old)
                resid[rows] += col * (old - new)[rows, None]
                theta[rows, j] = new[rows]
        else:
            res = resid[0]  # a view into the stack
            if coef is None:  # a step on Python floats costs less than on numpy's
                coef = theta[0].tolist()
            # Skip rule. With resid0 the residual at the start of the sweep and
            # moved the sum of |old - new| over its updates so far (each moves
            # resid by that times a unit column), at any point of the sweep
            #   |x_j' resid| <= |grad_j| + ||resid0 - full|| + moved + eta,
            # grad = X0' full and full = y0 - X0 theta as _kkt_block computed them.
            # eta covers rounding: the dots behind grad_j and behind the skipped
            # update, the residual updates, the norms and sums each err by a few
            # (n + p) u (||resid0|| + moved + r_l), u = 1.1e-16, and moved < r_l
            # when a skip is taken; eta = 1e-9 (1 + ||resid0|| + r_l) holds that
            # with a factor above 10 up to n + p = 10^5. So a skipped coordinate
            # has computed |x_j' resid| <= r_l and a zero soft-threshold.
            drift = res - full[0]
            eta = 1e-9 * (1.0 + math.sqrt(res.dot(res)) + r_l)
            slack = (r_l - math.sqrt(drift.dot(drift)) - eta - np.abs(grad[0])).tolist()
            moved = 0.0
            for j in range(len(coef)):
                old = coef[j]
                if moved < slack[j] and old == 0.0:
                    continue
                z = old + float(cols[j].dot(res))
                # copysign(max(|z| - r_l, 0), z), bit for bit and -0.0 included
                new = z - r_l if z > r_l else z + r_l if z < -r_l else math.copysign(0.0, z)
                if new != old:
                    res += cols[j] * (old - new)
                    coef[j] = new
                    moved += abs(old - new)
            theta = np.array(coef)[None]
        sweep += 1
        gap, grad, full = _kkt_block(x0, ys, theta, r_l)


@dataclass(frozen=True)
class ScreenResult(JsonFields):
    """Two-stage thresholding of a Lasso fit."""

    s0: ModelSet
    s1: ModelSet
    a0: float
    a1: float


def screen(fit: LassoFit) -> ScreenResult:
    """Keep coefficients with ``|theta| >= 6 r_l``, then re-threshold at
    ``6 r_l sqrt(max(|S0|, 1))``. Requires a converged fit."""
    if (err := _unconverged(fit)) is not None:
        raise err
    keep0, keep1, a0, a1 = _screen_block(fit.theta_hat[None], fit.penalty)
    return ScreenResult(s0=_kept(keep0[0]), s1=_kept(keep1[0]), a0=a0, a1=float(a1[0]))


def _unconverged(fit: LassoFit) -> NotConverged | None:
    """Screening needs a certified fit: the :class:`NotConverged` error to
    raise when ``fit`` is not one, else None."""
    return None if fit.converged else NotConverged(
        "screening requires a converged penalized fit "
        f"(KKT gap {fit.kkt_gap:.1e} after {fit.iterations} sweeps)"
    )


def _screen_block(theta: np.ndarray, r_l: float):
    """The two-stage thresholds of :func:`screen` on each row of ``theta``
    (B, p): the S0 and S1 masks (B, p), the first threshold and the second (B,)."""
    a0 = 6.0 * r_l
    abs_theta = np.abs(theta)
    keep0 = abs_theta >= a0
    a1 = a0 * np.sqrt(np.maximum(np.count_nonzero(keep0, axis=1), 1))
    return keep0, abs_theta >= a1[:, None], a0, a1


def _kept(mask: np.ndarray) -> ModelSet:
    """The columns a screening mask keeps."""
    return ModelSet(tuple(np.flatnonzero(mask).tolist()))


@dataclass(frozen=True)
class EventAWitness(JsonFields):
    """Realized check of the noise-correlation event ``2|x_j' eps| <= r_l``."""

    holds: bool
    max_correlation: float  # max_j 2 |x0_j' eps|
    threshold: float  # r_l


def event_a(design: StandardizedDesign, epsilon: np.ndarray, r_l: float) -> EventAWitness:
    """Evaluate the event on a realized noise vector (standardized columns);
    ``r_l`` must be finite and nonnegative, the noise finite of length n."""
    eps = _checked(r_l, np.asarray(epsilon, dtype=float).ravel(), design.n, "epsilon")
    mc = float(_event_a_block(design, eps[None])[0])
    return EventAWitness(holds=mc <= r_l, max_correlation=mc, threshold=r_l)


def _event_a_block(design: StandardizedDesign, eps: np.ndarray) -> np.ndarray:
    """``max_j 2 |x0_j' e|`` for each row ``e`` of ``eps`` (B, n)."""
    return (2.0 * np.abs(_gemv_rows(design.x0.T, eps))).max(axis=1, initial=0.0)


@dataclass(frozen=True, eq=False)
class OracleCheckReport:
    """Realized-inequality flags for a Lasso fit against a reference vector.

    Flags are None when their precondition does not hold on this instance:
    ``eq3plus_ok`` needs the cone condition ``|delta|_1 <= 4 |delta_J|_1``,
    the ``cor7_*``/``cor8_*`` flags need an exactly parametric reference
    (``mu0`` equals the reference mean).
    """

    eq3_ok: bool
    cone_holds: bool
    eq3plus_ok: "bool | None"
    parametric: bool
    cor7_l1_ok: "bool | None"
    cor7_fit_ok: "bool | None"
    cor8_l2_ok: "bool | None"
    cor8_l1_ok: "bool | None"
    kappa_sq: float
    details: dict

    @property
    def all_ok(self) -> bool:
        flags = [
            self.eq3_ok,
            self.eq3plus_ok,
            self.cor7_l1_ok,
            self.cor7_fit_ok,
            self.cor8_l2_ok,
            self.cor8_l1_ok,
        ]
        return all(f for f in flags if f is not None)


def verify_oracle_inequalities(
    design: StandardizedDesign,
    fit: LassoFit,
    reference_beta: np.ndarray,
    mu0: np.ndarray,
    *,
    kappa_sq: "float | None" = None,
) -> OracleCheckReport:
    """Check the prediction/estimation inequalities realized by ``fit``.

    ``reference_beta`` is a finite length-p coefficient vector on the
    original scale whose support J defines the restricted-eigenvalue constant
    ``kappa(J, 3)``; ``mu0`` is the finite length-n (standardized-scale)
    target mean. By default ``kappa_sq`` is the search's estimate, which lies
    above the true kappa^2(J, 3), so a False flag may come from the estimate
    rather than the inequality; passing a finite lower bound keeps the checks
    one-sided. All comparisons allow the relative fp slack of ``identify._le``
    only; the inequalities themselves are supposed to hold exactly on the
    noise event checked by :func:`event_a`.
    """
    r_l = fit.penalty
    beta_ref = _checked(r_l, reference_beta, design.p, "reference_beta")
    mu0 = _checked(r_l, mu0, design.n, "mu0")
    j_set = ModelSet.of(np.nonzero(beta_ref != 0.0)[0])
    if not j_set:
        raise ValueError("reference support is empty")
    jj = list(j_set.indices)
    theta_ref = design.scales * beta_ref
    delta = fit.theta_hat - theta_ref

    if kappa_sq is None:
        kappa_sq = kappa(design, j_set, 3.0).value
    elif not math.isfinite(kappa_sq):
        raise ValueError(f"kappa_sq must be finite, got {kappa_sq!r}")
    if kappa_sq <= 1e-12:
        raise KappaDegenerate(f"kappa^2({tuple(j_set)}, 3) = {kappa_sq:.3e}")
    k = math.sqrt(kappa_sq)

    mu_hat = design.x0 @ fit.theta_hat
    mu_ref = design.x0 @ theta_ref
    approx_err = float(np.linalg.norm(mu0 - mu_ref))
    fit_err = float(np.linalg.norm(mu0 - mu_hat))
    card = len(j_set)
    l1_all = float(np.sum(np.abs(delta)))
    l1_j = float(np.sum(np.abs(delta[jj])))
    l2_j = float(np.linalg.norm(delta[jj]))

    eq3_rhs = approx_err + 3.0 * r_l * math.sqrt(card) / k
    eq3_ok = _le(fit_err, eq3_rhs)

    cone = _le(l1_all, 4.0 * l1_j)
    eq3plus_ok = None
    if cone:
        eq3plus_ok = _le(r_l * l1_all, 2.0 * approx_err**2 + 8.0 * r_l**2 * card / kappa_sq)

    parametric = approx_err <= 1e-8 * max(1.0, float(np.linalg.norm(mu0)))
    cor7_l1 = cor7_fit = cor8_l2 = cor8_l1 = None
    if parametric:
        cor7_l1 = _le(l1_all, 8.0 * r_l * card / kappa_sq)
        cor7_fit = _le(float(np.linalg.norm(mu_hat - mu_ref)) ** 2, 9.0 * r_l**2 * card / kappa_sq)
        cor8_l2 = _le(l2_j, 3.0 * r_l * math.sqrt(card) / kappa_sq)
        cor8_l1 = _le(l1_j, 3.0 * r_l * card / kappa_sq)

    return OracleCheckReport(
        eq3_ok=eq3_ok,
        cone_holds=cone,
        eq3plus_ok=eq3plus_ok,
        parametric=parametric,
        cor7_l1_ok=cor7_l1,
        cor7_fit_ok=cor7_fit,
        cor8_l2_ok=cor8_l2,
        cor8_l1_ok=cor8_l1,
        kappa_sq=float(kappa_sq),
        details={
            "fit_err": fit_err,
            "approx_err": approx_err,
            "eq3_rhs": eq3_rhs,
            "l1_all": l1_all,
            "l1_on_support": l1_j,
            "l2_on_support": l2_j,
            "support_size": card,
            "r_l": r_l,
        },
    )
