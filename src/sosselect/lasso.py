"""L1-penalized least squares on standardized designs, and the two-stage
thresholding that screens candidate predictors.

The objective solved here is

    ||y0 - X0 theta||^2 + 2 * r_l * |theta|_1

over the standardized design, so with unit-norm columns the cyclic
coordinate-descent update is an exact soft-threshold at ``r_l``. Convergence
is certified by the KKT residual: for active coordinates the column/residual
inner product must equal ``r_l * sign(theta_j)``, for inactive ones it must
not exceed ``r_l`` in absolute value.

A sweep skips a coordinate at zero whose inner product the previous KKT
check certifies to stay within ``r_l``: its update would change nothing, so
iterates, sweep counts and gaps are bit-identical to visiting every one.

Many responses on one design (the replicates of a fixed-design experiment)
run the same descent as one block: the private ``_lasso_block`` takes every
inner product as a column sum over a column-major residual block, so a
response's fit is the same bytes in any block, of any width. Its sums round
differently from the dot products here, so its fits agree with
``solve_lasso`` to rounding, with the same sweeps and screened sets on the
fixed designs tested. ``solve_lasso`` stays the solver of one response and
of fresh designs because it is much faster there: on ten n = 200, p = 1000
designs (8-11 sweeps, one BLAS thread, 2-vCPU Xeon) it took 12 ms per fit
against about 270 ms for a block of one, whose column sums and unskipped
visits cost more than its BLAS dot products and skip rule. Both descents
build their fits and gaps with the same ``_lasso_fit`` and
``_stationarity_gap``.

Screening keeps coefficients above ``6 r_l`` (first stage) and then above
``6 r_l * sqrt(max(|S0|, 1))`` (second stage); both thresholds are inclusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import JsonFields, ModelSet, StandardizedDesign, _column_index
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
    if p < 2:
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


def _stationarity_gap(grad: np.ndarray, theta: np.ndarray, r_l: float):
    """Max violation, over axis 0, of the stationarity conditions at
    ``theta`` given the gradient ``grad = X0' (y0 - X0 theta)``: an active
    coordinate needs ``grad_j = r_l sign(theta_j)``, one at zero
    ``|grad_j| <= r_l``."""
    gaps = np.maximum(np.abs(grad) - r_l, 0.0)
    active = theta != 0.0
    gaps[active] = np.abs(grad - r_l * np.sign(theta))[active]
    return gaps.max(axis=0, initial=0.0)


def _lasso_fit(design: StandardizedDesign, theta, r_l, gap, sweeps, tol) -> LassoFit:
    """The fit a descent stopped at: ``theta`` after ``sweeps`` sweeps with
    KKT gap ``gap``, converged when the gap is within ``tol``."""
    return LassoFit(
        theta_hat=theta,
        beta_hat=theta / design.scales,
        penalty=r_l,
        kkt_gap=float(gap),
        iterations=sweeps,
        converged=bool(gap <= tol),
    )


def _kkt(design: StandardizedDesign, theta: np.ndarray, r_l: float):
    """KKT gap of ``theta``, with the gradient ``X0' full`` and the residual
    ``full = y0 - X0 theta`` it was computed from."""
    full = design.y0 - design.x0 @ theta
    grad = design.x0.T @ full
    return float(_stationarity_gap(grad, theta, r_l)), grad, full


def kkt_gap(design: StandardizedDesign, theta: np.ndarray, r_l: float) -> float:
    """Max violation of the stationarity conditions (0 at an exact solution)."""
    return _kkt(design, theta, r_l)[0]


def solve_lasso(
    design: StandardizedDesign,
    r_l: float,
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    theta0: "np.ndarray | None" = None,
) -> LassoFit:
    """Cyclic coordinate descent with residual updates.

    Each sweep updates every coordinate in index order by soft-thresholding
    ``theta_j + x_j' resid`` at ``r_l`` (columns have unit norm). Stops when
    the KKT gap falls to ``tol``; if ``max_iter`` sweeps pass first, the best
    iterate is returned with ``converged=False``.

    A coordinate at zero is skipped when the gradient of the last KKT check
    certifies ``|x_j' resid| <= r_l``: its update would leave it at zero.
    """
    if not 0.0 <= r_l < math.inf:
        raise ValueError(f"r_l must be finite and nonnegative, got {r_l!r}")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    if _column_index(max_iter, "max_iter") < 0:
        raise ValueError(f"max_iter must be nonnegative, got {max_iter!r}")
    x0, y0 = design.x0, design.y0
    p = design.p
    theta = np.zeros(p) if theta0 is None else np.asarray(theta0, dtype=float).copy()
    if theta.shape != (p,):
        raise ValueError("theta0 has the wrong shape")
    resid = y0 - x0 @ theta
    cols = list(x0.T)  # the strided column views, made once
    gap, grad, full = _kkt(design, theta, r_l)
    sweeps = 0
    while gap > tol and sweeps < max_iter:
        # Skip rule. With resid0 the residual at the start of the sweep and
        # moved the sum of |old - new| over its updates so far (each moves
        # resid by that times a unit column), at any point of the sweep
        #   |x_j' resid| <= |grad_j| + ||resid0 - full|| + moved + eta,
        # grad = X0' full and full = y0 - X0 theta as _kkt computed them.
        # eta covers rounding: the dots behind grad_j and behind the skipped
        # update, the residual updates, the norms and sums each err by a few
        # (n + p) u (||resid0|| + moved + r_l), u = 1.1e-16, and moved < r_l
        # when a skip is taken; eta = 1e-9 (1 + ||resid0|| + r_l) holds that
        # with a factor above 10 up to n + p = 10^5. So a skipped coordinate
        # has computed |x_j' resid| <= r_l and a zero soft-threshold.
        drift = resid - full
        eta = 1e-9 * (1.0 + math.sqrt(resid.dot(resid)) + r_l)
        slack = (r_l - math.sqrt(drift.dot(drift)) - eta - np.abs(grad)).tolist()
        moved = 0.0
        for j in range(p):
            if moved < slack[j] and theta[j] == 0.0:
                continue
            old = theta[j]
            z = old + cols[j].dot(resid)
            new = math.copysign(max(abs(z) - r_l, 0.0), z)
            if new != old:
                resid += cols[j] * (old - new)
                theta[j] = new
                moved += abs(old - new)
        sweeps += 1
        gap, grad, full = _kkt(design, theta, r_l)
    return _lasso_fit(design, theta, r_l, gap, sweeps, tol)


def _kkt_block(x0: np.ndarray, ys: np.ndarray, theta: np.ndarray, r_l: float) -> np.ndarray:
    """KKT gap of each column of ``theta`` (p, B) for the matching column of
    ``ys`` (n, B, column-major), every inner product a column sum."""
    fitted = np.zeros_like(ys)
    for j, row in enumerate(theta):
        fitted += x0[:, j, None] * row
    full = ys - fitted
    grad = np.array([(x0[:, j, None] * full).sum(axis=0) for j in range(len(theta))])
    return _stationarity_gap(grad, theta, r_l)


def _lasso_block(
    design: StandardizedDesign,
    responses,
    r_l: float,
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> list:
    """:func:`solve_lasso` from zero for several responses on one design.

    The same cyclic order, soft-threshold, KKT stop and ``max_iter`` act on
    each column of one (n, B) residual block; a response leaves the block
    when it stops. Every inner product is a column sum over a column-major
    block, ``(x0[:, j, None] * R).sum(axis=0)``, which numpy adds pairwise
    per column exactly as for one response, so a fit does not depend on its
    block. (A BLAS product's bits depend on the block width, and a row-major
    axis-0 sum adds row by row except at width 1.) Only coordinates that
    moved are written back, so an unmoved +0.0 never turns into -0.0. There
    is no skip rule: a skip changes no value, and at small p the visit costs
    less than its certificate. ``r_l`` comes from a :class:`PenaltyPair`,
    which is nonnegative.
    """
    x0, p = design.x0, design.p
    ys = np.array(np.transpose(responses), dtype=float, order="F")  # always a copy
    resid = ys.copy(order="F")
    theta = np.zeros((p, ys.shape[1]))
    fits = [None] * ys.shape[1]
    live = np.arange(ys.shape[1])
    gap = _kkt_block(x0, ys, theta, r_l)
    sweep = 0
    while True:
        done = ~(gap > tol) | (sweep >= max_iter)
        for k in np.flatnonzero(done):
            fits[live[k]] = _lasso_fit(design, theta[:, k].copy(), r_l, gap[k], sweep, tol)
        keep = ~done
        live, theta, gap = live[keep], theta[:, keep], gap[keep]
        ys, resid = ys[:, keep], resid[:, keep]  # column selections stay column-major
        if not live.size:
            return fits
        for j in range(p):
            xj = x0[:, j, None]
            old = theta[j]
            z = old + (xj * resid).sum(axis=0)
            new = np.copysign(np.maximum(np.abs(z) - r_l, 0.0), z)
            moved = old - new
            resid += xj * moved
            theta[j] = np.where(moved != 0.0, new, old)
        sweep += 1
        gap = _kkt_block(x0, ys, theta, r_l)


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
    if not fit.converged:
        raise NotConverged(
            "screening requires a converged penalized fit "
            f"(KKT gap {fit.kkt_gap:.1e} after {fit.iterations} sweeps)"
        )
    r_l = fit.penalty
    a0 = 6.0 * r_l
    abs_theta = np.abs(fit.theta_hat)
    # np.nonzero is strictly increasing; tolist gives Python ints
    s0 = ModelSet._sorted(tuple(np.nonzero(abs_theta >= a0)[0].tolist()))
    a1 = 6.0 * r_l * math.sqrt(max(len(s0), 1))
    s1 = ModelSet._sorted(tuple(np.nonzero(abs_theta >= a1)[0].tolist()))
    return ScreenResult(s0=s0, s1=s1, a0=a0, a1=a1)


@dataclass(frozen=True)
class EventAWitness(JsonFields):
    """Realized check of the noise-correlation event ``2|x_j' eps| <= r_l``."""

    holds: bool
    max_correlation: float  # max_j 2 |x0_j' eps|
    threshold: float  # r_l


def event_a(design: StandardizedDesign, epsilon: np.ndarray, r_l: float) -> EventAWitness:
    """Evaluate the event on a realized noise vector (standardized columns)."""
    eps = np.asarray(epsilon, dtype=float).ravel()
    if eps.shape[0] != design.n:
        raise ValueError("noise vector length mismatch")
    corr = 2.0 * np.abs(design.x0.T @ eps)
    mc = float(corr.max()) if corr.size else 0.0
    return EventAWitness(holds=mc <= r_l, max_correlation=mc, threshold=r_l)


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

    ``reference_beta`` is a full-length coefficient vector on the original
    scale whose support J defines the restricted-eigenvalue constant
    ``kappa(J, 3)``; ``mu0`` is the (standardized-scale) target mean. Any
    valid lower bound may be passed as ``kappa_sq``; by default the
    alternating-minimization estimate is used. All comparisons allow the
    relative fp slack of ``identify._le`` only; the inequalities themselves are
    supposed to hold exactly on the noise event checked by :func:`event_a`.
    """
    beta_ref = np.asarray(reference_beta, dtype=float).ravel()
    if beta_ref.shape[0] != design.p:
        raise ValueError("reference_beta must have length p")
    j_set = ModelSet.of(np.nonzero(beta_ref != 0.0)[0])
    if not j_set:
        raise ValueError("reference support is empty")
    jj = list(j_set.indices)
    r_l = fit.penalty
    theta_ref = design.scales * beta_ref
    delta = fit.theta_hat - theta_ref

    if kappa_sq is None:
        kappa_sq = kappa(design, j_set, 3.0).value
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
