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

Screening keeps coefficients above ``6 r_l`` (first stage) and then above
``6 r_l * sqrt(max(|S0|, 1))`` (second stage); both thresholds are inclusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import ModelSet, StandardizedDesign
from .errors import KappaDegenerate, NotConverged

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 10_000


@dataclass(frozen=True)
class PenaltyPair:
    """GIC penalty ``r`` and Lasso penalty ``r_l`` (plus their provenance)."""

    r: float
    r_l: float
    a: "float | None" = None
    sigma2: "float | None" = None

    def __post_init__(self):
        if self.r < 0 or self.r_l < 0:
            raise ValueError("penalties must be nonnegative")


def default_penalties(n: int, p: int, sigma2: float, a: float) -> PenaltyPair:
    """Penalty pair ``r = 4 sigma2 ln(p) / a``, ``r_l = 2 sqrt(r)``.

    This sits exactly on the lower admissible boundary of the selection
    penalty and couples the Lasso penalty so that ``r_l^2 = 4 r``. ``n`` is
    accepted for interface completeness; the rule does not depend on it.
    """
    if p < 2:
        raise ValueError("need at least two candidate predictors")
    if not 0.0 < a < 1.0:
        raise ValueError("a must lie in (0, 1)")
    if sigma2 < 0:
        raise ValueError("sigma2 must be nonnegative")
    r = 4.0 * sigma2 * math.log(p) / a
    return PenaltyPair(r=r, r_l=2.0 * math.sqrt(r), a=a, sigma2=sigma2)


@dataclass(frozen=True, eq=False)
class LassoFit:
    """Solution of the penalized problem at penalty ``penalty`` (= r_l)."""

    theta_hat: np.ndarray
    beta_hat: np.ndarray
    penalty: float
    kkt_gap: float
    iterations: int
    converged: bool

    def to_json_dict(self) -> dict:
        return {
            "theta_hat": self.theta_hat.tolist(),
            "beta_hat": self.beta_hat.tolist(),
            "penalty": self.penalty,
            "kkt_gap": self.kkt_gap,
            "iterations": self.iterations,
            "converged": self.converged,
        }


def _kkt(design: StandardizedDesign, theta: np.ndarray, r_l: float):
    """KKT gap of ``theta``, with the gradient ``X0' full`` and the residual
    ``full = y0 - X0 theta`` it was computed from."""
    full = design.y0 - design.x0 @ theta
    grad = design.x0.T @ full
    active = theta != 0.0
    gaps = np.maximum(np.abs(grad) - r_l, 0.0)
    gaps[active] = np.abs(grad[active] - r_l * np.sign(theta[active]))
    return (float(gaps.max()) if gaps.size else 0.0), grad, full


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
    if r_l < 0:
        raise ValueError("r_l must be nonnegative")
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
    return LassoFit(
        theta_hat=theta,
        beta_hat=theta / design.scales,
        penalty=r_l,
        kkt_gap=gap,
        iterations=sweeps,
        converged=gap <= tol,
    )


@dataclass(frozen=True)
class ScreenResult:
    """Two-stage thresholding of a Lasso fit."""

    s0: ModelSet
    s1: ModelSet
    a0: float
    a1: float

    def to_json_dict(self) -> dict:
        return {
            "s0": list(self.s0.indices),
            "s1": list(self.s1.indices),
            "a0": self.a0,
            "a1": self.a1,
        }


def screen(fit: LassoFit) -> ScreenResult:
    """Keep coefficients with ``|theta| >= 6 r_l``, then re-threshold at
    ``6 r_l sqrt(max(|S0|, 1))``. Requires a converged fit."""
    if not fit.converged:
        raise NotConverged("screening requires a converged penalized fit")
    r_l = fit.penalty
    a0 = 6.0 * r_l
    abs_theta = np.abs(fit.theta_hat)
    s0 = ModelSet.of(np.nonzero(abs_theta >= a0)[0])
    a1 = 6.0 * r_l * math.sqrt(max(len(s0), 1))
    s1 = ModelSet.of(np.nonzero(abs_theta >= a1)[0])
    return ScreenResult(s0=s0, s1=s1, a0=a0, a1=a1)


@dataclass(frozen=True)
class EventAWitness:
    """Realized check of the noise-correlation event ``2|x_j' eps| <= r_l``."""

    holds: bool
    max_correlation: float  # max_j 2 |x0_j' eps|
    threshold: float  # r_l

    def to_json_dict(self) -> dict:
        return {
            "holds": self.holds,
            "max_correlation": self.max_correlation,
            "threshold": self.threshold,
        }


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
    slack: float = 1e-9,
) -> OracleCheckReport:
    """Check the prediction/estimation inequalities realized by ``fit``.

    ``reference_beta`` is a full-length coefficient vector on the original
    scale whose support J defines the restricted-eigenvalue constant
    ``kappa(J, 3)``; ``mu0`` is the (standardized-scale) target mean. Any
    valid lower bound may be passed as ``kappa_sq``; by default the
    alternating-minimization estimate is used. All comparisons allow a
    relative slack for floating point only; the inequalities themselves are
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
        from .identify import kappa as _kappa

        kappa_sq = _kappa(design, j_set, 3.0).value
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

    def le(lhs, rhs):
        return bool(lhs <= rhs + slack * max(1.0, abs(rhs)))

    eq3_rhs = approx_err + 3.0 * r_l * math.sqrt(card) / k
    eq3_ok = le(fit_err, eq3_rhs)

    cone = le(l1_all, 4.0 * l1_j)
    eq3plus_ok = None
    if cone:
        eq3plus_ok = le(r_l * l1_all, 2.0 * approx_err**2 + 8.0 * r_l**2 * card / kappa_sq)

    parametric = approx_err <= 1e-8 * max(1.0, float(np.linalg.norm(mu0)))
    cor7_l1 = cor7_fit = cor8_l2 = cor8_l1 = None
    if parametric:
        cor7_l1 = le(l1_all, 8.0 * r_l * card / kappa_sq)
        cor7_fit = le(float(np.linalg.norm(mu_hat - mu_ref)) ** 2, 9.0 * r_l**2 * card / kappa_sq)
        cor8_l2 = le(l2_j, 3.0 * r_l * math.sqrt(card) / kappa_sq)
        cor8_l1 = le(l1_j, 3.0 * r_l * card / kappa_sq)

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
