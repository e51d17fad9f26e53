"""Closed-form evaluators for the selection-error probability bounds.

Each selection-pipeline step (screening, ordering, underselection,
overselection) has a displayed bound of the Mill-ratio shape
coef * exp(-e) / sqrt(pi * g). Evaluators return that value together with a
named assumption ledger: the formula is computed even when assumptions fail,
but assumptions_ok gates its validity. Values are capped at 1 with the raw
value kept alongside. All logarithms are natural.
"""

import math
from dataclasses import dataclass, fields

from .design import JsonFields
from .errors import DomainError

# the two small constants entering the ordering/beta-min conditions
C1_CONST = 1.0 / (3.0 + 6.0 * math.sqrt(2.0))  # ~0.08713
C2_CONST = 1.0 / (6.0 + 4.0 * math.sqrt(2.0))  # ~0.08579


def chi2_tail_sandwich(k, x):
    """Two-sided bracket (lower, upper) for P(W >= x), W chi-square with k df.

    Uses w = exp(-x/2) (x/2)^(k/2-1) / Gamma(k/2) and l = x/(x-k+2):
    for k = 1 the tail lies in [w*l, w]; for k > 1 and x > k-2 it lies in
    [w, w*l]. Raises DomainError outside those ranges. The upper end
    diverges as x -> 0 for k = 1; callers cap where a probability is needed.
    """
    k = int(k)
    if k < 1:
        raise DomainError("degrees of freedom must be a positive integer")
    if x <= 0.0:
        raise DomainError("tail point must be positive")
    if k > 1 and x <= k - 2.0:
        raise DomainError(f"tail point {x} must exceed {k - 2} for k={k}")
    w = math.exp(-0.5 * x + (0.5 * k - 1.0) * math.log(0.5 * x) - math.lgamma(0.5 * k))
    ratio = x / (x - k + 2.0)
    if k == 1:
        return (w * ratio, w)
    return (w, w * ratio)


def _mill_form(coef, exponent, scale):
    """coef * exp(-exponent) / sqrt(pi * scale); +inf when the scale is 0."""
    if scale <= 0.0:
        return math.inf
    return coef * math.exp(-exponent) / math.sqrt(math.pi * scale)


def event_a_bound(p, r_l, sigma2):
    """Probability bound for the correlation event failing.

    The event requires 2|x0_j' eps| <= r_l for every column j; its
    complement has probability at most p exp(-q)/sqrt(pi q) with
    q = r_l^2 / (8 sigma^2), capped at 1.
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    if r_l <= 0.0 or sigma2 <= 0.0:
        raise ValueError("r_l and sigma2 must be positive")
    q = r_l * r_l / (8.0 * sigma2)
    return min(1.0, _mill_form(float(p), q, q))


@dataclass(frozen=True)
class BoundInput(JsonFields):
    """Everything the bound formulas consume.

    kappa_T3 is the restricted eigenvalue (not squared) at the true support
    with cone constant 3; kappa_t3 is its uniform version over all supports
    of the true size. delta_s, delta_t, delta_p are the signal-separation
    margins at screening size s, true size t, and full size p.
    """

    n: int
    p: int
    t: int
    s: int
    sigma2: float
    r: float
    r_l: float
    a: float
    delta_s: float
    delta_t: float
    delta_p: float
    kappa_T3: float
    kappa_t3: float
    theta_min: float

    def __post_init__(self):
        if not (self.p >= self.t + 1 >= 2):
            raise ValueError("need p >= t+1 >= 2")
        if not (self.t <= self.s <= self.p):
            raise ValueError("need t <= s <= p")
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.sigma2 <= 0.0 or self.r <= 0.0 or self.r_l <= 0.0:
            raise ValueError("sigma2, r, r_l must be positive")
        if not (0.0 < self.a < 1.0):
            raise ValueError("a must lie in (0,1)")
        for name in ("delta_s", "delta_t", "delta_p", "kappa_T3", "kappa_t3", "theta_min"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")

    @classmethod
    def from_json_dict(cls, blob):
        return cls(**{f.name: f.type(blob[f.name]) for f in fields(cls)})


def derived_screen_size(t, kappa):
    """Screening-budget size t + floor(sqrt(t)/kappa^2) implied by the
    restricted eigenvalue; must stay within the sample for the screening
    bounds to apply."""
    if t < 1:
        raise ValueError("t must be positive")
    if kappa <= 0.0:
        raise ValueError("kappa must be positive to derive the budget")
    return t + int(math.floor(math.sqrt(t) / (kappa * kappa)))


@dataclass(frozen=True)
class BoundResult:
    name: str
    value: float
    raw: float
    assumptions_ok: bool
    failed_assumptions: tuple

    def to_json_dict(self):
        return {
            "name": self.name,
            "value": self.value,
            "raw": self.raw if math.isfinite(self.raw) else None,
            "assumptions_ok": self.assumptions_ok,
            "failed_assumptions": list(self.failed_assumptions),
        }


def _result(name, raw, checks):
    failed = tuple(k for k, ok in checks.items() if not ok)
    return BoundResult(
        name=name,
        value=min(raw, 1.0),
        raw=raw,
        assumptions_ok=not failed,
        failed_assumptions=failed,
    )


# ------------------------------------------------------ assumption predicates
# side-effect-free, unit-tested individually


def screen_penalty_floor(inp):
    """8 a^-1 sigma^2 log p <= r_l^2"""
    return 8.0 * inp.sigma2 * math.log(inp.p) / inp.a <= inp.r_l**2


def beta_min_margin(inp):
    """r_l^2 <= c1^2 t^-1 kappa^4 theta_min^2 (weakest-signal condition)"""
    return inp.r_l**2 <= C1_CONST**2 * inp.kappa_T3**4 * inp.theta_min**2 / inp.t


def screen_budget_within_sample(inp):
    """s <= n: the screened family must be fittable by least squares"""
    return inp.s <= inp.n


def ordering_separation(inp):
    """a^-1 sigma^2 log p <= c2 (s-t+2)^-1 delta_s"""
    return inp.sigma2 * math.log(inp.p) / inp.a <= C2_CONST * inp.delta_s / (inp.s - inp.t + 2)


def underselect_penalty_cap(inp):
    """r < a t^-1 delta_t (penalty small enough to keep every true predictor)"""
    return inp.r < inp.a * inp.delta_t / inp.t


def underselect_log_gap(inp):
    """8 a^-1 sigma^2 log t <= (1-a)^2 delta_t"""
    return 8.0 * inp.sigma2 * math.log(inp.t) / inp.a <= (1.0 - inp.a) ** 2 * inp.delta_t


def overselect_penalty_floor(inp):
    """4 a^-1 sigma^2 log p <= r (penalty large enough to reject noise)"""
    return 4.0 * inp.sigma2 * math.log(inp.p) / inp.a <= inp.r


def ordering_separation_full(inp):
    """a^-1 sigma^2 log(t(p-t)) <= c2 delta_p (no-screening ordering margin)"""
    return inp.sigma2 * math.log(inp.t * (inp.p - inp.t)) / inp.a <= C2_CONST * inp.delta_p


def design_within_sample(inp):
    """p <= n: the full design must be fittable by least squares"""
    return inp.p <= inp.n


def penalty_link(inp):
    """r_l^2 = 4 r couples the screening and selection penalties"""
    return math.isclose(inp.r_l**2, 4.0 * inp.r, rel_tol=1e-9, abs_tol=0.0)


def a_below_one_minus_c1(inp):
    return inp.a < 1.0 - C1_CONST


def combined_beta_min_cap(inp):
    """r <= (c1^2/4) a t^-1 kappa^4 theta_min^2"""
    return inp.r <= 0.25 * C1_CONST**2 * inp.a * inp.kappa_T3**4 * inp.theta_min**2 / inp.t


def combined_ordering_cap(inp):
    """r <= (4 c2/3) t^-1/2 kappa^2 delta_s"""
    return inp.r <= (4.0 * C2_CONST / 3.0) * inp.kappa_T3**2 * inp.delta_s / math.sqrt(inp.t)


def a_below_two_c2(inp):
    return inp.a < 2.0 * C2_CONST


def full_design_penalty_cap(inp):
    """r <= min(a t^-1 delta_t, 2 c2 delta_p)"""
    return inp.r <= min(inp.a * inp.delta_t / inp.t, 2.0 * C2_CONST * inp.delta_p)


# ------------------------------------------------------------- evaluators


def theorem1_bounds(inp):
    """Per-step error bounds for the screened pipeline.

    T1: screening set misses a true predictor (or exceeds the budget).
    T2: screening fine, but the ordering puts a spurious predictor before
        a true one.
    T3: screening and ordering fine, the cut selects too few predictors.
    T4: screening and ordering fine, the cut selects too many.
    """
    a = inp.a
    q1 = inp.r_l**2 / (8.0 * inp.sigma2)
    t1 = _result(
        "T1",
        _mill_form(1.0, (1.0 - a) * q1, q1),
        {
            "screen_penalty_floor": screen_penalty_floor(inp),
            "beta_min_margin": beta_min_margin(inp),
            "screen_budget_within_sample": screen_budget_within_sample(inp),
        },
    )
    m2 = C2_CONST * inp.delta_s / inp.sigma2
    t2 = _result(
        "T2",
        _mill_form(1.5, (1.0 - a) * m2, m2),
        {
            "ordering_separation": ordering_separation(inp),
            "screen_budget_within_sample": screen_budget_within_sample(inp),
        },
    )
    g3 = (1.0 - a) ** 2 * inp.delta_t / (8.0 * inp.sigma2)
    t3 = _result(
        "T3",
        _mill_form(0.5, (1.0 - a) * g3, g3),
        {
            "underselect_penalty_cap": underselect_penalty_cap(inp),
            "underselect_log_gap": underselect_log_gap(inp),
        },
    )
    q4 = inp.r / (2.0 * inp.sigma2)
    t4 = _result(
        "T4",
        _mill_form(1.0, (1.0 - a) * q4, q4),
        {"overselect_penalty_floor": overselect_penalty_floor(inp)},
    )
    return {"T1": t1, "T2": t2, "T3": t3, "T4": t4}


def theorem2_bound(inp):
    """Ordering-error bound for the no-screening pipeline (all p predictors
    ordered); the follow-on under/overselection bounds are the T3/T4 entries
    of theorem1_bounds."""
    m = C2_CONST * inp.delta_p / inp.sigma2
    return _result(
        "T2-full",
        _mill_form(1.5, (1.0 - inp.a) * m, m),
        {
            "ordering_separation_full": ordering_separation_full(inp),
            "design_within_sample": design_within_sample(inp),
        },
    )


def corollary_bounds(inp, which):
    """Total selection-error bound: which="C1" for the screened pipeline
    (coefficient 4), "C3" for the no-screening pipeline (coefficient 3)."""
    q = inp.r / (2.0 * inp.sigma2)
    if which == "C1":
        checks = {
            "penalty_link": penalty_link(inp),
            "a_below_one_minus_c1": a_below_one_minus_c1(inp),
            "overselect_penalty_floor": overselect_penalty_floor(inp),
            "combined_beta_min_cap": combined_beta_min_cap(inp),
            "combined_ordering_cap": combined_ordering_cap(inp),
        }
        coef = 4.0
    elif which == "C3":
        checks = {
            "a_below_two_c2": a_below_two_c2(inp),
            "overselect_penalty_floor": overselect_penalty_floor(inp),
            "full_design_penalty_cap": full_design_penalty_cap(inp),
            "design_within_sample": design_within_sample(inp),
        }
        coef = 3.0
    else:
        raise ValueError(f"unknown corollary {which!r}; expected 'C1' or 'C3'")
    return _result(which, _mill_form(coef, (1.0 - inp.a) * q, q), checks)


# the displayed bounds that concern each pipeline: screened (sos) and
# full-design (os); the follow-on steps of both are T3 and T4
PIPELINE_BOUNDS = {
    "sos": ("T1", "T2", "T3", "T4", "C1"),
    "os": ("T2-full", "T3", "T4", "C3"),
}


def bound_report(inp, names=None):
    """``{"input", "bounds"}`` JSON blob for the bounds in ``names``, in that
    order, or for every displayed bound when ``names`` is None."""
    results = {
        **theorem1_bounds(inp),
        "T2-full": theorem2_bound(inp),
        "C1": corollary_bounds(inp, "C1"),
        "C3": corollary_bounds(inp, "C3"),
    }
    if names is None:
        names = results
    return {"input": inp.to_json_dict(), "bounds": {k: results[k].to_json_dict() for k in names}}


def exhaustive_lower_bound(r, sigma2):
    """Lower bound on the all-subsets search error probability:
    (r/(r+sigma^2)) exp(-q)/sqrt(pi q) with q = r/(2 sigma^2). Holds whenever
    at least one spurious predictor exists."""
    if r <= 0.0 or sigma2 <= 0.0:
        raise ValueError("r and sigma2 must be positive")
    q = r / (2.0 * sigma2)
    return _mill_form(r / (r + sigma2), q, q)


def bound_input_from_design(design, truth, penalties, a, *, s=None, restarts=64):
    """Assemble a BoundInput by measuring the margins and restricted
    eigenvalues of an actual standardized design (kappa(T, 3) and kappa(t, 3)
    in one batched search). Enumeration guards apply (small p only)."""
    from .identify import _estimate, _support_request, _uniform_request, delta_scaled

    if not (0.0 < a < 1.0):
        raise ValueError("a must lie in (0,1)")
    t = truth.t
    est_support, est_uniform = _estimate(design, [
        _support_request(design, truth.support, 3.0, restarts, None),
        _uniform_request(design, t, 3.0, restarts, None),
    ])
    if s is None:
        k = est_support.kappa
        s = min(derived_screen_size(t, k), design.p) if k > 1e-8 else design.p
    s = int(s)
    return BoundInput(
        n=design.n,
        p=design.p,
        t=t,
        s=s,
        sigma2=truth.sigma2,
        r=penalties.r,
        r_l=penalties.r_l,
        a=a,
        delta_s=delta_scaled(design, truth, s),
        delta_t=delta_scaled(design, truth, t),
        delta_p=delta_scaled(design, truth, design.p),
        kappa_T3=est_support.kappa,
        kappa_t3=est_uniform.kappa,
        theta_min=truth.theta_min,
    )
