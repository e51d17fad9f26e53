"""Closed-form evaluators for the selection-error probability bounds.

Every displayed bound (T1-T4 for the screened pipeline's steps: screening,
ordering, underselection, overselection; T2-full for the no-screening
ordering; the totals C1 and C3) has the Mill-ratio shape
coef * exp(-(1-a) g) / sqrt(pi g) and is one row of ``BOUNDS``: coefficient,
scale g and assumption predicates. Evaluators return that value together with
its ledger, the names of the failing predicates: the formula is computed even
when assumptions fail, but assumptions_ok gates its validity. Values are
capped at 1 with the raw value kept alongside. All logarithms are natural.
"""

import math
from dataclasses import dataclass, fields

from .design import JsonFields, _check_indices, _column_index
from .errors import DomainError
from .identify import DEFAULT_RESTARTS, _estimate, _request, _subsets, delta_scaled
from .schemas import check_field_bounds, read_json_fields

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
    if (k := _column_index(k, "k")) < 1:
        raise DomainError("degrees of freedom must be a positive integer")
    if not 0.0 < x < math.inf:  # NaN and inf fail each positivity check in this form
        raise DomainError("tail point must be positive and finite")
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
    if _column_index(p, "p") < 1:
        raise ValueError("p must be at least 1")
    if not (0.0 < r_l < math.inf and 0.0 < sigma2 < math.inf):
        raise ValueError("r_l and sigma2 must be positive and finite")
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
        """Every single-field bound of the shipped schema, then the
        cross-field rules the schema cannot state."""
        check_field_bounds(self, "bound_input")
        if self.p < self.t + 1:
            raise ValueError("need p >= t+1")
        if not (self.t <= self.s <= self.p):
            raise ValueError("need t <= s <= p")

    @classmethod
    def from_json_dict(cls, blob):
        """Read the schema's object; every field is required, and each is
        converted to its type (``"r": 12`` reads as 12.0)."""
        values = read_json_fields(cls, blob, "bound_input")
        return cls(**{f.name: f.type(values[f.name]) for f in fields(cls)})


def derived_screen_size(t, kappa):
    """Screening-budget size t + floor(sqrt(t)/kappa^2) implied by the
    restricted eigenvalue; must stay within the sample for the screening
    bounds to apply."""
    if (t := _column_index(t, "t")) < 1:
        raise ValueError("t must be positive")
    if not 0.0 < kappa < math.inf:
        raise ValueError("kappa must be positive and finite to derive the budget")
    return t + int(math.floor(math.sqrt(t) / (kappa * kappa)))


@dataclass(frozen=True)
class BoundResult(JsonFields):
    name: str
    value: float
    raw: float
    assumptions_ok: bool
    failed_assumptions: tuple

    def to_json_dict(self):
        return {**super().to_json_dict(), "raw": self.raw if math.isfinite(self.raw) else None}


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


def _penalty_scale(inp):
    return inp.r / (2.0 * inp.sigma2)


# name -> (coefficient, scale g(inp), assumption predicates in ledger order)
BOUNDS = {
    "T1": (1.0, lambda inp: inp.r_l**2 / (8.0 * inp.sigma2),
           (screen_penalty_floor, beta_min_margin, screen_budget_within_sample)),
    "T2": (1.5, lambda inp: C2_CONST * inp.delta_s / inp.sigma2,
           (ordering_separation, screen_budget_within_sample)),
    "T3": (0.5, lambda inp: (1.0 - inp.a) ** 2 * inp.delta_t / (8.0 * inp.sigma2),
           (underselect_penalty_cap, underselect_log_gap)),
    "T4": (1.0, _penalty_scale, (overselect_penalty_floor,)),
    "T2-full": (1.5, lambda inp: C2_CONST * inp.delta_p / inp.sigma2,
                (ordering_separation_full, design_within_sample)),
    "C1": (4.0, _penalty_scale, (penalty_link, a_below_one_minus_c1, overselect_penalty_floor,
                                 combined_beta_min_cap, combined_ordering_cap)),
    "C3": (3.0, _penalty_scale, (a_below_two_c2, overselect_penalty_floor,
                                 full_design_penalty_cap, design_within_sample)),
}


def _bound(inp, name):
    """The ``BOUNDS`` entry ``name`` evaluated on ``inp``: the value is capped
    at 1, and the ledger names each failing predicate."""
    coef, scale, predicates = BOUNDS[name]
    g = scale(inp)
    raw = _mill_form(coef, (1.0 - inp.a) * g, g)
    failed = tuple(pred.__name__ for pred in predicates if not pred(inp))
    return BoundResult(name, min(raw, 1.0), raw, not failed, failed)


def theorem1_bounds(inp):
    """Per-step error bounds for the screened pipeline.

    T1: screening set misses a true predictor (or exceeds the budget).
    T2: screening fine, but the ordering puts a spurious predictor before
        a true one.
    T3: screening and ordering fine, the cut selects too few predictors.
    T4: screening and ordering fine, the cut selects too many.
    """
    return {name: _bound(inp, name) for name in ("T1", "T2", "T3", "T4")}


def theorem2_bound(inp):
    """Ordering-error bound for the no-screening pipeline (all p predictors
    ordered); the follow-on under/overselection bounds are the T3/T4 entries
    of theorem1_bounds."""
    return _bound(inp, "T2-full")


def corollary_bounds(inp, which):
    """Total selection-error bound: which="C1" for the screened pipeline
    (coefficient 4), "C3" for the no-screening pipeline (coefficient 3)."""
    if which not in ("C1", "C3"):
        raise ValueError(f"unknown corollary {which!r}; expected 'C1' or 'C3'")
    return _bound(inp, which)


# the displayed bounds that concern each pipeline: screened (sos) and
# full-design (os); the follow-on steps of both are T3 and T4
PIPELINE_BOUNDS = {
    "sos": ("T1", "T2", "T3", "T4", "C1"),
    "os": ("T2-full", "T3", "T4", "C3"),
}


def bound_report(inp, names=None):
    """``{"input", "bounds"}`` JSON blob evaluating only the bounds in
    ``names``, in that order, or every displayed bound when it is None."""
    names = BOUNDS if names is None else names
    return {"input": inp.to_json_dict(), "bounds": {k: _bound(inp, k).to_json_dict() for k in names}}


def exhaustive_lower_bound(r, sigma2):
    """Lower bound on the all-subsets search error probability:
    (r/(r+sigma^2)) exp(-q)/sqrt(pi q) with q = r/(2 sigma^2). Holds whenever
    at least one spurious predictor exists."""
    if not (0.0 < r < math.inf and 0.0 < sigma2 < math.inf):
        raise ValueError("r and sigma2 must be positive and finite")
    q = r / (2.0 * sigma2)
    return _mill_form(r / (r + sigma2), q, q)


def bound_input_from_design(design, truth, penalties, a, *, restarts=DEFAULT_RESTARTS):
    """Assemble a BoundInput by measuring the margins and restricted
    eigenvalues of an actual standardized design (kappa(T, 3) and kappa(t, 3)
    in one batched search). The screening size s is always derived,
    ``t + floor(sqrt(t) / kappa(T, 3)^2)`` capped at p (p when kappa(T, 3)
    is numerically zero). Enumeration guards apply (small p only)."""
    if not (0.0 < a < 1.0):
        raise ValueError("a must lie in (0,1)")
    t = truth.t
    _check_indices(design, truth.support)
    est_support, est_uniform = _estimate(design, [
        _request(design, [truth.support.indices], 3.0, restarts, None),
        _request(design, _subsets(design.p, t, "t"), 3.0, restarts, None),
    ])
    k = est_support.kappa
    s = min(derived_screen_size(t, k), design.p) if k > 1e-8 else design.p
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
