"""Bound evaluators: sandwich brackets, frozen hand values, predicates."""

import math

import numpy as np
import pytest
import scipy.stats

from sosselect.bounds import (
    BoundInput,
    C1_CONST,
    C2_CONST,
    a_below_one_minus_c1,
    a_below_two_c2,
    beta_min_margin,
    bound_input_from_design,
    chi2_tail_sandwich,
    combined_beta_min_cap,
    combined_ordering_cap,
    corollary_bounds,
    derived_screen_size,
    design_within_sample,
    event_a_bound,
    exhaustive_lower_bound,
    full_design_penalty_cap,
    ordering_separation,
    ordering_separation_full,
    overselect_penalty_floor,
    penalty_link,
    screen_budget_within_sample,
    screen_penalty_floor,
    theorem1_bounds,
    theorem2_bound,
    underselect_log_gap,
    underselect_penalty_cap,
)
from sosselect.design import Dataset, ModelSet, standardize
from sosselect.errors import DomainError
from sosselect.identify import TruthSpec
from sosselect.lasso import PenaltyPair, default_penalties


def alternate_constants():
    """The two constants with their values exchanged, the other convention
    in circulation; the evaluators always use C1_CONST/C2_CONST."""
    return {"c1": C2_CONST, "c2": C1_CONST}


def make_input(**over):
    base = dict(
        n=50,
        p=10,
        t=2,
        s=4,
        sigma2=1.0,
        r=20.0,
        r_l=2.0 * math.sqrt(20.0),
        a=0.5,
        delta_s=100.0,
        delta_t=100.0,
        delta_p=100.0,
        kappa_T3=1.0,
        kappa_t3=1.0,
        theta_min=50.0,
    )
    base.update(over)
    return BoundInput(**base)


# ------------------------------------------------------------- constants


def test_constants_values():
    assert C1_CONST == pytest.approx(0.08706795832124714, rel=1e-15)
    assert C2_CONST == pytest.approx(0.08578643762690495, rel=1e-15)
    alt = alternate_constants()
    assert alt == {"c1": C2_CONST, "c2": C1_CONST}


# ------------------------------------------------------ chi-square sandwich


def test_sandwich_frozen_k1():
    lower, upper = chi2_tail_sandwich(1, 4.0)
    assert upper == pytest.approx(0.05399096651318807, rel=1e-13)
    assert lower == pytest.approx(0.8 * upper, rel=1e-13)  # x/(x+1) = 0.8
    exact = 2.0 * scipy.stats.norm.sf(2.0)
    assert lower <= exact <= upper


def test_sandwich_k2_x4_collapses_to_exact():
    lower, upper = chi2_tail_sandwich(2, 4.0)
    assert lower == pytest.approx(math.exp(-2.0), rel=1e-14)
    assert upper == pytest.approx(lower, rel=1e-14)  # ratio is exactly 1 here
    assert scipy.stats.chi2.sf(4.0, 2) == pytest.approx(lower, rel=1e-12)


def test_sandwich_brackets_reference_survival_grid():
    for k in range(1, 11):
        start = max(k - 2, 0) + 0.5
        for x in np.linspace(start, 50.0, 40):
            lower, upper = chi2_tail_sandwich(k, float(x))
            ref = scipy.stats.chi2.sf(float(x), k)
            assert lower <= ref * (1.0 + 1e-10) + 1e-300
            assert upper >= ref * (1.0 - 1e-10)
            assert lower <= upper


def test_sandwich_domain_errors():
    with pytest.raises(DomainError):
        chi2_tail_sandwich(3, 1.0)  # needs x > k-2 = 1
    with pytest.raises(DomainError):
        chi2_tail_sandwich(0, 1.0)
    with pytest.raises(DomainError):
        chi2_tail_sandwich(1, 0.0)


def test_sandwich_k1_small_x_diverges_but_ordered():
    lower, upper = chi2_tail_sandwich(1, 1e-8)
    assert upper > 1.0  # vacuous as a probability; capping is the caller's job
    assert lower <= upper


# ------------------------------------------------------------ event bound


def test_event_a_bound_frozen():
    # q = 1: e^-1 / sqrt(pi)
    assert event_a_bound(1, math.sqrt(8.0), 1.0) == pytest.approx(
        0.2075537487102974, rel=1e-13
    )


def test_event_a_bound_limits_and_cap():
    assert event_a_bound(5, 1e6, 1.0) == 0.0
    assert event_a_bound(1000, 0.01, 1.0) == 1.0
    with pytest.raises(ValueError):
        event_a_bound(0, 1.0, 1.0)
    with pytest.raises(ValueError):
        event_a_bound(5, -1.0, 1.0)


# ----------------------------------------------------------- input object


def test_bound_input_validation():
    with pytest.raises(ValueError):
        make_input(t=10)  # p >= t+1 fails
    with pytest.raises(ValueError):
        make_input(t=0, s=1)  # t+1 >= 2 fails
    with pytest.raises(ValueError):
        make_input(s=1)  # s < t
    with pytest.raises(ValueError):
        make_input(s=11)  # s > p
    with pytest.raises(ValueError):
        make_input(a=1.0)
    with pytest.raises(ValueError):
        make_input(sigma2=0.0)
    with pytest.raises(ValueError):
        make_input(delta_t=-1.0)


def test_bound_input_json_roundtrip():
    inp = make_input()
    again = BoundInput.from_json_dict(inp.to_json_dict())
    assert again == inp


def test_derived_screen_size():
    assert derived_screen_size(4, 1.0) == 6  # 4 + floor(2/1)
    assert derived_screen_size(4, 0.5) == 12  # 4 + floor(2/0.25)
    assert derived_screen_size(1, 2.0) == 1  # 1 + floor(1/4)
    with pytest.raises(ValueError):
        derived_screen_size(2, 0.0)
    with pytest.raises(ValueError):
        derived_screen_size(0, 1.0)


# ------------------------------------------------------------- evaluators


def test_screening_bound_frozen_value():
    # r_l^2/sigma2 = 16, a = 0.5: exp(-1)/sqrt(2 pi)
    inp = make_input(r_l=4.0, sigma2=1.0, a=0.5)
    res = theorem1_bounds(inp)["T1"]
    assert res.raw == pytest.approx(0.14676266317373993, rel=1e-13)
    assert res.value == res.raw


def test_ordering_bound_formula():
    inp = make_input(delta_s=100.0, sigma2=1.0, a=0.5)
    res = theorem1_bounds(inp)["T2"]
    m = C2_CONST * 100.0
    want = 1.5 * math.exp(-0.5 * m) / math.sqrt(math.pi * m)
    assert res.raw == pytest.approx(want, rel=1e-13)


def test_underselect_bound_formula():
    inp = make_input(delta_t=80.0, sigma2=2.0, a=0.25)
    res = theorem1_bounds(inp)["T3"]
    g = (0.75**2) * 80.0 / 16.0
    want = 0.5 * math.exp(-0.75 * g) / math.sqrt(math.pi * g)
    assert res.raw == pytest.approx(want, rel=1e-13)


def test_overselect_bound_formula_and_failed_assumption():
    inp = make_input(r=2.0, r_l=2.0 * math.sqrt(2.0), a=0.5)
    res = theorem1_bounds(inp)["T4"]
    want = math.exp(-0.5) / math.sqrt(math.pi)
    assert res.raw == pytest.approx(want, rel=1e-13)
    assert not res.assumptions_ok
    assert res.failed_assumptions == ("overselect_penalty_floor",)
    assert res.value <= 1.0


def test_full_ordering_bound_frozen():
    inp = make_input(delta_p=100.0, sigma2=1.0, a=0.5)
    res = theorem2_bound(inp)
    assert res.raw == pytest.approx(0.003962581263475877, rel=1e-12)


def test_corollary_frozen_values():
    inp = make_input(r=20.0, sigma2=1.0, a=0.5)
    c1 = corollary_bounds(inp, "C1")
    assert c1.raw == pytest.approx(0.0048085334937710295, rel=1e-13)
    c3 = corollary_bounds(inp, "C3")
    assert c3.raw == pytest.approx(0.75 * c1.raw, rel=1e-13)  # 3 vs 4 coefficient
    with pytest.raises(ValueError):
        corollary_bounds(inp, "C2")


def test_exhaustive_lower_bound_frozen():
    assert exhaustive_lower_bound(2.0, 1.0) == pytest.approx(
        0.1383691658068649, rel=1e-13
    )
    assert exhaustive_lower_bound(1e-12, 1.0) == pytest.approx(0.0, abs=1e-6)
    with pytest.raises(ValueError):
        exhaustive_lower_bound(0.0, 1.0)


def test_zero_margin_caps_at_one():
    inp = make_input(delta_s=0.0, delta_t=0.0, delta_p=0.0)
    res = theorem1_bounds(inp)
    assert res["T2"].value == 1.0 and math.isinf(res["T2"].raw)
    assert res["T3"].value == 1.0
    assert theorem2_bound(inp).value == 1.0
    blob = res["T2"].to_json_dict()
    assert blob["raw"] is None and blob["value"] == 1.0


def test_bounds_monotone_in_their_arguments():
    rs = np.linspace(8.0, 60.0, 15)
    t4 = [theorem1_bounds(make_input(r=float(r), r_l=2.0 * math.sqrt(r)))["T4"].raw for r in rs]
    c1 = [corollary_bounds(make_input(r=float(r), r_l=2.0 * math.sqrt(r)), "C1").raw for r in rs]
    t1 = [theorem1_bounds(make_input(r_l=float(v))) ["T1"].raw for v in np.linspace(3.0, 20.0, 15)]
    t2 = [theorem1_bounds(make_input(delta_s=float(d)))["T2"].raw for d in np.linspace(10.0, 300.0, 15)]
    t3 = [theorem1_bounds(make_input(delta_t=float(d)))["T3"].raw for d in np.linspace(10.0, 300.0, 15)]
    full = [theorem2_bound(make_input(delta_p=float(d))).raw for d in np.linspace(10.0, 300.0, 15)]
    for seq in (t4, c1, t1, t2, t3, full):
        assert all(b <= a + 1e-15 for a, b in zip(seq, seq[1:]))


# ------------------------------------------------------------- predicates


def test_each_predicate_pass_and_fail():
    cases = [
        (screen_penalty_floor, dict(r_l=10.0), dict(r_l=1.0)),
        (beta_min_margin, dict(theta_min=1e4), dict(theta_min=1.0)),
        (screen_budget_within_sample, dict(s=4, n=50), dict(s=4, n=3)),
        (ordering_separation, dict(delta_s=500.0), dict(delta_s=1.0)),
        (underselect_penalty_cap, dict(r=9.0, delta_t=100.0), dict(r=60.0, delta_t=100.0)),
        (underselect_log_gap, dict(delta_t=100.0), dict(delta_t=100.0, a=1e-3)),
        (overselect_penalty_floor, dict(r=30.0), dict(r=9.0)),
        (ordering_separation_full, dict(delta_p=500.0), dict(delta_p=1.0)),
        (design_within_sample, dict(n=50), dict(n=5)),
        (penalty_link, dict(r=20.0, r_l=2.0 * math.sqrt(20.0)), dict(r=20.0, r_l=5.0)),
        (a_below_one_minus_c1, dict(a=0.5), dict(a=0.95)),
        (combined_beta_min_cap, dict(theta_min=1e4), dict(theta_min=10.0)),
        (combined_ordering_cap, dict(delta_s=1e4), dict(delta_s=1.0)),
        (a_below_two_c2, dict(a=0.1), dict(a=0.5)),
        (full_design_penalty_cap, dict(r=9.0, delta_t=1e4, delta_p=1e4), dict(r=9.0, delta_p=1.0)),
    ]
    for fn, ok_over, bad_over in cases:
        assert fn(make_input(**ok_over)), fn.__name__
        assert not fn(make_input(**bad_over)), fn.__name__


def test_boundary_penalty_satisfies_floor_exactly():
    # r at exactly 4 a^-1 sigma^2 log p must pass the floor predicate
    pens = default_penalties(n=50, p=10, sigma2=1.0, a=0.5)
    inp = make_input(r=pens.r, r_l=pens.r_l, a=0.5, sigma2=1.0, p=10)
    assert overselect_penalty_floor(inp)
    assert screen_penalty_floor(inp)
    assert penalty_link(inp)


# --------------------------------------------------- assembly from a design


def test_bound_input_from_design_orthonormal_all_pass():
    x = np.eye(40)[:, :6]
    d = standardize(Dataset(x=x, y=np.zeros(40)), "formal")
    truth = TruthSpec.from_beta(d, [0, 1], [120.0, -120.0], sigma2=1.0)
    pens = default_penalties(n=40, p=6, sigma2=1.0, a=0.9)
    inp = bound_input_from_design(d, truth, pens, 0.9, restarts=16)
    assert inp.s == 3  # t + floor(sqrt(2)) with kappa ~ 1
    assert inp.kappa_T3 == pytest.approx(1.0, abs=1e-4)
    assert inp.delta_t == pytest.approx(14400.0, rel=1e-9)
    assert inp.theta_min == pytest.approx(120.0)
    res = theorem1_bounds(inp)
    for key in ("T1", "T2", "T3", "T4"):
        assert res[key].assumptions_ok, (key, res[key].failed_assumptions)
    assert corollary_bounds(inp, "C1").assumptions_ok


def test_bound_input_from_design_no_screen_route_all_pass():
    x = np.eye(40)[:, :6]
    d = standardize(Dataset(x=x, y=np.zeros(40)), "formal")
    truth = TruthSpec.from_beta(d, [0, 1], [120.0, -120.0], sigma2=1.0)
    pens = PenaltyPair(r=50.0, r_l=2.0 * math.sqrt(50.0))
    inp = bound_input_from_design(d, truth, pens, 0.15, restarts=16, s=6)
    assert theorem2_bound(inp).assumptions_ok
    assert corollary_bounds(inp, "C3").assumptions_ok
