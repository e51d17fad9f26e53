"""Bound evaluators: sandwich brackets, frozen hand values, predicates."""

import json
import math
from dataclasses import fields

import numpy as np
import pytest
import scipy.stats

from sosselect.bounds import (
    PIPELINE_BOUNDS,
    BoundInput,
    C1_CONST,
    C2_CONST,
    a_below_one_minus_c1,
    a_below_two_c2,
    beta_min_margin,
    bound_input_from_design,
    bound_report,
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
from sosselect import identify
from sosselect.design import Dataset, ModelSet, standardize
from sosselect.errors import DomainError
from sosselect.identify import TruthSpec, kappa, kappa_uniform
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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_bound_input_rejects_non_finite_values_in_every_float_field(value):
    # an accepted delta_p = inf reported T2-full as 0.0 with its assumptions ok
    names = [f.name for f in fields(BoundInput) if f.type is float]
    assert len(names) == 10
    for name in names:
        with pytest.raises(ValueError, match=f"'{name}'"):
            make_input(**{name: value})


def test_bound_input_json_roundtrip():
    inp = make_input()
    again = BoundInput.from_json_dict(inp.to_json_dict())
    assert again == inp


def test_bound_input_json_rejects_what_the_schema_forbids():
    blob = make_input().to_json_dict()
    cases = [
        ({**blob, "bogus": 1}, "bogus"),
        ({k: v for k, v in blob.items() if k != "delta_t"}, "delta_t"),
        ({**blob, "n": 60.9}, "'n'"),
        ({**blob, "n": True}, "'n'"),
        ({**blob, "sigma2": False}, "'sigma2'"),
        ({**blob, "r": "12"}, "'r'"),
    ]
    for bad, name in cases:
        with pytest.raises(ValueError, match=name):
            BoundInput.from_json_dict(bad)


def test_bound_input_json_reads_integral_numbers_by_field_type():
    inp = BoundInput.from_json_dict({**make_input().to_json_dict(), "n": 60.0, "r": 12})
    assert type(inp.n) is int and inp.n == 60
    assert type(inp.r) is float and json.dumps(inp.to_json_dict()["r"]) == "12.0"


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
    pens = default_penalties(p=10, sigma2=1.0, a=0.5)
    inp = make_input(r=pens.r, r_l=pens.r_l, a=0.5, sigma2=1.0, p=10)
    assert overselect_penalty_floor(inp)
    assert screen_penalty_floor(inp)
    assert penalty_link(inp)


# --------------------------------------------------- assembly from a design


def test_bound_input_from_design_orthonormal_all_pass():
    x = np.eye(40)[:, :6]
    d = standardize(Dataset(x=x, y=np.zeros(40)), "formal")
    truth = TruthSpec.from_beta(d, [0, 1], [120.0, -120.0], sigma2=1.0)
    pens = default_penalties(p=6, sigma2=1.0, a=0.9)
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
    inp = bound_input_from_design(d, truth, pens, 0.15, restarts=16)
    assert theorem2_bound(inp).assumptions_ok
    assert corollary_bounds(inp, "C3").assumptions_ok


@pytest.mark.parametrize("seed, restarts", [(130, 16), (131, 64)])
def test_bound_input_kappas_are_exactly_the_public_estimates(monkeypatch, seed, restarts):
    # kappa(T, 3) and kappa(t, 3) come from one search pass, in which the
    # support's search is shared by both; each equals its separate call
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((30, 5))
    d = standardize(Dataset(x=x, y=rng.standard_normal(30)), "formal")
    truth = TruthSpec.from_beta(d, [1, 3], [2.0, -1.5], sigma2=1.0)
    pens = default_penalties(p=5, sigma2=1.0, a=0.9)
    passes = []
    real = identify._alternating_min

    def counting(*args):
        passes.append(args[0].shape)
        return real(*args)

    monkeypatch.setattr(identify, "_alternating_min", counting)
    inp = bound_input_from_design(d, truth, pens, 0.9, restarts=restarts)
    assert len(passes) == 1 and passes[0][0] == math.comb(5, 2)
    monkeypatch.undo()
    assert inp.kappa_T3 == kappa(d, truth.support, 3.0, restarts=restarts).kappa
    assert inp.kappa_t3 == kappa_uniform(d, 2, 3.0, restarts=restarts).kappa


def test_bound_input_rejects_restarts_below_one():
    x = np.eye(40)[:, :6]
    d = standardize(Dataset(x=x, y=np.zeros(40)), "formal")
    truth = TruthSpec.from_beta(d, [0, 1], [120.0, -120.0], sigma2=1.0)
    pens = default_penalties(p=6, sigma2=1.0, a=0.9)
    with pytest.raises(ValueError, match="restarts"):
        bound_input_from_design(d, truth, pens, 0.9, restarts=0)
    for a in (0.0, 1.0, math.nan):
        with pytest.raises(ValueError, match="a must lie in"):
            bound_input_from_design(d, truth, pens, a, restarts=16)


# ------------------------------------------- the table against the formulas
# The evaluators as they were written out by hand, one body per bound, kept
# verbatim as the reference for the BOUNDS table (only renamed with a _ref
# prefix, and with the former BoundResult JSON form folded into _ref_result).


def _ref_mill_form(coef, exponent, scale):
    if scale <= 0.0:
        return math.inf
    return coef * math.exp(-exponent) / math.sqrt(math.pi * scale)


def _ref_result(name, raw, checks):
    failed = tuple(k for k, ok in checks.items() if not ok)
    return {
        "name": name,
        "value": min(raw, 1.0),
        "raw": raw if math.isfinite(raw) else None,
        "assumptions_ok": not failed,
        "failed_assumptions": list(failed),
    }


def _ref_theorem1_bounds(inp):
    a = inp.a
    q1 = inp.r_l**2 / (8.0 * inp.sigma2)
    t1 = _ref_result(
        "T1",
        _ref_mill_form(1.0, (1.0 - a) * q1, q1),
        {
            "screen_penalty_floor": screen_penalty_floor(inp),
            "beta_min_margin": beta_min_margin(inp),
            "screen_budget_within_sample": screen_budget_within_sample(inp),
        },
    )
    m2 = C2_CONST * inp.delta_s / inp.sigma2
    t2 = _ref_result(
        "T2",
        _ref_mill_form(1.5, (1.0 - a) * m2, m2),
        {
            "ordering_separation": ordering_separation(inp),
            "screen_budget_within_sample": screen_budget_within_sample(inp),
        },
    )
    g3 = (1.0 - a) ** 2 * inp.delta_t / (8.0 * inp.sigma2)
    t3 = _ref_result(
        "T3",
        _ref_mill_form(0.5, (1.0 - a) * g3, g3),
        {
            "underselect_penalty_cap": underselect_penalty_cap(inp),
            "underselect_log_gap": underselect_log_gap(inp),
        },
    )
    q4 = inp.r / (2.0 * inp.sigma2)
    t4 = _ref_result(
        "T4",
        _ref_mill_form(1.0, (1.0 - a) * q4, q4),
        {"overselect_penalty_floor": overselect_penalty_floor(inp)},
    )
    return {"T1": t1, "T2": t2, "T3": t3, "T4": t4}


def _ref_theorem2_bound(inp):
    m = C2_CONST * inp.delta_p / inp.sigma2
    return _ref_result(
        "T2-full",
        _ref_mill_form(1.5, (1.0 - inp.a) * m, m),
        {
            "ordering_separation_full": ordering_separation_full(inp),
            "design_within_sample": design_within_sample(inp),
        },
    )


def _ref_corollary_bounds(inp, which):
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
    return _ref_result(which, _ref_mill_form(coef, (1.0 - inp.a) * q, q), checks)


def _ref_bound_report(inp, names=None):
    results = {
        **_ref_theorem1_bounds(inp),
        "T2-full": _ref_theorem2_bound(inp),
        "C1": _ref_corollary_bounds(inp, "C1"),
        "C3": _ref_corollary_bounds(inp, "C3"),
    }
    if names is None:
        names = results
    return {"input": inp.to_json_dict(), "bounds": {k: results[k] for k in names}}


def _random_input(rng):
    """A valid BoundInput spread so that every assumption both holds and
    fails somewhere, with zero margins (an infinite raw value) now and then."""

    def spread(lo, hi):
        return float(10.0 ** rng.uniform(lo, hi))

    p = int(rng.integers(2, 40))
    t = int(rng.integers(1, p))
    s = int(rng.integers(t, p + 1))
    r = spread(-1.0, 3.0)
    margins = [0.0 if rng.random() < 0.1 else spread(-1.0, 5.0) for _ in range(3)]
    return BoundInput(
        n=int(rng.integers(1, 60)),
        p=p,
        t=t,
        s=s,
        sigma2=spread(-1.0, 1.0),
        r=r,
        r_l=2.0 * math.sqrt(r) if rng.random() < 0.5 else spread(-1.0, 2.0),
        # often near 2 c2 ~ 0.17, where a_below_two_c2 flips
        a=float(rng.uniform(0.15, 0.2) if rng.random() < 0.3 else rng.uniform(1e-3, 0.999)),
        delta_s=margins[0],
        delta_t=margins[1],
        delta_p=margins[2],
        kappa_T3=float(rng.uniform(0.0, 1.2)),
        kappa_t3=float(rng.uniform(0.0, 1.2)),
        theta_min=spread(-1.0, 3.0),
    )


def test_bound_table_reports_what_the_hand_written_bodies_did():
    rng = np.random.default_rng(2024)
    failed, infinite = set(), 0
    for _ in range(1500):
        inp = _random_input(rng)
        for names in (None, *PIPELINE_BOUNDS.values()):
            got = json.dumps(bound_report(inp, names), sort_keys=True)
            assert got == json.dumps(_ref_bound_report(inp, names), sort_keys=True)
        want = _ref_bound_report(inp)["bounds"]
        infinite += sum(res["raw"] is None for res in want.values())
        for res in want.values():
            failed.update(res["failed_assumptions"])
            if len(res["failed_assumptions"]) > 1:
                failed.add(("several", res["name"]))
    # every predicate fails somewhere, several at once in every multi-predicate
    # ledger (so their order is checked), and zero margins reach the null raw
    assert failed >= {
        "screen_penalty_floor", "beta_min_margin", "screen_budget_within_sample",
        "ordering_separation", "underselect_penalty_cap", "underselect_log_gap",
        "overselect_penalty_floor", "ordering_separation_full", "design_within_sample",
        "penalty_link", "a_below_one_minus_c1", "combined_beta_min_cap",
        "combined_ordering_cap", "a_below_two_c2", "full_design_penalty_cap",
    }
    assert {("several", k) for k in ("T1", "T2", "T3", "T2-full", "C1", "C3")} <= failed
    assert infinite > 100
