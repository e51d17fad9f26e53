"""Monte Carlo laboratory: seeding, event decomposition, bounds, pivot."""

import json
import math

import numpy as np
import pytest
import scipy.stats

from sosselect import design as design_module
from sosselect import simlab
from sosselect.errors import DegenerateSelection
from sosselect.simlab import (
    ExperimentSummary,
    FPivotReport,
    ScenarioConfig,
    TrialRecord,
    _order_correct,
    _tsv_cell,
    f_pivot_check,
    generate_trial,
    persist,
    pivot_dimension,
    run_experiment,
)
from sosselect.selection import run_sos


def load_summary(path):
    with open(path) as fh:
        return json.load(fh)


def strong_config(**over):
    base = dict(
        n=40, p=6, t=2, b=25.0, sigma2=1.0, replicates=50, master_seed=7, fixed_design=True
    )
    base.update(over)
    return ScenarioConfig(**base)


# -------------------------------------------------------------- generation


def test_generate_trial_is_deterministic():
    cfg = strong_config(fixed_design=False)
    d1, _, t1, e1 = generate_trial(cfg, 3)
    d2, _, t2, e2 = generate_trial(cfg, 3)
    assert np.array_equal(d1.x, d2.x) and np.array_equal(d1.y, d2.y)
    assert np.array_equal(e1, e2)
    assert t1.support == t2.support
    d3, _, _, e3 = generate_trial(cfg, 4)
    assert not np.array_equal(d3.x, d1.x) and not np.array_equal(e3, e1)


def test_fixed_design_shares_x_but_not_noise():
    cfg = strong_config(fixed_design=True)
    d1, _, t1, e1 = generate_trial(cfg, 0)
    d2, _, t2, e2 = generate_trial(cfg, 5)
    assert np.array_equal(d1.x, d2.x)
    assert t1.support == t2.support
    assert not np.array_equal(e1, e2)


def test_noiseless_trials_and_recovery():
    cfg = strong_config(sigma2=0.0, replicates=5, penalty_rule="explicit", r=1.0, r_l=0.5)
    dataset, _, truth, eps = generate_trial(cfg, 0)
    assert np.array_equal(eps, np.zeros(cfg.n))
    mu = dataset.x[:, list(truth.support.indices)] @ truth.beta_star
    assert np.array_equal(dataset.y, mu)
    summary = run_experiment(cfg)
    assert summary.frequencies["exact"] == 1.0
    assert summary.greedy_error == 0.0


def test_iid_columns_have_small_sample_correlation():
    # max |corr| over 45 pairs at n=50 exceeds 0.5 with probability ~2%,
    # so demand >= 95/100 seeds (about 2 sigma of slack below the ~98 mean)
    ok = 0
    for seed in range(100):
        cfg = ScenarioConfig(n=50, p=10, t=2, b=1.0, master_seed=seed)
        dataset, _, _, _ = generate_trial(cfg, 0)
        x = dataset.x - dataset.x.mean(axis=0)
        x /= np.linalg.norm(x, axis=0)
        corr = x.T @ x - np.eye(10)
        ok += np.max(np.abs(corr)) < 0.5
    assert ok >= 95


def test_ar1_design_matches_target_correlation():
    cfg = ScenarioConfig(
        n=4000, p=3, t=1, b=1.0, design_kind="ar1", rho=0.6, master_seed=11
    )
    dataset, _, _, _ = generate_trial(cfg, 0)
    x = dataset.x - dataset.x.mean(axis=0)
    x /= np.linalg.norm(x, axis=0)
    gram = x.T @ x
    assert gram[0, 1] == pytest.approx(0.6, abs=0.05)
    assert gram[0, 2] == pytest.approx(0.36, abs=0.05)


def test_duplicated_spurious_appends_exact_copies():
    cfg = ScenarioConfig(
        n=30, p=7, t=2, b=2.0, design_kind="duplicated_spurious", copies=2, master_seed=3
    )
    dataset, _, truth, _ = generate_trial(cfg, 0)
    assert dataset.x.shape == (30, 7)
    base_p = 5
    spurious = [j for j in range(base_p) if j not in truth.support]
    assert np.array_equal(dataset.x[:, 5], dataset.x[:, spurious[0]])
    assert np.array_equal(dataset.x[:, 6], dataset.x[:, spurious[1]])
    assert max(truth.support.indices) < base_p


def test_config_validation():
    with pytest.raises(ValueError):
        strong_config(t=6)
    with pytest.raises(ValueError):
        strong_config(design_kind="ar1", rho=1.0)
    with pytest.raises(ValueError):
        strong_config(design_kind="duplicated_spurious", copies=4)
    with pytest.raises(ValueError):
        strong_config(penalty_rule="corollary1", a=0.0)
    with pytest.raises(ValueError):
        strong_config(algorithm="os", p=45)
    with pytest.raises(ValueError):
        strong_config(beta_pattern="linear")
    with pytest.raises(ValueError):
        ScenarioConfig.from_json_dict({**strong_config().to_json_dict(), "bogus": 1})


def test_config_json_roundtrip_and_penalties():
    cfg = strong_config(penalty_rule="explicit", r=9.0, r_l=6.0)
    again = ScenarioConfig.from_json_dict(cfg.to_json_dict())
    assert again == cfg
    pens = again.penalties()
    assert pens.r == 9.0 and pens.r_l == 6.0
    auto = strong_config(a=0.5).penalties()
    assert auto.r == pytest.approx(4.0 * math.log(6) / 0.5)
    assert auto.r_l == pytest.approx(2.0 * math.sqrt(auto.r))


def test_beta_patterns():
    cfg = ScenarioConfig(n=20, p=5, t=3, b=4.0, beta_pattern="decaying", ratio=0.5, master_seed=2)
    _, _, truth, _ = generate_trial(cfg, 0)
    assert truth.beta_star == pytest.approx([4.0, 2.0, 1.0])
    cfg2 = ScenarioConfig(n=20, p=5, t=3, b=4.0, master_seed=2)
    _, _, truth2, _ = generate_trial(cfg2, 0)
    assert truth2.beta_star == pytest.approx([4.0, 4.0, 4.0])


# ------------------------------------------------------------------ events


def test_order_correct_positions():
    true_set = {1, 4}
    assert _order_correct((4, 1, 0, 2), true_set)
    assert _order_correct((1, 4), true_set)
    assert not _order_correct((4, 0, 1), true_set)
    assert _order_correct((0, 2), true_set)  # no true members present: vacuous
    assert _order_correct((), true_set)


def test_partition_sums_to_one_and_flags_consistent():
    # p = 13 sits above the per-replicate diagnostic guard, keeping this
    # weak-signal sweep about the event algebra only
    cfg = ScenarioConfig(
        n=40, p=13, t=2, b=1.3, sigma2=1.0, replicates=200, master_seed=21
    )
    summary = run_experiment(cfg)
    assert sum(summary.frequencies.values()) == pytest.approx(1.0, abs=1e-12)
    buckets = {b: 0 for b in summary.frequencies}
    for rec in summary.records:
        buckets[rec.bucket] += 1
        if rec.exact:
            assert rec.screen_ok and rec.order_ok
            assert not rec.underfit and not rec.overfit
        assert rec.exact == rec.recovered
    assert {k: v / 200 for k, v in buckets.items()} == summary.frequencies
    assert summary.bound_ledger is None  # guard: p above the diagnostic limit
    # weak signal must actually spread mass across several buckets
    assert summary.frequencies["exact"] < 1.0


def test_replicates_one_summary_matches_record():
    cfg = strong_config(replicates=1)
    summary = run_experiment(cfg)
    rec = summary.records[0]
    assert summary.frequencies[rec.bucket] == 1.0
    assert summary.event_a_freq == float(rec.event_a)
    assert summary.greedy_error == float(not rec.recovered)


def test_strong_signal_recovery_rate():
    cfg = ScenarioConfig(
        n=100, p=10, t=3, b=40.0, sigma2=1.0, a=0.9, replicates=300,
        master_seed=5, fixed_design=True,
    )
    summary = run_experiment(cfg)
    assert summary.frequencies["exact"] >= 0.99


# ------------------------------------------------------------ determinism


def test_jobs_do_not_change_results():
    # non-fixed design with p <= 12 so the per-replicate bound blobs travel
    # through the worker pool as well
    cfg = strong_config(b=1.5, replicates=12, fixed_design=False, master_seed=33)
    one = run_experiment(cfg, jobs=1).to_json_dict()
    three = run_experiment(cfg, jobs=3).to_json_dict()
    one.pop("meta")
    three.pop("meta")
    assert one == three


def exhaustive_race_config(**over):
    base = dict(
        n=30, p=6, t=1, b=3.0, sigma2=1.0, algorithm="os", compare_exhaustive=True,
        penalty_rule="explicit", r=2.0, r_l=2.0 * math.sqrt(2.0),
        replicates=23, master_seed=37, fixed_design=True,
    )
    base.update(over)
    return ScenarioConfig(**base)


def test_jobs_and_block_size_do_not_change_fixed_design_races(monkeypatch):
    cfg = exhaustive_race_config()
    one = run_experiment(cfg, jobs=1)
    three = run_experiment(cfg, jobs=3)
    monkeypatch.setattr(simlab, "_RESPONSE_BLOCK", 5)
    small_blocks = run_experiment(cfg, jobs=1)
    blobs = [s.to_json_dict() for s in (one, three, small_blocks)]
    for blob in blobs:
        blob.pop("meta")
    assert blobs[0] == blobs[1] == blobs[2]
    assert one.records == three.records == small_blocks.records
    assert {r.exhaustive_exact for r in one.records} == {True, False}


def test_jobs_and_block_size_do_not_change_fixed_design_sos(monkeypatch):
    # p above the bound guard, so no ledger; the screen misses the truth in some replicates
    cfg = strong_config(p=13, b=11.0, a=0.9, replicates=23)
    one = run_experiment(cfg, jobs=1)
    three = run_experiment(cfg, jobs=3)
    monkeypatch.setattr(simlab, "_RESPONSE_BLOCK", 5)
    small_blocks = run_experiment(cfg, jobs=1)
    blobs = [s.to_json_dict() for s in (one, three, small_blocks)]
    for blob in blobs:
        blob.pop("meta")
    assert blobs[0] == blobs[1] == blobs[2]
    assert one.records == three.records == small_blocks.records
    assert len({r.selected for r in one.records}) > 1


def test_fixed_design_block_factors_each_model_once(monkeypatch):
    cfg = strong_config(n=80, b=40.0, a=0.9, design_kind="ar1", rho=0.2, replicates=40)
    block = 16
    # what each replicate factors, from its own uncached design
    keys = set()
    for i in range(cfg.replicates):
        out = run_sos(generate_trial(cfg, i)[1], penalties=cfg.penalties())
        assert out.ordering.t_squared is not None  # no leave-one-out refits
        for key in (
            ("fit", out.screen.s1.indices),
            ("path", out.ordering.sequence),
            ("fit", out.selected.indices),
        ):
            if key[1]:
                keys.add((i // block, key))
    calls = []
    inner = design_module._factor

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(simlab, "_RESPONSE_BLOCK", block)
    monkeypatch.setattr(design_module, "_factor", counted)
    simlab._run_block(cfg.to_json_dict(), 0, cfg.replicates, False)
    assert len(calls) == len(keys) < cfg.replicates  # was about 3 per replicate


def test_engine_replicates_equal_generate_trial(monkeypatch):
    cfg = exhaustive_race_config(replicates=9, mode="formal")
    seen = {}
    inner = simlab._single_trial

    def spy(config, draw, index, trial, *rest):
        seen[index] = trial
        return inner(config, draw, index, trial, *rest)

    monkeypatch.setattr(simlab, "_RESPONSE_BLOCK", 4)
    monkeypatch.setattr(simlab, "_single_trial", spy)
    run_experiment(cfg)
    assert sorted(seen) == list(range(9))
    for i, (_, design, truth, eps) in seen.items():
        _, want, want_truth, want_eps = generate_trial(cfg, i)
        for attr in ("x0", "y0", "scales"):
            assert np.array_equal(getattr(design, attr), getattr(want, attr))
        assert np.array_equal(truth.theta_star, want_truth.theta_star)
        assert np.array_equal(eps, want_eps)


@pytest.mark.parametrize("compare_exhaustive", [False, True])
def test_fixed_design_is_standardized_once_per_experiment(monkeypatch, compare_exhaustive):
    calls = []
    inner = simlab.standardize

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(simlab, "standardize", counted)
    counts = []
    for reps in (4, 40):
        calls.clear()
        run_experiment(exhaustive_race_config(replicates=reps, compare_exhaustive=compare_exhaustive))
        counts.append(len(calls))
    # one design draw plus one for the bound ledger, whatever the replicate count
    assert counts == [2, 2]


def test_rerun_is_bit_identical_except_meta(tmp_path):
    cfg = strong_config(replicates=20, master_seed=12)
    pa = persist(run_experiment(cfg), tmp_path / "a")
    pb = persist(run_experiment(cfg), tmp_path / "b")
    sa, sb = load_summary(pa["summary"]), load_summary(pb["summary"])
    sa.pop("meta"), sb.pop("meta")
    assert sa == sb
    with open(pa["trials"], "rb") as fa, open(pb["trials"], "rb") as fb:
        assert fa.read() == fb.read()
    with open(pa["bounds"], "rb") as fa, open(pb["bounds"], "rb") as fb:
        assert fa.read() == fb.read()


def test_persist_roundtrip_and_tsv_shape(tmp_path):
    cfg = strong_config(replicates=8, compare_exhaustive=True)
    summary = run_experiment(cfg)
    paths = persist(summary, tmp_path / "out")
    assert load_summary(paths["summary"]) == json.loads(
        json.dumps(summary.to_json_dict())
    )
    with open(paths["trials"]) as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 9
    header = lines[0].split("\t")
    assert header[0] == "index" and "f_stat" in header
    ledger = load_summary(paths["bounds"])
    assert "worst" in ledger and "event_a_bound" in ledger


def test_tsv_cell_formatting():
    assert _tsv_cell(None) == ""
    assert _tsv_cell(True) == "1" and _tsv_cell(False) == "0"
    assert _tsv_cell((1, 4)) == "1,4"
    assert _tsv_cell(0.5) == "0.5"


# ------------------------------------------------------------------ bounds


def test_bound_coverage_on_valid_configuration():
    cfg = ScenarioConfig(
        n=100, p=8, t=2, b=40.0, sigma2=1.0, a=0.9, replicates=400,
        master_seed=17, fixed_design=True,
    )
    summary = run_experiment(cfg)
    ledger = summary.bound_ledger
    assert ledger is not None
    worst = ledger["worst"]
    se = {k: summary.standard_errors[k] for k in summary.standard_errors}
    pairs = [
        ("T1", "screen_fail"),
        ("T2", "order_fail"),
        ("T3", "underfit"),
        ("T4", "overfit"),
    ]
    for bound_key, bucket in pairs:
        entry = worst[bound_key]
        assert entry["assumptions_ok"], (bound_key, entry["failed_assumptions"])
        assert summary.frequencies[bucket] <= entry["value"] + 2.0 * se[bucket]
    c1 = worst["C1"]
    assert c1["assumptions_ok"], c1["failed_assumptions"]
    total_err = 1.0 - summary.frequencies["exact"]
    total_se = math.sqrt(total_err * (1 - total_err) / 400 + 1e-12)
    assert total_err <= c1["value"] + 2.0 * total_se
    a_fail = 1.0 - summary.event_a_freq
    a_se = math.sqrt(a_fail * (1 - a_fail) / 400 + 1e-12)
    assert a_fail <= ledger["event_a_bound"] + 2.0 * a_se


def test_bounds_skipped_when_guard_applies():
    cfg = ScenarioConfig(
        n=60, p=16, t=2, b=30.0, sigma2=1.0, replicates=5, master_seed=4
    )
    summary = run_experiment(cfg)
    assert summary.bound_ledger is None


def test_per_replicate_bounds_when_design_varies():
    cfg = strong_config(fixed_design=False, replicates=6, master_seed=19)
    summary = run_experiment(cfg)
    ledger = summary.bound_ledger
    assert ledger is not None and ledger["evaluated_on"] == 6
    assert 0.0 <= ledger["worst"]["T4"]["pass_fraction"] <= 1.0


# ------------------------------------------------- greedy vs all-subsets


def test_greedy_not_worse_than_exhaustive():
    cfg = ScenarioConfig(
        n=40, p=6, t=2, b=10.0, sigma2=1.0, algorithm="os", compare_exhaustive=True,
        penalty_rule="explicit", r=6.0, r_l=2.0 * math.sqrt(6.0),
        replicates=300, master_seed=23, fixed_design=True,
    )
    summary = run_experiment(cfg)
    se = math.sqrt(max(summary.exhaustive_error * (1 - summary.exhaustive_error), 1e-12) / 300)
    assert summary.greedy_error <= summary.exhaustive_error + 2.0 * se


def test_exhaustive_error_respects_lower_bound():
    cfg = ScenarioConfig(
        n=60, p=6, t=1, b=30.0, sigma2=1.0, algorithm="os", compare_exhaustive=True,
        penalty_rule="explicit", r=2.0, r_l=2.0 * math.sqrt(2.0),
        replicates=400, master_seed=29,
    )
    summary = run_experiment(cfg)
    floor = summary.bound_ledger["exhaustive_lower"]
    assert floor == pytest.approx(0.1383691658068649, rel=1e-12)
    se = math.sqrt(summary.exhaustive_error * (1 - summary.exhaustive_error) / 400)
    assert summary.exhaustive_error >= floor - 2.0 * se


# ------------------------------------------------------------------ pivot


def test_pivot_dimension_by_mode():
    assert pivot_dimension(3, "practical") == 4
    assert pivot_dimension(3, "formal") == 3


def test_oracle_pivot_within_dkw_band():
    cfg = ScenarioConfig(
        n=60, p=5, t=2, b=30.0, sigma2=1.0, replicates=400, master_seed=31
    )
    report = f_pivot_check(cfg, oracle=True)
    assert report.degenerate_count == 0
    band = math.sqrt(math.log(2.0 / 0.01) / (2.0 * 400))
    assert report.ks_distance <= band
    assert report.dim == 3 and report.denominator_dof == 57


def test_selected_pivot_close_to_reference_when_recovery_is_strong():
    cfg = ScenarioConfig(
        n=60, p=5, t=2, b=30.0, sigma2=1.0, a=0.9, replicates=400,
        master_seed=37, fixed_design=True,
    )
    summary = run_experiment(cfg)
    report = f_pivot_check(cfg, oracle=False)
    assert report.ks_distance == summary.ks_distance_f
    miss = 1.0 - summary.frequencies["exact"]
    slack = 3.0 * math.sqrt(math.log(2.0 / 0.05) / (2.0 * 400))
    assert report.ks_distance <= miss + slack


def test_noiseless_pivot_is_degenerate():
    cfg = strong_config(sigma2=0.0, replicates=4, penalty_rule="explicit", r=1.0, r_l=0.5)
    summary = run_experiment(cfg)
    assert summary.f_degenerate_count == 4
    assert summary.ks_distance_f is None
    with pytest.raises(DegenerateSelection):
        f_pivot_check(cfg)
