"""Monte Carlo laboratory: seeding, event decomposition, bounds, pivot."""

import functools
import json
import math
import os
import subprocess
import sys
from concurrent.futures import Future

import jsonschema
import numpy as np
import pytest
import scipy.stats

import sosselect
from sosselect import design as design_module
from sosselect import load_schema, simlab
from sosselect.bounds import (
    PIPELINE_BOUNDS,
    BoundInput,
    bound_input_from_design,
    bound_report,
)
from sosselect.design import DEGENERATE_RSS, ModelSet
from sosselect.errors import DegenerateSelection, NotConverged, RankDeficient, ScreenTooLarge
from sosselect.lasso import DEFAULT_MAX_ITER, _lasso_block, event_a
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
from sosselect.selection import exhaustive_gic, run_os, run_sos


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


@pytest.mark.parametrize("fixed", [True, False])
def test_streams_follow_the_published_seed_rule(fixed):
    # stream s at index i is SeedSequence((master_seed, s, i)): the design
    # from stream 1 at the replicate's design draw (0 for a fixed design),
    # the noise from stream 2 at the replicate
    cfg = ScenarioConfig(
        n=30, p=5, t=2, b=3.0, sigma2=0.5, master_seed=2**40 + 3, fixed_design=fixed
    )

    def stream(stream, index):
        return np.random.default_rng(np.random.SeedSequence((cfg.master_seed, stream, index)))

    for index in (0, 1, 129):
        design_index = 0 if fixed else index
        assert simlab._seed(cfg, index) == f"{cfg.master_seed}:{design_index}:{index}"
        rng = stream(1, design_index)
        x = rng.standard_normal((cfg.n, cfg.p))
        support = np.sort(rng.permutation(cfg.p)[: cfg.t])
        eps = stream(2, index).standard_normal(cfg.n) * math.sqrt(cfg.sigma2)
        dataset, _, truth, noise = generate_trial(cfg, index)
        assert dataset.x.tobytes() == x.tobytes()
        assert truth.support.indices == tuple(support.tolist())
        assert noise.tobytes() == eps.tobytes()
        assert dataset.y.tobytes() == (x[:, support] @ np.full(cfg.t, cfg.b) + eps).tobytes()


@pytest.mark.parametrize("block", [128, 3])
@pytest.mark.parametrize("stream", [1, 2])
@pytest.mark.parametrize("master_seed", [0, 2**32 - 1, 2**32, 2**64 + 5])
def test_block_seeding_is_numpys_seed_rule_byte_for_byte(monkeypatch, master_seed, stream, block):
    # one- and two-word indices in one array pass, or in three passes of
    # which the middle one mixes them; with a master seed of one to three
    # words the entropy is 3 to 6 words, past numpy's 4-word pool. If numpy
    # changes SeedSequence or PCG64 seeding, this fails
    monkeypatch.setattr(simlab, "_RESPONSE_BLOCK", block)
    indices = [0, 1, 127, 2**32, 128, 10**6, 2**64 - 1]
    cfg = ScenarioConfig(n=30, p=5, t=2, master_seed=master_seed)
    for index, rng in zip(indices, simlab._streams(cfg, stream, indices)):
        want = np.random.default_rng(np.random.SeedSequence((master_seed, stream, index)))
        # as the design draw: standard_normal, then a permutation, which
        # reads PCG64's buffered uint32 and leaves one for the next row to drop
        got = rng.standard_normal(11).tobytes() + rng.permutation(9).tobytes()
        assert got == want.standard_normal(11).tobytes() + want.permutation(9).tobytes(), index


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
    with pytest.raises(ValueError, match="'a'"):  # a is checked under every rule
        strong_config(penalty_rule="explicit", r=2.0, r_l=2.0, a=1.5)
    with pytest.raises(ValueError):
        strong_config(algorithm="os", p=45)
    with pytest.raises(ValueError):
        strong_config(beta_pattern="linear")
    with pytest.raises(ValueError):
        ScenarioConfig.from_json_dict({**strong_config().to_json_dict(), "bogus": 1})


_SCENARIO_SCHEMA = load_schema("scenario_config")


def _probe_values(rule, rng):
    """Values of one field around each bound its schema entry states, plus a
    few seeded draws, in the field's own JSON type."""
    if "enum" in rule:
        return rule["enum"] + ["bogus", rule["enum"][0].upper()]
    if rule["type"] == "boolean":
        return [True, False]
    edges = [rule[k] for k in ("minimum", "exclusiveMinimum", "exclusiveMaximum") if k in rule]
    edges += [rule["not"]["const"]] if "not" in rule else []
    if rule["type"] == "integer":
        near = {e + d for e in edges for d in (-1, 0, 1)}
        return sorted(near | set(rng.integers(-3, 40, size=4).tolist()))
    near = {float(e) + d for e in edges for d in (-0.5, -1e-9, 0.0, 1e-9, 0.5)}
    return sorted(near | set(rng.uniform(-2.0, 3.0, size=4).tolist()))


def _cross_field_ok(blob):
    """The rules tying several fields, which the schema cannot state."""
    n_eff = blob["n"] - 1 if blob["mode"] == "practical" else blob["n"]
    spare = blob["p"] - blob["t"] - 1
    return (
        blob["t"] < blob["p"]
        and (blob["design_kind"] != "duplicated_spurious" or blob["copies"] <= spare)
        and (blob["algorithm"] != "os" or blob["p"] < n_eff)
    )


@pytest.mark.parametrize("kind", _SCENARIO_SCHEMA["properties"]["design_kind"]["enum"])
@pytest.mark.parametrize("rule", _SCENARIO_SCHEMA["properties"]["penalty_rule"]["enum"])
def test_config_enforces_every_single_field_schema_bound(kind, rule):
    base = dict(
        n=40, p=12, t=1, design_kind=kind, rho=0.3, copies=2, beta_pattern="decaying",
        b=5.0, ratio=0.5, sigma2=1.0, mode="practical", penalty_rule=rule, a=0.5, r=2.0,
        r_l=2.0, algorithm="sos", replicates=3, master_seed=1, fixed_design=False,
        compare_exhaustive=False,
    )
    jsonschema.validate(base, _SCENARIO_SCHEMA)
    validator = jsonschema.Draft7Validator(_SCENARIO_SCHEMA)
    rng = np.random.default_rng(2026)
    single_field_rejections = 0
    for name, field_rule in _SCENARIO_SCHEMA["properties"].items():
        for value in _probe_values(field_rule, rng):
            blob = {**base, name: value}
            schema_ok = validator.is_valid(blob)
            try:
                ScenarioConfig.from_json_dict(blob)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == (schema_ok and _cross_field_ok(blob)), (name, value)
            single_field_rejections += not schema_ok and _cross_field_ok(blob)
    assert single_field_rejections >= 40


def test_bound_input_enforces_every_single_field_schema_bound():
    schema = load_schema("bound_input")
    base = dict(
        n=60, p=6, t=2, s=3, sigma2=1.0, r=12.0, r_l=6.9, a=0.5, delta_s=120.0,
        delta_t=3000.0, delta_p=60.0, kappa_T3=0.8, kappa_t3=0.7, theta_min=55.0,
    )
    validator = jsonschema.Draft7Validator(schema)
    assert validator.is_valid(base)
    rng = np.random.default_rng(2027)
    probes = single_field_rejections = 0
    for name, field_rule in schema["properties"].items():
        for value in _probe_values(field_rule, rng):
            blob = {**base, name: value}
            schema_ok = validator.is_valid(blob)
            cross_ok = blob["p"] >= blob["t"] + 1 and blob["t"] <= blob["s"] <= blob["p"]
            try:
                BoundInput.from_json_dict(blob)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == (schema_ok and cross_ok), (name, value)
            probes += 1
            single_field_rejections += not schema_ok and cross_ok
    assert probes >= 100 and single_field_rejections >= 40


_CONFIG_BASE = dict(n=30, p=4, t=1)
_BOUND_BASE = dict(
    n=60, p=6, t=2, s=3, sigma2=1.0, r=12.0, r_l=6.9, a=0.5, delta_s=120.0,
    delta_t=3000.0, delta_p=60.0, kappa_T3=0.8, kappa_t3=0.7, theta_min=55.0,
)


@pytest.mark.parametrize(
    "cls, base, name, value",
    [
        (ScenarioConfig, _CONFIG_BASE, "fixed_design", "yes"),  # boolean: a bool only
        (ScenarioConfig, _CONFIG_BASE, "compare_exhaustive", 1),
        (ScenarioConfig, _CONFIG_BASE, "master_seed", True),  # integer: never a bool
        (ScenarioConfig, _CONFIG_BASE, "replicates", 4.0),
        (ScenarioConfig, _CONFIG_BASE, "b", "x"),  # number: a real, never a bool
        (ScenarioConfig, _CONFIG_BASE, "sigma2", True),
        (BoundInput, _BOUND_BASE, "n", True),
        (BoundInput, _BOUND_BASE, "delta_s", "120"),
    ],
)
def test_python_built_configs_check_field_types(cls, base, name, value):
    with pytest.raises(ValueError, match=f"'{name}'"):
        cls(**{**base, name: value})


def test_python_built_configs_take_numpy_scalars():
    ScenarioConfig(**{**_CONFIG_BASE, "n": np.int64(30), "b": np.float64(2.0)})
    BoundInput(**{**_BOUND_BASE, "n": np.int64(60), "delta_s": np.float64(120.0)})


def test_config_json_rejects_wrongly_typed_fields():
    blob = strong_config().to_json_dict()
    cases = [
        ({**blob, "n": "100"}, "'n'"),
        ({**blob, "p": 8.7}, "'p'"),
        ({**blob, "replicates": True}, "'replicates'"),
        ({**blob, "rho": True}, "'rho'"),
        ({**blob, "mode": 3}, "'mode'"),
        ({**blob, "fixed_design": 1}, "'fixed_design'"),
        ({**blob, "rho": math.nan}, "'rho'"),
        ({**blob, "b": -math.inf}, "'b'"),
        ({k: v for k, v in blob.items() if k != "t"}, "'t'"),
    ]
    for bad, name in cases:
        with pytest.raises(ValueError, match=name):
            ScenarioConfig.from_json_dict(bad)


@pytest.mark.parametrize(
    "over, name",
    [
        (dict(b=math.nan), "'b'"),
        (dict(b=math.inf), "'b'"),
        (dict(penalty_rule="explicit", r=math.inf, r_l=1.0), "'r'"),
    ],
)
def test_config_constructor_rejects_non_finite_numbers(over, name):
    with pytest.raises(ValueError, match=name):
        ScenarioConfig(n=30, p=4, t=1, **over)


def test_config_constructor_rejects_non_finite_values_in_every_number_field():
    numbers = [k for k, v in _SCENARIO_SCHEMA["properties"].items() if v.get("type") == "number"]
    assert len(numbers) == 7
    for name in numbers:
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"'{name}'"):
                strong_config(**{name: value})


def test_config_json_keeps_values_in_their_json_form():
    cfg = ScenarioConfig.from_json_dict({"n": 40, "p": 6, "t": 2, "b": 40, "rho": 0})
    assert cfg.to_json_dict()["b"] == 40 and type(cfg.b) is int
    assert cfg == strong_config(b=40, rho=0, replicates=100, master_seed=0, fixed_design=False)


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


def assert_partition(summary):
    """Each flag is raised only when every earlier step succeeded, and the
    five bucket frequencies sum to one."""
    assert sum(summary.frequencies.values()) == pytest.approx(1.0, abs=1e-12)
    for rec in summary.records:
        assert not rec.order_ok or rec.screen_ok
        assert not (rec.underfit or rec.overfit or rec.exact) or rec.order_ok
        assert rec.underfit + rec.overfit + rec.exact <= 1


def test_order_fail_and_underfit_buckets():
    # strongly correlated AR(1) columns with fast-decaying signal: the full
    # ordering misplaces a weak true predictor, or cuts it off
    cfg = ScenarioConfig(
        n=40, p=8, t=3, design_kind="ar1", rho=0.9, beta_pattern="decaying",
        b=4.0, ratio=0.3, a=0.5, algorithm="os", replicates=6, master_seed=1,
    )
    summary = run_experiment(cfg)
    assert_partition(summary)
    buckets = [rec.bucket for rec in summary.records]
    assert "order_fail" in buckets and "underfit" in buckets
    for rec in summary.records:
        assert rec.screen_ok  # the full-design pipeline never screens
        if rec.bucket == "order_fail":
            assert not (rec.underfit or rec.overfit or rec.exact)
        if rec.bucket == "underfit":
            assert rec.order_ok and len(rec.selected) < cfg.t


def test_screen_too_large_is_a_screening_failure():
    # at n = 6 a tiny screening penalty keeps |S1| = n_effective columns,
    # which cannot be refit: the replicate is a screening failure
    cfg = ScenarioConfig(
        n=6, p=12, t=2, b=5.0, penalty_rule="explicit", r=1.0, r_l=0.05,
        replicates=4, master_seed=2,
    )
    for index in (0, 3):
        _, design, _, _ = generate_trial(cfg, index)
        with pytest.raises(ScreenTooLarge):
            run_sos(design, penalties=cfg.penalties())
    summary = run_experiment(cfg)
    assert_partition(summary)
    for index in (0, 3):
        rec = summary.records[index]
        assert rec.bucket == "screen_fail"
        assert not rec.order_ok and rec.selected == ()
        assert not (rec.underfit or rec.overfit or rec.exact or rec.recovered)
    assert summary.frequencies["screen_fail"] >= 0.5


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


@pytest.mark.parametrize("jobs", [1, 2])
def test_unconverged_screen_names_its_replicate(jobs):
    # replicate 8's Lasso needs about 16,000 sweeps, past the 10,000 limit;
    # the error keeps its type and names the replicate, its seed streams and
    # the fit's KKT gap and sweep count
    cfg = ScenarioConfig(
        n=10, p=14, t=2, b=5, penalty_rule="explicit", r=1, r_l=0.2,
        replicates=10, master_seed=2,
    )
    with pytest.raises(
        NotConverged,
        match=r"^replicate 8 \(seed 2:8:8\): screening .* \(KKT gap \d\.\de[-+]\d+ after 10000 sweeps\)$",
    ):
        run_experiment(cfg, jobs=jobs)


def test_worker_pool_is_no_larger_than_its_work(monkeypatch):
    # a fork pool launches all its workers at the first submit; this inline
    # stand-in records the pool size asked for and starts no process
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(simlab, "ProcessPoolExecutor", InlinePool)
    cfg = strong_config(replicates=10)
    wide = run_experiment(cfg, jobs=64)
    assert sizes == [10]
    assert wide.records == run_experiment(cfg, jobs=1).records


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


def test_fixed_design_sos_block_equals_each_replicates_own_run_sos():
    # one Lasso block serves all replicates; each must select what its own
    # run_sos selects, with the bucket that selection implies
    cfg = strong_config(p=13, b=11.0, a=0.9, replicates=60)
    pen = cfg.penalties()
    records = run_experiment(cfg).records
    for rec in records:
        _, design, truth, _ = generate_trial(cfg, rec.index)
        out = run_sos(design, pen)
        truth_set = set(truth.support.indices)
        size = len(out.selected)
        if not truth_set.issubset(out.ordering.sequence):
            bucket = "screen_fail"
        elif not _order_correct(out.ordering.sequence, truth_set):
            bucket = "order_fail"
        else:
            bucket = "underfit" if size < truth.t else "overfit" if size > truth.t else "exact"
        assert (rec.selected, rec.bucket) == (out.selected.indices, bucket)
    assert len({rec.bucket for rec in records}) > 1


def test_fixed_design_block_factors_each_model_once(monkeypatch):
    cfg = strong_config(n=80, b=40.0, a=0.9, design_kind="ar1", rho=0.2, replicates=40)
    block = 16
    # a block factors each distinct screened set (the ordering fit) and each
    # distinct ordering (the prefix path) once
    keys = set()
    for i in range(cfg.replicates):
        out = run_sos(generate_trial(cfg, i)[1], penalties=cfg.penalties())
        assert out.ordering.t_squared is not None  # no leave-one-out refits
        for key in (("fit", out.screen.s1.indices), ("path", out.ordering.sequence)):
            if key[1]:
                keys.add((i // block, key))
    calls = []
    inner = design_module._factor

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(simlab, "_RESPONSE_BLOCK", block)
    monkeypatch.setattr(design_module, "_factor", counted)
    simlab._run_block(cfg, 0, cfg.replicates, False)
    assert len(calls) == len(keys) < cfg.replicates  # was about 3 per replicate


def test_engine_replicates_equal_generate_trial(monkeypatch):
    cfg = exhaustive_race_config(replicates=9, mode="formal")
    walk, records = simlab._exhaustive_block, simlab._block_records
    seen_eps, seen_y0, seen_design, seen_truth = {}, [], [], {}

    def spy_walk(design, responses, r):
        seen_y0.extend(responses)
        seen_design.extend([design] * len(responses))
        return walk(design, responses, r)

    def spy_records(config, draw, indices, eps, penalties):
        seen_eps.update(zip(indices, eps))
        seen_truth.update((i, draw.truth) for i in indices)
        return records(config, draw, indices, eps, penalties)

    monkeypatch.setattr(simlab, "_RESPONSE_BLOCK", 4)
    monkeypatch.setattr(simlab, "_exhaustive_block", spy_walk)
    monkeypatch.setattr(simlab, "_block_records", spy_records)
    run_experiment(cfg)
    assert sorted(seen_eps) == sorted(seen_truth) == list(range(9))
    assert len(seen_y0) == 9  # the blocks come in replicate order
    for i in range(9):
        dataset, want, want_truth, want_eps = generate_trial(cfg, i)
        assert np.array_equal(seen_y0[i], want.y0)
        for attr in ("x0", "scales"):
            assert np.array_equal(getattr(seen_design[i], attr), getattr(want, attr))
        assert np.array_equal(seen_truth[i].theta_star, want_truth.theta_star)
        assert np.array_equal(seen_eps[i], want_eps)


# ------------------------------------------- the per-replicate reference


def f_stat_reference(x, mu, y, mode, model):
    """The post-selection pivot of one response, as records computed it
    one replicate at a time."""
    n = len(y)
    d = pivot_dimension(len(model), mode)
    if len(model) == 0 or d >= n:
        return None
    cols = [x[:, j] for j in model.indices]
    if d > len(model):
        cols = [np.ones(n)] + cols
    qmat, _ = np.linalg.qr(np.column_stack(cols))
    target = qmat @ (qmat.T @ mu)
    fit = qmat @ (qmat.T @ y)
    rss = float(np.sum((y - fit) ** 2))
    if rss <= DEGENERATE_RSS:
        return None
    num = float(np.sum((fit - target) ** 2)) / d
    return num / (rss / (n - d))


def single_trial_reference(config, index, branches, max_iter=DEFAULT_MAX_ITER):
    """Replicate ``index``'s record from its own draws and the single-response
    calls, as records were built one replicate at a time before the block
    y-side: the oracle of ``simlab._block_records``. Its Lasso is
    ``run_sos``'s ``solve_lasso`` with ``max_iter`` sweeps. Adds to
    ``branches`` the rare paths it took."""
    draw = next(simlab._response_blocks(config, index, index + 1))[0]
    dataset, design, truth, eps = generate_trial(config, index)
    penalties = config.penalties()
    best = exhaustive_gic(design, penalties.r) if config.compare_exhaustive else None
    seed = f"{config.master_seed}:{0 if config.fixed_design else index}:{index}"
    true_set = set(truth.support.indices)
    t = truth.t

    screen_ok = True
    order_ok = False
    selected = ModelSet.empty()
    outcome = None
    try:
        if config.algorithm == "os":
            outcome = run_os(design, penalties)
        else:
            outcome = run_sos(design, penalties, max_iter=max_iter)
    except ScreenTooLarge:
        screen_ok = False
        branches.add("screen_too_large")
    except NotConverged as err:
        branches.add("not_converged")
        raise NotConverged(f"replicate {index} (seed {seed}): {err}") from err
    if outcome is not None:
        kept = set(outcome.ordering.sequence)
        if config.algorithm == "sos":
            screen_ok = true_set.issubset(kept)
        order_ok = screen_ok and _order_correct(outcome.ordering.sequence, true_set)
        selected = outcome.selected
        if not kept:
            branches.add("empty_s1")
        if outcome.ordering.t_squared is None:
            branches.add("leave_one_out")

    size = len(selected)
    underfit = screen_ok and order_ok and size < t
    overfit = screen_ok and order_ok and size > t
    exact = screen_ok and order_ok and size == t
    recovered = selected == truth.support
    if exact and not recovered:
        raise AssertionError("size-t prefix of a correct ordering must be the truth")

    f_val = f_stat_reference(draw.x, draw.mu, dataset.y, config.mode, selected)
    if f_val is None:
        branches.add("f_stat_none")
    return TrialRecord(
        index=index,
        seed=seed,
        screen_ok=screen_ok,
        order_ok=order_ok,
        underfit=underfit,
        overfit=overfit,
        exact=exact,
        recovered=recovered,
        event_a=event_a(design, eps, penalties.r_l).holds,
        selected=selected.indices,
        exhaustive_exact=None if best is None else best.model == truth.support,
        f_stat=f_val,
    )


def reference_run(config, branches, max_iter=DEFAULT_MAX_ITER):
    """The reference records of every replicate, or the error the first
    failing replicate raises, as (type, message)."""
    try:
        return repr([
            single_trial_reference(config, i, branches, max_iter)
            for i in range(config.replicates)
        ])
    except Exception as exc:
        return type(exc), str(exc)


def engine_runs(monkeypatch, config):
    """run_experiment's records (or error) in blocks of 1, 5 and 128 with
    jobs 1, and in blocks of 5 with jobs 3; a fresh design, whose blocks
    are always of one, with jobs 1 and 3."""
    runs = []
    settings = [(1, 1), (5, 1), (128, 1), (5, 3)] if config.fixed_design else [(1, 1), (1, 3)]
    for block, jobs in settings:
        monkeypatch.setattr(simlab, "_RESPONSE_BLOCK", block)
        try:
            runs.append(repr(list(run_experiment(config, jobs=jobs).records)))
        except Exception as exc:
            runs.append((type(exc), str(exc)))
    return runs


REFERENCE_CONFIGS = {
    # several screened sets and orderings per block; p above the bound guard
    "fixed_sos_practical": dict(
        n=40, p=13, t=2, b=11.0, a=0.9, replicates=23, master_seed=7, fixed_design=True
    ),
    "fixed_sos_formal": dict(
        n=40, p=13, t=2, b=11.0, a=0.9, mode="formal", replicates=23, master_seed=8,
        fixed_design=True,
    ),
    "fixed_os_race_formal": dict(
        n=30, p=6, t=1, b=3.0, algorithm="os", compare_exhaustive=True, mode="formal",
        penalty_rule="explicit", r=2.0, r_l=2.0 * math.sqrt(2.0), replicates=23,
        master_seed=37, fixed_design=True,
    ),
    "fixed_os_practical": dict(
        n=40, p=13, t=3, design_kind="ar1", rho=0.9, beta_pattern="decaying", b=6.0,
        ratio=0.4, algorithm="os", replicates=23, master_seed=1, fixed_design=True,
    ),
    # weak signal: replicates that share an ordering cut it at different sizes
    "fixed_os_cuts": dict(
        n=40, p=4, t=2, b=0.5, penalty_rule="explicit", r=2.0, r_l=2.8, algorithm="os",
        replicates=23, master_seed=1, fixed_design=True,
    ),
    "fresh_sos_formal": dict(
        n=40, p=13, t=2, b=11.0, a=0.9, mode="formal", replicates=9, master_seed=8,
    ),
    "fresh_os_practical": dict(
        n=40, p=13, t=3, design_kind="ar1", rho=0.9, beta_pattern="decaying", b=4.0,
        ratio=0.3, algorithm="os", replicates=9, master_seed=1,
    ),
    # |S1| reaches n_effective: screening failures
    "screen_too_large": dict(
        n=5, p=13, t=2, b=5.0, penalty_rule="explicit", r=1.0, r_l=0.15,
        replicates=5, master_seed=4, fixed_design=True,
    ),
    # a penalty above every coefficient: empty screened sets
    "empty_s1": dict(
        n=40, p=13, t=2, b=2.0, penalty_rule="explicit", r=1.0, r_l=40.0,
        replicates=7, master_seed=3, fixed_design=True,
    ),
    # no noise: ~0 residuals, leave-one-out orderings and no pivot
    "noiseless": dict(
        n=40, p=6, t=2, b=25.0, sigma2=0.0, penalty_rule="explicit", r=1.0, r_l=0.5,
        replicates=7, master_seed=7, fixed_design=True,
    ),
    "noiseless_os": dict(
        n=40, p=6, t=2, b=25.0, sigma2=0.0, penalty_rule="explicit", r=1.0, r_l=0.5,
        algorithm="os", mode="formal", replicates=7, master_seed=7, fixed_design=True,
    ),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_CONFIGS))
def test_block_records_are_the_per_replicate_records(monkeypatch, name):
    cfg = ScenarioConfig(**REFERENCE_CONFIGS[name])
    branches = set()
    want = reference_run(cfg, branches)
    assert isinstance(want, str), want
    assert set(engine_runs(monkeypatch, cfg)) == {want}
    expected = {
        "screen_too_large": {"screen_too_large"},
        "empty_s1": {"empty_s1", "f_stat_none"},
        "noiseless": {"leave_one_out", "f_stat_none"},
        "noiseless_os": {"leave_one_out", "f_stat_none"},
    }.get(name, set())
    assert expected <= branches


def test_block_records_raise_what_the_first_failing_replicate_raises(monkeypatch):
    # fresh designs: replicate 8's Lasso needs about 16,000 sweeps
    cfg = ScenarioConfig(
        n=10, p=14, t=2, b=5, penalty_rule="explicit", r=1, r_l=0.2,
        replicates=10, master_seed=2,
    )
    want = reference_run(cfg, set())
    assert want[0] is NotConverged and want[1].startswith("replicate 8 (seed 2:8:8): ")
    assert set(engine_runs(monkeypatch, cfg)) == {want}
    # a fixed design whose Lasso block stops after 3 sweeps: the first
    # unconverged replicate in index order raises, in any block and job count
    cfg = strong_config(p=13, b=11.0, a=0.9, replicates=23)
    short = functools.partial(_lasso_block, max_iter=3)
    branches = set()
    want = reference_run(cfg, branches, max_iter=3)
    assert want[0] is NotConverged and branches == {"not_converged"}
    monkeypatch.setattr(simlab, "_lasso_block", short)
    assert set(engine_runs(monkeypatch, cfg)) == {want}
    # a rank-deficient ordering fit, shared by a whole group of replicates
    cfg = ScenarioConfig(
        n=40, p=8, t=2, design_kind="duplicated_spurious", copies=2, algorithm="os",
        replicates=7, master_seed=11, fixed_design=True,
    )
    want = reference_run(cfg, set())
    assert want[0] is RankDeficient
    assert set(engine_runs(monkeypatch, cfg)) == {want}


def test_oracle_pivot_is_the_per_replicate_pivot():
    for cfg in (
        ScenarioConfig(n=60, p=5, t=2, b=30.0, replicates=300, master_seed=31),
        strong_config(replicates=140, mode="formal"),
    ):
        vals = []
        for i in range(cfg.replicates):
            dataset, _, truth, _ = generate_trial(cfg, i)
            draw = next(simlab._response_blocks(cfg, i, i + 1))[0]
            vals.append(f_stat_reference(draw.x, draw.mu, dataset.y, cfg.mode, truth.support))
        report = f_pivot_check(cfg, oracle=True)
        assert report.ks_distance == simlab._pivot_ks(cfg, vals)
        assert (report.used, report.degenerate_count) == (cfg.replicates, 0)


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
    # one design draw, which the bound ledger reuses, whatever the replicate count
    assert counts == [1, 1]


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
    ledger, parallel = (run_experiment(cfg, jobs=jobs).bound_ledger for jobs in (1, 3))
    assert ledger is not None and ledger["evaluated_on"] == 6
    assert 0.0 <= ledger["worst"]["T4"]["pass_fraction"] <= 1.0
    assert parallel == ledger  # every replicate's ledger, whichever worker drew it


def test_fixed_design_ledger_is_built_once_by_the_block_of_replicate_0(monkeypatch):
    cfg = exhaustive_race_config(compare_exhaustive=False, replicates=23)
    monkeypatch.setattr(simlab, "_RESPONSE_BLOCK", 4)
    ledgers = [run_experiment(cfg, jobs=jobs).bound_ledger for jobs in (1, 3)]
    assert ledgers[0] == ledgers[1]
    assert ledgers[0]["evaluated_on"] == 1
    # the ledger an experiment used to build on a redraw of design 0
    _, design, truth, _ = generate_trial(cfg, 0)
    inp = bound_input_from_design(design, truth, cfg.penalties(), cfg.a, restarts=64)
    want = bound_report(inp, PIPELINE_BOUNDS[cfg.algorithm])
    assert ledgers[0]["input"] == want["input"]
    for name, entry in want["bounds"].items():
        got = ledgers[0]["worst"][name]
        assert got["value"] == entry["value"]
        assert got["assumptions_ok"] == entry["assumptions_ok"]
        assert got["failed_assumptions"] == sorted(entry["failed_assumptions"])


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


def test_oracle_pivot_runs_in_one_process():
    cfg = strong_config(replicates=4)
    with pytest.raises(ValueError, match="jobs=2"):
        f_pivot_check(cfg, oracle=True, jobs=2)
    assert f_pivot_check(cfg, oracle=True, jobs=1) == f_pivot_check(cfg, oracle=True)


def test_pivot_ks_matches_the_scipy_stats_reference_bit_for_bit():
    rng = np.random.default_rng(43)
    for mode in ("practical", "formal"):
        cfg = ScenarioConfig(n=30, p=6, t=2, mode=mode)
        d = pivot_dimension(cfg.t, cfg.mode)
        for size in (1, 7, 400):
            vals = rng.f(d, cfg.n - d, size=size) * rng.uniform(0.2, 5.0)
            if size > 1:
                vals[0] = 0.0  # the smallest value a pivot takes
            srt = np.sort(vals)
            ref = scipy.stats.f(d, cfg.n - d).cdf(srt)
            upper = np.max(np.arange(1, size + 1) / size - ref)
            lower = np.max(ref - np.arange(0, size) / size)
            assert simlab._pivot_ks(cfg, vals) == float(max(upper, lower))


def assert_import_leaves_unloaded(module, unloaded):
    src = os.path.dirname(os.path.dirname(os.path.abspath(sosselect.__file__)))
    code = f"import sys, {module}; assert {unloaded!r} not in sys.modules"
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_import_leaves_scipy_stats_unloaded():
    assert_import_leaves_unloaded("sosselect", "scipy.stats")


def test_cli_import_leaves_scipy_special_unloaded():
    # only the pivot distance needs it, so only simulate loads it
    assert_import_leaves_unloaded("sosselect.cli", "scipy.special")


def test_noiseless_pivot_is_degenerate():
    cfg = strong_config(sigma2=0.0, replicates=4, penalty_rule="explicit", r=1.0, r_l=0.5)
    summary = run_experiment(cfg)
    assert summary.f_degenerate_count == 4
    assert summary.ks_distance_f is None
    with pytest.raises(DegenerateSelection):
        f_pivot_check(cfg)
