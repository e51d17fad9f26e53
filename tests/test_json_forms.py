"""JSON forms of the results that serialize from their own fields.

Each reference below is the hand-written ``to_json_dict`` body the class had
before it took its form from ``design.JsonFields``; on seeded outputs of the
pipeline the inherited form must dump to the very same bytes, and must dump
with plain ``json.dumps`` (no numpy scalar leaks into the tree).
"""

import json
from dataclasses import asdict

import numpy as np
import pytest

from sosselect.bounds import BoundInput, bound_input_from_design
from sosselect.design import Dataset, LsFit, StandardizedDesign, ls_fit, standardize
from sosselect.identify import KappaEstimate, TruthSpec, check_propositions, kappa_uniform
from sosselect.lasso import (
    EventAWitness,
    LassoFit,
    PenaltyPair,
    ScreenResult,
    default_penalties,
    event_a,
)
from sosselect.selection import (
    ExhaustiveResult,
    GicPath,
    Ordering,
    SelectionOutcome,
    exhaustive_gic,
    order_by_t,
    run_os,
    run_sos,
)
from sosselect.simlab import (
    ExperimentSummary,
    FPivotReport,
    ScenarioConfig,
    TrialRecord,
    f_pivot_check,
    run_experiment,
)

REFERENCE = {
    LsFit: lambda o: {
        "model": list(o.model.indices),
        "theta_hat": o.theta_hat.tolist(),
        "beta_hat": o.beta_hat.tolist(),
        "rss": o.rss,
        "df_resid": o.df_resid,
        "t_squared": None if o.t_squared is None else o.t_squared.tolist(),
    },
    TruthSpec: lambda o: {
        "support": list(o.support.indices),
        "beta_star": o.beta_star.tolist(),
        "theta_star": o.theta_star.tolist(),
        "sigma2": o.sigma2,
    },
    LassoFit: lambda o: {
        "theta_hat": o.theta_hat.tolist(),
        "beta_hat": o.beta_hat.tolist(),
        "penalty": o.penalty,
        "kkt_gap": o.kkt_gap,
        "iterations": o.iterations,
        "converged": o.converged,
    },
    ScreenResult: lambda o: {
        "s0": list(o.s0.indices),
        "s1": list(o.s1.indices),
        "a0": o.a0,
        "a1": o.a1,
    },
    EventAWitness: lambda o: {
        "holds": o.holds,
        "max_correlation": o.max_correlation,
        "threshold": o.threshold,
    },
    Ordering: lambda o: {
        "sequence": list(o.sequence),
        "t_squared": None if o.t_squared is None else list(o.t_squared),
    },
    GicPath: lambda o: {
        "rss_path": o.rss_path.tolist(),
        "values": o.values.tolist(),
        "selected_size": o.selected_size,
        "penalty": o.penalty,
    },
    ExhaustiveResult: lambda o: {
        "model": list(o.model.indices),
        "value": o.value,
        "rss": o.rss,
        "evaluated": o.evaluated,
        "skipped": o.skipped,
    },
    TrialRecord: lambda o: {**asdict(o), "selected": list(o.selected)},
    FPivotReport: asdict,
    ScenarioConfig: asdict,
    BoundInput: asdict,
    KappaEstimate: lambda o: {
        "value": o.value,
        "kappa": o.kappa,
        "lower_cert": o.lower_cert,
        "upper_cert": o.upper_cert,
        "restarts": o.restarts,
        "converged_fraction": o.converged_fraction,
    },
    PenaltyPair: lambda o: {"r": o.r, "r_l": o.r_l},
    StandardizedDesign: lambda o: {
        "mode": o.mode.value,
        "n": o.n,
        "p": o.p,
        "scales": o.scales.tolist(),
        "x0": o.x0.tolist(),
        "y0": o.y0.tolist(),
    },
    SelectionOutcome: lambda o: {
        "algorithm": o.algorithm,
        "mode": o.mode.value,
        "penalties": {"r": o.penalties.r, "r_l": o.penalties.r_l},
        "screen": None if o.screen is None else o.screen.to_json_dict(),
        "ordering": o.ordering.to_json_dict(),
        "path": o.path.to_json_dict(),
        "selected": list(o.selected.indices),
        "refit": o.refit.to_json_dict(),
        "lasso": None if o.lasso is None else o.lasso.to_json_dict(),
    },
    ExperimentSummary: lambda o: {
        "config": o.config.to_json_dict(),
        "replicates": len(o.records),
        "frequencies": o.frequencies,
        "standard_errors": o.standard_errors,
        "event_a_freq": o.event_a_freq,
        "greedy_error": o.greedy_error,
        "exhaustive_error": o.exhaustive_error,
        "ks_distance_f": o.ks_distance_f,
        "f_degenerate_count": o.f_degenerate_count,
        "bound_ledger": o.bound_ledger,
        "meta": dict(o.meta),
    },
}


@pytest.fixture(scope="module")
def outputs():
    rng = np.random.default_rng(2024)
    n, p = 40, 7
    x = rng.standard_normal((n, p))
    noise = rng.standard_normal(n)
    design = standardize(Dataset(x, x[:, :2] @ np.array([3.0, -2.0]) + noise))
    penalties = default_penalties(p, 1.0, 0.5)
    outcome = run_sos(design, penalties=penalties)
    truth = TruthSpec.from_beta(design, [0, 1], [3.0, -2.0])
    report = check_propositions(design, truth, restarts=8)
    # a noiseless response: the t-statistics are undefined (None branches)
    exact = standardize(Dataset(x, x[:, :2] @ np.array([3.0, -2.0])))
    config = ScenarioConfig(
        n=40, p=6, t=2, b=8.0, replicates=6, master_seed=5, fixed_design=True,
        compare_exhaustive=True,
    )
    summary = run_experiment(config)
    # p above the bound guard: no bound ledger, and no exhaustive comparison
    wide = run_experiment(ScenarioConfig(n=30, p=14, t=1, b=8.0, replicates=3, master_seed=2))
    formal = standardize(Dataset(x, x[:, :2] @ np.array([3.0, -2.0]) + noise), "formal")
    explicit = PenaltyPair(r=9.0, r_l=6.0)
    pivot_config = ScenarioConfig(n=30, p=5, t=2, b=30.0, replicates=20, master_seed=3)
    found = {
        LsFit: [outcome.refit, ls_fit(exact, [0, 1], allow_degenerate=True)],
        TruthSpec: [truth, report.truth],
        LassoFit: [outcome.lasso],
        ScreenResult: [outcome.screen],
        EventAWitness: [event_a(design, noise, penalties.r_l)],
        Ordering: [outcome.ordering, order_by_t(exact, [0, 1, 2], allow_degenerate=True)],
        GicPath: [outcome.path],
        ExhaustiveResult: [exhaustive_gic(design, penalties.r)],
        TrialRecord: list(summary.records),
        FPivotReport: [f_pivot_check(pivot_config), f_pivot_check(pivot_config, oracle=True)],
        ScenarioConfig: [config, summary.config],
        BoundInput: [bound_input_from_design(design, truth, penalties, 0.5, restarts=8)],
        # the last is the exact path (J every column, no restarts)
        KappaEstimate: [
            report.kappa_support, report.kappa_uniform_t, kappa_uniform(design, p, 1.0)
        ],
        PenaltyPair: [penalties, explicit],
        StandardizedDesign: [design, exact, formal],
        # sos and os runs (os has no screen and no Lasso) in both modes
        SelectionOutcome: [
            outcome, run_os(design, penalties), run_sos(formal, explicit), run_os(formal, explicit)
        ],
        ExperimentSummary: [summary, wide],
    }
    assert found[SelectionOutcome][1].screen is None and found[SelectionOutcome][1].lasso is None
    assert summary.bound_ledger is not None and summary.exhaustive_error is not None
    assert wide.bound_ledger is None and wide.exhaustive_error is None
    assert found[LsFit][1].t_squared is None and found[Ordering][1].t_squared is None
    return found


def _leaves(blob):
    if isinstance(blob, dict):
        for v in blob.values():
            yield from _leaves(v)
    elif isinstance(blob, list):
        for v in blob:
            yield from _leaves(v)
    else:
        yield blob


@pytest.mark.parametrize("cls", list(REFERENCE), ids=lambda cls: cls.__name__)
def test_json_form_is_the_former_hand_written_one(outputs, cls):
    assert outputs[cls]
    for obj in outputs[cls]:
        assert type(obj) is cls
        blob = obj.to_json_dict()
        json.dumps(blob)  # no default=: every leaf is a JSON type
        assert {type(v) for v in _leaves(blob)} <= {int, float, bool, str, type(None)}
        assert json.dumps(blob, sort_keys=True) == json.dumps(REFERENCE[cls](obj), sort_keys=True)
