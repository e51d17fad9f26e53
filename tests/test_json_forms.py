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
from sosselect.design import Dataset, LsFit, ls_fit, standardize
from sosselect.identify import KappaEstimate, TruthSpec, check_propositions, kappa_uniform
from sosselect.lasso import EventAWitness, LassoFit, ScreenResult, default_penalties, event_a
from sosselect.selection import (
    ExhaustiveResult,
    GicPath,
    Ordering,
    exhaustive_gic,
    order_by_t,
    run_sos,
)
from sosselect.simlab import (
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
    }
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
