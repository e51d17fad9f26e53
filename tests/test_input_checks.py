"""Each public entry point rejects the malformed input its docstring names:
an index out of range or of the wrong type, arrays of the wrong length or
shape, a negative penalty or variance, an empty or degenerate set."""

import json
import math
import pathlib
import tempfile

import numpy as np
import pytest

from sosselect.bounds import (
    BoundInput,
    bound_input_from_design,
    chi2_tail_sandwich,
    derived_screen_size,
    event_a_bound,
    exhaustive_lower_bound,
)
from sosselect.cli import main
from sosselect.design import Dataset, ModelSet, ls_fit, rss, standardize
from sosselect.errors import DomainError, KappaDegenerate
from sosselect.identify import (
    TruthSpec,
    check_propositions,
    delta_identifiability,
    delta_pair,
    delta_scaled,
    kappa,
    kappa_uniform,
    min_subset_eigen,
)
from sosselect.lasso import (
    PenaltyPair,
    default_penalties,
    event_a,
    kkt_gap,
    solve_lasso,
    verify_oracle_inequalities,
)
from sosselect.selection import Ordering, exhaustive_gic, gic_path, run_sos
from sosselect.simlab import ScenarioConfig, f_pivot_check

N, P = 30, 6
NAN = float("nan")
PENALTIES = PenaltyPair(r=12.0, r_l=6.0)


def from_csv_response(response):
    """``Dataset.from_csv`` on a three-column file with this response."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "data.csv"
        path.write_text("a,b,c\n1,2,3\n4,5,7\n2,0,1\n")
        return Dataset.from_csv(path, response=response)


@pytest.fixture(scope="module")
def design():
    rng = np.random.default_rng(41)
    x = rng.standard_normal((N, P))
    return standardize(Dataset(x, 4.0 * x[:, 0] - 3.0 * x[:, 2] + rng.standard_normal(N)))


@pytest.fixture(scope="module")
def truth(design):
    return TruthSpec.from_beta(design, [0, 2], [4.0, -3.0])


def beyond_p_truth():
    """A truth whose second support column is one past the design's last."""
    return TruthSpec(ModelSet((0, P)), np.array([4.0, -3.0]), np.array([4.0, -3.0]))


REJECTIONS = {
    "rss_index_at_p": (lambda d, t: rss(d, [1, P]), ValueError, "out of range"),
    "ls_fit_index_at_p": (lambda d, t: ls_fit(d, [P]), ValueError, "out of range"),
    "truth_misaligned": (
        lambda d, t: TruthSpec(ModelSet((0, 1)), np.ones(1), np.ones(2)),
        ValueError,
        "align",
    ),
    "truth_negative_sigma2": (
        lambda d, t: TruthSpec(ModelSet((0,)), np.ones(1), np.ones(1), sigma2=-1.0),
        ValueError,
        "sigma2",
    ),
    "delta_pair_index_at_p": (lambda d, t: delta_pair(d, t, [0, P]), ValueError, "out of range"),
    "kappa_empty_j": (lambda d, t: kappa(d, [], 3.0), ValueError, "nonempty"),
    "kappa_j_at_p": (lambda d, t: kappa(d, [0, P], 3.0), ValueError, "out of range"),
    "kappa_uniform_s_zero": (lambda d, t: kappa_uniform(d, 0, 3.0), ValueError, "s must be"),
    "min_subset_eigen_size_zero": (
        lambda d, t: min_subset_eigen(d, 0),
        ValueError,
        "size must be",
    ),
    "solve_lasso_negative_r_l": (lambda d, t: solve_lasso(d, -1.0), ValueError, "r_l"),
    "solve_lasso_theta0_shape": (
        lambda d, t: solve_lasso(d, 1.0, theta0=np.zeros(P + 1)),
        ValueError,
        "theta0",
    ),
    "event_a_noise_length": (lambda d, t: event_a(d, np.zeros(N + 1), 1.0), ValueError, "length"),
    "oracle_reference_length": (
        lambda d, t: verify_oracle_inequalities(
            d, solve_lasso(d, 1.0), np.ones(P + 1), d.x0 @ t.full_theta(P)
        ),
        ValueError,
        "length p",
    ),
    "oracle_kappa_zero": (
        lambda d, t: verify_oracle_inequalities(
            d, solve_lasso(d, 1.0), t.full_theta(P) / d.scales, d.x0 @ t.full_theta(P),
            kappa_sq=0.0,
        ),
        KappaDegenerate,
        "kappa",
    ),
    "gic_path_negative_r": (
        lambda d, t: gic_path(d, Ordering((0, 2)), -1.0),
        ValueError,
        "nonnegative",
    ),
    "exhaustive_negative_r": (lambda d, t: exhaustive_gic(d, -1.0), ValueError, "nonnegative"),
    # NaN and inf used to pass the sign checks below: a NaN penalty selected
    # the empty model with every criterion value NaN, an infinite one made
    # the empty model's value NaN, and the Lasso stopped after 0 sweeps
    "gic_path_nan_r": (
        lambda d, t: gic_path(d, Ordering((0, 2)), NAN),
        ValueError,
        "nonnegative",
    ),
    "gic_path_inf_r": (
        lambda d, t: gic_path(d, Ordering((0, 2)), math.inf),
        ValueError,
        "nonnegative",
    ),
    "exhaustive_nan_r": (lambda d, t: exhaustive_gic(d, NAN), ValueError, "nonnegative"),
    "exhaustive_inf_r": (lambda d, t: exhaustive_gic(d, math.inf), ValueError, "nonnegative"),
    "solve_lasso_nan_r_l": (lambda d, t: solve_lasso(d, NAN), ValueError, "r_l"),
    "solve_lasso_inf_r_l": (lambda d, t: solve_lasso(d, math.inf), ValueError, "r_l"),
    "event_a_bound_nan_r_l": (lambda d, t: event_a_bound(4, NAN, 1.0), ValueError, "positive"),
    "exhaustive_lower_bound_nan_r": (
        lambda d, t: exhaustive_lower_bound(NAN, 1.0),
        ValueError,
        "positive",
    ),
    "chi2_tail_nan_point": (lambda d, t: chi2_tail_sandwich(1, NAN), DomainError, "tail point"),
    "derived_screen_size_nan_kappa": (
        lambda d, t: derived_screen_size(2, NAN),
        ValueError,
        "kappa must be positive",
    ),
    "truth_nan_sigma2": (
        lambda d, t: TruthSpec.from_beta(d, [0, 2], [4.0, -3.0], sigma2=NAN),
        ValueError,
        "sigma2",
    ),
    "default_penalties_nan_sigma2": (
        lambda d, t: default_penalties(P, NAN, 0.5),
        ValueError,
        "sigma2",
    ),
    # a longer beta would be cut to the support's length
    "truth_beta_longer_than_support": (
        lambda d, t: TruthSpec.from_beta(d, [0, 2], [4.0, -3.0, 1.0]),
        ValueError,
        "align",
    ),
    # each integer argument below used to pass as a float or bool: response
    # 1.7 or True read column 1, max_iter 2.5 ran 3 sweeps, restarts True
    # wrote "restarts": true and restarts 2.5 ended in a numpy TypeError
    "from_csv_response_float": (
        lambda d, t: from_csv_response(1.7),
        ValueError,
        "must be an integer",
    ),
    "from_csv_response_bool": (
        lambda d, t: from_csv_response(True),
        ValueError,
        "must be an integer",
    ),
    "from_csv_response_negative": (lambda d, t: from_csv_response(-1), ValueError, "out of range"),
    "solve_lasso_max_iter_float": (
        lambda d, t: solve_lasso(d, 1.0, max_iter=2.5),
        ValueError,
        "max_iter",
    ),
    "solve_lasso_max_iter_bool": (
        lambda d, t: solve_lasso(d, 1.0, max_iter=True),
        ValueError,
        "max_iter",
    ),
    "run_sos_max_iter_float": (
        lambda d, t: run_sos(d, PENALTIES, max_iter=2.5),
        ValueError,
        "max_iter",
    ),
    "kappa_restarts_bool": (
        lambda d, t: kappa(d, [0, 2], 3.0, restarts=True),
        ValueError,
        "restarts",
    ),
    "kappa_uniform_restarts_float": (
        lambda d, t: kappa_uniform(d, 2, 3.0, restarts=2.5),
        ValueError,
        "restarts",
    ),
    "check_propositions_restarts_bool": (
        lambda d, t: check_propositions(d, t, restarts=True),
        ValueError,
        "restarts",
    ),
    "bound_input_restarts_float": (
        lambda d, t: bound_input_from_design(d, t, PENALTIES, 0.5, restarts=2.5),
        ValueError,
        "restarts",
    ),
    # exhaustive_gic's size cap used to reach range() and numpy unchecked:
    # True and 2.5 raised TypeErrors, -1 numpy's "negative dimensions"
    "exhaustive_max_size_bool": (
        lambda d, t: exhaustive_gic(d, 1.0, max_size=True),
        ValueError,
        "max_size must be an integer",
    ),
    "exhaustive_max_size_float": (
        lambda d, t: exhaustive_gic(d, 1.0, max_size=2.5),
        ValueError,
        "max_size must be an integer",
    ),
    "exhaustive_max_size_negative": (
        lambda d, t: exhaustive_gic(d, 1.0, max_size=-1),
        ValueError,
        "max_size must be nonnegative",
    ),
    # a NaN cone constant used to return an estimate of no cone
    "kappa_nan_cone": (
        lambda d, t: kappa(d, [0, 2], float("nan"), restarts=8),
        ValueError,
        "cone constant",
    ),
    # and these sizes ended in a TypeError from math.comb
    "kappa_uniform_s_float": (
        lambda d, t: kappa_uniform(d, 2.5, 3.0),
        ValueError,
        "s must be an integer",
    ),
    "min_subset_eigen_size_float": (
        lambda d, t: min_subset_eigen(d, 2.5),
        ValueError,
        "size must be an integer",
    ),
    "delta_scaled_s_float": (
        lambda d, t: delta_scaled(d, t, 2.5),
        ValueError,
        "s must be an integer",
    ),
    # a NaN witness used to give a NaN value under its finite lower_cert,
    # an infinite one numpy's "invalid value" warning
    "kappa_nan_witness": (
        lambda d, t: kappa(d, [0, 2], 3.0, restarts=8, extra_starts=[np.full(P, NAN)]),
        ValueError,
        "extra_starts",
    ),
    "kappa_inf_witness": (
        lambda d, t: kappa(d, [0, 2], 3.0, restarts=8, extra_starts=[np.full(P, math.inf)]),
        ValueError,
        "extra_starts",
    ),
    "kappa_uniform_nan_witness": (
        lambda d, t: kappa_uniform(d, 2, 3.0, restarts=8, extra_starts=[np.full(P, NAN)]),
        ValueError,
        "extra_starts",
    ),
    "kappa_uniform_inf_witness": (
        lambda d, t: kappa_uniform(
            d, 2, 3.0, restarts=8, extra_starts=[np.array([math.inf, 1.0, 0, 0, 0, 0])]
        ),
        ValueError,
        "extra_starts",
    ),
    # a witness longer than p was accepted with its extra entries ignored, a
    # shorter one raised a bare IndexError, and kappa_uniform raised numpy's
    # "all keys need to be the same shape" for either
    "kappa_long_witness": (
        lambda d, t: kappa(d, [0, 1], 3.0, restarts=8, extra_starts=[np.ones(P + 1)]),
        ValueError,
        "extra_starts must hold finite vectors of length p",
    ),
    "kappa_short_witness": (
        lambda d, t: kappa(d, [0, 1], 3.0, restarts=8, extra_starts=[np.ones(3)]),
        ValueError,
        "extra_starts must hold finite vectors of length p",
    ),
    "kappa_uniform_short_witness": (
        lambda d, t: kappa_uniform(d, 2, 3.0, restarts=8, extra_starts=[np.ones(P - 1)]),
        ValueError,
        "extra_starts must hold finite vectors of length p",
    ),
    # an infinite truth gave a report whose JSON held Infinity
    "truth_inf_sigma2": (
        lambda d, t: TruthSpec.from_beta(d, [0, 2], [4.0, -3.0], sigma2=math.inf),
        ValueError,
        "sigma2 must be nonnegative",
    ),
    "truth_inf_coefficient": (
        lambda d, t: TruthSpec.from_beta(d, [0, 2], [math.inf, -3.0]),
        ValueError,
        "finite",
    ),
    # a NaN warm start returned an all-NaN fit after 0 sweeps
    "solve_lasso_nan_theta0": (
        lambda d, t: solve_lasso(d, 1.0, theta0=np.full(P, NAN)),
        ValueError,
        "theta0",
    ),
    # kkt_gap returned nan for a NaN r_l or theta and a gap for a negative
    # r_l; event_a returned holds=False with threshold nan for a NaN r_l and
    # max_correlation nan for NaN noise
    "kkt_gap_nan_r_l": (lambda d, t: kkt_gap(d, np.zeros(P), NAN), ValueError, "r_l"),
    "kkt_gap_negative_r_l": (lambda d, t: kkt_gap(d, np.zeros(P), -1.0), ValueError, "r_l"),
    "kkt_gap_inf_r_l": (lambda d, t: kkt_gap(d, np.zeros(P), math.inf), ValueError, "r_l"),
    "kkt_gap_nan_theta": (lambda d, t: kkt_gap(d, np.full(P, NAN), 1.0), ValueError, "theta"),
    "kkt_gap_theta_shape": (lambda d, t: kkt_gap(d, np.zeros(P + 1), 1.0), ValueError, "theta"),
    # a list used to end in a TypeError from indexing it with None
    "kkt_gap_list_theta_length": (
        lambda d, t: kkt_gap(d, [0.0] * (P - 1), 1.0),
        ValueError,
        "theta",
    ),
    "solve_lasso_inf_theta0": (
        lambda d, t: solve_lasso(d, 1.0, theta0=np.full(P, math.inf)),
        ValueError,
        "theta0",
    ),
    "event_a_nan_r_l": (lambda d, t: event_a(d, np.zeros(N), NAN), ValueError, "r_l"),
    "event_a_inf_r_l": (lambda d, t: event_a(d, np.zeros(N), math.inf), ValueError, "r_l"),
    "event_a_negative_r_l": (lambda d, t: event_a(d, np.zeros(N), -1.0), ValueError, "r_l"),
    "event_a_nan_noise": (lambda d, t: event_a(d, np.full(N, NAN), 1.0), ValueError, "epsilon"),
    "event_a_inf_noise": (
        lambda d, t: event_a(d, np.full(N, math.inf), 1.0),
        ValueError,
        "epsilon",
    ),
    # an infinite argument passed the positivity checks: the bounds came out
    # nan, inf or 0.0
    "exhaustive_lower_bound_inf_r": (
        lambda d, t: exhaustive_lower_bound(math.inf, 1.0),
        ValueError,
        "positive and finite",
    ),
    "exhaustive_lower_bound_inf_sigma2": (
        lambda d, t: exhaustive_lower_bound(1.0, math.inf),
        ValueError,
        "positive and finite",
    ),
    "chi2_tail_inf_point": (
        lambda d, t: chi2_tail_sandwich(3, math.inf),
        DomainError,
        "tail point",
    ),
    "event_a_bound_inf_sigma2": (
        lambda d, t: event_a_bound(4, 1.0, math.inf),
        ValueError,
        "positive and finite",
    ),
    "event_a_bound_inf_r_l": (
        lambda d, t: event_a_bound(4, math.inf, 1.0),
        ValueError,
        "positive and finite",
    ),
    "derived_screen_size_inf_kappa": (
        lambda d, t: derived_screen_size(2, math.inf),
        ValueError,
        "kappa must be positive",
    ),
    # a truth column at p used to end in a bare IndexError from the margins
    "check_propositions_truth_beyond_p": (
        lambda d, t: check_propositions(d, beyond_p_truth(), restarts=2),
        ValueError,
        "out of range",
    ),
    "delta_pair_truth_beyond_p": (
        lambda d, t: delta_pair(d, beyond_p_truth(), [1]),
        ValueError,
        "out of range",
    ),
    "delta_scaled_truth_beyond_p": (
        lambda d, t: delta_scaled(d, beyond_p_truth(), 3),
        ValueError,
        "out of range",
    ),
    "delta_identifiability_truth_beyond_p": (
        lambda d, t: delta_identifiability(d, beyond_p_truth()),
        ValueError,
        "out of range",
    ),
    "f_pivot_without_residual_dof": (
        lambda d, t: f_pivot_check(ScenarioConfig(n=3, p=3, t=2)),
        ValueError,
        "larger than the model dimension",
    ),
}


@pytest.mark.parametrize("case", list(REJECTIONS))
def test_entry_point_rejects_malformed_input(design, truth, case):
    call, error, match = REJECTIONS[case]
    with pytest.raises(error, match=match):
        call(design, truth)


@pytest.mark.parametrize(
    "call",
    [
        lambda d: ModelSet((1.7, 3)),
        lambda d: ModelSet((1, 3.0)),
        lambda d: ModelSet.of([True, 2]),
        lambda d: ModelSet.of([np.bool_(True), 2]),
        lambda d: 1.7 in ModelSet((1, 3)),
        lambda d: ls_fit(d, [0.9, 2.5]),
        lambda d: rss(d, [2.0]),
        lambda d: TruthSpec.from_beta(d, [0.5, 2.7], [1.0, 1.0]),
        lambda d: TruthSpec.from_beta(d, [False, 2], [1.0, 1.0]),
    ],
)
def test_column_indices_must_be_integers(design, call):
    # a float or bool index used to truncate: (1.7, 3) became (1, 3)
    with pytest.raises(ValueError, match="column index must be an integer"):
        call(design)


def test_numpy_integer_indices_are_accepted(design):
    assert ModelSet((np.int64(1), np.int32(3))).indices == (1, 3)
    assert ModelSet.of(np.array([3, 1, 3])).indices == (1, 3)
    assert all(type(j) is int for j in ModelSet.of(np.array([3, 1])).indices)
    truth = TruthSpec.from_beta(design, np.sort(np.array([2, 0])), [4.0, -3.0])
    assert truth.support.indices == (0, 2)
    data = from_csv_response(np.int64(1))
    assert data.y.tolist() == [2.0, 5.0, 0.0] and data.x[:, 1].tolist() == [3.0, 7.0, 1.0]
    # a numpy restarts count is reported as a JSON integer
    est = kappa(design, [0, 2], 3.0, restarts=np.int64(2))
    assert json.loads(json.dumps(est.to_json_dict()))["restarts"] == 2


def test_kappa_drops_a_witness_that_vanishes_on_j(design):
    # a witness zero on J carries no direction for the on-J block
    off_j = np.zeros(P)
    off_j[[1, 4]] = [0.7, -0.2]
    plain = kappa(design, [0, 2], 3.0, restarts=8)
    witnessed = kappa(design, [0, 2], 3.0, restarts=8, extra_starts=[off_j])
    assert witnessed.to_json_dict() == plain.to_json_dict()


def test_json_number_beyond_the_double_range_is_named(tmp_path, capsys):
    # a 400-digit integer literal is a JSON number; it used to end in an
    # OverflowError traceback instead of an error naming its field
    huge = 10**400
    with pytest.raises(ValueError, match="'b'"):
        ScenarioConfig.from_json_dict({"n": 30, "p": 4, "t": 1, "b": huge})
    blob = dict(
        n=60, p=6, t=2, s=3, sigma2=1.0, r=12.0, r_l=6.9, a=0.5, delta_s=huge,
        delta_t=3000.0, delta_p=60.0, kappa_T3=0.8, kappa_t3=0.7, theta_min=55.0,
    )
    with pytest.raises(ValueError, match="'delta_s'"):
        BoundInput.from_json_dict(blob)
    path = tmp_path / "in.json"
    path.write_text(json.dumps(blob))
    assert main(["bounds", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'delta_s'" in err
