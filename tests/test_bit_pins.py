"""Last-bit pins of the least-squares results and restricted-eigenvalue
searches that the benchmark's reference digests do not reach.

Each case hashes the ``json_text`` of seeded pipeline results, or the bytes
``sosselect fit --format json`` writes, and compares the sha256 with a value
recorded with numpy 2.4.6 and scipy 1.17.1 (the versions CI installs, as for
``bench/digests.json``). A change in any reported float's last bit, such as a
triangular solve called with another memory layout, fails here even where
every tolerance-based test still passes.
"""

import hashlib

import numpy as np
import pytest

from sosselect.bounds import bound_input_from_design
from sosselect.cli import main
from sosselect.design import Dataset, json_text, standardize
from sosselect.identify import TruthSpec, check_propositions, kappa_uniform
from sosselect.lasso import PenaltyPair
from sosselect.selection import exhaustive_gic, run_os, run_sos


def _data(seed, n, p):
    """Correlated columns and a three-column signal of mixed strength."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p)) + 0.4 * rng.standard_normal((n, 1))
    y = x[:, :3] @ np.array([9.0, -6.0, 2.5]) + rng.standard_normal(n)
    return x, y


def _designs(mode, n=40, p=7):
    return [standardize(Dataset(*_data(seed, n, p)), mode) for seed in range(8)]


def _truth(design):
    return TruthSpec.from_beta(design, [0, 1], [9.0, -6.0])


def _collinear_designs():
    """Column 4 nearly sums the others, so the cone binds at c = 1 and 3."""
    out = []
    for seed in range(8):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((30, 5))
        x[:, 4] = x[:, :4].sum(axis=1) + 0.3 * rng.standard_normal(30)
        out.append(standardize(Dataset(x, rng.standard_normal(30)), "practical"))
    return out


def _kappa_uniform(c):
    witness = np.array([0.1, -2.0, 0.3, 1.5, -0.2])  # routed to J = {1, 3}
    return [
        kappa_uniform(d, 2, c, restarts=8, extra_starts=[witness]) for d in _collinear_designs()
    ]


def _check_propositions(restarts):
    return [check_propositions(d, _truth(d), restarts=restarts) for d in _designs("formal", 30, 5)]


PENALTIES = PenaltyPair(r=3.0, r_l=1.5)

PRODUCERS = {
    "run_sos_practical": lambda: [run_sos(d, PENALTIES) for d in _designs("practical")],
    "run_sos_formal": lambda: [run_sos(d, PENALTIES) for d in _designs("formal")],
    "run_sos_wide": lambda: [run_sos(d, PENALTIES) for d in _designs("practical", n=30, p=45)],
    "run_os_practical": lambda: [run_os(d, PENALTIES) for d in _designs("practical")],
    "run_os_formal": lambda: [run_os(d, PENALTIES) for d in _designs("formal")],
    "exhaustive_practical": lambda: [exhaustive_gic(d, 3.0) for d in _designs("practical")],
    "exhaustive_formal": lambda: [exhaustive_gic(d, 3.0) for d in _designs("formal")],
    "kappa_uniform_c0.25": lambda: _kappa_uniform(0.25),
    "kappa_uniform_c1": lambda: _kappa_uniform(1.0),
    "kappa_uniform_c3": lambda: _kappa_uniform(3.0),
    "check_propositions_r8": lambda: _check_propositions(8),
    "check_propositions_r64": lambda: _check_propositions(64),
    "bound_input_from_design": lambda: [
        bound_input_from_design(d, _truth(d), PENALTIES, 0.5, restarts=16)
        for d in _designs("practical", n=30, p=6)
    ],
}

PINS = {
    "run_sos_practical": "7e773890025e56c6c12b47972c698274618315a973db74a5bbfeacaf55c2b8bb",
    "run_sos_formal": "fcf59ded44405bc33e9be674a57a80fbe32e9ab6313f91b62d5c66bc67c59abd",
    "run_sos_wide": "0309d6005b56e546a8be3448d84b5e5dfcc154ea12165341470525a69afa9263",
    "run_os_practical": "8fae3ea26ebfee6d6adc4c3a974fdf14a222843e54af01b0370538bc882905f8",
    "run_os_formal": "f62b49c0b98a94dfdf5e7b4486b401f0884103f0899244328f524982985fdf4b",
    "exhaustive_practical": "7aff431abe172031cb0bc8cb26ca757b19d3a656d58b1ddaf58fb4ebfb9a9ac0",
    "exhaustive_formal": "bf24353ae753d04e86715c9a595fb1681a4eb75e3bae70be21e4f50e5381cbf3",
    "fit_sos": "b58a54c1546687ac9686e058c9bc78ab4249ced025e834f74e75ffd28d11c772",
    "fit_os": "3f5a072fb7454ab32e95e8202a781187a1a5ec8da877054a3c7f677a21113b14",
    "fit_exhaustive": "ad034823677a46a606d41b6dddfa66b92bb07d2a548498750b66de0439659ee7",
    "kappa_uniform_c0.25": "68dc5a36fd00027eed2f6267e46767b29786d4d8e7b9271116a94695afffaad2",
    "kappa_uniform_c1": "f572b8c2409ce64312ff88d231b7573bb584eb4382d8bf7e8ace935584874b8f",
    "kappa_uniform_c3": "8e98c3a8015cdc552730224b9587edcb14ba771f417ee2a4a96bd3f4cb75f1a0",
    "check_propositions_r8": "64ae25b8bcf0974bc37f6916215990e14505e3fe39ea2514dc208ffda8b77f04",
    "check_propositions_r64": "d85028adf5768bf98343ff21407b7605f6d8d5cba3d4d5dc20272cf9faf6eee2",
    "bound_input_from_design": "ebafb7d752f06629fa776e0ebf648d17a45e1d4ce455177843ffda9c68e6a238",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", list(PRODUCERS))
def test_seeded_results_keep_their_last_bits(case):
    results = PRODUCERS[case]()
    assert _sha(json_text([r.to_json_dict() for r in results])) == PINS[case]


@pytest.mark.parametrize("algorithm", ["sos", "os", "exhaustive"])
def test_fit_json_keeps_its_last_bits(tmp_path, algorithm):
    x, y = _data(11, 40, 7)
    data, out = tmp_path / "d.csv", tmp_path / "fit.json"
    np.savetxt(data, np.column_stack([x, y]), delimiter=",")
    argv = ["fit", str(data), "--no-header", "--penalty-r", "12", "--format", "json"]
    assert main([*argv, "--algorithm", algorithm, "--out", str(out)]) == 0
    assert _sha(out.read_text()) == PINS[f"fit_{algorithm}"]
