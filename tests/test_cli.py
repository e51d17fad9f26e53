"""End-to-end command line tests: flag handling, exit codes, output
formats, 1-based indexing, file outputs and schema conformance."""

import csv
import json
import math
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from sosselect import load_schema
from sosselect.cli import main
from sosselect.design import Dataset, standardize
from sosselect.lasso import PenaltyPair
from sosselect.selection import exhaustive_gic, run_os, run_sos


def write_csv(path, x, y, header=True):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        if header:
            w.writerow([f"x{j + 1}" for j in range(x.shape[1])] + ["y"])
        for i in range(x.shape[0]):
            w.writerow([repr(float(v)) for v in x[i]] + [repr(float(y[i]))])


def strong_data(seed=5, n=60, p=6, b=12.0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    beta = np.zeros(p)
    beta[1] = b
    beta[3] = -b
    y = x @ beta + rng.standard_normal(n)
    return x, y


@pytest.fixture
def data_csv(tmp_path):
    x, y = strong_data()
    path = tmp_path / "data.csv"
    write_csv(path, x, y)
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def test_fit_smoke_prints_selected_support(data_csv, capsys):
    code = main(["fit", data_csv, "--auto-penalty", "--a", "0.5", "--mode", "practical"])
    captured = capsys.readouterr()
    assert code == 0
    assert "selected" in captured.out
    assert "coefficients" in captured.out


def test_fit_json_recovers_truth_one_based(data_csv, capsys):
    blob = run_json(capsys, ["fit", data_csv, "--penalty-r", "12", "--format", "json"])
    assert blob["selected"] == [2, 4]
    by_pred = {row["predictor"]: row["beta"] for row in blob["coefficients"]}
    assert abs(by_pred[2] - 12.0) < 0.5
    assert abs(by_pred[4] + 12.0) < 0.5
    assert abs(blob["intercept"]) < 0.5
    assert blob["penalties"]["r_l"] == pytest.approx(2 * np.sqrt(12.0))
    assert blob["screen"] is not None
    assert set(blob["screen"]["s1"]) <= set(blob["screen"]["s0"])
    # path has one criterion value per prefix including the empty model
    assert len(blob["path"]["criterion"]) == len(blob["ordering"]) + 1


def test_fit_os_and_exhaustive_agree(data_csv, capsys):
    blob_os = run_json(
        capsys,
        ["fit", data_csv, "--penalty-r", "12", "--algorithm", "os", "--format", "json"],
    )
    blob_ex = run_json(
        capsys,
        ["fit", data_csv, "--penalty-r", "12", "--algorithm", "exhaustive", "--format", "json"],
    )
    assert blob_os["selected"] == blob_ex["selected"] == [2, 4]
    assert blob_ex["enumeration"]["evaluated"] >= 1
    assert blob_ex["ordering"] is None


def test_fit_exhaustive_table_reports_enumeration(data_csv, capsys):
    code = main(["fit", data_csv, "--penalty-r", "12", "--algorithm", "exhaustive"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert "selected (2): [2, 4]" in out  # 1-based predictor numbers
    enum = [line for line in out if line.startswith("enumeration: ")]
    assert len(enum) == 1
    fields = dict(item.split("=") for item in enum[0].split()[1:])
    assert set(fields) == {"value", "rss", "evaluated", "skipped"}
    assert int(fields["evaluated"]) >= 1 and int(fields["skipped"]) >= 0
    assert not any(line.startswith(("ordering:", "screen:", "criterion path:")) for line in out)


def one_based(indices):
    return [j + 1 for j in indices]


@pytest.mark.parametrize("algorithm", ["sos", "os", "exhaustive"])
def test_fit_json_is_a_one_based_view_of_the_library_result(data_csv, capsys, algorithm):
    blob = run_json(
        capsys,
        ["fit", data_csv, "--penalty-r", "12", "--algorithm", algorithm, "--format", "json"],
    )
    design = standardize(Dataset.from_csv(data_csv), "practical")
    penalties = PenaltyPair(r=12.0, r_l=float(2.0 * np.sqrt(12.0)))
    if algorithm == "exhaustive":
        best = exhaustive_gic(design, penalties.r)
        assert blob["enumeration"] == {
            "value": best.value, "rss": best.rss,
            "evaluated": best.evaluated, "skipped": best.skipped,
        }
        assert blob["screen"] is blob["ordering"] is blob["path"] is None
        assert blob["selected"] == one_based(best.model)
        return
    if algorithm == "sos":
        out = run_sos(design, penalties=penalties)
        assert blob["screen"] == {
            "s0": one_based(out.screen.s0), "s1": one_based(out.screen.s1),
            "a0": out.screen.a0, "a1": out.screen.a1,
        }
    else:
        out = run_os(design, penalties=penalties)
        assert blob["screen"] is None
    assert blob["ordering"] == one_based(out.ordering.sequence)
    assert blob["path"] == {
        "rss": out.path.rss_path.tolist(),
        "criterion": out.path.values.tolist(),
        "selected_size": out.path.selected_size,
    }
    assert blob["enumeration"] is None
    assert blob["selected"] == one_based(out.selected)
    assert [row["beta"] for row in blob["coefficients"]] == out.refit.beta_hat.tolist()


def test_fit_exhaustive_keeps_a_residual_degree_of_freedom(tmp_path, capsys):
    # n = 8 and p = 10 in the practical mode: n_effective = 7. A vanishing
    # penalty favours the largest model, which must still leave one residual
    # degree of freedom for the refit (a saturated pick used to exit 1)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 10))
    y = 3.0 * x[:, 0] + rng.standard_normal(8)
    path = tmp_path / "wide.csv"
    write_csv(path, x, y)
    argv = ["fit", str(path), "--penalty-r", "1e-9", "--algorithm", "exhaustive"]
    blob = run_json(capsys, argv + ["--format", "json"])
    design = standardize(Dataset(x=x, y=y), "practical")
    assert 0 < len(blob["selected"]) <= design.n_effective - 1 == 6
    assert len(exhaustive_gic(design, 1e-9).model) < design.n_effective


def test_fit_tsv_rows_and_intercept_marker(data_csv, capsys):
    code = main(["fit", data_csv, "--penalty-r", "12", "--format", "tsv"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert out[0] == "predictor\tbeta"
    # practical mode: intercept emitted as predictor 0
    assert out[1].startswith("0\t")
    assert {line.split("\t")[0] for line in out[1:]} == {"0", "2", "4"}


def test_fit_formal_mode_has_no_intercept(data_csv, capsys):
    blob = run_json(
        capsys,
        ["fit", data_csv, "--penalty-r", "12", "--mode", "formal", "--format", "json"],
    )
    assert blob["intercept"] is None


def test_response_column_by_name_number_and_position(tmp_path, capsys):
    x, y = strong_data()
    base = tmp_path / "last.csv"
    write_csv(base, x, y)
    want = run_json(capsys, ["fit", str(base), "--penalty-r", "12", "--format", "json"])

    first = tmp_path / "first.csv"
    with open(first, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["y"] + [f"x{j + 1}" for j in range(x.shape[1])])
        for i in range(x.shape[0]):
            w.writerow([repr(float(y[i]))] + [repr(float(v)) for v in x[i]])
    by_name = run_json(
        capsys,
        ["fit", str(first), "--penalty-r", "12", "--response", "y", "--format", "json"],
    )
    by_number = run_json(
        capsys,
        ["fit", str(first), "--penalty-r", "12", "--response", "1", "--format", "json"],
    )
    assert by_name["selected"] == by_number["selected"] == want["selected"]

    bare = tmp_path / "bare.csv"
    write_csv(bare, x, y, header=False)
    no_header = run_json(
        capsys, ["fit", str(bare), "--penalty-r", "12", "--no-header", "--format", "json"]
    )
    assert no_header["selected"] == want["selected"]


def test_fit_out_file(data_csv, tmp_path, capsys):
    target = tmp_path / "result.json"
    code = main(
        ["fit", data_csv, "--penalty-r", "12", "--format", "json", "--out", str(target)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    blob = json.loads(target.read_text())
    assert blob["selected"] == [2, 4]


def test_usage_errors_exit_2(data_csv, capsys):
    assert main(["fit", data_csv, "--penalty-r", "5", "--bogus-flag"]) == 2
    assert main(["fit", data_csv]) == 2  # penalty choice is required
    assert main(["fit", data_csv, "--auto-penalty", "--penalty-rl", "3"]) == 2
    assert main(["fit", data_csv, "--penalty-r", "5", "--a", "0.3"]) == 2
    assert main(["fit", data_csv, "--auto-penalty", "--sigma2", "junk"]) == 2
    assert main(["fit", data_csv, "--penalty-r", "5", "--algorithm", "wat"]) == 2
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert main(["fit", "--help"]) == 0
    capsys.readouterr()


def test_domain_errors_exit_1(tmp_path, capsys):
    missing = str(tmp_path / "nope.csv")
    assert main(["fit", missing, "--penalty-r", "5"]) == 1
    assert "error" in capsys.readouterr().err

    # p >= effective sample size rules out the full-design path
    x, y = strong_data(n=5, p=6)
    small = tmp_path / "small.csv"
    write_csv(small, x, y)
    assert main(["fit", str(small), "--penalty-r", "5", "--algorithm", "os"]) == 1
    err = capsys.readouterr().err
    assert "TooManyPredictors" in err


def test_auto_sigma2_needs_spare_dof(tmp_path, capsys):
    x, y = strong_data(n=5, p=6)
    small = tmp_path / "small.csv"
    write_csv(small, x, y)
    assert main(["fit", str(small), "--auto-penalty"]) == 1
    assert "sigma2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, name",
    [
        (["--penalty-r", "inf"], "finite"),
        (["--penalty-r", "nan"], "finite"),
        (["--penalty-r", "12", "--penalty-rl", "inf"], "finite"),
        (["--penalty-r", "12", "--tol", "-1"], "tol"),
        (["--penalty-r", "12", "--tol", "nan"], "tol"),
        (["--penalty-r", "12", "--max-iter", "-3"], "max_iter"),
        (["--penalty-r", "12", "--response", "0"], "start at 1"),
        (["--penalty-r", "12", "--tol", "inf"], "tol"),
    ],
)
def test_fit_rejects_invalid_numbers_exit_1(data_csv, capsys, flags, name):
    assert main(["fit", data_csv, *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:") and name in captured.err


def test_auto_sigma2_is_the_default_estimate(data_csv, capsys):
    argv = ["fit", data_csv, "--auto-penalty", "--format", "json"]
    default = run_json(capsys, argv)
    auto = run_json(capsys, [*argv, "--sigma2", "auto"])
    assert auto == default and auto["sigma2_estimate"] > 0.0


def test_auto_penalty_rejects_negative_sigma2(data_csv, capsys):
    assert main(["fit", data_csv, "--auto-penalty", "--sigma2", "-1"]) == 1
    assert "sigma2 must be nonnegative" in capsys.readouterr().err


def base_config(**over):
    cfg = {
        "n": 40,
        "p": 6,
        "t": 2,
        "b": 25.0,
        "sigma2": 1.0,
        "a": 0.5,
        "replicates": 12,
        "master_seed": 11,
        "fixed_design": True,
    }
    cfg.update(over)
    return cfg


def test_simulate_end_to_end_schema_and_determinism(tmp_path, capsys):
    cfg_path = tmp_path / "scen.json"
    cfg_path.write_text(json.dumps(base_config()))
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(
        ["simulate", "--config", str(cfg_path), "--out", str(out2), "--jobs", "3"]
    ) == 0
    capsys.readouterr()

    summary1 = json.loads((out1 / "summary.json").read_text())
    summary2 = json.loads((out2 / "summary.json").read_text())
    jsonschema.validate(summary1, load_schema("summary"))
    jsonschema.validate(summary1["config"], load_schema("scenario_config"))
    if summary1["bound_ledger"] is not None:
        jsonschema.validate(summary1["bound_ledger"]["input"], load_schema("bound_input"))

    # parallelism degree must not leak into any numeric content
    meta1 = summary1.pop("meta")
    meta2 = summary2.pop("meta")
    assert summary1 == summary2
    assert meta1["jobs"] == 1 and meta2["jobs"] == 3
    assert (out1 / "trials.tsv").read_bytes() == (out2 / "trials.tsv").read_bytes()
    assert (out1 / "bounds.json").read_bytes() == (out2 / "bounds.json").read_bytes()


def test_simulate_seed_and_flag_overrides(tmp_path, capsys):
    cfg_path = tmp_path / "scen.json"
    cfg_path.write_text(
        json.dumps(base_config(replicates=6, fixed_design=True, compare_exhaustive=True))
    )
    out = tmp_path / "run"
    code = main(["simulate", "--config", str(cfg_path), "--out", str(out), "--seed", "99"])
    assert code == 0
    assert "exhaustive error" in capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["master_seed"] == 99
    assert summary["config"]["fixed_design"] is True
    assert summary["exhaustive_error"] is not None


@pytest.mark.parametrize("flag", ["--fixed-design", "--compare-exhaustive"])
def test_simulate_config_fields_have_no_second_flag(tmp_path, capsys, flag):
    cfg_path = tmp_path / "scen.json"
    cfg_path.write_text(json.dumps(base_config(replicates=2)))
    argv = ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o"), flag]
    assert main(argv) == 2
    assert flag in capsys.readouterr().err


def test_simulate_bad_config_field_exits_1(tmp_path, capsys):
    cfg_path = tmp_path / "scen.json"
    cfg_path.write_text(json.dumps(base_config(bogus=1)))
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize(
    "over, name",
    [
        ({"n": "100"}, "'n'"),
        ({"p": 8.7}, "'p'"),
        ({"penalty_rule": "explicit", "r": math.inf, "r_l": 1.0}, "'r'"),
        ({"penalty_rule": "explicit", "r": 1.0, "r_l": math.nan}, "'r_l'"),
    ],
)
def test_simulate_wrongly_typed_config_field_exits_1(tmp_path, capsys, over, name):
    cfg_path = tmp_path / "scen.json"
    cfg_path.write_text(json.dumps(base_config(**over)))
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and name in err
    assert not (tmp_path / "o").exists()


def test_simulate_jobs_below_one_exits_1(tmp_path, capsys):
    cfg_path = tmp_path / "scen.json"
    cfg_path.write_text(json.dumps(base_config(replicates=4)))
    argv = ["simulate", "--config", str(cfg_path), "--out"]
    assert main([*argv, str(tmp_path / "zero"), "--jobs", "0"]) == 1
    assert "jobs" in capsys.readouterr().err
    assert not (tmp_path / "zero").exists()
    assert main([*argv, str(tmp_path / "one"), "--jobs", "1"]) == 0
    capsys.readouterr()
    summary = json.loads((tmp_path / "one" / "summary.json").read_text())
    jsonschema.validate(summary, load_schema("summary"))


def test_diagnose_table_and_json(tmp_path, capsys):
    rng = np.random.default_rng(3)
    n, p = 40, 5
    x = rng.standard_normal((n, p))
    beta = np.zeros(p)
    beta[0] = 6.0
    beta[2] = -5.0
    y = x @ beta + rng.standard_normal(n)
    data = tmp_path / "d.csv"
    write_csv(data, x, y)
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps({"support": [1, 3], "beta": [6.0, -5.0], "sigma2": 1.0}))

    code = main(
        ["diagnose", str(data), "--truth", str(truth), "--restarts", "8"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "consistency flags" in out
    assert "VIOLATED" not in out

    blob = run_json(
        capsys,
        [
            "diagnose", str(data),
            "--truth", str(truth),
            "--restarts", "8",
            "--format", "json",
        ],
    )
    assert blob["truth"]["support"] == [1, 3]
    assert all(blob["flags"].values())
    assert all(j >= 1 for e in blob["delta_pairwise"] for j in e["model"])


def test_diagnose_truth_validation(tmp_path, capsys):
    x, y = strong_data(n=30, p=4)
    data = tmp_path / "d.csv"
    write_csv(data, x, y)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"support": [0, 2], "beta": [1.0, 1.0]}))
    assert main(["diagnose", str(data), "--truth", str(bad)]) == 1
    assert "1.." in capsys.readouterr().err
    worse = tmp_path / "worse.json"
    worse.write_text(json.dumps({"support": [1], "beta": [1.0], "extra": 2}))
    assert main(["diagnose", str(data), "--truth", str(worse)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "truth, name",
    [
        ({"support": [1], "beta": ["3.0"]}, "'beta'"),
        ({"support": [1], "beta": [True]}, "'beta'"),
        ({"support": [1], "beta": 3.0}, "'beta'"),
        ({"support": [1], "beta": [3.0], "sigma2": True}, "'sigma2'"),
        ({"support": [1], "beta": [3.0], "sigma2": "1.0"}, "'sigma2'"),
        ({"support": [1], "beta": [math.nan]}, "'beta'"),
        ({"support": [1], "beta": [3.0], "sigma2": math.inf}, "'sigma2'"),
        ({"support": [1]}, "'beta'"),
        ({"support": [2, 2], "beta": [3.0]}, "repeats"),
        ({"support": [2, 2], "beta": [3.0, 3.0]}, "repeats"),
        ({"support": [1, 3], "beta": [6.0, -5.0, 2.0]}, "align"),
    ],
)
def test_diagnose_rejects_misread_truth_fields(tmp_path, capsys, truth, name):
    x, y = strong_data(n=30, p=4)
    data = tmp_path / "d.csv"
    write_csv(data, x, y)
    path = tmp_path / "truth.json"
    path.write_text(json.dumps(truth))
    assert main(["diagnose", str(data), "--truth", str(path), "--restarts", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and name in err


def test_diagnose_pairs_each_coefficient_with_its_own_index(tmp_path, capsys):
    x, y = strong_data(n=30, p=4)
    data = tmp_path / "d.csv"
    write_csv(data, x, y)
    texts = []
    for name, support, beta in [("sorted", [1, 3], [6.0, -5.0]), ("swapped", [3, 1], [-5.0, 6.0])]:
        truth, out = tmp_path / f"{name}.json", tmp_path / f"{name}.out.json"
        truth.write_text(json.dumps({"support": support, "beta": beta}))
        argv = ["diagnose", str(data), "--truth", str(truth), "--restarts", "4"]
        assert main([*argv, "--format", "json", "--out", str(out)]) == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]
    assert json.loads(texts[0])["truth"]["beta_star"] == [6.0, -5.0]


@pytest.mark.parametrize("support", [[1, 2.7], [1, True], "13"])
def test_diagnose_rejects_non_integral_support(tmp_path, capsys, support):
    x, y = strong_data(n=30, p=4)
    data = tmp_path / "d.csv"
    write_csv(data, x, y)
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps({"support": support, "beta": [1.0, 1.0]}))
    assert main(["diagnose", str(data), "--truth", str(truth)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'support'" in err


def test_diagnose_rejects_restarts_below_one(tmp_path, capsys):
    x, y = strong_data(n=30, p=4)
    data = tmp_path / "d.csv"
    write_csv(data, x, y)
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps({"support": [1, 3], "beta": [1.0, 1.0]}))
    assert main(["diagnose", str(data), "--truth", str(truth), "--restarts", "0"]) == 1
    assert "restarts" in capsys.readouterr().err


def bound_blob(**over):
    blob = {
        "n": 60, "p": 6, "t": 2, "s": 3, "sigma2": 1.0, "r": 12.0,
        "r_l": 2 * float(np.sqrt(12.0)), "a": 0.5, "delta_s": 120.0,
        "delta_t": 3000.0, "delta_p": 60.0, "kappa_T3": 0.8,
        "kappa_t3": 0.7, "theta_min": 55.0,
    }
    blob.update(over)
    return blob


def test_bounds_table_lists_every_bound(tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(bound_blob()))
    assert main(["bounds", str(path)]) == 0
    out = capsys.readouterr().out
    for name in ("T1", "T2", "T3", "T4", "T2-full", "C1", "C3"):
        assert name in out
    assert "event A bound" in out


def test_bounds_json_validates_input_schema(tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(bound_blob()))
    blob = run_json(capsys, ["bounds", str(path), "--format", "json"])
    jsonschema.validate(blob["input"], load_schema("bound_input"))
    assert set(blob["bounds"]) == {"T1", "T2", "T3", "T4", "T2-full", "C1", "C3"}
    for res in blob["bounds"].values():
        assert 0.0 <= res["value"] <= 1.0
    assert 0.0 <= blob["event_a_bound"] <= 1.0

    schema = load_schema("bound_input")
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(bound_blob(a=1.5), schema)
    missing = bound_blob()
    del missing["delta_t"]
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(missing, schema)


def test_bounds_bad_input_exits_1(tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(bound_blob(t=9)))  # violates t + 1 <= p
    assert main(["bounds", str(path)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "blob, name",
    [
        (bound_blob(n=60.9), "'n'"),
        (bound_blob(s=False), "'s'"),
        (bound_blob(bogus=1), "bogus"),
        ({k: v for k, v in bound_blob().items() if k != "theta_min"}, "theta_min"),
        (bound_blob(delta_s=math.nan), "'delta_s'"),
        (bound_blob(delta_p=math.inf), "'delta_p'"),
        ([bound_blob()], "JSON object"),
    ],
)
def test_bounds_misread_input_exits_1(tmp_path, capsys, blob, name):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(blob))
    assert main(["bounds", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and name in err


def test_scenario_schema_rejects_unknown_field():
    schema = load_schema("scenario_config")
    jsonschema.validate(base_config(), schema)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(base_config(bogus=1), schema)
    with pytest.raises(ValueError):
        load_schema("nope")


def test_module_invocation_matches_entry_point(data_csv):
    proc = subprocess.run(
        [sys.executable, "-m", "sosselect.cli", "fit", data_csv, "--penalty-r", "12"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "selected" in proc.stdout
