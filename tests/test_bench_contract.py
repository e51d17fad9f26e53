"""The benchmark tracer's contract with the library.

``bench/layers.py`` wraps every function named in its ``SPANS`` table by
looking it up on the installed package, so a refactor that deletes or
renames one of them must fail here, not only in the benchmark self-test.
Every workload's reference op must also reproduce its recorded digest.
"""

import importlib
import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
LAYERS = ROOT / "bench" / "layers.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = [
        f"{home}.{name}"
        for home, names in layers.SPANS.values()
        for name in names
        if not callable(getattr(importlib.import_module(home), name, None))
    ]
    assert layers.SPANS and not missing, missing


WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_reference_digest_is_unchanged(workload):
    # the worker's warm-up op runs a fixed reference input and compares its
    # output digest with bench/digests.json; any drift in a reported number
    # shows up as a reference problem
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"),
         "--workload", workload, "--seed", "0", "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["reference_problems"] == []
    assert result["failed"] == 0
