"""Smoke-size self-test of the benchmark, from the root of a checkout:

    python3 bench/selftest.py

Checks that
* every workload prints every metric of BENCHMARK.json, with its unit, in
  both modes, and reports no failed op;
* a tampered reference digest is reported as a failure;
* traced self times sum to the traced op wall time, and tracing patches
  every binding of a wrapped function and restores it afterwards;
* a directory holding only BENCHMARK.json and the benchmark fails without
  printing a result.
Prints one line per check and exits 1 if any check failed.
"""

import contextlib
import dataclasses
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import worker  # noqa: E402  (pins BLAS threads and puts src on the path)
from layers import Tracer  # noqa: E402

import sosselect  # noqa: E402

FAILURES = []


def expect(ok, what):
    print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        FAILURES.append(what)


def run_bench(args, cwd=ROOT, script=os.path.join(BENCH, "run.py")):
    return subprocess.run(
        [sys.executable, script] + args, cwd=cwd, capture_output=True, text=True, timeout=300
    )


def check_metrics_print():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(["--workload", name, "--seed", "7", "--seconds", "0",
                              "--trace", str(trace)])
            label = f"{name} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{label} exits 0 (stderr: {proc.stderr[-500:]})")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label} result has exactly the four keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label} is correct with no failed op")
            wanted = {m["name"]: m["unit"] for m in spec[group]}
            got = result["metrics"]
            expect(set(got) == set(wanted), f"{label} reports exactly the {group} metrics")
            printed = set(lines[:-1])
            missing = [
                m for m, unit in wanted.items()
                if m not in got
                or got[m]["unit"] != unit
                or not math.isfinite(got[m]["value"])
                or f"{m} {got[m]['value']:.6g} {unit}" not in printed
            ]
            expect(not missing, f"{label} prints every metric with its unit {missing or ''}")


def check_tampered_digest():
    saved = worker.DIGESTS
    work = tempfile.mkdtemp(dir=worker.WORK_ROOT)
    try:
        with open(saved) as fh:
            recorded = json.load(fh)
        for tampered, should_fail in ((recorded, False),
                                      (dict(recorded, mc_exhaustive="0" * 64), True)):
            worker.DIGESTS = os.path.join(work, "digests.json")
            with open(worker.DIGESTS, "w") as fh:
                json.dump(tampered, fh)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = worker.main(["--workload", "mc_exhaustive", "--seconds", "0"])
            result = json.loads(out.getvalue().strip().splitlines()[-1])
            flagged = any("digest" in p for p in result["reference_problems"])
            expect(code == 0 and flagged == should_fail,
                   f"{'tampered' if should_fail else 'recorded'} digest "
                   f"{'is' if should_fail else 'is not'} reported as a failure")
    finally:
        worker.DIGESTS = saved
        shutil.rmtree(work, ignore_errors=True)


def smoke_inputs(workload):
    if isinstance(workload, worker.Simulation):
        return [dataclasses.replace(workload.make(7, 0), replicates=5)]
    return [workload.make(7, 0)]


def check_self_times():
    work = tempfile.mkdtemp(dir=worker.WORK_ROOT)
    original = sosselect.simlab.standardize
    try:
        for name, workload in sorted(worker.WORKLOADS.items()):
            tracer = Tracer()
            with tracer:
                patched = (sosselect.simlab.standardize is not original
                           and sosselect.design.standardize is sosselect.simlab.standardize)
                walls = []
                for inputs in smoke_inputs(workload):
                    output, wall = tracer.run(workload.run, inputs, work)
                    walls.append(wall)
                    expect(not workload.check(inputs, output), f"{name} smoke op output checks")
            self_sum = sum(tracer.self_s.values())
            expect(abs(self_sum - sum(walls)) <= 1e-9 * max(1.0, sum(walls)),
                   f"{name} traced self times sum to the op wall time "
                   f"({self_sum:.6f} s vs {sum(walls):.6f} s)")
            prefix = workload.expect[0].split(".")[0]
            expect(any(k.startswith(prefix) and v for k, v in tracer.calls.items()),
                   f"{name} traces calls into the {prefix} layer")
            expect(patched, f"{name} tracing patches every binding of standardize")
            expect(sosselect.simlab.standardize is original,
                   f"{name} tracing restores the original bindings")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_bare_directory():
    bare = tempfile.mkdtemp(dir=worker.WORK_ROOT)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(["--workload", "mc_wide", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=bare, script=os.path.join(bare, "bench", "run.py"))
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "a directory without the sources fails without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    os.makedirs(worker.WORK_ROOT, exist_ok=True)
    check_self_times()
    check_tampered_digest()
    check_bare_directory()
    check_metrics_print()
    print(f"{len(FAILURES)} failed check(s)" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
