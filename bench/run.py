"""Benchmark of sosselect, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: mc_fixed_sos, mc_exhaustive, mc_wide, diagnose (see
``bench/worker.py`` for what each one runs and why). With ``--trace 0`` the
run reports the end-to-end metrics. Ops and set-up are timed in reference
seconds, CPU seconds scaled to a fixed host speed (see ``bench/worker.py``
for why and how); set-up is measured in three fresh processes, from process
start to the end of the warm-up op, and reported as its median. With
``--trace 1`` it reports per-layer self times and counters from a traced
run instead. Each metric is printed on its own line with its
unit, and the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Uses the standard library only;
the worker processes it starts need numpy and scipy.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SETUP_SAMPLES = 3
CHILD_LIMIT_S = 170.0  # a worker still running after this is killed


def start_worker(argv):
    """Run one worker; return (its set-up seconds, remaining output)."""
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH, "worker.py")] + argv,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    watchdog = threading.Timer(CHILD_LIMIT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline().split()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if len(ready) != 2 or ready[0] != "ready" or code != 0:
        raise RuntimeError(f"worker {' '.join(argv)} exited with code {code}")
    return float(ready[1]), rest


def main(argv=None):
    parser = argparse.ArgumentParser(description="sosselect benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "sosselect", "__init__.py")):
        print(f"no sosselect sources under {ROOT}/src", file=sys.stderr)
        return 2

    worker_argv = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    setups = []
    try:
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(start_worker(worker_argv + ["--setup-only"])[0])
        setup_s, out = start_worker(worker_argv)
    except RuntimeError as err:
        print(err, file=sys.stderr)
        return 1
    setups.append(setup_s)
    result = json.loads(out.strip().splitlines()[-1])

    metrics = {name: {"value": v, "unit": u} for name, (v, u) in result["metrics"].items()}
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    attempted, failed = result["attempted"], result["failed"]
    problems = result["reference_problems"]

    print(f"machine {json.dumps(result['machine'], sort_keys=True)}")
    print(f"workload {result['workload']} seed {args.seed}")
    print(f"reference_digest {result['reference_digest']}")
    print(f"first_op_digest {result['first_digest']}")
    print(f"mean outcomes per op {json.dumps(result['outcomes'], sort_keys=True)}")
    for problem in problems:
        print(f"reference op FAILED: {problem}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        q, tail_s, ops = result["tail"]
        # not gated metrics: runs of the slower workloads hold fewer than the
        # 21 ops a percentile above the median with ten ops beyond it needs,
        # and CPU and wall time move with the load other tenants put on the host
        print(f"op_ref_s_tail {tail_s:.6g} s (p{q} of {ops} ops)")
        print(f"op_cpu_s_p50 {result['op_cpu_s_p50']:.6g} s")
        print(f"op_wall_s_p50 {result['op_wall_s_p50']:.6g} s")
        print(f"work_per_ref_s counts {result['work_unit']}")
    else:
        print(f"trace self-time sum {result['self_sum_s']:.6f} s, "
              f"traced op wall {result['traced_wall_s']:.6f} s")
        prefix, share, floor = result["share"]
        verdict = "ok" if share >= floor else "LOW: the workload stresses another layer"
        print(f"layer share {prefix} {share:.3f} (expected >= {floor}) {verdict}")
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} ops)")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
