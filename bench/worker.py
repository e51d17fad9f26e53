"""One benchmark process: set up a workload, time its ops, check every output.

``bench/run.py`` starts this file and reads its standard output: the line
``ready <seconds>`` once set-up (imports, input generation and the warm-up
op) is done, then, unless ``--setup-only`` was given, one JSON line with the
results.

Every workload times the public calls a user makes. An op's inputs come
from the workload seed and the op's index, and the timed phase ends with the
first op that finishes after ``--seconds`` of wall time.

Times are reference seconds: CPU seconds of this process, scaled to a fixed
host speed. The calls run on one thread and wait for nothing, so CPU time
is their cost; unlike wall time it leaves out the time the host gives this
process's core to someone else. But on a shared host the same op's CPU time
still moves by up to 1.9x within a minute, as other tenants load the
physical core. So a fixed reference kernel (``reference_kernel``, code of
the benchmark's own, in the style of the library's inner loops) is timed
before and after every op, and the op's CPU time is multiplied by
``REF_KERNEL_S`` over the kernel's mean time around it. A change to
``sosselect`` moves the op, not the kernel. The warm-up op
runs a fixed reference input whose output digest must equal the one
recorded in ``bench/digests.json``; re-record it with ``python3
bench/worker.py --record-digests`` only when a change is meant to alter
reported numbers.
"""

import argparse
import glob
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import defaultdict

# one BLAS thread, set before numpy loads: the timings measure this process,
# not the scheduler
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(BENCH, "digests.json")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import sosselect  # noqa: E402
from layers import ROOT as ROOT_SPAN  # noqa: E402
from layers import SPANS, Tracer  # noqa: E402

if not os.path.abspath(sosselect.__file__).startswith(SRC + os.sep):
    raise ImportError(f"sosselect imported from {sosselect.__file__}, not from {SRC}")

REFERENCE_SEED = 13106062  # seed of the warm-up op's fixed input
# CPU seconds of one reference_kernel call at the reference host speed: a
# nominal value, near the 0.016 to 0.019 s the kernel took on a shared 2-vCPU
# Intel Xeon VM with Python 3.11 and numpy 2.4
REF_KERNEL_S = 0.02
_KERNEL_RNG = np.random.default_rng(1310)
_KERNEL_X = _KERNEL_RNG.standard_normal((60, 8))
_KERNEL_Y = _KERNEL_RNG.standard_normal(60)
BUCKETS = ("screen_fail", "order_fail", "underfit", "overfit", "exact")


def reference_kernel():
    """Fixed work timed around every op to gauge the host's speed: small
    Gram, eigenvalue and least-squares calls and a coordinate loop, the kind
    of work sosselect's inner loops do. Returns its CPU seconds."""
    start = time.process_time()
    x, y = _KERNEL_X, _KERNEL_Y
    acc = 0.0
    for _ in range(25):
        gram = x.T @ x
        acc += float(np.linalg.eigvalsh(gram[:5, :5])[0])
        for cols in itertools.combinations(range(8), 2):
            sub = x[:, cols]
            coef = np.linalg.solve(sub.T @ sub, sub.T @ y)
            resid = y - sub @ coef
            acc += float(resid @ resid)
        beta = 0.0
        for j in range(8):
            beta = 0.5 * beta + float(x[:, j] @ y) / 60.0
        acc += beta
    if not math.isfinite(acc):
        raise ArithmeticError("reference kernel produced a non-finite value")
    return time.process_time() - start


def op_seed(seed, index):
    """Seed of op ``index`` in the stream of workload seed ``seed``."""
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


class Simulation:
    """An op is ``run_experiment`` on one config, then ``persist``."""

    unit = "replicates"

    def __init__(self, name, config, expect, extra_check=None):
        self.name = name
        self.config = config
        self.expect = expect
        self.extra_check = extra_check

    def make(self, seed, index):
        return sosselect.ScenarioConfig(master_seed=op_seed(seed, index), **self.config)

    def work(self, config):
        return config.replicates

    def run(self, config, out_dir):
        summary = sosselect.run_experiment(config)
        return summary, sosselect.persist(summary, out_dir)

    def outcome(self, output):
        return output[0].frequencies

    def check(self, config, output):
        summary, paths = output
        problems = []
        if len(summary.records) != config.replicates:
            problems.append(f"{len(summary.records)} records for {config.replicates} replicates")
        freqs = summary.frequencies
        if set(freqs) != set(BUCKETS) or abs(sum(freqs.values()) - 1.0) > 1e-12:
            problems.append(f"bucket frequencies do not partition the replicates: {freqs}")
        for key in ("summary", "trials", "bounds"):
            path = paths.get(key)
            if path is None or not os.path.isfile(path) or os.path.getsize(path) == 0:
                problems.append(f"persist did not write {key}")
        if self.extra_check is not None:
            problems += self.extra_check(summary)
        return problems

    def digest(self, output):
        _, paths = output
        with open(paths["summary"]) as fh:
            blob = json.load(fh)
        blob.pop("meta", None)
        h = hashlib.sha256(json.dumps(blob, sort_keys=True).encode())
        with open(paths["trials"], "rb") as fh:
            h.update(fh.read())
        return h.hexdigest()


class Diagnosis:
    """An op is ``standardize`` + ``TruthSpec.from_beta`` +
    ``check_propositions`` on one p-column design with t true columns, drawn
    like the acceptance suite's inequality instances."""

    unit = "designs"

    def __init__(self, name, p, t, restarts, expect):
        self.name = name
        self.p = p
        self.t = t
        self.restarts = restarts
        self.expect = expect

    def make(self, seed, index):
        p, t = self.p, self.t
        rng = np.random.default_rng(op_seed(seed, index))
        n = int(rng.integers(25, 46))
        x = rng.standard_normal((n, p))
        support = np.sort(rng.permutation(p)[:t])
        beta = rng.uniform(1.0, 3.0, t) * rng.choice([-1.0, 1.0], t)
        y = x[:, support] @ beta + rng.standard_normal(n)
        return sosselect.Dataset(x=x, y=y), support, beta

    def work(self, inputs):
        return 1

    def run(self, inputs, out_dir):
        dataset, support, beta = inputs
        design = sosselect.standardize(dataset, "practical")
        truth = sosselect.TruthSpec.from_beta(design, support, beta, sigma2=1.0)
        return sosselect.check_propositions(design, truth, restarts=self.restarts)

    def outcome(self, report):
        return {"kappa_support_converged": report.kappa_support.converged_fraction}

    def check(self, inputs, report):
        if report.all_flags_ok:
            return []
        return [f"identifiability flags violated: {report.flags}"]

    def digest(self, report):
        return hashlib.sha256(
            json.dumps(report.to_json_dict(), sort_keys=True).encode()
        ).hexdigest()


def _greedy_within_exhaustive(summary):
    reps = len(summary.records)
    exh = summary.exhaustive_error
    slack = 2.0 * math.sqrt(exh * (1.0 - exh) / reps)
    if summary.greedy_error <= exh + slack:
        return []
    return [f"greedy error {summary.greedy_error} > exhaustive {exh} + 2 SE"]


def _ledger_present(summary):
    return [] if summary.bound_ledger is not None else ["bound ledger missing"]


# Why each workload, and which layer it stresses:
# * mc_fixed_sos: the bound-coverage experiment, the only one running the
#   full sos path with a non-empty S1; all replicates share one X. One
#   config, p = 6 with an AR(1) design: 1000 replicates make per-replicate
#   work outweigh the once-per-experiment bound ledger (16 kappa calls, whose
#   cost varies with X) and keep each op near 2.3 s. Alternating with the
#   p = 8 config would mix ops of two sizes, whose median jumps between them.
# * mc_exhaustive: greedy-vs-all-subsets race; exhaustive_gic dominates.
# * mc_wide: p >> n with the default penalties and a fresh X per replicate;
#   the Lasso dominates and no bound ledger is computed (p > 12).
# * diagnose: identifiability report; kappa / kappa_uniform dominate. One
#   shape, p = 4 and t = 2 (six supports per kappa_uniform), with n and the
#   data drawn per op: op times across the (p, t) range of the acceptance
#   suite span 0.05 s to 8 s, and a median over so mixed a run moved by more
#   than 0.2 between seeds.
# ``expect`` names the layer (span prefix or share metric) a workload is meant
# to stress and the share of the traced op it had when the benchmark was
# defined. The traced run prints it but does not fail on it: making that
# layer faster is meant to lower its share.
WORKLOADS = {
    w.name: w
    for w in (
        Simulation(
            "mc_fixed_sos",
            dict(n=80, p=6, t=2, b=40.0, a=0.9, sigma2=1.0,
                 design_kind="ar1", rho=0.2, fixed_design=True, replicates=1000),
            expect=("simlab.replicate_frac", 0.5),
            extra_check=_ledger_present,
        ),
        Simulation(
            "mc_exhaustive",
            dict(n=60, p=8, t=1, b=30.0, sigma2=1.0, penalty_rule="explicit",
                 r=2.0, r_l=2.0 * math.sqrt(2.0), algorithm="os",
                 fixed_design=True, compare_exhaustive=True, replicates=100),
            expect=("selection.exhaustive_gic", 0.6),
            extra_check=_greedy_within_exhaustive,
        ),
        Simulation(
            "mc_wide",
            dict(n=200, p=1000, t=5, b=8.0, a=0.5, sigma2=1.0, replicates=10),
            expect=("lasso.solve_lasso", 0.6),
        ),
        Diagnosis(
            "diagnose",
            p=4,
            t=2,
            restarts=64,
            expect=("identify.", 0.9),
        ),
    )
}


def run_op(workload, inputs, out_dir, tracer=None):
    """Time one op; return (cpu seconds, wall seconds, output, digest, problems)."""
    try:
        cpu = time.process_time()
        if tracer is None:
            start = time.perf_counter()
            output = workload.run(inputs, out_dir)
            wall = time.perf_counter() - start
        else:
            output, wall = tracer.run(workload.run, inputs, out_dir)
        cpu = time.process_time() - cpu
        problems = workload.check(inputs, output)
        digest = workload.digest(output)
    except Exception:  # an op that raises is a failed op; keep measuring
        traceback.print_exc()
        return None, None, None, None, ["raised"]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return cpu, wall, output, digest, problems


def warm_up(workload, work_dir):
    """Run the reference op; return its digest and the problems found."""
    inputs = workload.make(REFERENCE_SEED, 0)
    _, _, _, digest, problems = run_op(workload, inputs, os.path.join(work_dir, "ref"))
    return digest, problems


def tail(times):
    """Highest percentile above the median with at least ten ops above its
    nearest rank, or the maximum when too few ops ran for one."""
    ordered = sorted(times)
    n = len(ordered)
    for q in range(99, 50, -1):
        rank = math.ceil(q * n / 100)
        if n - rank >= 10:
            return q, ordered[rank - 1]
    return 100, ordered[-1]


def src_loc():
    total = 0
    for path in glob.glob(os.path.join(SRC, "sosselect", "*.py")):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def machine():
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "src_loc": src_loc(),
    }


# spans whose call counts are reported; every span reports its self time
COUNTED_SPANS = (
    "identify.kappa", "identify.kappa_uniform", "selection.exhaustive_gic",
    "selection.order_by_t", "selection.gic_path", "lasso.solve_lasso",
    "design.standardize", "design.ls_fit", "design.rss", "simlab.generate_trial",
    "bounds.bound_input_from_design",
)


def layer_metrics(tracer, traced, plain):
    """Per-op layer metrics of a traced run; ``traced`` and ``plain`` are the
    paired op wall times with and without tracing."""
    calls, self_s, total_s, counts = tracer.calls, tracer.self_s, tracer.total_s, tracer.counts
    ops = calls[ROOT_SPAN]

    def per_call(key, span):
        return counts[key] / calls[span] if calls[span] else 0.0

    op_s = total_s[ROOT_SPAN] / ops
    ledger_s = (total_s["bounds.bound_input_from_design"] + self_s["bounds.evaluators"]) / ops
    metrics = {}
    for span in list(SPANS) + [ROOT_SPAN]:
        if span in COUNTED_SPANS:
            metrics[f"{span}.calls"] = (calls[span] / ops, "count/op")
        metrics[f"{span}.self_s"] = (self_s[span] / ops, "s/op")
    subsets = counts["selection.exhaustive_gic.subsets"]
    metrics.update({
        "identify.kappa.converged_fraction": (
            per_call("identify.kappa.converged", "identify.kappa"), "ratio"),
        "selection.exhaustive_gic.evaluated": (
            per_call("selection.exhaustive_gic.evaluated", "selection.exhaustive_gic"),
            "count/call"),
        "selection.exhaustive_gic.skipped": (
            per_call("selection.exhaustive_gic.skipped", "selection.exhaustive_gic"),
            "count/call"),
        "selection.exhaustive_gic.visited_frac": (
            counts["selection.exhaustive_gic.evaluated"] / subsets if subsets else 0.0,
            "ratio"),
        "selection.order_by_t.fallback": (
            per_call("selection.order_by_t.fallback", "selection.order_by_t"), "ratio"),
        "lasso.solve_lasso.sweeps": (
            per_call("lasso.solve_lasso.sweeps", "lasso.solve_lasso"), "count/call"),
        "lasso.screen.s1_size": (per_call("lasso.screen.s1_size", "lasso.screen"), "count/call"),
        "lasso.screen.s1_empty": (per_call("lasso.screen.s1_empty", "lasso.screen"), "ratio"),
        "simlab.persist.bytes": (counts["simlab.persist.bytes"] / ops, "B/op"),
        "bounds.ledger_skipped": (
            per_call("bounds.ledger_skipped", "simlab.run_experiment"), "ratio"),
        "bounds.ledger_s": (ledger_s, "s/op"),
        # the op outside the once-per-experiment bound ledger and persist:
        # per-replicate work plus the aggregation over replicates
        "simlab.replicate_frac": (
            1.0 - (ledger_s + total_s["simlab.persist"] / ops) / op_s
            if calls["simlab.run_experiment"] else 0.0, "ratio"),
        "trace.op_s": (op_s, "s/op"),
        "trace.overhead_frac": (
            statistics.median(t / p for t, p in zip(traced, plain)) - 1.0, "ratio"),
    })
    return metrics


def share(tracer, metrics, prefix):
    """Share of the traced op time in the self time of spans named
    ``prefix``*, or the metric named ``prefix`` when it is a share itself."""
    if prefix in metrics:
        return metrics[prefix][0]
    spent = sum(v for k, v in tracer.self_s.items() if k.startswith(prefix))
    return spent / tracer.total_s[ROOT_SPAN]


def measure(workload, seed, seconds, work_dir, trace):
    """The timed phase: ops until ``seconds`` of wall time have passed.

    Returns the reference, CPU and wall seconds of each successful untraced
    op (reference seconds only without tracing), the traced wall seconds
    paired with them, the work done, the failed and attempted op counts, the
    first op's digest, the mean outcomes and the tracer."""
    ref_times, cpu_times, wall_times, traced = [], [], [], []
    work, failed, first_digest = 0, 0, None
    outcomes = defaultdict(float)
    tracer = Tracer() if trace else None
    kernel_before = None if trace else reference_kernel()
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        inputs = workload.make(seed, index)
        out_dir = os.path.join(work_dir, f"op{index}")
        if trace:
            # pair each traced op with an untraced one on the same input,
            # alternating which runs first
            got = {}
            for kind in ("traced", "plain") if index % 2 else ("plain", "traced"):
                if kind == "traced":
                    with tracer:
                        got[kind] = run_op(workload, inputs, out_dir, tracer)
                else:
                    got[kind] = run_op(workload, inputs, out_dir)
            cpu, wall, output, digest, problems = got["plain"]
            _, wall_traced, _, digest_traced, problems_traced = got["traced"]
            problems = problems + problems_traced
            if digest != digest_traced:
                problems.append("tracing changed the output")
            if not problems:
                traced.append(wall_traced)
        else:
            cpu, wall, output, digest, problems = run_op(workload, inputs, out_dir)
            kernel_after = reference_kernel()
            if not problems:
                ref_times.append(cpu * 2.0 * REF_KERNEL_S / (kernel_before + kernel_after))
            kernel_before = kernel_after
        if first_digest is None:
            first_digest = digest
        if problems:
            failed += 1
            print(f"op {index} failed: {problems}", file=sys.stderr)
        else:
            cpu_times.append(cpu)
            wall_times.append(wall)
            work += workload.work(inputs)
            for key, value in workload.outcome(output).items():
                outcomes[key] += value
        index += 1
    outcomes = {key: value / len(cpu_times) for key, value in outcomes.items()}
    return (ref_times, cpu_times, wall_times, traced, work, failed, index, first_digest,
            outcomes, tracer)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        if args.record_digests:
            recorded = {}
            for name, w in sorted(WORKLOADS.items()):
                recorded[name], problems = warm_up(w, work_dir)
                if problems:
                    raise SystemExit(f"{name}: reference op failed: {problems}")
            with open(DIGESTS, "w") as fh:
                json.dump(recorded, fh, indent=2, sort_keys=True)
                fh.write("\n")
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        workload = WORKLOADS[args.workload]
        with open(DIGESTS) as fh:
            expected = json.load(fh).get(workload.name)
        kernel_start = reference_kernel()
        ref_digest, ref_problems = warm_up(workload, work_dir)
        if ref_digest != expected:
            ref_problems.append(f"reference digest {ref_digest} != recorded {expected}")
        kernel_end = reference_kernel()
        # process start to here, without the two kernel calls, in reference seconds
        setup = (time.process_time() - kernel_start - kernel_end) * (
            2.0 * REF_KERNEL_S / (kernel_start + kernel_end))
        print(f"ready {setup!r}", flush=True)
        if args.setup_only:
            return 0
        (ref_times, cpu_times, wall_times, traced, work, failed, attempted, first_digest,
         outcomes, tracer) = measure(workload, args.seed, args.seconds, work_dir, args.trace)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if not cpu_times:
        print("no op succeeded", file=sys.stderr)
        return 1
    result = {
        "workload": workload.name,
        "attempted": attempted,
        "failed": failed,
        "reference_digest": ref_digest,
        "reference_problems": ref_problems,
        "first_digest": first_digest,
        "outcomes": outcomes,
        "machine": machine(),
    }
    if args.trace:
        metrics = layer_metrics(tracer, traced, wall_times)
        prefix, floor = workload.expect
        result.update(
            metrics=metrics,
            self_sum_s=sum(tracer.self_s.values()),
            traced_wall_s=tracer.total_s[ROOT_SPAN],
            share=[prefix, share(tracer, metrics, prefix), floor],
        )
    else:
        result["metrics"] = {
            "op_ref_s_p50": (statistics.median(ref_times), "s"),
            "work_per_ref_s": (work / sum(ref_times), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        result["tail"] = tail(ref_times) + (len(ref_times),)
        result["op_cpu_s_p50"] = statistics.median(cpu_times)
        result["op_wall_s_p50"] = statistics.median(wall_times)
        result["work_unit"] = workload.unit
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
