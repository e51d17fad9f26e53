"""Acceptance sweep: one test per shipped guarantee, each ending in a single
[PASS]/[FAIL] line with the measured numbers and runtime.

Covers: greedy/brute-force agreement on nested families, residual-recursion
fidelity, solver certificates, the two-sided tail sandwich, the margin and
restricted-eigenvalue inequality suite, Monte Carlo coverage of every error
bound, the exhaustive-search error floor, the greedy-vs-exhaustive direction,
realized oracle inequalities, the post-selection pivot law, invariances, and
parallel determinism."""

import functools
import math
import time

import numpy as np
import scipy.stats

from sosselect.bounds import chi2_tail_sandwich, exhaustive_lower_bound
from sosselect.design import Dataset, ModelSet, rss, standardize
from sosselect.identify import TruthSpec, check_propositions, delta_pair, kappa
from sosselect.lasso import (
    default_penalties,
    event_a,
    kkt_gap,
    solve_lasso,
    verify_oracle_inequalities,
)
from sosselect.lasso import PenaltyPair
from sosselect.selection import Ordering, gic_path, order_by_t, run_os, run_sos
from sosselect.simlab import ScenarioConfig, generate_trial, run_experiment


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def binom_se(freq: float, n: int) -> float:
    return math.sqrt(freq * (1.0 - freq) / n)


def random_instance(rng, n, p, signal=2.0):
    x = rng.standard_normal((n, p))
    t = int(rng.integers(1, min(4, p) + 1))
    support = rng.permutation(p)[:t]
    beta = np.zeros(p)
    beta[support] = signal * rng.uniform(0.5, 2.0, t) * rng.choice([-1.0, 1.0], t)
    y = x @ beta + rng.standard_normal(n)
    return Dataset(x=x, y=y)


def test_01_greedy_matches_brute_force_over_prefixes():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    checked = 0
    for _ in range(500):
        p = int(rng.integers(2, 11))
        n = int(rng.integers(max(20, p + 4), 61))
        design = standardize(random_instance(rng, n, p), "practical")
        r = float(np.exp(rng.uniform(np.log(0.1), np.log(30.0))))
        ordering = order_by_t(design, ModelSet.full(p), allow_degenerate=True)
        path = gic_path(design, ordering, r)
        # brute force: every prefix evaluated by direct projection
        values = [
            rss(design, ModelSet.of(ordering.sequence[:k])) + r * k
            for k in range(len(ordering) + 1)
        ]
        best = int(np.argmin(values))  # first minimum, the smallest size
        assert best == path.selected_size, (best, path.selected_size)
        assert abs(values[best] - path.values[best]) < 1e-8 * max(1.0, abs(values[best]))
        checked += 1
    elapsed = time.perf_counter() - start
    report(
        "greedy equals brute force on nested prefixes",
        checked == 500 and elapsed < 10.0,
        f"{checked}/500 exact argmin matches in {elapsed:.1f}s (limit 10s)",
    )


def test_02_residual_recursion_matches_direct_projection():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for i in range(200):
        p = int(rng.integers(2, 11))
        n = int(rng.integers(max(20, p + 4), 61))
        data = random_instance(rng, n, p)
        x = data.x.copy()
        if i >= 100 and p >= 3:  # near-collinear pair
            j = int(rng.integers(1, p))
            x[:, j] = x[:, j - 1] + 1e-5 * rng.standard_normal(n)
        design = standardize(Dataset(x=x, y=data.y), "practical")
        k = int(rng.integers(1, min(p, design.n_effective - 1) + 1))
        seq = tuple(int(v) for v in rng.permutation(p)[:k])
        path = gic_path(design, Ordering(sequence=seq), r=1.0)
        for m in range(k + 1):
            direct = rss(design, ModelSet.of(seq[:m]))
            worst = max(worst, abs(direct - path.rss_path[m]))
    elapsed = time.perf_counter() - start
    report(
        "incremental residuals match direct projection",
        worst <= 1e-8 and elapsed < 5.0,
        f"max |difference| {worst:.2e} over 200 instances in {elapsed:.1f}s (limit 5s)",
    )


def test_03_solver_certificates_and_orthonormal_closed_form():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    worst_gap = 0.0
    for _ in range(30):
        p = int(rng.integers(2, 11))
        n = int(rng.integers(max(20, p + 4), 51))
        design = standardize(random_instance(rng, n, p), "practical")
        r_l = float(np.exp(rng.uniform(np.log(0.05), np.log(50.0))))
        fit = solve_lasso(design, r_l)
        assert fit.converged
        worst_gap = max(worst_gap, kkt_gap(design, fit.theta_hat, r_l))

    q, _ = np.linalg.qr(rng.standard_normal((40, 8)))
    y = rng.standard_normal(40) * 3.0
    design = standardize(Dataset(x=q, y=y), "formal")
    z = design.x0.T @ design.y0
    worst_soft = 0.0
    for r_l in np.linspace(0.05, 2.5 * float(np.abs(2 * z).max()), 20):
        fit = solve_lasso(design, float(r_l))
        closed = np.sign(z) * np.maximum(np.abs(z) - r_l, 0.0)
        worst_soft = max(worst_soft, float(np.abs(fit.theta_hat - closed).max()))
        worst_gap = max(worst_gap, kkt_gap(design, fit.theta_hat, float(r_l)))
    elapsed = time.perf_counter() - start
    report(
        "solver certificates and soft-threshold closed form",
        worst_gap <= 1e-8 and worst_soft <= 1e-8 and elapsed < 5.0,
        f"max certificate gap {worst_gap:.2e}, max closed-form gap {worst_soft:.2e} "
        f"in {elapsed:.1f}s (limit 5s)",
    )


def test_04_tail_sandwich_brackets_reference():
    start = time.perf_counter()
    violations = 0
    points = 0
    for k in range(1, 11):
        lo = max(k - 2, 0)
        for x in np.linspace(lo + 0.01, 80.0, 60):
            lower, upper = chi2_tail_sandwich(k, float(x))
            sf = scipy.stats.chi2.sf(x, df=k)
            points += 1
            if not (lower <= sf + 1e-12 and sf <= upper + 1e-12):
                violations += 1
    elapsed = time.perf_counter() - start
    report(
        "two-sided tail sandwich brackets the survival function",
        violations == 0 and elapsed < 1.0,
        f"0 violations required, saw {violations} over {points} grid points "
        f"in {elapsed:.2f}s (limit 1s)",
    )


def test_05_margin_and_eigenvalue_inequality_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    sizes = [4] * 34 + [5] * 30 + [6] * 20 + [7] * 8 + [8] * 8
    violations = 0
    for p in sizes:
        n = int(rng.integers(25, 46))
        t = int(rng.integers(1, min(3, p - 1) + 1))
        x = rng.standard_normal((n, p))
        support = np.sort(rng.permutation(p)[:t])
        beta = rng.uniform(1.0, 3.0, t) * rng.choice([-1.0, 1.0], t)
        y = x[:, support] @ beta + rng.standard_normal(n)
        design = standardize(Dataset(x=x, y=y), "practical")
        truth = TruthSpec.from_beta(design, support, beta, sigma2=1.0)

        rep = check_propositions(design, truth, restarts=10)
        if not rep.all_flags_ok:
            violations += 1

        # distance identity: minimized projection residual by a second route
        for _ in range(3):
            k = int(rng.integers(0, t + 2))
            comp = ModelSet.of(rng.permutation(p)[:k])
            mu = design.columns(truth.support) @ truth.theta_star
            cols = design.columns(comp)
            if k:
                resid = mu - cols @ np.linalg.pinv(cols) @ mu
            else:
                resid = mu
            if abs(delta_pair(design, truth, comp) - float(resid @ resid)) > 1e-8:
                violations += 1

        # scaled margins never increase with the size allowance
        vals = [rep.delta_scaled[s] for s in sorted(rep.delta_scaled)]
        if any(later > earlier + 1e-9 for earlier, later in zip(vals, vals[1:])):
            violations += 1

        # restricted eigenvalue never increases with the cone constant;
        # both sides are optimizer upper estimates, so allow their gap
        k0 = kappa(design, truth.support, 0.0).value
        k1 = kappa(design, truth.support, 1.0, restarts=6).value
        k3 = rep.kappa_support.value
        if not (k0 + 1e-9 >= k1 * (1 - 1e-5) and k1 + 1e-9 >= k3 * (1 - 1e-5)):
            violations += 1
    elapsed = time.perf_counter() - start
    report(
        "margin and restricted-eigenvalue inequality suite",
        violations == 0 and elapsed < 60.0,
        f"0 violations required, saw {violations} over {len(sizes)} instances "
        f"in {elapsed:.0f}s (limit 60s)",
    )


_COVERAGE_CONFIGS = (
    dict(n=100, p=8, t=2, b=40.0, a=0.9),
    dict(n=120, p=10, t=3, b=40.0, a=0.9),
    dict(n=80, p=6, t=2, b=40.0, a=0.9, design_kind="ar1", rho=0.2),
)

_BUCKET_TO_BOUND = {
    "screen_fail": "T1",
    "order_fail": "T2",
    "underfit": "T3",
    "overfit": "T4",
}


def test_06_bound_coverage_on_fixed_designs():
    start = time.perf_counter()
    reps = 5000
    failures = []
    for kw in _COVERAGE_CONFIGS:
        cfg = ScenarioConfig(
            sigma2=1.0, replicates=reps, master_seed=2026, fixed_design=True, **kw
        )
        summary = run_experiment(cfg)
        ledger = summary.bound_ledger
        worst = ledger["worst"]
        label = f"n={cfg.n},p={cfg.p}"
        for name in ("T1", "T2", "T3", "T4", "C1"):
            if not worst[name]["assumptions_ok"]:
                failures.append(f"{label}:{name} assumptions")
        for bucket, name in _BUCKET_TO_BOUND.items():
            freq = summary.frequencies[bucket]
            if freq > worst[name]["value"] + 2 * binom_se(freq, reps):
                failures.append(f"{label}:{bucket} {freq:.4f} > {name}")
        total = summary.greedy_error
        if total > worst["C1"]["value"] + 2 * binom_se(total, reps):
            failures.append(f"{label}:total {total:.4f} > C1")
        not_a = 1.0 - summary.event_a_freq
        if not_a > ledger["event_a_bound"] + 2 * binom_se(not_a, reps):
            failures.append(f"{label}:eventA {not_a:.4f} > {ledger['event_a_bound']:.4f}")
    elapsed = time.perf_counter() - start
    report(
        "error frequencies covered by their bounds on fixed designs",
        not failures and elapsed < 300.0,
        f"{len(_COVERAGE_CONFIGS)} configs x {reps} replicates, "
        f"failures={failures or 'none'} in {elapsed:.0f}s (limit 300s)",
    )


@functools.lru_cache(maxsize=1)
def _exhaustive_experiment():
    cfg = ScenarioConfig(
        n=60, p=8, t=1, b=30.0, sigma2=1.0,
        penalty_rule="explicit", r=2.0, r_l=2.0 * math.sqrt(2.0),
        algorithm="os", replicates=5000, master_seed=31,
        fixed_design=True, compare_exhaustive=True,
    )
    start = time.perf_counter()
    summary = run_experiment(cfg)
    return summary, time.perf_counter() - start


def test_07_exhaustive_error_respects_lower_bound():
    summary, elapsed = _exhaustive_experiment()
    reps = len(summary.records)
    floor = exhaustive_lower_bound(2.0, 1.0)
    slack = 2 * binom_se(summary.exhaustive_error, reps)
    ok = summary.exhaustive_error >= floor - slack and elapsed < 120.0
    report(
        "exhaustive-search error at least its closed-form floor",
        ok,
        f"error {summary.exhaustive_error:.4f} >= {floor:.4f} - {slack:.4f} "
        f"over {reps} replicates in {elapsed:.0f}s (limit 120s)",
    )


def test_08_greedy_error_at_most_exhaustive():
    summary, _ = _exhaustive_experiment()
    reps = len(summary.records)
    slack = 2 * binom_se(summary.exhaustive_error, reps)
    ok = summary.greedy_error <= summary.exhaustive_error + slack
    report(
        "greedy error no worse than exhaustive plus noise",
        ok,
        f"greedy {summary.greedy_error:.4f} <= exhaustive "
        f"{summary.exhaustive_error:.4f} + {slack:.4f} (shared run)",
    )


def test_09_realized_oracle_inequalities_on_quiet_noise():
    start = time.perf_counter()
    cfg = ScenarioConfig(
        n=40, p=8, t=3, b=5.0, sigma2=1.0, a=0.5,
        replicates=2000, master_seed=77, fixed_design=True,
    )
    penalties = cfg.penalties()
    dataset0, _, truth, _ = generate_trial(cfg, 0)
    design0 = standardize(dataset0, cfg.mode)
    est = kappa(design0, truth.support, 3.0, restarts=64)
    beta_full = np.zeros(cfg.p)
    beta_full[list(truth.support.indices)] = truth.beta_star

    held = violations = 0
    for i in range(cfg.replicates):
        dataset, _, truth_i, eps = generate_trial(cfg, i)
        design = standardize(dataset, cfg.mode)
        witness = event_a(design, eps, penalties.r_l)
        if not witness.holds:
            continue
        held += 1
        fit = solve_lasso(design, penalties.r_l)
        mu0 = design.columns(truth_i.support) @ truth_i.theta_star
        rep = verify_oracle_inequalities(design, fit, beta_full, mu0, kappa_sq=est.value)
        if not rep.all_ok:
            violations += 1
    elapsed = time.perf_counter() - start
    report(
        "realized oracle inequalities hold whenever the noise event does",
        violations == 0 and held >= 1900 and elapsed < 60.0,
        f"0 violations required, saw {violations} on {held}/{cfg.replicates} "
        f"qualifying replicates in {elapsed:.0f}s (limit 60s)",
    )


def test_10_post_selection_pivot_close_to_reference():
    start = time.perf_counter()
    reps = 2000
    cfg = ScenarioConfig(
        n=60, p=5, t=2, b=30.0, sigma2=1.0, a=0.5,
        replicates=reps, master_seed=13, fixed_design=True,
    )
    summary = run_experiment(cfg)
    dkw = math.sqrt(math.log(2 / 0.05) / (2 * reps))
    err = summary.greedy_error
    ks = summary.ks_distance_f
    elapsed = time.perf_counter() - start
    ok = (
        err <= 0.01
        and summary.f_degenerate_count == 0
        and ks <= err + dkw
        and elapsed < 60.0
    )
    report(
        "post-selection pivot matches its reference law",
        ok,
        f"selection error {err:.4f} <= 0.01, KS distance {ks:.4f} <= "
        f"{err + dkw:.4f} over {reps} replicates in {elapsed:.0f}s (limit 60s)",
    )


def test_11_rescaling_and_shift_invariances():
    start = time.perf_counter()
    rng = np.random.default_rng(1111)
    bad = 0
    for i in range(100):
        p = int(rng.integers(2, 9))
        n = int(rng.integers(max(20, p + 4), 51))
        data = random_instance(rng, n, p, signal=4.0)
        mode = "practical" if i % 2 == 0 else "formal"
        r = float(np.exp(rng.uniform(np.log(1.0), np.log(25.0))))
        pens = PenaltyPair(r=r, r_l=2.0 * math.sqrt(r))
        base = run_sos(standardize(data, mode), penalties=pens)

        scales = rng.uniform(0.2, 5.0, p)
        scaled = Dataset(x=data.x * scales, y=data.y)
        out = run_sos(standardize(scaled, mode), penalties=pens)
        same_sets = (
            out.screen.s0.indices == base.screen.s0.indices
            and out.screen.s1.indices == base.screen.s1.indices
            and out.ordering.sequence == base.ordering.sequence
            and out.selected.indices == base.selected.indices
        )
        if not same_sets:
            bad += 1

        if mode == "practical":
            shifted = Dataset(x=data.x, y=data.y + float(rng.uniform(-10, 10)))
            out2 = run_sos(standardize(shifted, "practical"), penalties=pens)
            same = (
                out2.screen.s0.indices == base.screen.s0.indices
                and out2.screen.s1.indices == base.screen.s1.indices
                and out2.ordering.sequence == base.ordering.sequence
                and out2.selected.indices == base.selected.indices
                and np.allclose(out2.path.values, base.path.values, atol=1e-8)
                and np.allclose(out2.refit.beta_hat, base.refit.beta_hat, atol=1e-8)
            )
            if not same:
                bad += 1
    elapsed = time.perf_counter() - start
    report(
        "column rescaling and response shift leave selections unchanged",
        bad == 0 and elapsed < 5.0,
        f"0 violations required, saw {bad} over 100 instances "
        f"in {elapsed:.1f}s (limit 5s)",
    )


def test_12_parallelism_never_changes_numbers():
    start = time.perf_counter()
    cfg = ScenarioConfig(
        n=40, p=6, t=2, b=8.0, sigma2=1.0, a=0.5,
        replicates=16, master_seed=4242, compare_exhaustive=True,
    )
    serial = run_experiment(cfg, jobs=1)
    parallel = run_experiment(cfg, jobs=3)
    blob_s = serial.to_json_dict()
    blob_p = parallel.to_json_dict()
    blob_s.pop("meta")
    blob_p.pop("meta")
    elapsed = time.perf_counter() - start
    ok = blob_s == blob_p and serial.records == parallel.records and elapsed < 60.0
    report(
        "results identical at every parallelism degree",
        ok,
        f"summaries and all {len(serial.records)} trial records bit-equal "
        f"(jobs=1 vs jobs=3) in {elapsed:.0f}s (limit 60s)",
    )
