"""Seeded Monte Carlo laboratory for the selection pipeline.

Generates design/truth/noise triples from counter-based seeds, runs the
screened or full-design selector per replicate, decomposes errors into the
per-step events (screening, ordering, underselection, overselection),
compares empirical frequencies against the closed-form bounds, optionally
races the greedy selector against the all-subsets search, and checks the
post-selection F pivot.

Seed derivation is published here: the design stream of replicate i is
numpy's SeedSequence((master_seed, 1, i)) (index 0 for every replicate in
fixed-design mode) and the noise stream is SeedSequence((master_seed, 2, i)),
so any subset of replicates is reproducible in isolation and results are
independent of the parallelism degree.

A replicate splits into an X side (the design draw, its standardized
columns, the truth and the noiseless mean) and a y side (noise, response,
centered response). A fixed design's X side is built once per block of
replicates, and their exhaustive searches share one subset-lattice walk; the
seed streams, and so every record, are exactly those of drawing each
replicate on its own. Each block's designs share one ``design.FactorCache``,
so the least-squares factors of each screened set, ordering and refit and the
pivot's per-model projections are computed once per block (byte-identically,
see ``design``); the cache dies with the block.
"""

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np
import scipy.linalg
import scipy.stats

from .bounds import (
    BoundInput,
    bound_input_from_design,
    corollary_bounds,
    event_a_bound,
    exhaustive_lower_bound,
    theorem1_bounds,
    theorem2_bound,
)
from .design import (
    DEGENERATE_RSS,
    Dataset,
    FactorCache,
    ModelSet,
    Parametrization,
    StandardizedDesign,
    _cached,
    _center_response,
    standardize,
)
from .errors import DegenerateSelection, ScreenTooLarge
from .identify import TruthSpec
from .lasso import PenaltyPair, default_penalties, event_a
from .selection import ExhaustiveResult, _exhaustive_block, run_os, run_sos

_DESIGN_STREAM = 1
_NOISE_STREAM = 2
_BOUND_GUARD_P = 12  # per-replicate margin/eigenvalue work only below this
# replicates of a fixed design that share one exhaustive-search walk and one
# factor cache; bounds the responses held at once and the cache (at most 4
# entries per replicate: screened set, ordering, refit, pivot)
_RESPONSE_BLOCK = 128

_DESIGN_KINDS = ("iid_gaussian", "ar1", "duplicated_spurious")
_BETA_PATTERNS = ("constant", "decaying")
_PENALTY_RULES = ("corollary1", "explicit")
_ALGORITHMS = ("sos", "os")


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one Monte Carlo experiment."""

    n: int
    p: int
    t: int
    design_kind: str = "iid_gaussian"
    rho: float = 0.0
    copies: int = 1
    beta_pattern: str = "constant"
    b: float = 1.0
    ratio: float = 0.5
    sigma2: float = 1.0
    mode: str = "practical"
    penalty_rule: str = "corollary1"
    a: float = 0.5
    r: float = 0.0
    r_l: float = 0.0
    algorithm: str = "sos"
    replicates: int = 100
    master_seed: int = 0
    fixed_design: bool = False
    compare_exhaustive: bool = False

    def __post_init__(self):
        if self.t < 1 or self.t >= self.p:
            raise ValueError("need 1 <= t < p")
        if self.n < 3:
            raise ValueError("need at least 3 observations")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.design_kind not in _DESIGN_KINDS:
            raise ValueError(f"unknown design_kind {self.design_kind!r}")
        if self.design_kind == "ar1" and not (0.0 <= self.rho < 1.0):
            raise ValueError("ar1 needs rho in [0,1)")
        if self.design_kind == "duplicated_spurious":
            if self.copies < 1 or self.p - self.copies < self.t + 1:
                raise ValueError("need 1 <= copies <= p - t - 1")
        if self.beta_pattern not in _BETA_PATTERNS:
            raise ValueError(f"unknown beta_pattern {self.beta_pattern!r}")
        if self.b == 0.0:
            raise ValueError("signal magnitude b must be nonzero")
        if self.beta_pattern == "decaying" and self.ratio <= 0.0:
            raise ValueError("decaying pattern needs ratio > 0")
        if self.sigma2 < 0.0:
            raise ValueError("sigma2 must be nonnegative")
        mode = Parametrization.parse(self.mode)
        if self.algorithm == "os" and self.p >= mode.n_effective(self.n):
            raise ValueError("full-design algorithm needs p < effective sample size")
        if self.penalty_rule not in _PENALTY_RULES:
            raise ValueError(f"unknown penalty_rule {self.penalty_rule!r}")
        if self.penalty_rule == "corollary1" and not (0.0 < self.a < 1.0):
            raise ValueError("penalty rule needs a in (0,1)")
        if self.penalty_rule == "explicit" and (self.r < 0.0 or self.r_l < 0.0):
            raise ValueError("explicit penalties must be nonnegative")
        if self.algorithm not in _ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")

    def penalties(self) -> PenaltyPair:
        if self.penalty_rule == "corollary1":
            return default_penalties(self.n, self.p, self.sigma2, self.a)
        return PenaltyPair(r=self.r, r_l=self.r_l)

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, blob: dict) -> "ScenarioConfig":
        known = {f for f in cls.__dataclass_fields__}
        extra = set(blob) - known
        if extra:
            raise ValueError(f"unknown config fields: {sorted(extra)}")
        return cls(**blob)


def _design_rng(config: ScenarioConfig, index: int) -> np.random.Generator:
    idx = 0 if config.fixed_design else index
    return np.random.default_rng(
        np.random.SeedSequence((config.master_seed, _DESIGN_STREAM, idx))
    )


def _noise_rng(config: ScenarioConfig, index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence((config.master_seed, _NOISE_STREAM, index))
    )


def _beta_values(config: ScenarioConfig) -> np.ndarray:
    if config.beta_pattern == "constant":
        return np.full(config.t, config.b)
    return config.b * config.ratio ** np.arange(config.t)


@dataclass(frozen=True, eq=False)
class _DesignDraw:
    """The X side of a replicate: everything drawn from its design stream."""

    x: np.ndarray
    mu: np.ndarray
    noiseless: StandardizedDesign  # the standardized design with y = mu
    truth: TruthSpec


def _draw_design(config: ScenarioConfig, index: int) -> _DesignDraw:
    rng = _design_rng(config, index)
    base_p = config.p - (config.copies if config.design_kind == "duplicated_spurious" else 0)
    x = rng.standard_normal((config.n, base_p))
    if config.design_kind == "ar1" and config.rho > 0.0:
        cov = config.rho ** np.abs(np.subtract.outer(np.arange(base_p), np.arange(base_p)))
        x = x @ scipy.linalg.cholesky(cov, lower=False)
    support = np.sort(rng.permutation(base_p)[: config.t])
    if config.design_kind == "duplicated_spurious":
        spurious = [j for j in range(base_p) if j not in set(support)]
        x = np.hstack([x, x[:, spurious[: config.copies]]])
    beta = _beta_values(config)
    mu = x[:, support] @ beta
    noiseless = standardize(Dataset(x=x, y=mu), config.mode)
    truth = TruthSpec.from_beta(noiseless, support, beta, sigma2=config.sigma2)
    return _DesignDraw(x=x, mu=mu, noiseless=noiseless, truth=truth)


def _draw_response(config: ScenarioConfig, draw: _DesignDraw, index: int):
    """The y side of replicate ``index`` on its design ``draw``: (dataset,
    standardized design, truth, noise)."""
    eps = _noise_rng(config, index).standard_normal(config.n) * math.sqrt(config.sigma2)
    dataset = Dataset(x=draw.x, y=draw.mu + eps)
    y0 = _center_response(dataset.y, draw.noiseless.mode)
    return dataset, replace(draw.noiseless, y0=y0), draw.truth, eps


def generate_trial(config: ScenarioConfig, index: int):
    """Build (dataset, standardized design, truth, noise) for one replicate.

    The truth support is the first t entries of a seeded permutation of the
    base columns; the duplicated_spurious kind appends exact copies of the
    first spurious base columns, which therefore never enter the truth.
    """
    return _draw_response(config, _draw_design(config, index), index)


@dataclass(frozen=True)
class TrialRecord:
    """Per-replicate event flags with the exact conditioning structure:
    each error flag is raised only when every earlier step succeeded, so the
    five outcomes (screen_fail / order_fail / underfit / overfit / exact)
    partition the replicates."""

    index: int
    seed: str
    screen_ok: bool
    order_ok: bool
    underfit: bool
    overfit: bool
    exact: bool
    recovered: bool
    event_a: bool
    selected: tuple
    exhaustive_exact: "bool | None" = None
    f_stat: "float | None" = None

    @property
    def bucket(self) -> str:
        if not self.screen_ok:
            return "screen_fail"
        if not self.order_ok:
            return "order_fail"
        if self.underfit:
            return "underfit"
        if self.overfit:
            return "overfit"
        return "exact"

    def to_json_dict(self) -> dict:
        return {**asdict(self), "selected": list(self.selected)}


_TSV_COLUMNS = tuple(f.name for f in fields(TrialRecord))


def _order_correct(sequence, true_set) -> bool:
    """All members of the truth precede every non-member (position check,
    immune to tied statistics)."""
    seen_spurious = False
    for j in sequence:
        if j in true_set:
            if seen_spurious:
                return False
        else:
            seen_spurious = True
    return True


def _f_stat(draw: _DesignDraw, y: np.ndarray, mode: str, model: ModelSet):
    """Post-selection pivot: (distance of the fit from the projected truth
    per model dimension) over (residual mean square). None when the model is
    empty, saturated, or the residual is numerically zero."""
    n = len(y)
    practical = Parametrization.parse(mode) is Parametrization.PRACTICAL
    d = len(model) + (1 if practical else 0)
    if len(model) == 0 or d >= n:
        return None

    def build():
        cols = [draw.x[:, j] for j in model.indices]
        if practical:
            cols = [np.ones(n)] + cols
        qmat, _ = np.linalg.qr(np.column_stack(cols))
        return qmat, qmat @ (qmat.T @ draw.mu)

    qmat, target = _cached(draw.noiseless, ("pivot", model.indices), build)
    fit = qmat @ (qmat.T @ y)
    rss = float(np.sum((y - fit) ** 2))
    if rss <= DEGENERATE_RSS:
        return None
    num = float(np.sum((fit - target) ** 2)) / d
    return num / (rss / (n - d))


def _response_blocks(config: ScenarioConfig, lo: int, hi: int):
    """Replicates ``lo..hi-1`` in blocks that share one design draw, as
    ``(draw, [(index, trial), ...])``. A fixed design is drawn once and its
    replicates come ``_RESPONSE_BLOCK`` at a time; a fresh design per
    replicate makes blocks of one. Each block has its own factor cache.
    Callers drop a block before asking for the next, so at most one fresh
    design and one cache are held at a time."""
    shared = _draw_design(config, 0) if config.fixed_design else None
    step = _RESPONSE_BLOCK if config.fixed_design else 1
    for start in range(lo, hi, step):
        draw = shared if shared is not None else _draw_design(config, start)
        cached = replace(draw.noiseless, factors=FactorCache(draw.noiseless))
        draw = replace(draw, noiseless=cached)
        stop = min(start + step, hi)
        yield draw, [(i, _draw_response(config, draw, i)) for i in range(start, stop)]
        del draw, cached


def _single_trial(
    config: ScenarioConfig,
    draw: _DesignDraw,
    index: int,
    trial: tuple,
    best: "ExhaustiveResult | None",
    penalties: PenaltyPair,
    want_bounds: bool,
):
    dataset, design, truth, eps = trial
    true_set = set(truth.support.indices)
    t = truth.t

    screen_ok = True
    order_ok = False
    selected = ModelSet.empty()
    outcome = None
    try:
        if config.algorithm == "sos":
            outcome = run_sos(design, penalties=penalties)
        else:
            outcome = run_os(design, penalties=penalties)
    except ScreenTooLarge:
        screen_ok = False  # kept set too large to refit: screening failure
    if outcome is not None:
        kept = set(outcome.ordering.sequence)
        if config.algorithm == "sos":
            screen_ok = true_set.issubset(kept)
        order_ok = screen_ok and _order_correct(outcome.ordering.sequence, true_set)
        selected = outcome.selected

    size = len(selected)
    underfit = screen_ok and order_ok and size < t
    overfit = screen_ok and order_ok and size > t
    exact = screen_ok and order_ok and size == t
    recovered = selected == truth.support
    if exact and not recovered:
        raise AssertionError("size-t prefix of a correct ordering must be the truth")

    witness = event_a(design, eps, penalties.r_l)

    exhaustive_exact = None if best is None else best.model == truth.support
    f_val = _f_stat(draw, dataset.y, config.mode, selected)

    record = TrialRecord(
        index=index,
        seed=f"{config.master_seed}:{0 if config.fixed_design else index}:{index}",
        screen_ok=screen_ok,
        order_ok=order_ok,
        underfit=underfit,
        overfit=overfit,
        exact=exact,
        recovered=recovered,
        event_a=witness.holds,
        selected=selected.indices,
        exhaustive_exact=exhaustive_exact,
        f_stat=f_val,
    )

    bound_blob = None
    if want_bounds:
        inp = bound_input_from_design(design, truth, penalties, config.a, restarts=24)
        bound_blob = _evaluate_bounds(config, inp)
    return record, bound_blob


def _evaluate_bounds(config: ScenarioConfig, inp: BoundInput) -> dict:
    """All bounds relevant to the configured algorithm, keyed by name."""
    out = {}
    t1 = theorem1_bounds(inp)
    if config.algorithm == "sos":
        for key in ("T1", "T2", "T3", "T4"):
            out[key] = t1[key]
        out["C1"] = corollary_bounds(inp, "C1")
    else:
        out["T2-full"] = theorem2_bound(inp)
        out["T3"] = t1["T3"]
        out["T4"] = t1["T4"]
        out["C3"] = corollary_bounds(inp, "C3")
    return {"input": inp.to_json_dict(), "bounds": {k: v.to_json_dict() for k, v in out.items()}}


def _worst_bounds(blobs) -> "dict | None":
    """Fold per-replicate bound ledgers into the conservative worst case:
    largest bound value, assumptions_ok only if every replicate passed."""
    blobs = [b for b in blobs if b is not None]
    if not blobs:
        return None
    names = list(blobs[0]["bounds"])
    folded = {}
    for name in names:
        entries = [b["bounds"][name] for b in blobs]
        folded[name] = {
            "value": max(e["value"] for e in entries),
            "assumptions_ok": all(e["assumptions_ok"] for e in entries),
            "pass_fraction": sum(e["assumptions_ok"] for e in entries) / len(entries),
            "failed_assumptions": sorted(
                {a for e in entries for a in e["failed_assumptions"]}
            ),
        }
    return {"input": blobs[0]["input"], "evaluated_on": len(blobs), "worst": folded}


def _run_block(config_blob: dict, lo: int, hi: int, want_bounds: bool):
    config = ScenarioConfig.from_json_dict(config_blob)
    penalties = config.penalties()
    pairs = []
    for draw, trials in _response_blocks(config, lo, hi):
        bests = [None] * len(trials)
        if config.compare_exhaustive:
            limit = min(config.p, draw.noiseless.n_effective - 1)
            responses = [trial[1].y0 for _, trial in trials]
            bests = _exhaustive_block(draw.noiseless.x0, responses, penalties.r, limit)
        pairs += [
            _single_trial(config, draw, i, trial, best, penalties, want_bounds)
            for (i, trial), best in zip(trials, bests)
        ]
        del draw, trials
    return pairs


@dataclass(frozen=True)
class ExperimentSummary:
    config: ScenarioConfig
    records: tuple
    frequencies: dict
    standard_errors: dict
    event_a_freq: float
    greedy_error: float
    exhaustive_error: "float | None"
    ks_distance_f: "float | None"
    f_degenerate_count: int
    bound_ledger: "dict | None"
    meta: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "config": self.config.to_json_dict(),
            "replicates": len(self.records),
            "frequencies": self.frequencies,
            "standard_errors": self.standard_errors,
            "event_a_freq": self.event_a_freq,
            "greedy_error": self.greedy_error,
            "exhaustive_error": self.exhaustive_error,
            "ks_distance_f": self.ks_distance_f,
            "f_degenerate_count": self.f_degenerate_count,
            "bound_ledger": self.bound_ledger,
            "meta": dict(self.meta),
        }


_BUCKETS = ("screen_fail", "order_fail", "underfit", "overfit", "exact")


def _binomial_se(freq: float, count: int) -> float:
    return math.sqrt(freq * (1.0 - freq) / count)


def _ks_distance(values, cdf) -> float:
    vals = np.sort(np.asarray(values, dtype=float))
    n = len(vals)
    ref = cdf(vals)
    upper = np.max(np.arange(1, n + 1) / n - ref)
    lower = np.max(ref - np.arange(0, n) / n)
    return float(max(upper, lower))


def pivot_dimension(t: int, mode: str) -> int:
    """Model dimension entering the pivot's reference distribution: the
    intercept counts as a fitted coordinate in the practical parametrization."""
    return t + (1 if Parametrization.parse(mode) is Parametrization.PRACTICAL else 0)


def run_experiment(config: ScenarioConfig, *, jobs: int = 1) -> ExperimentSummary:
    """Run every replicate, fold the event partition, bounds, the
    greedy-vs-exhaustive comparison, and the pivot check into a summary.

    Results are a pure function of ``config``: worker outputs are reassembled
    in replicate order, so ``jobs`` never changes any reported number.
    """
    start = time.time()
    penalties = config.penalties()
    want_bounds = (
        config.p <= _BOUND_GUARD_P
        and config.sigma2 > 0.0
        and penalties.r > 0.0
        and penalties.r_l > 0.0
    )
    per_replicate_bounds = want_bounds and not config.fixed_design

    reps = config.replicates
    if jobs <= 1 or reps < 4:
        pairs = _run_block(config.to_json_dict(), 0, reps, per_replicate_bounds)
    else:
        chunk = max(1, math.ceil(reps / (4 * jobs)))
        spans = [(lo, min(lo + chunk, reps)) for lo in range(0, reps, chunk)]
        blob = config.to_json_dict()
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(_run_block, blob, lo, hi, per_replicate_bounds)
                for lo, hi in spans
            ]
            pairs = [pair for fut in futures for pair in fut.result()]
    records = tuple(pair[0] for pair in pairs)

    counts = {b: 0 for b in _BUCKETS}
    for rec in records:
        counts[rec.bucket] += 1
    freqs = {b: counts[b] / reps for b in _BUCKETS}
    ses = {b: _binomial_se(freqs[b], reps) for b in _BUCKETS}

    event_a_freq = sum(r.event_a for r in records) / reps
    greedy_error = 1.0 - sum(r.recovered for r in records) / reps
    exhaustive_error = None
    if config.compare_exhaustive:
        exhaustive_error = 1.0 - sum(bool(r.exhaustive_exact) for r in records) / reps

    f_vals = [r.f_stat for r in records if r.f_stat is not None]
    f_degenerate = reps - len(f_vals)
    ks = None
    if f_vals:
        d = pivot_dimension(config.t, config.mode)
        ref = scipy.stats.f(d, config.n - d)
        ks = _ks_distance(f_vals, ref.cdf)

    ledger = None
    if want_bounds:
        if config.fixed_design:
            _, design, truth, _ = generate_trial(config, 0)
            inp = bound_input_from_design(design, truth, penalties, config.a, restarts=64)
            once = _evaluate_bounds(config, inp)
            ledger = _worst_bounds([once])
        else:
            ledger = _worst_bounds([pair[1] for pair in pairs])
        ledger["event_a_bound"] = event_a_bound(config.p, penalties.r_l, config.sigma2)
        if config.compare_exhaustive:
            ledger["exhaustive_lower"] = exhaustive_lower_bound(penalties.r, config.sigma2)

    meta = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "runtime_seconds": time.time() - start,
        "jobs": jobs,
    }
    return ExperimentSummary(
        config=config,
        records=records,
        frequencies=freqs,
        standard_errors=ses,
        event_a_freq=event_a_freq,
        greedy_error=greedy_error,
        exhaustive_error=exhaustive_error,
        ks_distance_f=ks,
        f_degenerate_count=f_degenerate,
        bound_ledger=ledger,
        meta=meta,
    )


@dataclass(frozen=True)
class FPivotReport:
    ks_distance: float
    degenerate_count: int
    used: int
    dim: int
    denominator_dof: int

    def to_json_dict(self) -> dict:
        return asdict(self)


def f_pivot_check(config: ScenarioConfig, *, oracle: bool = False, jobs: int = 1) -> FPivotReport:
    """Kolmogorov distance between the post-selection pivot's empirical
    distribution and its fixed-truth reference.

    With ``oracle=True`` the pivot is computed on the true support in every
    replicate (no selection), so the distance should sit inside pure Monte
    Carlo noise. Raises DegenerateSelection when no replicate yields a
    usable statistic.
    """
    d = pivot_dimension(config.t, config.mode)
    if config.n - d < 1:
        raise ValueError("reference needs n larger than the model dimension")
    if oracle:
        vals = []
        for draw, trials in _response_blocks(config, 0, config.replicates):
            vals += [_f_stat(draw, ds.y, config.mode, tr.support) for _, (ds, _, tr, _) in trials]
            del draw, trials
        f_vals = [v for v in vals if v is not None]
        degenerate = len(vals) - len(f_vals)
        if not f_vals:
            raise DegenerateSelection("every replicate was degenerate")
        ref = scipy.stats.f(d, config.n - d)
        return FPivotReport(
            ks_distance=_ks_distance(f_vals, ref.cdf),
            degenerate_count=degenerate,
            used=len(f_vals),
            dim=d,
            denominator_dof=config.n - d,
        )
    summary = run_experiment(config, jobs=jobs)
    if summary.ks_distance_f is None:
        raise DegenerateSelection("every replicate was degenerate")
    return FPivotReport(
        ks_distance=summary.ks_distance_f,
        degenerate_count=summary.f_degenerate_count,
        used=config.replicates - summary.f_degenerate_count,
        dim=d,
        denominator_dof=config.n - d,
    )


def _tsv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def persist(summary: ExperimentSummary, out_dir) -> dict:
    """Write summary.json, trials.tsv, and bounds.json under ``out_dir``.

    Numeric content is a pure function of the config; only the ``meta``
    block (timestamp, runtime, jobs) varies between reruns.
    """
    import pathlib

    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "summary": out / "summary.json",
        "trials": out / "trials.tsv",
        "bounds": out / "bounds.json",
    }
    with open(paths["summary"], "w") as fh:
        json.dump(summary.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(paths["trials"], "w") as fh:
        fh.write("\t".join(_TSV_COLUMNS) + "\n")
        for rec in summary.records:
            fh.write("\t".join(_tsv_cell(getattr(rec, c)) for c in _TSV_COLUMNS) + "\n")
    with open(paths["bounds"], "w") as fh:
        json.dump(
            summary.bound_ledger if summary.bound_ledger is not None else {"checked": False},
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
    return {k: str(v) for k, v in paths.items()}
