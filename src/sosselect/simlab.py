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
replicates, their screening Lassos are one block coordinate descent
(``lasso._lasso_block``, whose fits do not depend on the block, so neither
``jobs`` nor the block size moves them; fresh designs keep one
``solve_lasso`` per replicate) and their exhaustive searches share one
subset-lattice walk; the seed streams, and so every record, are exactly those
of drawing each replicate on its own. Each block's designs share one
``design.FactorCache``, so the least-squares factors of each screened set,
ordering and refit and the pivot's per-model projections are computed once
per block (byte-identically, see ``design``); the cache dies with the block.
"""

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np
import scipy.linalg
import scipy.special

from .bounds import (
    PIPELINE_BOUNDS,
    bound_input_from_design,
    bound_report,
    event_a_bound,
    exhaustive_lower_bound,
)
from .design import (
    DEGENERATE_RSS,
    NOT_JSON,
    Dataset,
    FactorCache,
    JsonFields,
    ModelSet,
    Parametrization,
    StandardizedDesign,
    _cached,
    _center,
    json_text,
    standardize,
)
from .errors import DegenerateSelection, NotConverged, ScreenTooLarge
from .identify import TruthSpec
from .lasso import LassoFit, PenaltyPair, _lasso_block, default_penalties, event_a
from .schemas import check_field_bounds, read_json_fields
from .selection import ExhaustiveResult, _exhaustive_block, _sos_from_fit, run_os, run_sos

_DESIGN_STREAM = 1
_NOISE_STREAM = 2
_BOUND_GUARD_P = 12  # per-replicate margin/eigenvalue work only below this
# restricted-eigenvalue restarts of one design draw's bound ledger, keyed by
# fixed_design: a fixed design's single ledger can afford the larger budget
_LEDGER_RESTARTS = {True: 64, False: 24}
# replicates of a fixed design that share one Lasso block, one exhaustive-search
# walk and one factor cache; bounds the responses held at once and the cache
# (at most 4 entries per replicate: screened set, ordering, refit, pivot)
_RESPONSE_BLOCK = 128
# a replicate's selection until its pipeline returns one (sets are immutable)
_NO_MODEL = ModelSet.empty()


@dataclass(frozen=True)
class ScenarioConfig(JsonFields):
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
        """Every single-field bound of the shipped schema, for every kind and
        rule, then the cross-field rules the schema cannot state."""
        check_field_bounds(self, "scenario_config")
        if self.t >= self.p:
            raise ValueError("need t < p")
        if self.design_kind == "duplicated_spurious" and self.p - self.copies < self.t + 1:
            raise ValueError("need copies <= p - t - 1")
        if self.algorithm == "os" and self.p >= Parametrization(self.mode).n_effective(self.n):
            raise ValueError("full-design algorithm needs p < effective sample size")

    def penalties(self) -> PenaltyPair:
        if self.penalty_rule == "corollary1":
            return default_penalties(self.p, self.sigma2, self.a)
        return PenaltyPair(r=self.r, r_l=self.r_l)

    @classmethod
    def from_json_dict(cls, blob: dict) -> "ScenarioConfig":
        """Read the schema's object without coercion: ``"b": 40`` stays the
        int 40, and ``"n": "100"`` or ``"p": 8.7`` raises ValueError."""
        return cls(**read_json_fields(cls, blob, "scenario_config"))


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
    """The y side of replicate ``index`` on its design ``draw``: (response,
    standardized design, noise); the X side was checked when drawn."""
    eps = _noise_rng(config, index).standard_normal(config.n) * math.sqrt(config.sigma2)
    y = draw.mu + eps
    return y, replace(draw.noiseless, y0=_center(y, draw.noiseless.mode)), eps


def generate_trial(config: ScenarioConfig, index: int):
    """Build (dataset, standardized design, truth, noise) for one replicate.

    The truth support is the first t entries of a seeded permutation of the
    base columns; the duplicated_spurious kind appends exact copies of the
    first spurious base columns, which therefore never enter the truth.
    """
    draw = _draw_design(config, index)
    y, design, eps = _draw_response(config, draw, index)
    return Dataset(x=draw.x, y=y), design, draw.truth, eps


@dataclass(frozen=True)
class TrialRecord(JsonFields):
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
    d = pivot_dimension(len(model), mode)
    if len(model) == 0 or d >= n:
        return None

    def build():
        cols = [draw.x[:, j] for j in model.indices]
        if d > len(model):  # the intercept is a fitted coordinate
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
    fit: "LassoFit | None",
    penalties: PenaltyPair,
) -> TrialRecord:
    y, design, eps = trial
    truth = draw.truth
    seed = f"{config.master_seed}:{0 if config.fixed_design else index}:{index}"
    true_set = set(truth.support.indices)
    t = truth.t

    screen_ok = True
    order_ok = False
    selected = _NO_MODEL
    outcome = None
    try:
        if fit is not None:
            outcome = _sos_from_fit(design, penalties, fit)
        elif config.algorithm == "sos":
            outcome = run_sos(design, penalties)
        else:
            outcome = run_os(design, penalties)
    except ScreenTooLarge:
        screen_ok = False  # kept set too large to refit: screening failure
    except NotConverged as err:
        raise NotConverged(f"replicate {index} (seed {seed}): {err}") from err
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
    f_val = _f_stat(draw, y, config.mode, selected)

    return TrialRecord(
        index=index,
        seed=seed,
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


def _worst_bounds(blobs) -> dict:
    """Fold the design draws' bound ledgers into the conservative worst case:
    largest bound value, assumptions_ok only if every draw passed."""
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


def _run_block(config: ScenarioConfig, lo: int, hi: int, want_bounds: bool):
    """Records of replicates ``lo..hi-1`` and, with ``want_bounds``, the bound
    ledgers of their design draws: one per replicate for fresh designs, and a
    fixed design's single ledger from the block that holds replicate 0."""
    penalties = config.penalties()
    records, ledgers = [], []
    for draw, trials in _response_blocks(config, lo, hi):
        responses = [trial[1].y0 for _, trial in trials]
        bests = fits = [None] * len(trials)
        if config.compare_exhaustive:
            bests = _exhaustive_block(draw.noiseless, responses, penalties.r)
        if config.fixed_design and config.algorithm == "sos":
            fits = _lasso_block(draw.noiseless, responses, penalties.r_l)
        records += [
            _single_trial(config, draw, i, trial, best, fit, penalties)
            for (i, trial), best, fit in zip(trials, bests, fits)
        ]
        if want_bounds and (trials[0][0] == 0 or not config.fixed_design):
            inp = bound_input_from_design(
                draw.noiseless, draw.truth, penalties, config.a,
                restarts=_LEDGER_RESTARTS[config.fixed_design],
            )
            ledgers.append(bound_report(inp, PIPELINE_BOUNDS[config.algorithm]))
        del draw, trials
    return records, ledgers


@dataclass(frozen=True)
class ExperimentSummary(JsonFields):
    config: ScenarioConfig
    records: tuple = field(metadata=NOT_JSON)  # written to trials.tsv
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
        return {**super().to_json_dict(), "replicates": len(self.records)}


_BUCKETS = ("screen_fail", "order_fail", "underfit", "overfit", "exact")


def _binomial_se(freq: float, count: int) -> float:
    return math.sqrt(freq * (1.0 - freq) / count)


def pivot_dimension(t: int, mode: str) -> int:
    """Model dimension entering the pivot's reference distribution: the
    intercept counts as a fitted coordinate in the practical parametrization."""
    return t + (1 if Parametrization(mode) is Parametrization.PRACTICAL else 0)


def _pivot_ks(config: ScenarioConfig, values) -> float:
    """Kolmogorov distance of pivot values from their F(d, n - d) reference."""
    d = pivot_dimension(config.t, config.mode)
    vals = np.sort(np.asarray(values, dtype=float))
    n = len(vals)
    ref = scipy.special.fdtr(d, config.n - d, vals)
    upper = np.max(np.arange(1, n + 1) / n - ref)
    lower = np.max(ref - np.arange(0, n) / n)
    return float(max(upper, lower))


def run_experiment(config: ScenarioConfig, *, jobs: int = 1) -> ExperimentSummary:
    """Run every replicate, fold the event partition, bounds, the
    greedy-vs-exhaustive comparison, and the pivot check into a summary.

    Results are a pure function of ``config``: worker outputs are reassembled
    in replicate order, so ``jobs`` never changes any reported number. The
    bound ledger (only for p <= ``_BOUND_GUARD_P`` and positive noise and
    penalties) folds the ledgers the blocks build, one per design draw.
    Raises ValueError when ``jobs < 1``.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    start = time.time()
    penalties = config.penalties()
    want_bounds = (
        config.p <= _BOUND_GUARD_P
        and config.sigma2 > 0.0
        and penalties.r > 0.0
        and penalties.r_l > 0.0
    )

    reps = config.replicates
    if jobs == 1 or reps < 4:
        blocks = [_run_block(config, 0, reps, want_bounds)]
    else:
        chunk = max(1, math.ceil(reps / (4 * jobs)))
        spans = [(lo, min(lo + chunk, reps)) for lo in range(0, reps, chunk)]
        # a fork pool starts all its workers at the first submit
        with ProcessPoolExecutor(max_workers=min(jobs, len(spans))) as pool:
            futures = [pool.submit(_run_block, config, lo, hi, want_bounds) for lo, hi in spans]
            blocks = [fut.result() for fut in futures]
    records = tuple(rec for block in blocks for rec in block[0])

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
    ks = _pivot_ks(config, f_vals) if f_vals else None

    ledger = None
    if want_bounds:
        ledger = _worst_bounds([blob for block in blocks for blob in block[1]])
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
        f_degenerate_count=reps - len(f_vals),
        bound_ledger=ledger,
        meta=meta,
    )


@dataclass(frozen=True)
class FPivotReport(JsonFields):
    ks_distance: float
    degenerate_count: int
    used: int
    dim: int
    denominator_dof: int


def f_pivot_check(config: ScenarioConfig, *, oracle: bool = False, jobs: int = 1) -> FPivotReport:
    """Kolmogorov distance between the post-selection pivot's empirical
    distribution and its fixed-truth reference.

    With ``oracle=True`` the pivot is computed on the true support in every
    replicate (no selection), so the distance should sit inside pure Monte
    Carlo noise; it runs in one process, so ``jobs`` other than 1 raises
    ValueError. Raises DegenerateSelection when no replicate yields a
    usable statistic.
    """
    if oracle and jobs != 1:
        raise ValueError(f"the oracle pivot runs in one process; got jobs={jobs}")
    d = pivot_dimension(config.t, config.mode)
    if config.n - d < 1:
        raise ValueError("reference needs n larger than the model dimension")
    if oracle:
        vals = []
        for draw, trials in _response_blocks(config, 0, config.replicates):
            vals += [_f_stat(draw, y, config.mode, draw.truth.support) for _, (y, _, _) in trials]
            del draw, trials
    else:
        vals = [r.f_stat for r in run_experiment(config, jobs=jobs).records]
    f_vals = [v for v in vals if v is not None]
    if not f_vals:
        raise DegenerateSelection("every replicate was degenerate")
    return FPivotReport(
        ks_distance=_pivot_ks(config, f_vals),
        degenerate_count=len(vals) - len(f_vals),
        used=len(f_vals),
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
    paths["summary"].write_text(json_text(summary.to_json_dict()))
    with open(paths["trials"], "w") as fh:
        fh.write("\t".join(_TSV_COLUMNS) + "\n")
        for rec in summary.records:
            fh.write("\t".join(_tsv_cell(getattr(rec, c)) for c in _TSV_COLUMNS) + "\n")
    ledger = summary.bound_ledger
    paths["bounds"].write_text(json_text(ledger if ledger is not None else {"checked": False}))
    return {k: str(v) for k, v in paths.items()}
