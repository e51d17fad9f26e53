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
centered response). Replicates come in blocks that share one design draw: a
fixed design is drawn once and its replicates come ``_RESPONSE_BLOCK`` at a
time, a fresh design makes a block of one. A block's y side is one (B, n)
stack, each row's noise drawn from its replicate's own stream. Its screening
Lassos are one run of the descent driver ``lasso._lasso_block``, which steps
the whole stack while two or more rows run and the last row on Python floats,
and its exhaustive searches share one subset-lattice walk. Then
the block is grouped: replicates with the same screened set share one
ordering fit, those with the same ordering one prefix path, and those that
select the same model one pivot projection; event A is one stacked product
for the block. Every product over a stack is the design module's stacked
gemv, so each record is the bytes of its replicate run alone, and neither
``jobs`` nor the block size moves one. The first replicate, in index order,
whose pipeline raises makes the block raise that error. No record reads the
refit of the selected model, so the block does not compute it.
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
    JsonFields,
    ModelSet,
    Parametrization,
    StandardizedDesign,
    _center,
    _gemv_rows,
    _thin_q,
    json_text,
    standardize,
)
from .errors import DegenerateSelection, NotConverged, SosSelectError
from .identify import TruthSpec
from .lasso import (
    PenaltyPair,
    _event_a_block,
    _kept,
    _lasso_block,
    _screen_block,
    _unconverged,
    default_penalties,
)
from .schemas import check_field_bounds, read_json_fields
from .selection import _exhaustive_block, _order_block, _path_block

_DESIGN_STREAM = 1
_NOISE_STREAM = 2
_BOUND_GUARD_P = 12  # per-replicate margin/eigenvalue work only below this
# restricted-eigenvalue restarts of one design draw's bound ledger, keyed by
# fixed_design: a fixed design's single ledger can afford the larger budget
_LEDGER_RESTARTS = {True: 64, False: 24}
# replicates of a fixed design that share one y-side stack: one Lasso block,
# one exhaustive-search walk, one factorization per screened set, ordering and
# selected model; bounds the responses held at once
_RESPONSE_BLOCK = 128
# the selection of a replicate whose screened set was too large to order
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


def _draw_noise(config: ScenarioConfig, indices) -> np.ndarray:
    """The noise of replicates ``indices``, one row each, each row drawn
    from its replicate's own stream."""
    eps = np.empty((len(indices), config.n))
    for row, i in zip(eps, indices):
        _noise_rng(config, i).standard_normal(out=row)
    return eps * math.sqrt(config.sigma2)


def generate_trial(config: ScenarioConfig, index: int):
    """Build (dataset, standardized design, truth, noise) for one replicate.

    The truth support is the first t entries of a seeded permutation of the
    base columns; the duplicated_spurious kind appends exact copies of the
    first spurious base columns, which therefore never enter the truth.
    """
    draw = _draw_design(config, index)
    eps = _draw_noise(config, [index])[0]
    y = draw.mu + eps
    design = replace(draw.noiseless, y0=_center(y, draw.noiseless.mode))
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


def _pivot_block(draw: _DesignDraw, ys: np.ndarray, mode: str, model: ModelSet) -> list:
    """Post-selection pivot of each response row of ``ys`` on ``model``:
    (distance of the fit from the projected truth per model dimension) over
    (residual mean square). None when the model is empty, saturated, or the
    residual is numerically zero."""
    n = ys.shape[1]
    d = pivot_dimension(len(model), mode)
    if len(model) == 0 or d >= n:
        return [None] * len(ys)
    cols = [draw.x[:, j] for j in model.indices]
    if d > len(model):  # the intercept is a fitted coordinate
        cols = [np.ones(n)] + cols
    qmat = _thin_q(np.column_stack(cols))
    target = qmat @ (qmat.T @ draw.mu)
    fit = _gemv_rows(qmat, _gemv_rows(qmat.T, ys))
    rss = np.sum((ys - fit) ** 2, axis=1)
    ok = rss > DEGENERATE_RSS
    num = np.sum((fit[ok] - target) ** 2, axis=1) / d
    vals = iter((num / (rss[ok] / (n - d))).tolist())
    return [next(vals) if good else None for good in ok.tolist()]


def _response_blocks(config: ScenarioConfig, lo: int, hi: int):
    """Replicates ``lo..hi-1`` in blocks that share one design draw, as
    ``(draw, indices)``. A fixed design is drawn once and its replicates
    come ``_RESPONSE_BLOCK`` at a time; a fresh design per replicate makes
    blocks of one. Callers drop a block before asking for the next, so at
    most one fresh design is held at a time."""
    shared = _draw_design(config, 0) if config.fixed_design else None
    step = _RESPONSE_BLOCK if config.fixed_design else 1
    for start in range(lo, hi, step):
        draw = shared if shared is not None else _draw_design(config, start)
        yield draw, range(start, min(start + step, hi))
        del draw


def _groups(keys) -> dict:
    """The rows of each distinct key, in row order; a None key joins none."""
    groups = {}
    for b, key in enumerate(keys):
        if key is not None:
            groups.setdefault(key, []).append(b)
    return groups


def _outcome(sos: bool, truth: TruthSpec, seq, size: int):
    """The record flags and the selection of a replicate whose ordering
    ``seq`` (None when its screened set was too large to order, a screening
    failure) was cut at ``size``. Each error flag is raised only when every
    earlier step succeeded."""
    true_set = set(truth.support.indices)
    if seq is None:
        screen_ok = order_ok = False
        selected = _NO_MODEL
    else:
        screen_ok = not sos or true_set.issubset(seq)
        order_ok = screen_ok and _order_correct(seq, true_set)
        selected = ModelSet._sorted(tuple(sorted(seq[:size])))
    k = len(selected)
    exact = order_ok and k == truth.t
    recovered = selected == truth.support
    if exact and not recovered:
        raise AssertionError("size-t prefix of a correct ordering must be the truth")
    flags = dict(
        screen_ok=screen_ok,
        order_ok=order_ok,
        underfit=order_ok and k < truth.t,
        overfit=order_ok and k > truth.t,
        exact=exact,
        recovered=recovered,
    )
    return flags, selected


def _block_records(
    config: ScenarioConfig, draw: _DesignDraw, indices, penalties: PenaltyPair
) -> list:
    """The records of replicates ``indices`` on one design ``draw``, their y
    side computed as one stack (see the module docstring)."""
    design, sos = draw.noiseless, config.algorithm == "sos"
    eps = _draw_noise(config, indices)
    ys = draw.mu + eps
    y0s = _center(ys, design.mode, axis=1)
    size = len(indices)
    bests = [None] * size
    if config.compare_exhaustive:
        bests = _exhaustive_block(design, y0s, penalties.r)
    # a replicate's first error; later stages skip it, and the first
    # replicate in index order with one raises it
    errors = [None] * size
    keep = np.ones((size, design.p), dtype=bool)  # os orders every column
    if sos:
        fits = _lasso_block(design, y0s, penalties.r_l)
        errors = [_unconverged(fit) for fit in fits]
        keep = _screen_block(np.array([fit.theta_hat for fit in fits]), penalties.r_l)[1]
    seqs = [None] * size  # None: a screened set too large to order
    cuts = [0] * size

    def order(_, rows):
        s1 = _kept(keep[rows[0]])
        if len(s1) >= design.n_effective:
            return
        found = _order_block(design, s1, y0s[rows], allow_degenerate=True)[0].tolist()
        for b, seq in zip(rows, found):
            seqs[b] = tuple(seq)

    def cut(seq, rows):
        for b, k in zip(rows, _path_block(design, seq, y0s[rows], penalties.r)[2].tolist()):
            cuts[b] = k

    for keys, run in (([mask.tobytes() for mask in keep], order), (seqs, cut)):
        live = (key if err is None else None for key, err in zip(keys, errors))
        for key, rows in _groups(live).items():
            try:
                run(key, rows)
            except SosSelectError as err:  # what each row alone would raise
                for b in rows:
                    errors[b] = err

    outcomes, memo = [], {}
    for b, index in enumerate(indices):
        err = errors[b]
        if isinstance(err, NotConverged):
            raise NotConverged(f"replicate {index} (seed {_seed(config, index)}): {err}") from err
        if err is not None:
            raise err
        if (seqs[b], cuts[b]) not in memo:
            memo[seqs[b], cuts[b]] = _outcome(sos, draw.truth, seqs[b], cuts[b])
        outcomes.append(memo[seqs[b], cuts[b]])

    f_vals = [None] * size
    for model, rows in _groups(selected for _, selected in outcomes).items():
        for b, val in zip(rows, _pivot_block(draw, ys[rows], config.mode, model)):
            f_vals[b] = val
    event = (_event_a_block(design, eps) <= penalties.r_l).tolist()
    return [
        TrialRecord(
            index=index,
            seed=_seed(config, index),
            **flags,
            event_a=event[b],
            selected=selected.indices,
            exhaustive_exact=None if bests[b] is None else bests[b].model == draw.truth.support,
            f_stat=f_vals[b],
        )
        for b, (index, (flags, selected)) in enumerate(zip(indices, outcomes))
    ]


def _seed(config: ScenarioConfig, index: int) -> str:
    """The seed streams of replicate ``index``: master, design and noise."""
    return f"{config.master_seed}:{0 if config.fixed_design else index}:{index}"


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
    for draw, indices in _response_blocks(config, lo, hi):
        records += _block_records(config, draw, indices, penalties)
        if want_bounds and (indices[0] == 0 or not config.fixed_design):
            inp = bound_input_from_design(
                draw.noiseless, draw.truth, penalties, config.a,
                restarts=_LEDGER_RESTARTS[config.fixed_design],
            )
            ledgers.append(bound_report(inp, PIPELINE_BOUNDS[config.algorithm]))
        del draw
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
        for draw, indices in _response_blocks(config, 0, config.replicates):
            ys = draw.mu + _draw_noise(config, indices)
            vals += _pivot_block(draw, ys, config.mode, draw.truth.support)
            del draw
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
