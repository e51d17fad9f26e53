"""Seeded Monte Carlo laboratory for the selection pipeline.

Generates design/truth/noise triples from counter-based seeds, runs the
screened or full-design selector per replicate, decomposes errors into the
per-step events (screening, ordering, underselection, overselection),
compares empirical frequencies against the closed-form bounds, optionally
races the greedy selector against the all-subsets search, and checks the
post-selection F pivot.

Seed derivation is published here: stream s at index i is numpy's
SeedSequence((master_seed, s, i)) feeding PCG64. Replicate i draws its design
from stream 1 at i (at 0 for every replicate in fixed-design mode) and its
noise from stream 2 at i, so any subset of replicates is reproducible in
isolation and results are independent of the parallelism degree. The rule is
computed for a whole block of indices in one array pass (numpy's SeedSequence
hash on uint32 arrays, PCG64's seeding on Python ints), and a test pins it to
numpy's own ``default_rng(SeedSequence(...))`` byte for byte.

A replicate splits into an X side (the design draw, its standardized
columns, the truth and the noiseless mean) and a y side (noise, response,
centered response). Replicates come in blocks that share one design draw: a
fixed design is drawn once and its replicates come ``_RESPONSE_BLOCK`` at a
time, a fresh design makes a block of one. Every design of a run (of one
worker's span of replicates) is drawn and standardized into one workspace:
the (n, p) design, its standardized copy, the scratch of its column norms
and the AR(1) factor, made once, so a fresh design's arrays stay valid only
until the next block's design overwrites them. A block's y side is one (B, n)
stack, each row's noise drawn from its replicate's own stream. Its screening
Lassos are one run of the descent driver ``lasso._lasso_block``, which steps
the whole stack while two or more rows run and the last row on Python floats,
and its exhaustive searches share one subset-lattice walk. Then the block
runs the selection module's pipeline; replicates that select the same model
share one pivot projection, and event A is one stacked product for the block.
Every product over a stack is the design module's stacked gemv, so each
record is the bytes of its replicate run alone, and neither ``jobs`` nor the
block size moves one. The first replicate, in index order, whose pipeline
raises makes the block raise that error, save that a screened set too large
to order is a screening failure. No record reads the refit of the selected
model, so the block does not compute it.
"""

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np
import scipy.linalg

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
    _column_index,
    _gemv_rows,
    _thin_q,
    json_text,
    standardize,
)
from .errors import DegenerateSelection, NotConverged, ScreenTooLarge
from .identify import TruthSpec
from .lasso import PenaltyPair, _event_a_block, _lasso_block, default_penalties
from .schemas import check_field_bounds, read_json_fields
from .selection import _exhaustive_block, _groups, _select_block

_DESIGN_STREAM = 1
_NOISE_STREAM = 2
# numpy's SeedSequence hash (bit_generator.pyx) and PCG64's LCG multiplier
_POOL_SIZE, _XSHIFT = 4, 16
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_GENERATOR = np.random.Generator(np.random.PCG64(0))  # every stream's state is set on it
_BOUND_GUARD_P = 12  # per-replicate margin/eigenvalue work only below this
# restricted-eigenvalue restarts of one design draw's bound ledger, keyed by
# fixed_design: a fixed design's single ledger can afford the larger budget
_LEDGER_RESTARTS = {True: 64, False: 24}
# replicates of a fixed design that share one y-side stack: one Lasso block,
# one exhaustive-search walk, one factorization per screened set, ordering and
# selected model; bounds the responses held at once
_RESPONSE_BLOCK = 128


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


def _design_index(config: ScenarioConfig, index: int) -> int:
    """The design draw replicate ``index`` uses: 0 for a fixed design."""
    return 0 if config.fixed_design else index


def _entropy_words(value: int) -> list:
    """numpy's split of a non-negative int into little-endian uint32 words."""
    return [value >> s & _MASK32 for s in range(0, max(value.bit_length(), 1), 32)]


def _hash_constants(init: int, mult: int, count: int):
    """The value numpy's SeedSequence hash xors in at each of ``count``
    calls and the one it then multiplies by, as (count, 1) uint32 columns."""
    consts = np.cumprod(np.array([init] + [mult] * count, dtype=np.uint32), dtype=np.uint32)
    return consts[:-1, None], consts[1:, None]


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """numpy's SeedSequence ``mix`` of pool words ``x`` with hashed words ``y``."""
    r = x * _MIX_MULT_L - y * _MIX_MULT_R
    return r ^ r >> _XSHIFT


def _pcg64_seeds(words: np.ndarray) -> list:
    """PCG64's (state, inc) seeded by ``SeedSequence`` from each column of
    ``words``, a (length, B) uint32 array of entropy words: numpy's pool
    mixing and ``generate_state(4, uint64)`` over all B columns at once, then
    PCG64's two 128-bit LCG seeding steps on Python ints."""
    length = len(words)
    # one call per pool word, one per ordered pair of pool words, and one per
    # pool word for each entropy word beyond the pool
    xor, mul = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * max(length, _POOL_SIZE))
    at = 0

    def hashmix(values, count):  # the next ``count`` calls of numpy's hashmix
        nonlocal at
        v = (values ^ xor[at : at + count]) * mul[at : at + count]
        at += count
        return v ^ v >> _XSHIFT

    pool = np.zeros((_POOL_SIZE, words.shape[1]), dtype=np.uint32)
    pool[:length] = words[:_POOL_SIZE]
    pool = hashmix(pool, _POOL_SIZE)
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[dst] = _mix(pool[dst], hashmix(pool[src], len(dst)))
    for word in words[_POOL_SIZE:]:  # entropy beyond the pool
        pool = _mix(pool, hashmix(word, _POOL_SIZE))
    xor, mul = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    state = (np.vstack((pool, pool)) ^ xor) * mul
    state = (state ^ state >> _XSHIFT).astype(np.uint64)
    seeds = []
    for hi, lo, seq_hi, seq_lo in zip(*(state[0::2] | state[1::2] << np.uint64(32)).tolist()):
        inc = (seq_hi << 65 | seq_lo << 1 | 1) & _MASK128
        seeds.append((((inc + (hi << 64 | lo)) * _PCG64_MULT + inc) & _MASK128, inc))
    return seeds


def _streams(config: ScenarioConfig, stream: int, indices):
    """The one seed-stream rule: stream ``stream`` at each of ``indices`` in
    turn, each the bytes of ``default_rng(SeedSequence((master_seed, stream,
    index)))``. Each ``_RESPONSE_BLOCK`` indices are seeded in one array pass,
    grouped by entropy length. The one generator yielded is reset to each
    index's stream, so each must be drawn from before the next is asked for."""
    head = _entropy_words(config.master_seed) + _entropy_words(stream)
    bits = _GENERATOR.bit_generator
    for start in range(0, len(indices), _RESPONSE_BLOCK):
        tails = [_entropy_words(i) for i in indices[start : start + _RESPONSE_BLOCK]]
        seeds = [None] * len(tails)
        for rows in _groups(len(tail) for tail in tails).values():
            words = np.array([head + tails[b] for b in rows], dtype=np.uint32).T
            for b, seed in zip(rows, _pcg64_seeds(words)):
                seeds[b] = seed
        for state, inc in seeds:
            bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                          "has_uint32": 0, "uinteger": 0}
            yield _GENERATOR


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


@dataclass(frozen=True, eq=False)
class _Workspace:
    """The X-side arrays of one ``_response_blocks`` call, which each design
    it draws overwrites: the design ``x``, its standardized columns ``x0``,
    ``scratch`` (the draw before the AR(1) transform or the copies, then
    standardize's squares), all (n, p) and C-ordered, and the AR(1) factor."""

    x: np.ndarray
    x0: np.ndarray
    scratch: np.ndarray
    ar1_factor: "np.ndarray | None"


def _workspace(config: ScenarioConfig) -> _Workspace:
    shape, factor = (config.n, config.p), None
    if config.design_kind == "ar1" and config.rho > 0.0:
        cov = config.rho ** np.abs(np.subtract.outer(np.arange(config.p), np.arange(config.p)))
        factor = scipy.linalg.cholesky(cov, lower=False)
    return _Workspace(np.empty(shape), np.empty(shape), np.empty(shape), factor)


def _draw_design(config: ScenarioConfig, rng: np.random.Generator, work: _Workspace) -> _DesignDraw:
    """The X side of a replicate, drawn from its design stream ``rng`` into
    ``work``: the bytes of drawing ``(n, p - copies)`` normals, then the
    AR(1) product or the appended copies, on new arrays."""
    duplicated = config.design_kind == "duplicated_spurious"
    base_p = config.p - (config.copies if duplicated else 0)
    x = work.x
    if duplicated or work.ar1_factor is not None:
        base = work.scratch.reshape(-1)[: config.n * base_p].reshape(config.n, base_p)
        rng.standard_normal(out=base)
        if work.ar1_factor is not None:
            np.matmul(base, work.ar1_factor, out=x)
    else:
        rng.standard_normal(out=x)
    support = np.sort(rng.permutation(base_p)[: config.t])
    if duplicated:
        spurious = [j for j in range(base_p) if j not in set(support)]
        x[:, :base_p] = base
        x[:, base_p:] = base[:, spurious[: config.copies]]
    beta = _beta_values(config)
    mu = x[:, support] @ beta
    noiseless = standardize(Dataset(x=x, y=mu), config.mode, out=(work.x0, work.scratch))
    truth = TruthSpec.from_beta(noiseless, support, beta, sigma2=config.sigma2)
    return _DesignDraw(x=x, mu=mu, noiseless=noiseless, truth=truth)


def _draw_noise(config: ScenarioConfig, streams, count: int) -> np.ndarray:
    """The noise of the next ``count`` replicates of ``streams``, one row
    each, each row drawn from its replicate's own stream: stream 2 at the
    replicate, numpy's SeedSequence((master_seed, 2, index)) feeding PCG64,
    seeded by ``_streams`` in one array pass per block of indices."""
    eps = np.empty((count, config.n))
    for row, rng in zip(eps, streams):
        rng.standard_normal(out=row)
    return eps * math.sqrt(config.sigma2)


def generate_trial(config: ScenarioConfig, index: int):
    """Build (dataset, standardized design, truth, noise) for one replicate.

    The truth support is the first t entries of a seeded permutation of the
    base columns; the duplicated_spurious kind appends exact copies of the
    first spurious base columns, which therefore never enter the truth.
    ``index`` must be a nonnegative integer, as numpy's seed rule takes.
    """
    if _column_index(index, "index") < 0:
        raise ValueError(f"index must be nonnegative, got {index!r}")
    draw, _, (eps,) = next(_response_blocks(config, index, index + 1))
    y = draw.mu + eps
    design = replace(draw.noiseless, y0=_center(y, draw.noiseless.mode))
    return Dataset(x=draw.x, y=y), design, draw.truth, eps


@dataclass(frozen=True)
class TrialRecord(JsonFields):
    """Per-replicate event flags with the exact conditioning structure:
    screening holds when the screened set holds every true column, ordering
    when the t top-ranked columns are the truth, and each error flag is
    raised only when every earlier step succeeded, so the five outcomes
    (screen_fail / order_fail / underfit / overfit / exact) partition the
    replicates."""

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


def _pivot_block(draw: _DesignDraw, ys: np.ndarray, model: ModelSet) -> list:
    """Post-selection pivot of each response row of ``ys`` on ``model``:
    (distance of the fit from the projected truth per model dimension) over
    (residual mean square). None when the model is empty, saturated, or the
    residual is numerically zero."""
    n = ys.shape[1]
    d = pivot_dimension(len(model), draw.noiseless.mode)
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
    ``(draw, indices, eps)``, the noise of ``indices`` one row each. A fixed
    design is drawn once and its replicates come ``_RESPONSE_BLOCK`` at a
    time; a fresh design per replicate makes blocks of one. Each stream is
    seeded over the span, so blocks of one share its array passes.

    Every design of the call is drawn into one ``_Workspace``, so a fresh
    design's ``x``, ``x0`` and scratch are valid only until the next block
    is asked for, which overwrites them: callers finish with a block (and
    keep no array of its draw) before asking for the next. The noise, the
    mean, the scales, the centered response and the truth are new arrays
    per block, and each call has its own workspace, so a call over one
    replicate (``generate_trial``) hands its arrays to the caller."""
    designs = _streams(config, _DESIGN_STREAM, [0] if config.fixed_design else range(lo, hi))
    noises = _streams(config, _NOISE_STREAM, range(lo, hi))
    work = _workspace(config)
    shared = _draw_design(config, next(designs), work) if config.fixed_design else None
    step = _RESPONSE_BLOCK if config.fixed_design else 1
    for start in range(lo, hi, step):
        draw = shared if shared is not None else _draw_design(config, next(designs), work)
        indices = range(start, min(start + step, hi))
        yield draw, indices, _draw_noise(config, noises, len(indices))
        del draw


def _outcome(truth: TruthSpec, seq, selected: ModelSet) -> dict:
    """The record flags of a replicate whose ordering ``seq`` was cut to
    ``selected`` (None and the empty model when its screened set was too
    large to order, a screening failure). Screening holds when ``seq`` holds
    every true column, ordering when its first t entries are the truth; each
    error flag is raised only when every earlier step succeeded."""
    true_set, t = set(truth.support.indices), truth.t
    screen_ok = seq is not None and true_set.issubset(seq)
    order_ok = screen_ok and set(seq[:t]) == true_set
    k = len(selected)
    exact = order_ok and k == t
    recovered = selected == truth.support
    if exact != recovered:
        raise AssertionError("the truth must be selected exactly when a correct ordering is cut at t")
    return dict(
        screen_ok=screen_ok,
        order_ok=order_ok,
        underfit=order_ok and k < t,
        overfit=order_ok and k > t,
        exact=exact,
        recovered=recovered,
    )


def _block_records(
    config: ScenarioConfig, draw: _DesignDraw, indices, eps: np.ndarray, penalties: PenaltyPair
) -> list:
    """The records of replicates ``indices`` with noise rows ``eps`` on one
    design ``draw``, their y side computed as one stack (see the module
    docstring)."""
    design = draw.noiseless
    ys = draw.mu + eps
    y0s = _center(ys, design.mode, axis=1)
    size = len(indices)
    bests = [None] * size
    if config.compare_exhaustive:
        bests = _exhaustive_block(design, y0s, penalties.r)
    fits = _lasso_block(design, y0s, penalties.r_l) if config.algorithm == "sos" else None
    orders, paths, errors = _select_block(design, y0s, fits, penalties.r)
    selections, outcomes, memo = [], [], {}
    for index, order, path, err in zip(indices, orders, paths, errors):
        if isinstance(err, NotConverged):
            raise NotConverged(f"replicate {index} (seed {_seed(config, index)}): {err}") from err
        if err is not None and not isinstance(err, ScreenTooLarge):
            raise err
        seq, selected = (order[0], path[2]) if err is None else (None, ModelSet.empty())
        key = seq, selected.indices
        if key not in memo:
            memo[key] = _outcome(draw.truth, seq, selected)
        selections.append(selected)
        outcomes.append(memo[key])

    f_vals = [None] * size
    for rows in _groups(selected.indices for selected in selections).values():
        for b, val in zip(rows, _pivot_block(draw, ys[rows], selections[rows[0]])):
            f_vals[b] = val
    event = (_event_a_block(design, eps) <= penalties.r_l).tolist()
    return [
        TrialRecord(
            index=index,
            seed=_seed(config, index),
            **flags,
            event_a=event[b],
            selected=selections[b].indices,
            exhaustive_exact=None if bests[b] is None else bests[b].model == draw.truth.support,
            f_stat=f_vals[b],
        )
        for b, (index, flags) in enumerate(zip(indices, outcomes))
    ]


def _seed(config: ScenarioConfig, index: int) -> str:
    """The seed streams of replicate ``index``: master, design and noise."""
    return f"{config.master_seed}:{_design_index(config, index)}:{index}"


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
    for draw, indices, eps in _response_blocks(config, lo, hi):
        records += _block_records(config, draw, indices, eps, penalties)
        if want_bounds and _design_index(config, indices[0]) == indices[0]:
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
    import scipy.special  # only simulate needs it: the other subcommands start without it
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
    Raises ValueError when ``jobs`` is not an integer of at least 1.
    """
    if (jobs := _column_index(jobs, "jobs")) < 1:
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
    if oracle and _column_index(jobs, "jobs") != 1:
        raise ValueError(f"the oracle pivot runs in one process; got jobs={jobs}")
    d = pivot_dimension(config.t, config.mode)
    if config.n - d < 1:
        raise ValueError("reference needs n larger than the model dimension")
    if oracle:
        vals = []
        for draw, _, eps in _response_blocks(config, 0, config.replicates):
            vals += _pivot_block(draw, draw.mu + eps, draw.truth.support)
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
