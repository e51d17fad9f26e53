"""Ordering, greedy prefix selection and exhaustive subset search.

Oracles: prefix criteria recomputed from scratch with design.rss per prefix,
and a combinations-based exhaustive enumeration (also via design.rss) using
the same exact tie rules.
"""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from sosselect.design import (
    RANK_TOL,
    Dataset,
    ModelSet,
    _center,
    _full_rank_factor,
    json_text,
    ls_fit,
    rss,
    standardize,
)
from sosselect.errors import (
    DegenerateResidual,
    EnumerationTooLarge,
    RankDeficient,
    ScreenTooLarge,
    TooManyPredictors,
)
from sosselect.lasso import PenaltyPair, default_penalties
from sosselect.selection import (
    GicPath,
    Ordering,
    _exhaustive_block,
    _order_block,
    _path_block,
    exhaustive_gic,
    gic_path,
    order_by_t,
    run_os,
    run_sos,
)


def oracle_prefix_best(design, sequence, r):
    """Greedy-family minimizer recomputed with per-prefix LS fits."""
    values = []
    for k in range(len(sequence) + 1):
        values.append(rss(design, ModelSet.of(sequence[:k])) + r * k)
    best = min(range(len(values)), key=lambda k: (values[k], k))
    return best, values


def oracle_exhaustive(design, r, max_size):
    """Subset enumeration via design.rss with exact tie rules."""
    best = (float(design.y0 @ design.y0), 0, ())
    skipped = 0
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(range(design.p), size):
            try:
                val = rss(design, ModelSet.of(combo)) + r * size
            except RankDeficient:
                skipped += 1
                continue
            cand = (val, size, combo)
            if cand[0] < best[0] or (cand[0] == best[0] and cand[1:] < best[1:]):
                best = cand
    return ModelSet.of(best[2]), best[0], skipped


def random_design(rng, n, p, mode="practical", y=None):
    x = rng.standard_normal((n, p))
    y = rng.standard_normal(n) if y is None else y
    return standardize(Dataset(x=x, y=y), mode)


def test_order_by_t_orthonormal_sorts_by_inner_products():
    rng = np.random.default_rng(50)
    q = np.linalg.qr(rng.standard_normal((12, 4)))[0]
    y = q @ np.array([0.5, -3.0, 1.5, 0.1]) + 0.01 * rng.standard_normal(12)
    d = standardize(Dataset(x=q, y=y), "formal")
    got = order_by_t(d, ModelSet.full(4))
    z = np.abs(d.x0.T @ d.y0)
    assert got.sequence == tuple(np.argsort(-z, kind="stable"))
    assert all(a >= b for a, b in zip(got.t_squared, got.t_squared[1:]))


def test_order_by_t_matches_leave_one_out_rss_oracle():
    rng = np.random.default_rng(51)
    for _ in range(10):
        d = random_design(rng, 20, 5)
        s1 = ModelSet.of(rng.choice(5, size=4, replace=False))
        got = order_by_t(d, s1)
        loo = {j: rss(d, s1.minus([j])) for j in s1.indices}
        expected = tuple(sorted(s1.indices, key=lambda j: (-loo[j], j)))
        assert got.sequence == expected


def test_order_by_t_singleton_and_empty():
    rng = np.random.default_rng(52)
    d = random_design(rng, 10, 3)
    assert order_by_t(d, ModelSet.of([2])).sequence == (2,)
    for empty in ([], (), np.array([], dtype=int), ModelSet.empty()):
        got = order_by_t(d, empty)
        assert got == Ordering((), ())
        assert json.loads(json_text(got.to_json_dict())) == {"sequence": [], "t_squared": []}


@pytest.mark.parametrize("allow_degenerate", [True, False])
def test_order_block_of_an_empty_set_is_empty(allow_degenerate):
    # the k = 0 fit: (B, 0) rows even for a zero response, whose residual
    # would make any non-empty set degenerate, and no DegenerateResidual
    base, ys = block_design("practical")
    ys = np.vstack([ys, np.zeros(ys.shape[1])])
    seqs, t2 = _order_block(base, ModelSet.empty(), ys, allow_degenerate=allow_degenerate)
    assert seqs.shape == t2.shape == (len(ys), 0)
    assert [tuple(seq) for seq in seqs.tolist()] == [()] * len(ys)


def test_order_by_t_zero_residual_fallback():
    rng = np.random.default_rng(53)
    x = rng.standard_normal((10, 3))
    y = x @ np.array([2.0, -1.0, 0.5])  # exact fit, rss(s1) = 0
    d = standardize(Dataset(x=x, y=y), "formal")
    with pytest.raises(DegenerateResidual):
        order_by_t(d, ModelSet.full(3))
    got = order_by_t(d, ModelSet.full(3), allow_degenerate=True)
    loo = {j: rss(d, ModelSet.full(3).minus([j])) for j in range(3)}
    assert got.sequence == tuple(sorted(range(3), key=lambda j: (-loo[j], j)))
    assert got.t_squared is None


def test_gic_path_matches_per_prefix_oracle():
    rng = np.random.default_rng(54)
    for _ in range(10):
        d = random_design(rng, 18, 6)
        seq = tuple(rng.permutation(6))
        r = float(rng.uniform(0.0, 2.0))
        path = gic_path(d, Ordering(sequence=seq), r)
        best, values = oracle_prefix_best(d, seq, r)
        np.testing.assert_allclose(path.values, values, atol=1e-8)
        assert path.selected_size == best


def test_gic_path_near_collinear_prefixes_match_direct_rss():
    rng = np.random.default_rng(55)
    base = rng.standard_normal((25, 3))
    x = np.hstack([base, base[:, :2] + 1e-6 * rng.standard_normal((25, 2))])
    d = standardize(Dataset(x=x, y=rng.standard_normal(25)), "practical")
    seq = (0, 3, 1, 4, 2)
    path = gic_path(d, Ordering(sequence=seq), 0.1)
    for k in range(6):
        assert path.rss_path[k] == pytest.approx(rss(d, ModelSet.of(seq[:k])), abs=1e-8)


def test_gic_path_extreme_penalties():
    rng = np.random.default_rng(56)
    d = random_design(rng, 15, 4)
    seq = tuple(range(4))
    assert gic_path(d, Ordering(sequence=seq), 1e9).selected_size == 0
    # r = 0 with a generic response: rss strictly decreases, full prefix wins
    assert gic_path(d, Ordering(sequence=seq), 0.0).selected_size == 4


def test_gic_path_exact_ties_pick_smallest_prefix():
    # orthogonal one-hot design, response orthogonal to every column:
    # all prefix criteria are exactly equal at r = 0
    x = np.eye(4)[:, :3]
    y = np.array([0.0, 0.0, 0.0, 2.0])
    d = standardize(Dataset(x=x, y=y), "formal")
    path = gic_path(d, Ordering(sequence=(0, 1, 2)), 0.0)
    assert path.values[0] == path.values[1] == path.values[2] == path.values[3] == 4.0
    assert path.selected_size == 0


def test_gic_path_rejects_rank_deficient_ordering():
    rng = np.random.default_rng(57)
    x = rng.standard_normal((10, 2))
    x = np.hstack([x, x[:, :1]])
    d = standardize(Dataset(x=x, y=rng.standard_normal(10)), "formal")
    with pytest.raises(RankDeficient):
        gic_path(d, Ordering(sequence=(0, 1, 2)), 0.5)


def path_fields(ordering_call):
    """Every field of a GicPath (arrays as bytes), or the type and message
    of what the call raised."""
    try:
        path = ordering_call()
    except RankDeficient as exc:
        return type(exc), str(exc)
    return (
        path.rss_path.tobytes(), path.values.tobytes(), path.selected_size, repr(path.penalty)
    )


def block_design(mode):
    """A design with a duplicate column and a stack of centered responses,
    one of them (row 2) in the span of columns 0 and 4: ~0 residual."""
    rng = np.random.default_rng(58)
    n = 10
    x = rng.standard_normal((n, 10))
    x[:, 9] = x[:, 2]  # exact duplicate column
    responses = [rng.standard_normal(n) * 2.0 for _ in range(4)]
    responses.insert(2, x[:, [0, 4]] @ np.array([2.0, -1.0]))
    base = standardize(Dataset(x=x, y=responses[0]), mode)
    return base, _center(np.array(responses), mode, axis=1)


def gic_path_reference(design, seq, r):
    """gic_path of a non-empty ordering as one response's scalar products:
    the gemvs ``q2.T @ (q.T @ y0)`` and ``y0 @ y0``."""
    q, rmat, perm = _full_rank_factor(design.x0[:, list(seq)], ModelSet.of(seq))
    q2 = np.linalg.qr(rmat[:, np.argsort(perm)])[0]
    contrib = (q2.T @ (q.T @ design.y0)) ** 2
    r_empty = float(design.y0 @ design.y0)
    rss_path = np.maximum(r_empty - np.concatenate([[0.0], np.cumsum(contrib)]), 0.0)
    values = rss_path + r * np.arange(len(seq) + 1)
    return GicPath(rss_path, values, int(np.argmin(values)), r)


def empty_path_reference(ys, r):
    """The zero-width path ``_path_block`` once built for an empty ordering
    without factoring: no direction removes anything, one size."""
    contrib = np.zeros((len(ys), 0))
    removed = np.concatenate([np.zeros((len(ys), 1)), np.cumsum(contrib, axis=1)], axis=1)
    rss_path = np.maximum(np.vecdot(ys, ys)[:, None] - removed, 0.0)
    values = rss_path + r * np.arange(1)
    return rss_path, values, np.argmin(values, axis=1)


@pytest.mark.parametrize("mode", ["practical", "formal"])
def test_empty_ordering_takes_the_factorization_path_to_the_zero_width_bytes(mode):
    # the empty column set factors to (n, 0) and (0, 0) arrays, so the
    # prefix products add nothing and the path is the criterion at size 0
    base, ys = block_design(mode)
    for rows in (ys, ys[:1]):
        for r in (0.0, 0.7):
            got, want = _path_block(base, (), rows, r), empty_path_reference(rows, r)
            assert [a.shape for a in got] == [(len(rows), 1)] * 2 + [(len(rows),)]
            assert [(a.dtype, a.tobytes()) for a in got] == [(a.dtype, a.tobytes()) for a in want]


@pytest.mark.parametrize("mode", ["practical", "formal"])
def test_path_block_rows_are_byte_identical_to_gic_path(mode):
    base, ys = block_design(mode)
    # one set in three orders (pivoting depends on the order), and a
    # prefix family as long as n_effective allows for both modes
    full_rank = [(4, 0, 3), (0, 3, 4), (3, 4, 0), (7, 6, 5, 4, 3, 2, 1, 0)]
    for seq in [()] + full_rank:
        for r in (0.0, 0.7):
            rss_path, values, sizes = _path_block(base, seq, ys, r)
            for b, y0 in enumerate(ys):
                single = gic_path(dataclasses.replace(base, y0=y0), Ordering(sequence=seq), r)
                row = GicPath(rss_path[b], values[b], int(sizes[b]), r)
                assert path_fields(lambda: row) == path_fields(lambda: single)
                if seq:
                    design = dataclasses.replace(base, y0=y0)
                    want = path_fields(lambda: gic_path_reference(design, seq, r))
                    assert path_fields(lambda: single) == want
    got = path_fields(lambda: _path_block(base, (2, 9), ys, 0.0))
    assert got[0] is RankDeficient
    assert got == path_fields(lambda: gic_path(base, Ordering(sequence=(2, 9)), 0.0))


@pytest.mark.parametrize("mode", ["practical", "formal"])
def test_order_block_rows_are_byte_identical_to_order_by_t(mode):
    base, ys = block_design(mode)
    fallbacks = 0
    for s1 in [(0, 4), (0, 3, 4, 6), (1, 5, 7, 8), tuple(range(8))]:
        if len(s1) >= base.n_effective:
            continue
        seqs, t2 = _order_block(base, ModelSet.of(s1), ys, allow_degenerate=True)
        for b, y0 in enumerate(ys):
            single = order_by_t(dataclasses.replace(base, y0=y0), s1, allow_degenerate=True)
            assert tuple(seqs[b].tolist()) == single.sequence
            if single.t_squared is None:  # the leave-one-out fallback
                fallbacks += 1
                assert np.isnan(t2[b]).all()
            else:
                assert tuple(t2[b].tolist()) == single.t_squared
    assert fallbacks >= 2  # row 2 falls back for every set holding 0 and 4
    with pytest.raises(DegenerateResidual):
        _order_block(base, ModelSet.of((0, 4)), ys, allow_degenerate=False)


def test_exhaustive_orthonormal_closed_form():
    # keep exactly the columns with squared inner product above the penalty
    rng = np.random.default_rng(58)
    q = np.linalg.qr(rng.standard_normal((20, 6)))[0]
    y = rng.standard_normal(20) * 2
    d = standardize(Dataset(x=q, y=y), "formal")
    z2 = (d.x0.T @ d.y0) ** 2
    r = float(np.median(z2))
    res = exhaustive_gic(d, r)
    assert res.model == ModelSet.of(np.nonzero(z2 > r)[0])


@pytest.mark.parametrize("seed", [59, 60, 61])
def test_exhaustive_matches_enumeration_oracle(seed):
    rng = np.random.default_rng(seed)
    d = random_design(rng, 25, 8)
    r = float(rng.uniform(0.1, 1.5))
    res = exhaustive_gic(d, r)
    model, value, skipped = oracle_exhaustive(d, r, min(8, d.n_effective))
    assert res.model == model
    assert res.value == pytest.approx(value, abs=1e-8)
    assert res.skipped == skipped == 0


def test_exhaustive_counts_rank_deficient_subsets():
    rng = np.random.default_rng(62)
    x = rng.standard_normal((15, 3))
    x = np.hstack([x, x[:, :1]])  # column 3 duplicates column 0
    d = standardize(Dataset(x=x, y=rng.standard_normal(15)), "formal")
    res = exhaustive_gic(d, 0.2, max_size=4)
    model, value, skipped = oracle_exhaustive(d, 0.2, 4)
    assert res.skipped == skipped == 4  # all subsets containing {0, 3}
    assert res.value == pytest.approx(value, abs=1e-10)
    # columns 0 and 3 are identical, so models compare modulo that swap
    canon = lambda m: tuple(sorted(0 if j == 3 else j for j in m.indices))
    assert canon(res.model) == canon(model)


def test_exhaustive_tie_rules():
    # one-hot columns: y = (1,1,1,0) gives every singleton the same value
    x = np.eye(4)[:, :3]
    y = np.array([1.0, 1.0, 1.0, 0.0])
    d = standardize(Dataset(x=x, y=y), "formal")
    res = exhaustive_gic(d, 0.0, max_size=1)
    assert res.model == ModelSet.of([0])  # lexicographically smallest singleton
    # penalty exactly 1.0 ties every subset with the empty model
    res2 = exhaustive_gic(d, 1.0)
    assert res2.model == ModelSet.empty()


@pytest.mark.parametrize("max_size", [None, 2])
@pytest.mark.parametrize("responses", [1, 7])
def test_exhaustive_block_rows_equal_separate_searches(max_size, responses):
    rng = np.random.default_rng(66)
    x = rng.standard_normal((18, 5))
    x = np.hstack([x, x[:, 1:2]])  # column 5 duplicates column 1: subtrees skipped
    ys = rng.standard_normal((responses, 18)) + 0.8 * x[:, 1]
    ys[0] = x[:, 0] + x[:, 2]  # noiseless on {0, 2}: the rss clamps at 0.0
    designs = [standardize(Dataset(x=x, y=y), "practical") for y in ys]
    block = _exhaustive_block(designs[0], [d.y0 for d in designs], 0.7, max_size)
    assert len(block) == responses
    for d, got in zip(designs, block):
        want = exhaustive_gic(d, 0.7, max_size)
        assert got.model == want.model
        assert got.value == want.value and got.rss == want.rss
        assert got.evaluated == want.evaluated and got.skipped == want.skipped
        assert got.skipped > 0
    if responses > 1 and max_size is None:
        # {1} and {5} tie exactly; the rule keeps the smaller index
        assert block[3].model == ModelSet.of([1])


def exhaustive_reference(design, responses, r, max_size=None):
    """``_exhaustive_block`` as first written, with one scalar ``float(q @ y)``
    per response and node and Python's ``max`` and tie rule: the walk the
    block kernel must reproduce bit for bit. Returns (model, value, rss,
    evaluated, skipped) per response."""
    x0 = design.x0
    n, p = x0.shape
    max_size = min(p, design.n_effective - 1 if max_size is None else max_size)
    ys = list(responses)
    r_empty = [float(y @ y) for y in ys]
    best_val = list(r_empty)
    best_key = [(0, ())] * len(ys)
    best_rss = list(r_empty)
    qbasis = np.zeros((n, max_size))
    stack = [0] * (max_size + 1)
    evaluated, skipped = 1, 0

    def visit(start, depth, cur_rss):
        nonlocal evaluated, skipped
        if depth == max_size:
            return
        for j in range(start, p):
            col = x0[:, j]
            w = col - qbasis[:, :depth] @ (qbasis[:, :depth].T @ col)
            w -= qbasis[:, :depth] @ (qbasis[:, :depth].T @ w)
            nw = float(np.linalg.norm(w))
            if nw <= RANK_TOL:
                free = p - j - 1
                skipped += sum(math.comb(free, e) for e in range(0, max_size - depth))
                continue
            qbasis[:, depth] = w / nw
            q = qbasis[:, depth]
            stack[depth] = j
            size = depth + 1
            penalty = r * size
            key = (size, tuple(stack[:size]))
            evaluated += 1
            child_rss = [max(c - float(q @ y) ** 2, 0.0) for c, y in zip(cur_rss, ys)]
            for k, rss_k in enumerate(child_rss):
                val = rss_k + penalty
                if val < best_val[k] or (val == best_val[k] and key < best_key[k]):
                    best_val[k], best_key[k], best_rss[k] = val, key, rss_k
            visit(j + 1, depth + 1, child_rss)

    visit(0, 0, r_empty)
    return [
        (ModelSet.of(key[1]), val, rss_k, evaluated, skipped)
        for key, val, rss_k in zip(best_key, best_val, best_rss)
    ]


def assert_walk_bytes_equal(got, want):
    assert len(got) == len(want)
    for res, (model, value, rss_k, evaluated, skipped) in zip(got, want):
        assert type(res.value) is float and type(res.rss) is float
        assert res.model == model
        assert res.value.hex() == value.hex() and res.rss.hex() == rss_k.hex()
        assert (res.evaluated, res.skipped) == (evaluated, skipped)


@pytest.mark.parametrize("mode", ["practical", "formal"])
@pytest.mark.parametrize("max_size", [None, 2])
@pytest.mark.parametrize("responses", [1, 7, 200])
def test_exhaustive_block_is_byte_identical_to_scalar_walk(responses, max_size, mode):
    rng = np.random.default_rng(66)
    x = rng.standard_normal((18, 5))
    x = np.hstack([x, x[:, 1:2]])  # column 5 duplicates column 1: subtrees skipped
    ys = rng.standard_normal((responses, 18)) + 0.8 * x[:, 1]
    ys[0] = x[:, 0] + x[:, 2]  # noiseless on {0, 2}
    d = standardize(Dataset(x=x, y=ys[0]), mode)
    y0s = [standardize(Dataset(x=x, y=y), mode).y0 for y in ys]
    want = exhaustive_reference(d, y0s, 0.7, max_size)
    assert_walk_bytes_equal(_exhaustive_block(d, y0s, 0.7, max_size), want)
    assert want[0][3] > 0 and want[0][4] > 0
    if responses > 1:
        assert ModelSet.of([1]) in [w[0] for w in want]  # {1} beat its tie {5}


def test_exhaustive_block_ties_and_clamp_match_scalar_walk():
    # one-hot columns. For (1, 1, 1, 0) every singleton ties, and penalty 1.0
    # ties every subset with the empty model; for (1, 2, 0, 0) at penalty 1.0
    # {1} ties {0, 1}, visited before it, and wins by size
    x = np.eye(4)[:, :3]
    ys = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 2.0, 0.0, 0.0]])
    d = standardize(Dataset(x=x, y=ys[0]), "formal")
    for r, max_size in [(0.0, 1), (1.0, None), (0.0, None), (0.5, 2)]:
        want = exhaustive_reference(d, ys, r, max_size)
        assert_walk_bytes_equal(_exhaustive_block(d, ys, r, max_size), want)
    assert [w[0] for w in exhaustive_reference(d, ys, 1.0)] == [
        ModelSet.empty(), ModelSet.of([1])
    ]
    # a noiseless response: its fitted rss clamps at 0.0
    rng = np.random.default_rng(69)
    x = rng.standard_normal((12, 4))
    d = standardize(Dataset(x=x, y=x @ np.array([1.0, -2.0, 0.5, 3.0])), "formal")
    want = exhaustive_reference(d, [d.y0], 0.0)
    assert_walk_bytes_equal([exhaustive_gic(d, 0.0)], want)
    assert want[0][2] == 0.0


def test_exhaustive_huge_penalty_gives_empty_model():
    rng = np.random.default_rng(63)
    d = random_design(rng, 12, 5)
    res = exhaustive_gic(d, 1e9)
    assert res.model == ModelSet.empty()
    assert res.value == pytest.approx(float(d.y0 @ d.y0))


def test_exhaustive_budget_guard():
    rng = np.random.default_rng(64)
    x = rng.standard_normal((25, 30))
    d = standardize(Dataset(x=x, y=rng.standard_normal(25)), "formal")
    with pytest.raises(EnumerationTooLarge):
        exhaustive_gic(d, 0.1, max_size=30)


def test_run_sos_recovers_strong_signal():
    rng = np.random.default_rng(65)
    n, p = 60, 8
    x = rng.standard_normal((n, p))
    beta = np.zeros(p)
    beta[[1, 4]] = [20.0, -15.0]  # clears 6 r_l on the standardized scale
    y = x @ beta + rng.standard_normal(n)
    pen = default_penalties(p, 1.0, 0.5)
    out = run_sos(standardize(Dataset(x=x, y=y), "practical"), pen)
    assert out.selected == ModelSet.of([1, 4])
    assert ModelSet.of([1, 4]).issubset(out.screen.s1)
    assert out.path.selected_size == 2
    assert set(out.refit.model.indices) == {1, 4}


def test_run_sos_pure_noise_selects_nothing():
    rng = np.random.default_rng(66)
    n, p = 50, 6
    x = rng.standard_normal((n, p))
    y = rng.standard_normal(n)
    pen = default_penalties(p, 1.0, 0.5)
    out = run_sos(standardize(Dataset(x=x, y=y), "practical"), pen)
    assert out.selected == ModelSet.empty()
    assert out.refit.rss == pytest.approx(float(out.design.y0 @ out.design.y0))


def test_run_sos_empty_screen_short_circuit():
    rng = np.random.default_rng(67)
    n, p = 30, 5
    x = rng.standard_normal((n, p))
    y = 0.01 * rng.standard_normal(n)
    out = run_sos(standardize(Dataset(x=x, y=y), "practical"), PenaltyPair(r=100.0, r_l=20.0))
    assert out.screen.s1 == ModelSet.empty()
    assert out.selected == ModelSet.empty()
    assert len(out.ordering) == 0 and out.path.selected_size == 0


def test_run_sos_noiseless_recovery_with_zero_penalties():
    rng = np.random.default_rng(68)
    n, p = 40, 6
    x = rng.standard_normal((n, p))
    beta = np.zeros(p)
    beta[[0, 3]] = [1.0, -2.0]
    y = x @ beta  # no noise; default penalties at sigma2 = 0 are exactly 0
    pen = default_penalties(p, 0.0, 0.5)
    out = run_sos(standardize(Dataset(x=x, y=y), "practical"), pen)
    assert out.selected == ModelSet.of([0, 3])
    assert out.refit.t_squared is None  # zero-residual refit tolerated


def test_run_sos_screen_too_large():
    rng = np.random.default_rng(69)
    n, p = 5, 4  # practical: n_effective = 4 = p
    x = rng.standard_normal((n, p))
    y = rng.standard_normal(n)
    with pytest.raises(ScreenTooLarge):
        run_sos(standardize(Dataset(x=x, y=y), "practical"), PenaltyPair(r=0.0, r_l=0.0))


def test_run_os_against_oracles():
    rng = np.random.default_rng(70)
    for _ in range(5):
        n, p = 30, 6
        x = rng.standard_normal((n, p))
        y = x[:, 0] * 3 + rng.standard_normal(n)
        out = run_os(standardize(Dataset(x=x, y=y), "practical"), PenaltyPair(r=1.0, r_l=2.0))
        d = out.design
        expected_order = order_by_t(d, ModelSet.full(p)).sequence
        assert out.ordering.sequence == expected_order
        best, _ = oracle_prefix_best(d, expected_order, 1.0)
        assert out.path.selected_size == best
        assert out.selected == ModelSet.of(expected_order[:best])


def test_run_os_orthonormal_agrees_with_exhaustive():
    rng = np.random.default_rng(71)
    q = np.linalg.qr(rng.standard_normal((25, 5)))[0]
    y = q @ np.array([3.0, 0.1, -2.0, 0.05, 1.0]) + 0.2 * rng.standard_normal(25)
    data = Dataset(x=q, y=y)
    out = run_os(standardize(data, "formal"), PenaltyPair(r=0.5, r_l=2.0 * 0.5**0.5))
    res = exhaustive_gic(out.design, 0.5)
    assert out.selected == res.model


def test_run_os_requires_small_p():
    rng = np.random.default_rng(72)
    x = rng.standard_normal((6, 6))
    d = standardize(Dataset(x=x, y=rng.standard_normal(6)), "formal")
    with pytest.raises(TooManyPredictors):
        run_os(d, PenaltyPair(r=1.0, r_l=2.0))


@pytest.mark.parametrize("formal", [False, True])
def test_refit_equals_a_fresh_fit_of_the_selection(formal):
    # whether the selection is the whole ordering or a proper prefix of it,
    # the refit is a fresh fit's bytes, in either parametrization
    mode = "formal" if formal else "practical"
    rng = np.random.default_rng(79)
    kinds = set()
    for beta in ([9.0, -7.0, 6.0, 0.0, 0.0], [9.0, -7.0, 6.0, 8.0, 5.0]):
        x = rng.standard_normal((40, 5))
        y = x @ np.array(beta) + rng.standard_normal(40)
        d = standardize(Dataset(x=x, y=y), mode)
        for out in (
            run_os(d, PenaltyPair(r=4.0, r_l=4.0)),
            run_sos(d, PenaltyPair(r=4.0, r_l=1.0)),
        ):
            whole = ModelSet.of(out.ordering.sequence)
            kinds.add("whole" if out.selected == whole else "prefix")
            fresh = ls_fit(d, out.selected, allow_degenerate=True)
            assert out.refit.to_json_dict() == fresh.to_json_dict()
    assert kinds == {"whole", "prefix"}


def test_run_sos_and_run_os_take_only_a_design_and_penalties():
    rng = np.random.default_rng(76)
    x = rng.standard_normal((30, 4))
    data = Dataset(x=x, y=x[:, 0] + rng.standard_normal(30))
    d = standardize(data, "practical")
    pen = PenaltyPair(r=4.0, r_l=4.0)
    with pytest.raises(TypeError):
        run_sos(d, "formal", pen)  # the mode comes from the design alone
    with pytest.raises(TypeError):
        run_os(d, r=5000.0)
    with pytest.raises(TypeError):
        run_os(d, r=5000.0, penalties=pen)
    with pytest.raises(TypeError):
        run_sos(d)
    # the raw data in place of its standardized design fails at the call
    for run in (run_sos, run_os):
        with pytest.raises(TypeError, match="StandardizedDesign"):
            run(data, pen)
    assert run_os(d, pen).penalties is pen


def test_selection_invariant_to_column_rescaling():
    rng = np.random.default_rng(73)
    n, p = 40, 6
    x = rng.standard_normal((n, p))
    beta = np.zeros(p)
    beta[[2, 5]] = [6.0, -5.0]
    y = x @ beta + rng.standard_normal(n)
    pen = default_penalties(p, 1.0, 0.5)
    out1 = run_sos(standardize(Dataset(x=x, y=y), "practical"), pen)
    scale = np.array([2.0, 0.01, 30.0, 1.0, 0.5, 100.0])
    out2 = run_sos(standardize(Dataset(x=x * scale, y=y), "practical"), pen)
    assert out1.screen.s0 == out2.screen.s0
    assert out1.screen.s1 == out2.screen.s1
    assert out1.ordering.sequence == out2.ordering.sequence
    assert out1.selected == out2.selected


def test_selection_invariant_to_response_shift_in_practical_mode():
    rng = np.random.default_rng(74)
    n, p = 35, 5
    x = rng.standard_normal((n, p))
    y = x[:, 1] * 4 + rng.standard_normal(n)
    pen = default_penalties(p, 1.0, 0.5)
    out1 = run_sos(standardize(Dataset(x=x, y=y), "practical"), pen)
    out2 = run_sos(standardize(Dataset(x=x, y=y + 57.3), "practical"), pen)
    assert out1.selected == out2.selected
    assert out1.ordering.sequence == out2.ordering.sequence
    np.testing.assert_allclose(out1.path.rss_path, out2.path.rss_path, atol=1e-8)


def test_selection_outcome_serialization_roundtrip():
    rng = np.random.default_rng(75)
    n, p = 30, 4
    x = rng.standard_normal((n, p))
    y = x[:, 0] + rng.standard_normal(n)
    out = run_sos(standardize(Dataset(x=x, y=y), "practical"), default_penalties(p, 1.0, 0.5))
    blob = out.to_json_dict()
    assert blob["algorithm"] == "sos" and blob["mode"] == "practical"
    assert isinstance(blob["selected"], list)
    assert len(blob["path"]["rss_path"]) == len(out.ordering) + 1


def test_internal_model_sets_are_sorted_python_ints():
    """The pipeline builds its screened and selected sets without re-checking
    them; they must still be what the public constructor gives."""
    rng = np.random.default_rng(2019)
    outcomes = []
    for n, p, support in [(60, 8, [1, 4]), (45, 6, [0, 5]), (80, 10, [2, 3, 7])]:
        x = rng.standard_normal((n, p))
        beta = np.zeros(p)
        beta[support] = rng.choice([-1.0, 1.0], len(support)) * rng.uniform(12.0, 25.0, len(support))
        design = standardize(Dataset(x=x, y=x @ beta + rng.standard_normal(n)), "practical")
        pen = default_penalties(p, 1.0, 0.5)
        outcomes += [run_sos(design, pen), run_os(design, pen)]
    for out in outcomes:
        sets = [out.selected] + ([out.screen.s0, out.screen.s1] if out.screen else [])
        for model in sets:
            assert model == ModelSet.of(model.indices)
            assert all(type(j) is int for j in model.indices)
            assert all(a < b for a, b in zip(model.indices, model.indices[1:]))
        json.dumps(out.to_json_dict())
    assert all(out.selected for out in outcomes)


def test_gic_path_checks_its_ordering_alone_and_in_a_block():
    rng = np.random.default_rng(2020)
    design = random_design(rng, 20, 5)
    ys = np.array([design.y0, design.y0[::-1]])
    for seq, match in [((0, 2, 0), "repeated"), ((1, 5), "out of range"), ((1, -1), "negative")]:
        with pytest.raises(ValueError, match=match):
            gic_path(design, Ordering(sequence=seq), 0.5)
        with pytest.raises(ValueError, match=match):
            _path_block(design, seq, ys, 0.5)
