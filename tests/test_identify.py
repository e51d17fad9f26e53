"""Margins (delta quantities) and restricted eigenvalues (kappa quantities).

Oracles here are deliberately different algorithms from the package:
margins are recomputed with explicit pseudo-inverse projectors over a full
double loop (every superset size, not just the maximal one), and the
restricted eigenvalue is solved exactly for tiny designs by enumerating the
active sets of the l1-constrained quadratic program (combined with a dense
angle grid when the on-support block is two-dimensional).
"""

import itertools
import json
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from sosselect import identify
from sosselect.design import Dataset, ModelSet, _check_indices, _residual_sq, rss, standardize
from sosselect.errors import EnumerationTooLarge, RankDeficient
from sosselect.identify import (
    IdentifiabilityReport,
    KappaEstimate,
    TruthSpec,
    check_propositions,
    delta_identifiability,
    delta_pair,
    delta_scaled,
    kappa,
    kappa_uniform,
    min_subset_eigen,
)


# ---------------------------------------------------------------- oracles


def oracle_delta_pair(design, truth, indices):
    """Residual via an explicit pinv projector (handles rank deficiency)."""
    idx = list(indices)
    v = design.x0[:, list(truth.support.indices)] @ truth.theta_star
    if not idx:
        return float(v @ v)
    xj = design.x0[:, idx]
    resid = v - xj @ (np.linalg.pinv(xj) @ v)
    return float(resid @ resid)


def oracle_delta_scaled(design, truth, s):
    """Double loop over ALL superset sizes t..s (validates the shortcut)."""
    t = truth.t
    others = [j for j in range(design.p) if j not in truth.support]
    tset = truth.support.indices
    best = math.inf
    for extra_size in range(0, s - t + 1):
        for extra in itertools.combinations(others, extra_size):
            for j in tset:
                keep = [i for i in tset if i != j] + list(extra)
                best = min(best, oracle_delta_pair(design, truth, keep))
    return best


def oracle_min_l1_qp(a, b, tau):
    """Exact min of v'Av + 2b'v over |v|_1 <= tau by active-set enumeration."""
    q = len(b)
    if q == 0 or tau <= 0:
        return 0.0 if q == 0 else 0.0

    def val(v):
        return float(v @ a @ v + 2.0 * b @ v)

    best = val(np.zeros(q))
    v_int = -np.linalg.lstsq(a, b, rcond=None)[0]
    if np.abs(v_int).sum() <= tau + 1e-12:
        best = min(best, val(v_int))
    for mask in range(1, 2**q):
        free = [i for i in range(q) if (mask >> i) & 1]
        k = len(free)
        for signs in itertools.product((-1.0, 1.0), repeat=k):
            sg = np.array(signs)
            a_ff = a[np.ix_(free, free)]
            m = np.zeros((k + 1, k + 1))
            m[:k, :k] = 2.0 * a_ff * sg[None, :]
            m[:k, k] = sg
            m[k, :k] = 1.0
            rhs = np.concatenate([-2.0 * b[free], [tau]])
            try:
                sol = np.linalg.solve(m, rhs)
            except np.linalg.LinAlgError:
                continue
            w = sol[:k]
            if np.any(w < -1e-10):
                continue
            v = np.zeros(q)
            v[free] = sg * np.maximum(w, 0.0)
            if np.abs(v).sum() <= tau + 1e-9:
                best = min(best, val(v))
    return best


def oracle_kappa_sq(design, j_set, c):
    """Exact (k = 1) or angle-grid-exact (k = 2) restricted eigenvalue."""
    jj = list(ModelSet.of(j_set).indices)
    others = [i for i in range(design.p) if i not in jj]
    sigma = design.gram
    s_jj = sigma[np.ix_(jj, jj)]
    s_oj = sigma[np.ix_(others, jj)]
    s_oo = sigma[np.ix_(others, others)]
    k = len(jj)
    if k == 1:
        # sign symmetry: u = 1 suffices
        return float(s_jj[0, 0]) + oracle_min_l1_qp(s_oo, s_oj[:, 0], c)

    assert k == 2

    def value(phi):
        u = np.array([math.cos(phi), math.sin(phi)])
        tau = c * np.abs(u).sum()
        return float(u @ s_jj @ u) + oracle_min_l1_qp(s_oo, s_oj @ u, tau)

    grid = np.linspace(0.0, math.pi, 1441)  # f(-u) = f(u) with v -> -v
    vals = [value(phi) for phi in grid]
    i = int(np.argmin(vals))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    ref = scipy.optimize.minimize_scalar(value, bounds=(lo, hi), method="bounded")
    return min(min(vals), float(ref.fun))


def random_instance(rng, n, p, t, mode="practical"):
    x = rng.standard_normal((n, p))
    d = standardize(Dataset(x=x, y=rng.standard_normal(n)), mode)
    support = ModelSet.of(rng.choice(p, size=t, replace=False))
    beta = rng.uniform(1.0, 3.0, size=t) * rng.choice([-1.0, 1.0], size=t)
    truth = TruthSpec.from_beta(d, support, beta, sigma2=1.0)
    return d, truth


def one_hot_design(n, p, y=None):
    x = np.eye(n)[:, :p]
    y = np.zeros(n) if y is None else y
    return standardize(Dataset(x=x, y=y), "formal")


# ----------------------------------------------------------------- delta


def test_delta_pair_orthonormal_values():
    d = one_hot_design(6, 4)
    truth = TruthSpec.from_beta(d, [0, 1], [3.0, 2.0])
    assert delta_pair(d, truth, [0, 1]) == pytest.approx(0.0, abs=1e-20)
    assert delta_pair(d, truth, [0, 1, 3]) == pytest.approx(0.0, abs=1e-20)
    assert delta_pair(d, truth, [0]) == pytest.approx(4.0)  # loses theta_2^2
    assert delta_pair(d, truth, []) == pytest.approx(13.0)
    assert delta_pair(d, truth, [2, 3]) == pytest.approx(13.0)


def test_delta_pair_matches_pinv_oracle():
    rng = np.random.default_rng(80)
    for _ in range(15):
        d, truth = random_instance(rng, 20, 6, 2)
        size = int(rng.integers(0, 4))
        comp = ModelSet.of(rng.choice(6, size=size, replace=False))
        assert delta_pair(d, truth, comp) == pytest.approx(
            oracle_delta_pair(d, truth, comp.indices), abs=1e-10
        )


def test_delta_pair_least_squares_distance_identity():
    # the margin equals the best approximation error of the true mean by
    # the competitor's raw-scale fit (intercept included in practical mode):
    # twice-noise-variance times the minimal mean divergence
    rng = np.random.default_rng(81)
    for mode in ("practical", "formal"):
        data = Dataset(x=rng.standard_normal((25, 5)), y=rng.standard_normal(25))
        d = standardize(data, mode)
        truth = TruthSpec.from_beta(d, [1, 3], [2.0, -1.5], sigma2=0.7)
        mu = data.x[:, [1, 3]] @ truth.beta_star
        for comp in ([0], [0, 2], [2, 4], []):
            cols = [data.x[:, j] for j in comp]
            if mode == "practical":
                cols = [np.ones(25)] + cols
            if cols:
                a = np.column_stack(cols)
                resid = mu - a @ np.linalg.lstsq(a, mu, rcond=None)[0]
            else:
                resid = mu
            kl_min = float(resid @ resid) / (2.0 * truth.sigma2)
            assert delta_pair(d, truth, comp) == pytest.approx(
                2.0 * truth.sigma2 * kl_min, abs=1e-9
            )


@pytest.mark.parametrize("mode", ["practical", "formal"])
def test_no_columns_leave_the_vector_whole_byte_for_byte(mode):
    # no columns give the (n, 0) basis, so the residual is a copy of v and
    # its square is float(v @ v), the value a shortcut for them once returned
    rng = np.random.default_rng(83)
    for _ in range(5):
        d, truth = random_instance(rng, 25, 5, 2, mode)
        signal = identify._signal(d, truth)
        for v in (d.y0, signal):
            assert _residual_sq(d, v, []).hex() == float(v @ v).hex()
            assert _residual_sq(d, v, [], strict=True).hex() == float(v @ v).hex()
        assert rss(d, []).hex() == float(d.y0 @ d.y0).hex()
        assert delta_pair(d, truth, []).hex() == float(signal @ signal).hex()


def test_delta_pair_rejects_rank_deficient_competitor():
    rng = np.random.default_rng(82)
    x = rng.standard_normal((12, 3))
    x = np.hstack([x, x[:, :1]])
    d = standardize(Dataset(x=x, y=rng.standard_normal(12)), "formal")
    truth = TruthSpec.from_beta(d, [1], [2.0])
    with pytest.raises(RankDeficient):
        delta_pair(d, truth, [0, 3])


def test_delta_scaled_orthonormal_is_theta_min_sq():
    d = one_hot_design(8, 6)
    truth = TruthSpec.from_beta(d, [0, 1, 2], [1.0, 2.0, 3.0])
    for s in (3, 4, 5, 6):
        assert delta_scaled(d, truth, s) == pytest.approx(1.0)


def test_delta_scaled_matches_double_loop_oracle():
    rng = np.random.default_rng(83)
    for _ in range(8):
        d, truth = random_instance(rng, 18, 7, 2)
        for s in (2, 3, 4):
            assert delta_scaled(d, truth, s) == pytest.approx(
                oracle_delta_scaled(d, truth, s), abs=1e-10
            )


def test_delta_scaled_nonincreasing_in_s():
    rng = np.random.default_rng(84)
    d, truth = random_instance(rng, 25, 8, 3)
    vals = [delta_scaled(d, truth, s) for s in range(3, 9)]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-10


def test_delta_scaled_validates_range_and_budget():
    rng = np.random.default_rng(85)
    d, truth = random_instance(rng, 15, 5, 2)
    with pytest.raises(ValueError):
        delta_scaled(d, truth, 1)
    with pytest.raises(ValueError):
        delta_scaled(d, truth, 6)


def test_delta_identifiability_orthonormal():
    d = one_hot_design(5, 3)
    truth = TruthSpec.from_beta(d, [0], [5.0])
    assert delta_identifiability(d, truth) == pytest.approx(25.0)


def test_delta_identifiability_duplicated_true_column_is_zero():
    rng = np.random.default_rng(86)
    x = rng.standard_normal((15, 3))
    x = np.hstack([x, x[:, :1]])  # column 3 duplicates true column 0
    d = standardize(Dataset(x=x, y=rng.standard_normal(15)), "formal")
    truth = TruthSpec.from_beta(d, [0], [2.0])
    assert delta_identifiability(d, truth) == pytest.approx(0.0, abs=1e-18)


def test_delta_identifiability_brute_force_small():
    rng = np.random.default_rng(87)
    for _ in range(10):
        d, truth = random_instance(rng, 16, 6, 2)
        got = delta_identifiability(d, truth)
        best = math.inf
        for size in range(0, 3):
            for combo in itertools.combinations(range(6), size):
                if ModelSet.of(combo) == truth.support:
                    continue
                best = min(best, oracle_delta_pair(d, truth, combo))
        assert got == pytest.approx(best, abs=1e-10)


# ----------------------------------------------------------------- kappa


def test_kappa_orthonormal_is_one():
    d = one_hot_design(6, 6)
    est = kappa(d, [1, 4], 3.0)
    assert est.value == pytest.approx(1.0, abs=1e-9)
    assert est.lower_cert == pytest.approx(1.0, abs=1e-12)
    assert est.upper_cert == pytest.approx(1.0, abs=1e-12)


def test_kappa_zero_cone_is_exact_eigenvalue():
    rng = np.random.default_rng(88)
    d, _ = random_instance(rng, 20, 5, 2)
    est = kappa(d, [0, 2], 0.0)
    lam = scipy.linalg.eigvalsh(d.gram[np.ix_([0, 2], [0, 2])])[0]
    assert est.value == pytest.approx(float(lam), abs=1e-12)
    assert est.converged_fraction == 1.0 and est.restarts == 0


def test_kappa_envelopes_and_monotonicity_in_c():
    rng = np.random.default_rng(89)
    for _ in range(5):
        d, _ = random_instance(rng, 20, 5, 2)
        j = ModelSet.of([1, 3])
        vals = [kappa(d, j, c).value for c in (0.0, 0.5, 1.0, 3.0)]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-8
        est = kappa(d, j, 3.0)
        assert est.lower_cert - 1e-12 <= est.value <= est.upper_cert + 1e-9


@pytest.mark.parametrize("seed", [90, 91, 92])
def test_kappa_singleton_matches_exact_oracle(seed):
    rng = np.random.default_rng(seed)
    d, _ = random_instance(rng, 15, 4, 1)
    for c in (0.5, 1.5, 3.0):
        exact = oracle_kappa_sq(d, [0], c)
        est = kappa(d, [0], c)
        assert est.value >= exact - 1e-9  # estimate is an upper bound
        assert est.value <= exact * 1.01 + 1e-9


@pytest.mark.parametrize("seed", [93, 94])
def test_kappa_pair_matches_angle_grid_oracle(seed):
    rng = np.random.default_rng(seed)
    d, _ = random_instance(rng, 15, 4, 1)
    exact = oracle_kappa_sq(d, [0, 2], 3.0)
    est = kappa(d, [0, 2], 3.0)
    assert est.value >= exact - 1e-6
    assert est.value <= exact * 1.01 + 1e-9


def test_kappa_duplicated_column_in_cone_drives_value_down():
    rng = np.random.default_rng(95)
    x = rng.standard_normal((20, 3))
    x = np.hstack([x, x[:, :1]])  # duplicate of column 0
    d = standardize(Dataset(x=x, y=rng.standard_normal(20)), "formal")
    # nu = e_0 - e_3 is feasible for J = {0} at c = 1 and gives 0
    est = kappa(d, [0], 1.0)
    assert est.value == pytest.approx(0.0, abs=1e-6)


def test_kappa_uniform_matches_per_subset_minimum():
    rng = np.random.default_rng(96)
    d, _ = random_instance(rng, 18, 5, 2)
    uni = kappa_uniform(d, 2, 1.0, restarts=16)
    per = min(kappa(d, j, 1.0, restarts=16).value for j in itertools.combinations(range(5), 2))
    assert uni.value == pytest.approx(per, rel=1e-6)


@pytest.mark.parametrize("block_rows", [None, 1])
def test_kappa_uniform_is_exactly_the_per_subset_searches(monkeypatch, block_rows):
    # kappa_uniform searches all subsets together (one subset per block when
    # blocks hold a single row); each subset's search must still be bit for
    # bit the one kappa runs alone, with the witness routed to its subset
    if block_rows is not None:
        monkeypatch.setattr(identify, "_KAPPA_BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(91)
    d, _ = random_instance(rng, 18, 5, 2)
    witness = np.array([0.1, -2.0, 0.3, 1.5, -0.2])  # routed to J = {1, 3}
    uni = kappa_uniform(d, 2, 1.0, restarts=8, extra_starts=[witness])
    per = [
        kappa(d, j, 1.0, restarts=8, extra_starts=[witness] if j == (1, 3) else None)
        for j in itertools.combinations(range(5), 2)
    ]
    fracs = [est.converged_fraction for est in per]
    assert len(set(fracs)) > 1  # some subsets stop early, others run to max_outer
    assert uni.value == min(est.value for est in per)
    assert uni.upper_cert == min(est.upper_cert for est in per)
    assert uni.converged_fraction == np.mean(fracs)


def test_kappa_uniform_with_one_routed_witness_runs_one_pass(monkeypatch):
    # nine searches of 7 + 1 start rows (the 8 restart rows hold 7 distinct
    # ones) and one of 7 + 1 + 1 run as one pass, the nine padded with
    # copies of their eigenvector rows
    passes = count_search_passes(monkeypatch)
    rng = np.random.default_rng(91)
    d, _ = random_instance(rng, 18, 5, 2)
    kappa_uniform(d, 2, 1.0, restarts=8, extra_starts=[np.array([0.1, -2.0, 0.3, 1.5, -0.2])])
    assert passes == [(10, 9, 2)]


def test_kappa_uniform_zero_cone_size_convention():
    # min over |J| = s equals min over |J| <= s (interlacing), checked exactly
    rng = np.random.default_rng(97)
    d, _ = random_instance(rng, 20, 5, 2)
    sigma = d.gram
    for s in (2, 3):
        exact_eq = min(
            scipy.linalg.eigvalsh(sigma[np.ix_(c, c)])[0]
            for c in itertools.combinations(range(5), s)
        )
        exact_le = min(
            scipy.linalg.eigvalsh(sigma[np.ix_(c, c)])[0]
            for size in range(1, s + 1)
            for c in itertools.combinations(range(5), size)
        )
        assert exact_eq == pytest.approx(exact_le, abs=1e-12)
        assert kappa_uniform(d, s, 0.0).value == pytest.approx(float(exact_eq), abs=1e-12)


def test_kappa_uniform_budget_guard():
    rng = np.random.default_rng(98)
    x = rng.standard_normal((30, 40))
    d = standardize(Dataset(x=x, y=rng.standard_normal(30)), "formal")
    with pytest.raises(EnumerationTooLarge):
        kappa_uniform(d, 20, 1.0)


def test_kappa_uniform_rejects_negative_cone():
    rng = np.random.default_rng(98)
    d, _ = random_instance(rng, 18, 5, 2)
    with pytest.raises(ValueError):
        kappa_uniform(d, 2, -1.0)
    with pytest.raises(ValueError):
        kappa(d, [0, 1], -1.0)


def test_exact_path_reports_no_restarts():
    # with J every column the cone is the c = 0 slice: no search runs, so
    # both entry points report zero restarts and the exact eigenvalue
    rng = np.random.default_rng(98)
    d, _ = random_instance(rng, 18, 5, 2)
    uni = kappa_uniform(d, 5, 1.0)
    one = kappa(d, range(5), 1.0)
    assert uni.restarts == 0 and one.restarts == 0
    assert uni == one
    assert uni.value == uni.upper_cert == pytest.approx(uni.lower_cert, rel=1e-12)
    # two LAPACK routes to one eigenvalue: the certificate is clamped to the value
    assert uni.lower_cert <= uni.value
    assert uni.converged_fraction == 1.0


@pytest.mark.parametrize("restarts", [0, -3])
def test_restarts_below_one_are_rejected(restarts):
    rng = np.random.default_rng(98)
    d, truth = random_instance(rng, 18, 4, 2)
    with pytest.raises(ValueError, match="restarts"):
        kappa(d, [0, 1], 3.0, restarts=restarts)
    with pytest.raises(ValueError, match="restarts"):
        kappa_uniform(d, 2, 3.0, restarts=restarts)
    with pytest.raises(ValueError, match="restarts"):
        check_propositions(d, truth, restarts=restarts)


def project_l1_rows_reference(v, radii):
    """The l1-ball projection ``_project_l1_rows`` must reproduce bit for
    bit: a row moves exactly when numpy's sum of its magnitudes exceeds its
    radius."""
    if v.size == 0:
        return v
    shape = v.shape
    q = shape[-1]
    v = v.reshape(-1, q)
    radii = radii.reshape(-1)
    a = np.abs(v)
    over = a.sum(axis=1) > radii
    if not over.any():
        return v.reshape(shape)
    out = v.copy()
    rows = np.nonzero(over)[0]
    s = -np.sort(-a[rows], axis=1)
    css = np.cumsum(s, axis=1)
    ks = np.arange(1, q + 1)
    keep = s > (css - radii[rows, None]) / ks
    kmax = np.maximum(keep.sum(axis=1), 1)
    tau = (css[np.arange(len(rows)), kmax - 1] - radii[rows]) / kmax
    tau = np.maximum(tau, 0.0)
    out[rows] = np.sign(v[rows]) * np.maximum(a[rows] - tau[:, None], 0.0)
    return out.reshape(shape)


def l1_projection_cases():
    """(v, radii) pairs around the ball's boundary, for q from 1 to 1024."""
    rng = np.random.default_rng(131)
    for q in (1, 2, 3, 9, 17, 1000):
        v = rng.standard_normal((6, q))
        l1 = np.abs(v).sum(axis=1)
        yield v, l1  # exactly on the boundary
        yield v, l1 * (1.0 + 1e-13)  # just inside
        yield v, l1 * (1.0 - 1e-13)  # just outside
        yield v, l1 * np.array([2.0, 0.5, 1.0, 1.0 + 1e-13, 3.0, 0.9])  # mixed
        yield v, l1 * 2.0  # all well inside
        yield v.reshape(2, 3, q), (l1 * 1.5).reshape(2, 3)  # 3-D
        yield v.reshape(2, 3, q), (l1 * np.array([1.5, 1.5, 0.5, 2, 2, 2])).reshape(2, 3)
        zero = np.vstack([np.zeros(q), v[0]])
        yield zero[:1], np.zeros(1)  # radius 0 holding the zero row
        yield zero, np.zeros(2)  # ... and a row it maps to zero
    # Rows of a 1 with terms of 0.75 eps, which round up when added to it one
    # at a time, and of 0.45 eps, which vanish. How many meet the 1 alone
    # depends on the summation order, so numpy's pairwise sum and a BLAS row
    # sum differ by several eps. With the radius one step under numpy's sum
    # the row is outside its ball and moves, but a shortcut whose margin did
    # not grow with q would return it as is. The 0.45 eps terms sit on the
    # 1's lane for BLAS kernels of 4 to 32 lanes, or after it for a
    # sequential one, and off numpy's first accumulator where they can.
    idx = np.arange(1024)
    tiny, mid = 0.45 * np.finfo(float).eps, 0.75 * np.finfo(float).eps
    for lanes in (4, 8, 16, 32):
        row = np.where(idx % lanes == 0, tiny, mid)
        row[(idx % 8 == 0) & (idx < 128) & (idx % lanes != 0)] = 0.0
        row[0] = 1.0
        yield row[None, :], np.nextafter(row.sum(keepdims=True), 0.0)
    row = np.where(idx < 768, mid, tiny)
    row[(idx > 768) & (idx % 8 == 0) & (idx < 896)] = 0.0
    row[768] = 1.0
    yield row[None, :], np.nextafter(row.sum(keepdims=True), 0.0)


def test_l1_projection_is_the_reference_bit_for_bit():
    eps = np.finfo(float).eps
    through_q_free_margin = 0
    for v, radii in l1_projection_cases():
        got = identify._project_l1_rows(v.copy(), radii)
        ref = project_l1_rows_reference(v.copy(), radii)
        assert got.shape == ref.shape == v.shape
        assert got.tobytes() == ref.tobytes()
        rows = np.abs(v).reshape(-1, v.shape[-1])
        moved = not np.array_equal(ref, v)
        if moved and np.all(rows @ np.ones(v.shape[-1]) <= radii.ravel() * (1 - 4 * eps)):
            through_q_free_margin += 1
    # the cases hold rows that a shortcut with a margin not growing with q
    # would return unprojected
    assert through_q_free_margin > 0


def test_shortcut_bound_certifies_the_numpy_row_sum():
    # the search loop skips the projection when every BLAS row sum is at or
    # under _shortcut_bound; each such row must then be inside its ball by
    # the projection's own test, numpy's sum(|row|)
    under = 0
    for v, radii in l1_projection_cases():
        q = v.shape[-1]
        rows, radii = np.abs(v).reshape(-1, q), radii.reshape(-1)
        ok = rows @ np.ones(q) <= identify._shortcut_bound(radii, q)
        assert np.all(rows[ok].sum(axis=1) <= radii[ok])
        under += np.count_nonzero(ok)
    assert under > 0


def spy(monkeypatch, name, record):
    """Wrap ``identify.<name>``, calling ``record(args, result)`` per call."""
    real = getattr(identify, name)

    def spying(*args):
        out = real(*args)
        record(args, out)
        return out

    monkeypatch.setattr(identify, name, spying)


def alternating_min_reference(u, v, s_jj, s_oj, s_oo, top_v, lam_j, c, weight):
    """``_alternating_min`` as first written, with a fresh array for every
    quantity of each step, and with the projection of
    ``project_l1_rows_reference``: the search the kernel must reproduce bit
    for bit."""
    n_sub, m, _ = u.shape
    best_out = np.empty(n_sub)
    frac_out = np.empty(n_sub)
    live = np.arange(n_sub)
    top = top_v[:, None, None]
    eta0 = np.array([0.5 / max(lam, 1e-6) for lam in lam_j])

    best = identify._batched_objective(u, v, s_jj, s_oj, s_oo)
    prev = best.copy()
    improving = np.ones((n_sub, m), dtype=bool)
    for _ in range(identify._MAX_OUTER):
        # exact convex step in the off-J block (accelerated projected gradient,
        # step 1 / (2 top) on the gradient 2 (u Sigma_JJc + z Sigma_JcJc))
        radii = c * np.abs(u).sum(axis=2)
        u_soj = u @ s_oj.transpose(0, 2, 1)
        z = v
        t_k = 1.0
        for _ in range(identify._V_ITERS):
            w = z @ s_oo
            w += u_soj
            w /= top  # (2 g) / (2 top) and g / top round the same quotient
            np.subtract(z, w, out=w)
            v_new = project_l1_rows_reference(w, radii)
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_k * t_k))
            z = v_new - v
            z *= (t_k - 1.0) / t_next
            z += v_new
            v, t_k = v_new, t_next
        v = project_l1_rows_reference(v, radii)

        # normalized gradient steps in the on-J block, with backtracking; v
        # stays fixed through them, so its product with Sigma_JcJ is made once
        v_soj = v @ s_oj

        def h(uu):
            val = np.einsum("bij,bij->bi", uu @ s_jj, uu)
            val += 2.0 * np.einsum("bij,bij->bi", v_soj, uu)
            return val

        eta = np.repeat(eta0[:, None], m, axis=1)
        hu = h(u)
        for _ in range(4):
            grad_u = 2.0 * (u @ s_jj + v_soj)
            cand = u - eta[:, :, None] * grad_u
            norms = np.linalg.norm(cand, axis=2, keepdims=True)
            cand = np.where(norms > 1e-12, cand / np.where(norms > 0, norms, 1.0), u)
            hc = h(cand)
            better = hc < hu
            u = np.where(better[:, :, None], cand, u)
            hu = np.where(better, hc, hu)
            eta = np.where(better, eta, eta * 0.25)
        # u moved: re-fit the off-J block budget before scoring
        v = project_l1_rows_reference(v, c * np.abs(u).sum(axis=2))

        cur = identify._batched_objective(u, v, s_jj, s_oj, s_oo)
        best = np.minimum(best, cur)
        improving = (prev - cur) > 1e-10 * np.maximum(prev, 1.0)
        prev = cur
        going = improving.any(axis=1)
        if going.all():
            continue
        done = ~going
        best_out[live[done]] = best[done].min(axis=1)
        frac_out[live[done]] = 1.0
        if not going.any():
            return best_out, frac_out
        live = live[going]
        u, v, best, prev, improving = (a[going] for a in (u, v, best, prev, improving))
        s_jj, s_oj, s_oo, top, eta0, c, weight = (
            a[going] for a in (s_jj, s_oj, s_oo, top, eta0, c, weight)
        )
    best_out[live] = best.min(axis=1)
    frac_out[live] = (weight * ~improving).sum(axis=1) / weight.sum(axis=1)
    return best_out, frac_out


@pytest.mark.parametrize("c", [0.25, 0.5, 1.0, 3.0])
def test_search_kernel_is_the_reference_bit_for_bit(monkeypatch, c):
    # every pass of sizes 1 to 3, with the witness padding all but one
    # search of a size, and a lone support search; at c <= 0.5 the l1-ball
    # projection certainly moves rows
    rng = np.random.default_rng(96)
    d, _ = random_instance(rng, 18, 5, 2)
    witness = np.array([0.1, -2.0, 0.3, 1.5, -0.2])
    passes = []  # the kernel keeps its inputs, as checked below
    spy(monkeypatch, "_alternating_min", lambda args, _: passes.append(args))
    for k in (1, 2, 3):
        kappa_uniform(d, k, c, restarts=8, extra_starts=[witness])
    kappa(d, [0, 2, 4], c, restarts=8, extra_starts=[witness])
    monkeypatch.undo()
    assert [args[0].shape for args in passes] == [
        (5, 4, 1), (10, 9, 2), (10, 9, 3), (1, 9, 3)
    ]
    projections, live, rounds_apart = [], [], []
    spy(monkeypatch, "_project_l1_rows", lambda a, out: projections.append(
        not np.shares_memory(out, a[0])
    ))
    spy(monkeypatch, "_batched_objective", lambda a, out: live.append(len(out)))
    for args in passes:
        given = [a.copy() for a in args]
        live.clear()
        best, frac = identify._alternating_min(*given)
        rounds_apart.append(len(set(live)) > 1)
        ref_best, ref_frac = alternating_min_reference(*(a.copy() for a in args))
        assert best.tobytes() == ref_best.tobytes()
        assert frac.tobytes() == ref_frac.tobytes()
        assert all(g.tobytes() == a.tobytes() for g, a in zip(given, args))  # inputs kept
    assert any(rounds_apart)  # searches of one pass stop in different rounds
    assert any(projections) or c > 0.5


def test_the_search_makes_one_shortcut_bound_per_objective(monkeypatch):
    # the radii and their bound change only when u moves: once before the
    # first round and after each round's u-steps, as the objective is scored
    bounds, objectives = [], []
    spy(monkeypatch, "_shortcut_bound", lambda args, _: bounds.append(args[0].shape))
    spy(monkeypatch, "_batched_objective", lambda args, _: objectives.append(len(args[0])))
    rng = np.random.default_rng(96)
    d, _ = random_instance(rng, 18, 5, 2)
    kappa_uniform(d, 2, 3.0, restarts=8)
    assert len(objectives) > 2
    assert len(bounds) == len(objectives)
    # each bound covers the searches still running when it was made
    assert [shape[0] for shape in bounds] == objectives


def count_search_passes(monkeypatch):
    passes = []
    spy(monkeypatch, "_alternating_min", lambda args, _: passes.append(args[0].shape))
    return passes


@pytest.mark.parametrize("restarts", [1, 2, 5, 8])  # at 8 a sign row repeats
def test_restarts_is_the_number_of_random_start_rows(monkeypatch, restarts):
    # every search starts from the distinct rows of `restarts` random draws,
    # each counted as often as it was drawn, plus the subset's leading
    # eigenvector and its witnesses, and reports `restarts`
    passes = count_search_passes(monkeypatch)
    rng = np.random.default_rng(98)
    d, _ = random_instance(rng, 18, 4, 2)
    est = kappa(d, [0, 1], 3.0, restarts=restarts, extra_starts=[np.ones(4)])
    rows, counts = identify._restart_rows(2, restarts)
    assert passes == [(1, len(rows) + 2, 2)]
    assert est.restarts == restarts
    assert counts.sum() == restarts and counts.min() >= 1
    assert len({row.tobytes() for row in rows}) == len(rows)


def every_drawn_row(k, restarts):
    """The restart draw with its repeats kept, each row of weight 1: the
    layout in which every one of the ``restarts`` rows runs."""
    rng = np.random.default_rng(97531)
    half = restarts // 2
    signs = rng.choice([-1.0, 1.0], size=(half, k)) / math.sqrt(k)
    gauss = rng.standard_normal((restarts - half, k))
    gauss /= np.linalg.norm(gauss, axis=1, keepdims=True)
    return np.vstack([signs, gauss]), np.ones(restarts, dtype=int)


@pytest.mark.parametrize("p", [4, 6, 8])
def test_distinct_start_rows_give_the_bytes_of_every_drawn_row(monkeypatch, p):
    # running each distinct restart row once, weighted by its count, must
    # give every estimate byte for byte, converged_fraction included, of the
    # search that runs all `restarts` rows (padding rows weigh 0 in both)
    rng = np.random.default_rng(140 + p)
    d, _ = random_instance(rng, 30, p, 2)
    witness = rng.standard_normal(p)
    # one call per restart budget, as check_propositions makes one per report
    calls = [
        [
            identify._request(d, subsets, c, restarts, extra)
            for size in (1, 2, 3)
            for extra in (None, [witness])
            for subsets, c in (
                (identify._subsets(p, size, "s"), 1.0),
                ([range(size)], 3.0),
            )
        ]
        for restarts in (1, 2, 5, 8, 24, 64)
    ]

    def answers():
        rows = count_search_passes(monkeypatch)
        got = [est for requests in calls for est in identify._estimate(d, requests)]
        monkeypatch.undo()
        return got, sum(m for _, m, _ in rows)

    got, got_rows = answers()
    monkeypatch.setattr(identify, "_restart_rows", every_drawn_row)
    want, want_rows = answers()
    assert [json.dumps(e.to_json_dict()) for e in got] == [
        json.dumps(e.to_json_dict()) for e in want
    ]
    assert got_rows < want_rows  # the oracle did run the repeats
    assert min(est.converged_fraction for est in got) < 1.0  # weights were read


@pytest.mark.parametrize("block_rows", [None, 1])
def test_batch_over_two_cones_is_exactly_the_separate_calls(monkeypatch, block_rows):
    # requests at c = 1 and c = 3 over the same subsets share one batch of
    # searches, and two witnesses meet on J = {1, 3}; each estimate must be
    # bit for bit its separate call's. Column 4 sums the others, so the c = 3
    # cone holds directions the c = 1 cone does not, and on J = {1, 3} at
    # c = 3 the two witnesses lead to different values
    if block_rows is not None:
        monkeypatch.setattr(identify, "_KAPPA_BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(93)
    x = rng.standard_normal((18, 5))
    x[:, 4] = x[:, :4].sum(axis=1) + 0.3 * rng.standard_normal(18)
    d = standardize(Dataset(x=x, y=rng.standard_normal(18)), "formal")
    witness = np.array([0.1, -2.0, 0.3, 1.5, -0.2])  # routed to J = {1, 3}
    other = np.array([0.0, 1.0, 0.2, -0.5, 0.1])  # also routed to J = {1, 3}
    pairs = identify._subsets(5, 2, "s")
    batch = identify._estimate(d, [
        identify._request(d, pairs, 1.0, 8, [witness]),
        identify._request(d, pairs, 3.0, 8, [witness]),
        identify._request(d, pairs, 3.0, 8, [other]),
        identify._request(d, [(1, 3)], 3.0, 8, [other]),
        identify._request(d, [(1, 3)], 3.0, 8, [witness]),
    ])
    separate = [
        kappa_uniform(d, 2, 1.0, restarts=8, extra_starts=[witness]),
        kappa_uniform(d, 2, 3.0, restarts=8, extra_starts=[witness]),
        kappa_uniform(d, 2, 3.0, restarts=8, extra_starts=[other]),
        kappa(d, [1, 3], 3.0, restarts=8, extra_starts=[other]),
        kappa(d, [1, 3], 3.0, restarts=8, extra_starts=[witness]),
    ]
    assert batch == separate
    assert separate[0].value != separate[1].value and separate[3].value != separate[4].value


def finite_witnesses_reference(extra_starts) -> list:
    """``extra_starts`` as flat float arrays, once every entry is finite."""
    rows = [np.asarray(nu, dtype=float).ravel() for nu in extra_starts or ()]
    if not all(np.isfinite(nu).all() for nu in rows):
        raise ValueError("extra_starts must hold finite vectors")
    return rows


def support_request_reference(design, j_set, c, restarts, extra_starts):
    """The request behind :func:`kappa`: one subset, every witness on it."""
    j_set = ModelSet.of(j_set)
    if not j_set:
        raise ValueError("J must be nonempty")
    _check_indices(design, j_set)
    restarts = identify._check_search(c, restarts)
    return [list(j_set.indices)], c, restarts, {0: finite_witnesses_reference(extra_starts)}


def uniform_request_reference(design, s, c, restarts, extra_starts):
    """The request behind :func:`kappa_uniform`: every size-s subset."""
    p = design.p
    subsets = [list(combo) for combo in identify._subsets(p, s, "s")]
    restarts, witnesses = identify._check_search(c, restarts), finite_witnesses_reference(extra_starts)
    position = {ModelSet.of(jj): pos for pos, jj in enumerate(subsets)}
    routed: dict = {}
    for nu in witnesses:
        order = np.lexsort((np.arange(p), -np.abs(nu)))
        routed.setdefault(position[ModelSet.of(order[:s])], []).append(nu)
    return subsets, c, restarts, routed


def routed_rows(request):
    """A request's fields, its witnesses as (position, dtype, bytes) in
    routed order; a position holding an empty list is one without witness,
    as ``_estimate`` reads it."""
    subsets, c, restarts, routed = request
    rows = [
        (pos, nu.dtype, nu.shape, nu.tobytes())
        for pos, witnesses in routed.items() for nu in witnesses
    ]
    return subsets, repr(c), restarts, rows


@pytest.mark.parametrize("seed, p", [(150, 5), (151, 6)])
def test_one_request_builder_is_the_support_and_uniform_builders(seed, p):
    # _request gives the subsets, c, restarts and routed witnesses of the
    # support builder (one subset, every witness on it, top coordinates on J
    # or not) and of the uniform builder (each witness on the subset of its
    # largest magnitudes, ties to the smaller index), sizes 1 to 3 and s >= p
    rng = np.random.default_rng(seed)
    d, _ = random_instance(rng, 20, p, 2)
    tied = np.zeros(p)
    tied[[0, 2, p - 1]] = [1.0, -1.0, 1.0]
    off_j = np.zeros(p)
    off_j[[0, p - 1]] = [0.1, 5.0]  # its top coordinate misses J = {0, 1}
    pools = [[], [rng.standard_normal(p)], [tied, off_j, list(rng.standard_normal(p))]]
    for witnesses, restarts, c in itertools.product(pools, (1, 8), (0.0, 1.0, 3.0)):
        for j_set in ([0], [0, 1], [1, 2, p - 1], range(p)):
            got = identify._request(d, [ModelSet.of(j_set).indices], c, restarts, witnesses)
            want = support_request_reference(d, j_set, c, restarts, witnesses)
            assert routed_rows(got) == routed_rows(want)
        for s in (1, 2, 3, p, p + 2):
            got = identify._request(d, identify._subsets(p, s, "s"), c, restarts, witnesses)
            want = uniform_request_reference(d, s, c, restarts, witnesses)
            assert routed_rows(got) == routed_rows(want)


def test_witness_rows_of_no_witness_are_empty_float_stacks():
    # no witness, or one that vanishes on J, stacks as (0, |J|) and (0, q)
    for extra in (None, [], [np.array([0.5, 0.0, -1.0, 0.0, 2.0])]):
        eu, ev = identify._witness_rows([1, 3], [0, 2, 4], 3.0, extra)
        assert (eu.dtype, eu.shape, ev.dtype, ev.shape) == (np.float64, (0, 2), np.float64, (0, 3))


def test_prop5_witness_of_no_kept_column_is_the_truth():
    # at t = 1 the minimizing deletion keeps no column: nothing is subtracted
    rng = np.random.default_rng(152)
    d, truth = random_instance(rng, 20, 5, 1)
    assert identify.delta_scaled_argmin(d, truth, 1)[2] == ()
    got = identify._prop5_witness(d, truth, ())
    assert got.dtype == np.float64 and got.tobytes() == truth.full_theta(d.p).tobytes()


def test_min_subset_eigen_returns_witness():
    rng = np.random.default_rng(99)
    d, _ = random_instance(rng, 20, 5, 2)
    lam, subset, vec = min_subset_eigen(d, 3)
    assert len(subset) == 3
    live = list(subset.indices)
    assert np.allclose(np.delete(vec, live), 0.0)
    quad = float(vec @ d.gram @ vec)
    assert quad == pytest.approx(lam, abs=1e-10)


# ------------------------------------------------------- proposition suite


def test_truthspec_validation():
    d = one_hot_design(5, 3)
    with pytest.raises(ValueError):
        TruthSpec.from_beta(d, [], [])
    with pytest.raises(ValueError):
        TruthSpec.from_beta(d, [0, 1], [1.0, 0.0])
    repeated = [([1, 1], [2.0, 3.0]), ([2, 2], [3.0])]
    out_of_range = [([0, 3], [1.0, 2.0]), ([-1], [1.0])]
    for support, beta in repeated + out_of_range:
        with pytest.raises(ValueError, match="support"):
            TruthSpec.from_beta(d, support, beta)
    truth = TruthSpec.from_beta(d, [0, 2], [2.0, -1.0], sigma2=2.0)
    assert truth.t == 2 and truth.theta_min == pytest.approx(1.0)
    swapped = TruthSpec.from_beta(d, np.array([2, 0]), [-1.0, 2.0], sigma2=2.0)
    assert swapped.support == truth.support
    assert swapped.beta_star.tobytes() == truth.beta_star.tobytes()
    assert swapped.theta_star.tobytes() == truth.theta_star.tobytes()
    full = truth.full_theta(3)
    assert full[1] == 0.0 and full[0] == pytest.approx(2.0)


def test_check_propositions_orthonormal_design():
    d = one_hot_design(8, 6)
    truth = TruthSpec.from_beta(d, [0, 1], [2.0, -3.0])
    rep = check_propositions(d, truth, restarts=16)
    assert rep.all_flags_ok, rep.flags
    assert rep.delta_t == pytest.approx(4.0)  # weakest coefficient squared
    assert rep.kappa_support.value == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("seed", list(range(100, 110)))
def test_check_propositions_random_instances(seed):
    rng = np.random.default_rng(seed)
    d, truth = random_instance(rng, 30, 8, 2)
    rep = check_propositions(d, truth, restarts=24)
    assert rep.all_flags_ok, rep.flags
    assert rep.delta_p <= rep.delta_t + 1e-9
    assert set(rep.delta_scaled) == {2, 3, 4, 5, 6, 7, 8}


def test_check_propositions_duplicated_spurious_column():
    rng = np.random.default_rng(110)
    x = rng.standard_normal((25, 5))
    x = np.hstack([x, x[:, 3:4]])  # duplicate a spurious column
    d = standardize(Dataset(x=x, y=rng.standard_normal(25)), "formal")
    truth = TruthSpec.from_beta(d, [0, 1], [2.0, 2.5])
    rep = check_propositions(d, truth, restarts=24)
    assert rep.all_flags_ok, rep.flags
    # some size-2 subset contains the duplicated pair: uniform kappa collapses
    assert rep.kappa_uniform_t.value == pytest.approx(0.0, abs=1e-8)
    assert rep.kappa_support.value > 0.01


@pytest.mark.parametrize("p, t", [(6, 2), (7, 1)])
def test_check_propositions_reports_the_single_enumerations(p, t):
    # p <= 4t takes delta(T, p) from the scaled margins; p > 4t enumerates it
    rng = np.random.default_rng(111)
    d, truth = random_instance(rng, 30, p, t)
    rep = check_propositions(d, truth, restarts=4)
    assert (p in rep.delta_scaled) == (p <= 4 * t)
    assert rep.delta_t == delta_identifiability(d, truth) == min(rep.delta_pairwise.values())
    assert rep.delta_p == delta_scaled(d, truth, p)
    for s, val in rep.delta_scaled.items():
        assert val == delta_scaled(d, truth, s)


@pytest.mark.parametrize("seed, duplicate", [(141, False), (142, True)])
def test_margins_follow_one_residual_rule(seed, duplicate):
    # delta_pair is the strict form of the report's margin routine: the same
    # bytes on every full-rank competitor, RankDeficient on every dependent
    # one (column 4 copies column 1 in the duplicated design)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((20, 5))
    if duplicate:
        x[:, 4] = x[:, 1]
    d = standardize(Dataset(x=x, y=rng.standard_normal(20)), "formal")
    truth = TruthSpec.from_beta(d, [0, 2], [2.0, -1.5])
    rep = check_propositions(d, truth, restarts=4)
    dependent = 0
    for m, val in rep.delta_pairwise.items():
        if np.linalg.matrix_rank(d.x0[:, list(m.indices)]) < len(m):
            dependent += 1
            with pytest.raises(RankDeficient):
                delta_pair(d, truth, m)
        else:
            assert delta_pair(d, truth, m) == val
    assert (dependent > 0) == duplicate
    for s, val in rep.delta_scaled.items():
        assert delta_scaled(d, truth, s) == val
    for s in range(1, d.p + 1):
        assert kappa_uniform(d, s, 0.0).value == min_subset_eigen(d, s)[0]


def report_from_separate_calls(d, truth, restarts, rep):
    """The report's estimates and their flags rebuilt from public kappa and
    kappa_uniform calls, one per estimate, with the report's witnesses."""
    p, t = d.p, truth.t
    slack = 1e-9

    def le(lhs, rhs):
        return bool(lhs <= rhs + slack * max(1.0, abs(rhs)))

    def witness(s):
        kept = identify.delta_scaled_argmin(d, truth, s)[2]
        return identify._prop5_witness(d, truth, kept)

    s_here, s4 = min(t, p), min(4 * t, p)
    k_support = kappa(d, truth.support, 3.0, restarts=restarts, extra_starts=[witness(s_here)])
    k_unif = kappa_uniform(d, t, 3.0, restarts=restarts, extra_starts=[witness(s4)])
    collapse = []
    for c, blow in ((3.0, 4), (1.0, 2)):
        if math.comb(p, min(blow * t, p)) > identify.KAPPA_BUDGET:
            continue
        lam2, _, eigvec = min_subset_eigen(d, blow * t)
        est = kappa_uniform(d, t, c, restarts=restarts, extra_starts=[eigvec])
        collapse.append(le(est.value, blow * lam2))
    flags = {
        "eigenvalue_lower": rep.flags["eigenvalue_lower"],
        "margin_support": le(k_support.value * truth.theta_min**2, rep.delta_scaled[s_here]),
        "margin_uniform": le(k_unif.value * truth.theta_min**2, 4.0 * rep.delta_scaled[s4]),
        "cone_collapse": all(collapse) if collapse else None,
        "scale_chain": rep.flags["scale_chain"],
    }
    return IdentifiabilityReport(
        truth=truth, delta_t=rep.delta_t, delta_p=rep.delta_p,
        delta_scaled=rep.delta_scaled, delta_pairwise=rep.delta_pairwise,
        kappa_support=k_support, kappa_uniform_t=k_unif, flags=flags,
    )


@pytest.mark.parametrize(
    "seed, n, p, t, restarts",
    [(120, 25, 4, 2, 16), (121, 45, 4, 2, 64), (122, 30, 6, 1, 8), (123, 40, 25, 1, 4)],
)
def test_check_propositions_is_exactly_the_separate_calls(seed, n, p, t, restarts):
    # one batched search answers the whole report; its JSON must be byte for
    # byte the report assembled from separate calls. At p = 25, t = 1 the
    # (t, 3) cone-collapse check is skipped: C(25, 4) exceeds the budget
    rng = np.random.default_rng(seed)
    d, truth = random_instance(rng, n, p, t)
    rep = check_propositions(d, truth, restarts=restarts)
    ref = report_from_separate_calls(d, truth, restarts, rep)
    assert json.dumps(rep.to_json_dict()) == json.dumps(ref.to_json_dict())
    assert (math.comb(p, 4 * t) > identify.KAPPA_BUDGET) == (p == 25)


@pytest.mark.parametrize("seed", [124, 125])
def test_check_propositions_runs_one_search_pass(monkeypatch, seed):
    # all four estimates of a p = 4, t = 2 report search size-2 subsets, so
    # they run as one pass; the 64 restart rows hold 36 distinct ones, and
    # searches without a witness (37 start rows) are padded to the 38 rows of
    # those with one
    passes = count_search_passes(monkeypatch)
    rng = np.random.default_rng(seed)
    d, truth = random_instance(rng, 30, 4, 2)
    check_propositions(d, truth, restarts=64)
    assert [shape[1] for shape in passes] == [38]


def spy_on(monkeypatch, name):
    """Record the arguments of every call to ``identify.<name>``."""
    calls = []
    real = getattr(identify, name)

    def spy(*args):
        calls.append(args[1:])
        return real(*args)

    monkeypatch.setattr(identify, name, spy)
    return calls


def test_check_propositions_rejects_restarts_before_enumerating(monkeypatch):
    projections = spy_on(monkeypatch, "_residual_sq")
    rng = np.random.default_rng(98)
    d, truth = random_instance(rng, 18, 4, 2)
    with pytest.raises(ValueError, match="restarts"):
        check_propositions(d, truth, restarts=0)
    assert projections == []
    check_propositions(d, truth, restarts=1)
    assert projections  # the spy sees the margins of a valid report


@pytest.mark.parametrize("p, t, sizes", [(4, 2, [4]), (6, 2, [6, 4]), (5, 1, [4, 2])])
def test_check_propositions_enumerates_each_collapse_size_once(monkeypatch, p, t, sizes):
    # the (t, 3) and (t, 1) cone-collapse checks need min(4t, p) and
    # min(2t, p); when 2t >= p both are p, enumerated once
    lookups = spy_on(monkeypatch, "min_subset_eigen")
    rng = np.random.default_rng(127)
    d, truth = random_instance(rng, 30, p, t)
    check_propositions(d, truth, restarts=2)
    assert [size for (size,) in lookups] == sizes


def test_cone_collapse_is_none_when_no_check_runs(monkeypatch):
    # under a budget of 20, C(9, 2) = 36 and C(9, 4) = 126 skip both
    # cone-collapse checks, while the 9 size-1 supports still fit it
    monkeypatch.setattr(identify, "KAPPA_BUDGET", 20)
    rng = np.random.default_rng(128)
    d, truth = random_instance(rng, 30, 9, 1)
    rep = check_propositions(d, truth, restarts=4)
    assert rep.flags["cone_collapse"] is None
    assert json.loads(json.dumps(rep.to_json_dict()))["flags"]["cone_collapse"] is None
    checked = [ok for name, ok in rep.flags.items() if name != "cone_collapse"]
    assert rep.all_flags_ok is all(checked)


def test_check_propositions_checks_every_budget_before_enumerating(monkeypatch):
    # p = 24, t = 4: the competitors (12,951) and every scaled size (at most
    # 739,024 projections) fit their budgets, but C(24, 4) = 10,626 subsets
    # exceed the restricted-eigenvalue budget; no projection may run first
    def no_projection(*args, **kwargs):
        raise AssertionError("enumeration ran before the budget check")

    monkeypatch.setattr(identify, "_residual_sq", no_projection)
    rng = np.random.default_rng(126)
    d, truth = random_instance(rng, 30, 24, 4)
    with pytest.raises(EnumerationTooLarge):
        check_propositions(d, truth, restarts=4)


def test_identifiability_report_serialization():
    d = one_hot_design(8, 5)
    truth = TruthSpec.from_beta(d, [0, 1], [1.0, 2.0])
    rep = check_propositions(d, truth, restarts=8)
    blob = rep.to_json_dict()
    assert set(blob["flags"]) == {
        "eigenvalue_lower",
        "cone_collapse",
        "margin_support",
        "margin_uniform",
        "scale_chain",
    }
    assert blob["delta_scaled"]["2"] == pytest.approx(1.0)
    assert isinstance(blob["delta_pairwise"], list)
