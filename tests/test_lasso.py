"""Penalized fits, screening thresholds and realized-inequality checks.

The coordinate-descent solver is validated against two independent routes:
the orthonormal-design closed form (exact soft-thresholding of the
column/response inner products) and an accelerated proximal-gradient solver
of the same objective written below, sharing no code with the package.
"""

import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from sosselect.design import Dataset, ModelSet, standardize
from sosselect.errors import NotConverged
from sosselect.identify import kappa
from sosselect.lasso import (
    DEFAULT_MAX_ITER,
    EventAWitness,
    LassoFit,
    OracleCheckReport,
    PenaltyPair,
    _event_a_block,
    _kkt_block,
    _lasso_block,
    _screen_block,
    default_penalties,
    event_a,
    kkt_gap,
    screen,
    solve_lasso,
    verify_oracle_inequalities,
)


def lasso_objective(design, theta, r_l):
    """||y0 - X0 theta||^2 + 2 r_l |theta|_1, the objective every solver here minimizes."""
    resid = design.y0 - design.x0 @ theta
    return float(resid @ resid) + 2.0 * r_l * float(np.sum(np.abs(theta)))


def oracle_prox_gradient(design, r_l, iters=8000):
    """FISTA on ||y0 - X0 t||^2 + 2 r_l |t|_1; returns (theta, objective)."""
    x, y = design.x0, design.y0
    lip = 2.0 * scipy.linalg.eigvalsh(x.T @ x)[-1]
    step = 1.0 / lip
    theta = np.zeros(design.p)
    z = theta.copy()
    tk = 1.0
    best = (np.inf, theta)
    for _ in range(iters):
        grad = -2.0 * (x.T @ (y - x @ z))
        w = z - step * grad
        new = np.sign(w) * np.maximum(np.abs(w) - 2.0 * r_l * step, 0.0)
        tk_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tk * tk))
        z = new + ((tk - 1.0) / tk_next) * (new - theta)
        theta, tk = new, tk_next
        obj = lasso_objective(design, theta, r_l)
        if obj < best[0]:
            best = (obj, theta.copy())
    return best[1], best[0]


def full_sweep_lasso(design, r_l, *, tol=1e-8, max_iter=10_000, theta0=None):
    """Coordinate descent that visits every coordinate on every sweep, the
    loop ``solve_lasso`` must reproduce bit for bit; returns
    (theta, sweeps, gap)."""
    x0, y0 = design.x0, design.y0
    theta = np.zeros(design.p) if theta0 is None else np.asarray(theta0, dtype=float).copy()
    resid = y0 - x0 @ theta
    gap = kkt_gap(design, theta, r_l)
    sweeps = 0
    while gap > tol and sweeps < max_iter:
        for j in range(design.p):
            old = theta[j]
            z = old + x0[:, j] @ resid
            new = math.copysign(max(abs(z) - r_l, 0.0), z)
            if new != old:
                resid += x0[:, j] * (old - new)
                theta[j] = new
        sweeps += 1
        gap = kkt_gap(design, theta, r_l)
    return theta, sweeps, gap


def stack_sweep_reference(design, responses, r_l, *, tol=1e-8, max_iter=10_000):
    """The stacked sweep alone, at every live width down to one row and with
    no skip rule: the loop the descent driver must reproduce bit for bit
    whichever kernel it runs; returns (theta, sweeps, gap) per response."""
    x0 = design.x0
    ys = np.array(responses, dtype=float)
    theta = np.zeros((len(ys), design.p))
    out = [None] * len(ys)
    live = np.arange(len(ys))
    gap, _, resid = _kkt_block(x0, ys, theta, r_l)
    sweeps = 0
    while True:
        done = ~(gap > tol) | (sweeps >= max_iter)
        for k in np.flatnonzero(done):
            out[live[k]] = (theta[k].copy(), sweeps, float(gap[k]))
        keep = ~done
        live, theta, gap, ys, resid = live[keep], theta[keep], gap[keep], ys[keep], resid[keep]
        if not live.size:
            return out
        for j in range(design.p):
            col = x0[:, j]
            old = theta[:, j]
            z = old + np.vecdot(col, resid)
            new = np.copysign(np.maximum(np.abs(z) - r_l, 0.0), z)
            rows = np.flatnonzero(new != old)
            resid[rows] += col * (old - new)[rows, None]
            theta[rows, j] = new[rows]
        sweeps += 1
        gap = _kkt_block(x0, ys, theta, r_l)[0]


def orthonormal_design(rng, n, p, y=None):
    q = np.linalg.qr(rng.standard_normal((n, p)))[0]
    y = rng.standard_normal(n) if y is None else y
    return standardize(Dataset(x=q, y=y), "formal")


def test_orthonormal_soft_threshold_closed_form_on_penalty_grid():
    rng = np.random.default_rng(31)
    d = orthonormal_design(rng, 25, 6)
    z = d.x0.T @ d.y0
    top = 1.1 * float(np.max(np.abs(z)))
    for r_l in np.linspace(0.0, top, 20):
        fit = solve_lasso(d, float(r_l))
        assert fit.converged and fit.kkt_gap <= 1e-8
        expected = np.sign(z) * np.maximum(np.abs(z) - r_l, 0.0)
        np.testing.assert_allclose(fit.theta_hat, expected, atol=1e-10)


def test_penalty_above_max_correlation_gives_zero():
    rng = np.random.default_rng(32)
    d = standardize(Dataset(x=rng.standard_normal((20, 5)), y=rng.standard_normal(20)), "practical")
    r_l = float(np.max(np.abs(d.x0.T @ d.y0))) + 1e-6
    fit = solve_lasso(d, r_l)
    assert fit.converged
    np.testing.assert_array_equal(fit.theta_hat, np.zeros(5))


@pytest.mark.parametrize("seed", [33, 34, 35])
def test_correlated_design_matches_prox_gradient_oracle(seed):
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((12, 3))
    extra = base @ rng.standard_normal((3, 3)) + 0.3 * rng.standard_normal((12, 3))
    data = Dataset(x=np.hstack([base, extra]), y=rng.standard_normal(12))
    d = standardize(data, "formal")
    r_l = 0.4
    fit = solve_lasso(d, r_l)
    assert fit.converged and fit.kkt_gap <= 1e-8
    _, obj_star = oracle_prox_gradient(d, r_l)
    assert lasso_objective(d, fit.theta_hat, r_l) == pytest.approx(obj_star, abs=1e-6)


def test_kkt_certificate_on_random_instances():
    rng = np.random.default_rng(36)
    for _ in range(10):
        n, p = 30, 8
        d = standardize(
            Dataset(x=rng.standard_normal((n, p)), y=3 * rng.standard_normal(n)), "practical"
        )
        for r_l in (0.05, 0.5, 2.0):
            fit = solve_lasso(d, r_l)
            assert fit.converged
            assert kkt_gap(d, fit.theta_hat, r_l) <= 1e-8


def test_objective_never_increases_along_sweeps():
    rng = np.random.default_rng(37)
    d = standardize(Dataset(x=rng.standard_normal((15, 6)), y=rng.standard_normal(15)), "formal")
    r_l = 0.2
    values = []
    theta = np.zeros(6)
    for _ in range(6):
        fit = solve_lasso(d, r_l, max_iter=1, theta0=theta, tol=0.0)
        theta = fit.theta_hat
        values.append(lasso_objective(d, theta, r_l))
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-12


def test_warm_start_and_unconverged_flag():
    rng = np.random.default_rng(38)
    d = standardize(Dataset(x=rng.standard_normal((20, 6)), y=rng.standard_normal(20)), "formal")
    rough = solve_lasso(d, 0.1, max_iter=1, tol=0.0)
    assert not rough.converged and rough.iterations == 1
    polished = solve_lasso(d, 0.1, theta0=rough.theta_hat)
    assert polished.converged
    with pytest.raises(NotConverged):
        screen(rough)
    untouched = solve_lasso(d, 0.1, max_iter=0, tol=0.0)
    assert untouched.iterations == 0 and not untouched.theta_hat.any()


@pytest.mark.parametrize(
    "budget, name",
    [
        ({"tol": -1.0}, "tol"),
        ({"tol": math.nan}, "tol"),
        ({"tol": math.inf}, "tol"),
        ({"max_iter": -3}, "max_iter"),
    ],
)
def test_solve_lasso_rejects_invalid_budgets(budget, name):
    rng = np.random.default_rng(38)
    d = standardize(Dataset(x=rng.standard_normal((20, 6)), y=rng.standard_normal(20)), "formal")
    with pytest.raises(ValueError, match=name):
        solve_lasso(d, 0.1, **budget)


def _skip_case(name):
    """(design, r_l, solver keywords) for one case of the skip-rule check."""
    if name == "drifting-residual":
        # Orthonormal columns, x_j' y0 just below r_l for all but the last,
        # and a huge warm start on the last: it returns to zero in the first
        # sweep, leaving rounding of order 0.01 in the running residual, so
        # later sweeps see zero coordinates cross r_l that the gradient of
        # the recomputed residual keeps below it.
        q = np.linalg.qr(np.random.default_rng(2).standard_normal((40, 12)))[0]
        c = np.full(12, 0.995)
        c[-1] = 0.0
        huge = np.zeros(12)
        huge[-1] = 1e15
        d = standardize(Dataset(x=q, y=q @ c), "formal")
        return d, 1.0, {"theta0": huge, "max_iter": 6, "tol": 0.0}
    if name.startswith("tie"):
        # Orthonormal columns and r_l = |z| of the first coordinate's first
        # step, so that step meets z = +r_l or z = -r_l exactly, where the
        # soft-threshold gives a zero of z's sign; from a warm start it
        # writes that zero, so -0.0 reaches theta in the negative case.
        q = np.linalg.qr(np.random.default_rng(3).standard_normal((30, 8)))[0]
        y = np.random.default_rng(4).standard_normal(30)
        sign = 1.0 if name.startswith("tie-positive") else -1.0
        d = standardize(Dataset(x=q, y=sign * y), "formal")
        theta0 = np.zeros(8)
        theta0[0] = 0.5 if name.endswith("warm") else 0.0
        z = theta0[0] + float(d.x0[:, 0] @ (d.y0 - d.x0 @ theta0))
        assert math.copysign(1.0, z) == sign
        return d, abs(z), {"theta0": theta0}
    rng = np.random.default_rng(45)
    n, p = (60, 400) if name.startswith("wide") else (30, 12)
    x = rng.standard_normal((n, p))
    if name == "duplicate":
        x[:, 11] = x[:, 3]  # exact copy: ties between two columns
    beta = np.zeros(p)
    beta[:4] = [3.0, -2.5, 2.0, 1.5]
    d = standardize(Dataset(x=x, y=x @ beta + rng.standard_normal(n)), "practical")
    corr = float(np.max(np.abs(d.x0.T @ d.y0)))
    warm = np.where(rng.random(p) < 0.2, 2.0 * rng.standard_normal(p), 0.0)
    if name == "wide":
        return d, default_penalties(p, 1.0, 0.5).r_l, {}
    if name == "wide-small-penalty":
        return d, 1.0, {}
    if name == "wide-one-sweep":
        return d, 1.0, {"max_iter": 1, "tol": 0.0}
    if name == "wide-zero-penalty":
        return d, 0.0, {"max_iter": 4, "tol": 0.0}
    if name == "wide-warm-start":  # warm entries off the support must return to zero
        return d, 2.0, {"theta0": warm}
    if name == "wide-huge-warm-start":  # resid keeps rounding far above eta
        huge = np.zeros(p)
        huge[[7, 200]] = [1e15, -3e14]
        return d, 2.0, {"theta0": huge, "max_iter": 25}
    if name == "wide-above-every-correlation":
        return d, 1.01 * corr, {"theta0": warm}
    if name == "wide-at-max-correlation":
        return d, corr, {"theta0": warm}
    if name == "duplicate":
        return d, 0.3, {"theta0": warm}
    if name == "zero-penalty":
        return d, 0.0, {"tol": 1e-12}
    raise ValueError(name)


@pytest.mark.parametrize(
    "name",
    [
        "wide",
        "wide-small-penalty",
        "wide-one-sweep",
        "wide-zero-penalty",
        "wide-warm-start",
        "wide-huge-warm-start",
        "drifting-residual",
        "wide-above-every-correlation",
        "wide-at-max-correlation",
        "duplicate",
        "zero-penalty",
        "tie-positive",
        "tie-negative",
        "tie-positive-warm",
        "tie-negative-warm",
    ],
)
def test_skipping_sweeps_equal_full_sweeps(name):
    d, r_l, kw = _skip_case(name)
    fit = solve_lasso(d, r_l, **kw)
    theta, sweeps, gap = full_sweep_lasso(d, r_l, **kw)
    assert fit.theta_hat.tobytes() == theta.tobytes()
    assert fit.iterations == sweeps
    assert repr(fit.kkt_gap) == repr(gap)
    assert fit.converged == (gap <= kw.get("tol", 1e-8))


def fixed_design_block(seed, n=80, p=6, width=128, mode="practical", rho=0.2):
    """One AR(1) design and ``width`` noisy responses on it, as their
    standardized designs (equal x0, own y0), with a screening penalty that
    keeps some columns and zeroes others."""
    rng = np.random.default_rng(seed)
    cov = rho ** np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
    x = rng.standard_normal((n, p)) @ np.linalg.cholesky(cov).T
    beta = np.zeros(p)
    beta[[0, p // 2]] = [4.0, -3.0]
    signal = x @ beta
    designs = [
        standardize(Dataset(x=x, y=signal + rng.standard_normal(n) * (1 + k % 4)), mode)
        for k in range(width)
    ]
    return designs, default_penalties(p, 1.0, 0.9).r_l / 4.0


def _same_fit(a, b):
    return (
        a.theta_hat.tobytes() == b.theta_hat.tobytes()
        and a.iterations == b.iterations
        and repr(a.kkt_gap) == repr(b.kkt_gap)
        and a.converged == b.converged
    )


def test_lasso_block_fit_does_not_depend_on_the_block():
    designs, r_l = fixed_design_block(51)
    d0 = designs[0]
    ys = [d.y0 for d in designs]
    kept = [y.copy() for y in ys]
    whole = _lasso_block(d0, ys, r_l)
    assert len({f.iterations for f in whole}) > 1  # responses leave the block at different sweeps
    assert all(np.array_equal(y, k) for y, k in zip(ys, kept))  # the responses are copied
    alone = [_lasso_block(d0, [y], r_l)[0] for y in ys]
    pairs = [f for k in range(0, len(ys), 2) for f in _lasso_block(d0, ys[k : k + 2], r_l)]
    pieces = [f for k in range(0, len(ys), 13) for f in _lasso_block(d0, ys[k : k + 13], r_l)]
    perm = np.random.default_rng(52).permutation(len(ys))
    permuted = [None] * len(ys)
    for k, fit in zip(perm, _lasso_block(d0, [ys[k] for k in perm], r_l)):
        permuted[k] = fit
    for split in (alone, pairs, pieces, permuted):
        assert all(_same_fit(a, b) for a, b in zip(whole, split))
    assert all(f.converged for f in whole)


@pytest.mark.parametrize(
    "seed, mode, p", [(53, "practical", 6), (54, "formal", 9), (55, "practical", 12)]
)
def test_lasso_block_agrees_with_solve_lasso(seed, mode, p):
    designs, r_l = fixed_design_block(seed, p=p, width=40, mode=mode, rho=0.6)
    block = _lasso_block(designs[0], [d.y0 for d in designs], r_l)
    for d, got in zip(designs, block):
        assert _same_fit(got, solve_lasso(d, r_l))
        assert got.penalty == r_l
        np.testing.assert_array_equal(got.beta_hat, got.theta_hat / d.scales)


def test_lasso_block_is_solve_lasso_on_random_designs():
    # n, p, B, correlation, mode, penalty and sweep budget all vary; p runs
    # past 8, where the rounding of a BLAS product starts to depend on shape
    rng = np.random.default_rng(58)
    fits = unconverged = 0
    for k in range(40):
        n, p, width = int(rng.integers(20, 120)), 2 + k % 10, int(rng.integers(1, 40))
        mode = ("practical", "formal")[k % 2]
        designs, r_l = fixed_design_block(
            int(rng.integers(2**32)), n=n, p=p, width=width, mode=mode, rho=0.9 * rng.random()
        )
        r_l *= float(rng.uniform(0.4, 4.0))
        max_iter = 3 if k % 5 == 0 else DEFAULT_MAX_ITER
        block = _lasso_block(designs[0], [d.y0 for d in designs], r_l, max_iter=max_iter)
        for d, got in zip(designs, block):
            assert _same_fit(got, solve_lasso(d, r_l, max_iter=max_iter))
            fits += 1
            unconverged += not got.converged
    assert fits > 500 and unconverged > 0


def _straggler_case(name):
    """(design, responses, r_l) of a block whose rows stop at different
    sweeps, the last of them alone for two or more sweeps."""
    if name == "wide":  # p >> n: the last row's sweeps take the skip rule
        rng = np.random.default_rng(64)
        x = rng.standard_normal((60, 200))
        signal = x[:, :4] @ np.array([3.0, -2.5, 2.0, 1.5])
        designs = [
            standardize(Dataset(x=x, y=signal + rng.standard_normal(60) * (1 + k)), "practical")
            for k in range(6)
        ]
        return designs[0], [d.y0 for d in designs], 3.0
    seed, p, width, rho = {"p6": (62, 6, 16, 0.6), "p9": (60, 9, 12, 0.9), "p12": (60, 12, 8, 0.8)}[
        name
    ]
    designs, r_l = fixed_design_block(seed, p=p, width=width, rho=rho)
    return designs[0], [d.y0 for d in designs], r_l


@pytest.mark.parametrize("name", ["p6", "p9", "p12", "wide"])
def test_lasso_block_is_the_stack_sweep_reference_with_stragglers(name):
    d, ys, r_l = _straggler_case(name)
    sweeps = sorted(its for _, its, _ in stack_sweep_reference(d, ys, r_l))
    assert sweeps[-1] > sweeps[-2] + 1  # one row outlives the others
    stopped = 0
    for max_iter in (DEFAULT_MAX_ITER, sweeps[-2] + 1, 3):
        ref = stack_sweep_reference(d, ys, r_l, max_iter=max_iter)
        for fit, (theta, its, gap) in zip(_lasso_block(d, ys, r_l, max_iter=max_iter), ref):
            assert fit.theta_hat.tobytes() == theta.tobytes()
            assert fit.iterations == its
            assert repr(fit.kkt_gap) == repr(gap)
            assert fit.converged == (gap <= 1e-8)
            stopped += not fit.converged
    assert stopped > 0


def stationarity_gap_reference(grad, theta, r_l):
    """The KKT gap reduced over axis 0 of transposed (p, B) gradients and
    coefficients: an active coordinate needs ``grad_j = r_l sign(theta_j)``,
    one at zero ``|grad_j| <= r_l``."""
    gaps = np.maximum(np.abs(grad) - r_l, 0.0)
    active = theta != 0.0
    gaps[active] = np.abs(grad - r_l * np.sign(theta))[active]
    return gaps.max(axis=0, initial=0.0)


def test_kkt_block_gap_is_the_axis_0_reference_bit_for_bit():
    # stacks of converged fits (active coordinates at grad_j = r_l sign) and
    # of random rows with zeros and -0.0, at penalties that put coordinates
    # exactly at |grad_j| = r_l
    designs, r_fit = fixed_design_block(14, width=12)
    design, ys = designs[0], np.array([d.y0 for d in designs])
    fits = _lasso_block(design, ys, r_fit)
    rng = np.random.default_rng(15)
    theta = rng.standard_normal(ys.shape[:1] + (design.p,))
    theta[rng.random(theta.shape) < 0.4] = 0.0
    theta[rng.random(theta.shape) < 0.2] = -0.0
    theta[3] = 0.0
    theta[4] = -0.0
    stacks = [np.array([fit.theta_hat for fit in fits]), theta, theta[:1], theta[:0]]
    at_edge = 0
    for stack in stacks:
        grad = _kkt_block(design.x0, ys[: len(stack)], stack, 0.0)[1]
        for r_l in [0.0, r_fit, 3.0, *np.abs(grad[:2, :3]).ravel().tolist()]:
            gap, grad, _ = _kkt_block(design.x0, ys[: len(stack)], stack, r_l)
            ref = stationarity_gap_reference(grad.T, stack.T, r_l)
            assert gap.shape == ref.shape == (len(stack),)
            assert gap.tobytes() == ref.tobytes()
            at_edge += np.count_nonzero(np.abs(grad) == r_l)
    assert np.signbit(theta[theta == 0.0]).any() and at_edge > 0


def test_kkt_gap_reads_a_list_as_its_vector():
    designs, r_l = fixed_design_block(59, width=1)
    theta = solve_lasso(designs[0], r_l).theta_hat
    assert kkt_gap(designs[0], theta.tolist(), r_l) == kkt_gap(designs[0], theta, r_l)


def test_lasso_block_orthonormal_soft_threshold_closed_form():
    rng = np.random.default_rng(56)
    d = orthonormal_design(rng, 25, 6)
    q = d.x0
    ys = [d.y0] + [rng.standard_normal(25) for _ in range(7)]
    top = 1.1 * max(float(np.max(np.abs(q.T @ y))) for y in ys)
    for r_l in np.linspace(0.0, top, 20):
        for y, fit in zip(ys, _lasso_block(d, ys, float(r_l))):
            assert fit.converged and fit.kkt_gap <= 1e-8
            z = q.T @ y
            expected = np.sign(z) * np.maximum(np.abs(z) - r_l, 0.0)
            np.testing.assert_allclose(fit.theta_hat, expected, atol=1e-10)


def test_lasso_block_stops_each_response_at_max_iter():
    designs, r_l = fixed_design_block(57, p=8, width=24, rho=0.9)
    r_l *= 4.0  # the full screening penalty: a few fits converge in one sweep
    block = _lasso_block(designs[0], [d.y0 for d in designs], r_l, max_iter=3)
    stopped = 0
    for d, got in zip(designs, block):
        assert _same_fit(got, solve_lasso(d, r_l, max_iter=3))
        stopped += not got.converged
        if not got.converged:
            assert got.iterations == 3 and got.kkt_gap > 1e-8
            with pytest.raises(NotConverged):
                screen(got)
    assert 0 < stopped < len(designs)


def test_default_penalties_corollary_coupling():
    pen = default_penalties(10, 1.0, 0.5)
    assert pen.r == pytest.approx(8.0 * math.log(10.0), rel=1e-15)  # 18.4207...
    assert pen.r_l**2 == pytest.approx(4.0 * pen.r, rel=1e-15)
    assert pen.r == pytest.approx(18.420680743952367)
    with pytest.raises(ValueError):
        default_penalties(1, 1.0, 0.5)
    with pytest.raises(ValueError):
        default_penalties(10, 1.0, 1.5)
    zero = default_penalties(10, 0.0, 0.5)
    assert zero.r == 0.0 and zero.r_l == 0.0


def test_penalty_pair_holds_only_the_two_penalties():
    with pytest.raises(TypeError):
        default_penalties(50, 10, 1.0, 0.5)  # the rule never read n
    with pytest.raises(TypeError):
        PenaltyPair(r=1.0, r_l=2.0, a=0.5)
    with pytest.raises(TypeError):
        PenaltyPair(r=1.0, r_l=2.0, sigma2=1.0)
    assert [f.name for f in dataclasses.fields(PenaltyPair)] == ["r", "r_l"]


@pytest.mark.parametrize(
    "r, r_l", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan), (-1.0, 1.0)]
)
def test_penalty_pair_takes_only_finite_nonnegative_penalties(r, r_l):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        PenaltyPair(r=r, r_l=r_l)


def _manual_fit(theta, r_l):
    theta = np.asarray(theta, dtype=float)
    return LassoFit(
        theta_hat=theta,
        beta_hat=theta.copy(),
        penalty=r_l,
        kkt_gap=0.0,
        iterations=1,
        converged=True,
    )


def test_screen_two_stage_thresholds():
    # r_l = 0.5: a0 = 3, S0 = {0, 1} (inclusive at 3.0), a1 = 3 sqrt(2)
    fit = _manual_fit([10.0, 3.0, 0.5, 0.0], 0.5)
    res = screen(fit)
    assert res.s0.indices == (0, 1)
    assert res.a1 == pytest.approx(3.0 * math.sqrt(2.0))
    assert res.s1.indices == (0,)  # 10 clears a1, 3.0 does not


def test_screen_boundary_inclusive_at_second_threshold():
    r_l = 0.5
    edge = 6.0 * r_l * math.sqrt(2.0)  # exactly a1 when |S0| = 2
    fit = _manual_fit([edge, 3.0], r_l)
    res = screen(fit)
    assert res.s0.indices == (0, 1)
    assert 0 in res.s1 and 1 not in res.s1


def test_screen_all_below_first_threshold():
    res = screen(_manual_fit([0.1, -0.2, 0.0], 1.0))
    assert res.s0.indices == () and res.s1.indices == ()
    assert res.a1 == res.a0  # |S0| treated as 1 when empty


def test_screen_zero_penalty_keeps_everything():
    res = screen(_manual_fit([0.0, 1.0, -2.0], 0.0))
    assert res.s0.indices == (0, 1, 2) and res.s1.indices == (0, 1, 2)


def test_screen_nested_s1_inside_s0():
    rng = np.random.default_rng(39)
    for _ in range(20):
        fit = _manual_fit(rng.standard_normal(8) * 3, float(rng.uniform(0.01, 0.5)))
        res = screen(fit)
        assert res.s1.issubset(res.s0)


def test_event_a_zero_noise_and_zero_threshold():
    rng = np.random.default_rng(40)
    d = standardize(Dataset(x=rng.standard_normal((10, 4)), y=rng.standard_normal(10)), "formal")
    assert event_a(d, np.zeros(10), 0.5).holds
    w = event_a(d, rng.standard_normal(10), 0.0)
    assert not w.holds and w.max_correlation > 0


def test_screen_and_event_a_blocks_are_their_single_calls():
    # a row of a block is the bytes of the one-response call, and an
    # unconverged fit is a screening error only for its own row
    rng = np.random.default_rng(2026)
    d = standardize(Dataset(x=rng.standard_normal((25, 9)), y=rng.standard_normal(25)), "practical")
    r_l = 0.3
    theta = rng.standard_normal((40, 9)) * rng.uniform(0.5, 4.0, (40, 1))
    theta[3, :] = 0.0  # nothing kept
    theta[4, :] = 0.0
    theta[4, :2] = [6.0 * r_l * math.sqrt(2.0), 6.0 * r_l]  # exactly a1 and a0
    keep0, keep1, a0, a1 = _screen_block(theta, r_l)
    for b, row in enumerate(theta):
        single = screen(_manual_fit(row, r_l))
        assert single.s0.indices == tuple(np.flatnonzero(keep0[b]).tolist())
        assert single.s1.indices == tuple(np.flatnonzero(keep1[b]).tolist())
        assert single.a0 == a0 and single.a1 == float(a1[b])
    assert not keep1[3].any() and keep1[4].tolist() == [True] + [False] * 8
    with pytest.raises(NotConverged):
        screen(dataclasses.replace(_manual_fit(theta[0], r_l), converged=False))
    eps = rng.standard_normal((40, 25)) * 2.0
    mc = _event_a_block(d, eps)
    for b, e in enumerate(eps):
        single = event_a(d, e, 7.0)
        assert single.max_correlation == float(mc[b])
        assert single.holds == bool(mc[b] <= 7.0)
    assert {bool(v <= 7.0) for v in mc} == {True, False}


def test_event_a_failure_frequency_within_tail_bound():
    # empirical P(not A) must sit below p * exp(-q) / sqrt(pi q), q = r_l^2 / (8 s2)
    rng = np.random.default_rng(41)
    n, p, reps = 30, 5, 5000
    d = standardize(Dataset(x=rng.standard_normal((n, p)), y=np.zeros(n)), "formal")
    r_l = math.sqrt(32.0)  # q = 4
    q = r_l**2 / 8.0
    bound = p * math.exp(-q) / math.sqrt(math.pi * q)
    eps = rng.standard_normal((reps, n))
    corr = 2.0 * np.abs(eps @ d.x0)
    fails = np.mean(corr.max(axis=1) > r_l)
    se = math.sqrt(bound * (1 - bound) / reps)
    assert fails <= bound + 2 * se


def test_verify_oracle_inequalities_zero_error_case():
    rng = np.random.default_rng(42)
    d = standardize(Dataset(x=rng.standard_normal((20, 5)), y=rng.standard_normal(20)), "formal")
    beta = np.array([1.0, 0.0, -2.0, 0.0, 0.0])
    theta = d.scales * beta
    fit = _manual_fit(theta, 0.3)
    mu0 = d.x0 @ theta
    rep = verify_oracle_inequalities(d, fit, beta, mu0, kappa_sq=0.5)
    assert rep.eq3_ok and rep.cone_holds  # delta = 0: everything trivially holds
    assert rep.parametric and rep.all_ok


def test_verify_oracle_inequalities_monte_carlo_on_noise_event():
    # parametric truth, fixed design; every applicable flag must hold on the event
    rng = np.random.default_rng(43)
    n, p, t = 40, 8, 3
    x = rng.standard_normal((n, p))
    beta = np.zeros(p)
    beta[:t] = [2.0, -1.5, 1.0]
    pen = default_penalties(p, 1.0, 0.5)
    held, violations = 0, 0
    for _ in range(200):
        eps = rng.standard_normal(n)
        y = x @ beta + eps
        data = Dataset(x=x, y=y)
        d = standardize(data, "practical")
        if not event_a(d, eps - eps.mean(), pen.r_l).holds:
            continue
        held += 1
        fit = solve_lasso(d, pen.r_l)
        assert fit.converged
        mu0 = d.x0 @ (d.scales * beta)
        lam_min = float(scipy.linalg.eigvalsh(d.gram)[0])
        rep = verify_oracle_inequalities(d, fit, beta, mu0, kappa_sq=max(lam_min, 1e-9))
        if not rep.all_ok:
            violations += 1
    assert held > 100  # the event dominates at this penalty
    assert violations == 0


def test_verify_oracle_default_kappa_is_the_support_estimate():
    # without kappa_sq the check estimates kappa^2(J, 3) itself; the report
    # must equal the one built from that same estimate passed explicitly
    rng = np.random.default_rng(45)
    x = rng.standard_normal((30, 6))
    beta = np.array([1.5, 0.0, -1.0, 0.0, 0.0, 0.0])
    y = x @ beta + 0.5 * rng.standard_normal(30)
    d = standardize(Dataset(x=x, y=y), "practical")
    fit = solve_lasso(d, default_penalties(6, 0.25, 0.5).r_l)
    mu0 = d.x0 @ (d.scales * beta)
    implicit = verify_oracle_inequalities(d, fit, beta, mu0)
    explicit = verify_oracle_inequalities(
        d, fit, beta, mu0, kappa_sq=kappa(d, [0, 2], 3.0).value
    )
    for name in OracleCheckReport.__dataclass_fields__:
        assert getattr(implicit, name) == getattr(explicit, name), name


def test_verify_oracle_requires_nonempty_support():
    rng = np.random.default_rng(44)
    d = standardize(Dataset(x=rng.standard_normal((10, 3)), y=rng.standard_normal(10)), "formal")
    fit = _manual_fit(np.zeros(3), 0.1)
    with pytest.raises(ValueError):
        verify_oracle_inequalities(d, fit, np.zeros(3), np.zeros(10), kappa_sq=1.0)


def test_event_a_witness_serialization():
    w = EventAWitness(holds=True, max_correlation=0.4, threshold=0.5)
    blob = w.to_json_dict()
    assert blob == {"holds": True, "max_correlation": 0.4, "threshold": 0.5}
