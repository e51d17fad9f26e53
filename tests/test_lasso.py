"""Penalized fits, screening thresholds and realized-inequality checks.

The coordinate-descent solver is validated against two independent routes:
the orthonormal-design closed form (exact soft-thresholding of the
column/response inner products) and an accelerated proximal-gradient solver
of the same objective written below, sharing no code with the package.
"""

import math

import numpy as np
import pytest
import scipy.linalg

from sosselect.design import Dataset, ModelSet, standardize
from sosselect.errors import NotConverged
from sosselect.lasso import (
    EventAWitness,
    LassoFit,
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
        return d, default_penalties(n, p, 1.0, 0.5).r_l, {}
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


def test_default_penalties_corollary_coupling():
    pen = default_penalties(50, 10, 1.0, 0.5)
    assert pen.r == pytest.approx(8.0 * math.log(10.0), rel=1e-15)  # 18.4207...
    assert pen.r_l**2 == pytest.approx(4.0 * pen.r, rel=1e-15)
    assert pen.r == pytest.approx(18.420680743952367)
    with pytest.raises(ValueError):
        default_penalties(50, 1, 1.0, 0.5)
    with pytest.raises(ValueError):
        default_penalties(50, 10, 1.0, 1.5)
    zero = default_penalties(50, 10, 0.0, 0.5)
    assert zero.r == 0.0 and zero.r_l == 0.0


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
    pen = default_penalties(n, p, 1.0, 0.5)
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
