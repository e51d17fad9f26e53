"""Standardization, RSS and least-squares primitives.

Expected values come from independent routes: explicit pseudo-inverse
projection matrices for RSS, and raw-scale lstsq fits (with an intercept
column in practical mode) for the residual-link identity.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from sosselect.design import (
    Dataset,
    FactorCache,
    LsFit,
    ModelSet,
    Parametrization,
    ls_fit,
    rss,
    span_basis,
    standardize,
)
from sosselect.errors import (
    DegenerateResidual,
    RankDeficient,
    TooManyPredictors,
    ZeroNormColumn,
)


def oracle_rss(design, indices):
    """RSS via an explicit projection matrix, no QR involved."""
    idx = list(indices)
    y0 = design.y0
    if not idx:
        return float(y0 @ y0)
    xj = design.x0[:, idx]
    h = xj @ np.linalg.pinv(xj)
    resid = (np.eye(len(y0)) - h) @ y0
    return float(resid @ resid)


def oracle_raw_rss(data, indices, mode):
    """RSS of the raw-scale fit: intercept + selected raw columns (practical)."""
    idx = list(indices)
    cols = [data.x[:, j] for j in idx]
    if mode == "practical":
        cols = [np.ones(data.n)] + cols
    if not cols:
        resid = data.y if mode == "formal" else data.y - data.y.mean()
        return float(resid @ resid)
    a = np.column_stack(cols)
    coef, *_ = np.linalg.lstsq(a, data.y, rcond=None)
    resid = data.y - a @ coef
    return float(resid @ resid)


def projection_link_check(design, model, *, tol=1e-8):
    """Standardized-scale residuals match raw-scale residuals.

    For 16 fixed pseudo-random probe vectors v, compares (a) the residual of
    v after projecting onto the raw fitting span (intercept column plus the
    model's columns in practical mode; just the columns in formal mode)
    against (b) the mode's centering of v followed by projection onto the
    standardized columns. Both must agree to ``tol`` relative per probe.
    """
    cols = design.columns(model)
    qb = span_basis(cols)
    assert qb.shape[1] == len(model)
    probes = np.random.default_rng(314159).standard_normal((design.n, 16))
    if design.mode is Parametrization.PRACTICAL:
        raw_span = np.hstack([np.ones((design.n, 1)), cols])
        centered = probes - probes.mean(axis=0)
    else:
        raw_span = cols
        centered = probes
    qa = span_basis(raw_span)
    res_a = probes - qa @ (qa.T @ probes)
    res_b = centered - qb @ (qb.T @ centered)
    gaps = np.linalg.norm(res_a - res_b, axis=0)
    return bool(np.all(gaps <= tol * np.linalg.norm(probes, axis=0)))


def random_dataset(rng, n, p):
    return Dataset(x=rng.standard_normal((n, p)), y=rng.standard_normal(n))


def test_standardize_formal_two_point():
    data = Dataset(x=np.array([[1.0], [-1.0]]), y=np.array([2.0, 0.0]))
    d = standardize(data, "formal")
    s = math.sqrt(2.0)
    np.testing.assert_allclose(d.scales, [s])
    np.testing.assert_allclose(d.x0[:, 0], [1 / s, -1 / s])
    np.testing.assert_allclose(d.y0, [2.0, 0.0])  # no centering in formal mode


def test_standardize_practical_centers_and_scales():
    data = Dataset(x=np.array([[1.0], [2.0], [3.0]]), y=np.array([1.0, 4.0, 1.0]))
    d = standardize(data, "practical")
    s = math.sqrt(2.0)
    np.testing.assert_allclose(d.scales, [s])
    np.testing.assert_allclose(d.x0[:, 0], [-1 / s, 0.0, 1 / s])
    np.testing.assert_allclose(d.y0, [-1.0, 2.0, -1.0])
    np.testing.assert_allclose(np.linalg.norm(d.x0, axis=0), 1.0)


def test_standardize_rejects_constant_column_in_practical_mode():
    data = Dataset(x=np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 4.0]]), y=np.zeros(3))
    with pytest.raises(ZeroNormColumn) as err:
        standardize(data, "practical")
    assert err.value.column == 0
    # formal mode keeps it: the column is nonzero without centering
    d = standardize(data, "formal")
    assert d.p == 2


def test_standardize_rejects_zero_column_in_formal_mode():
    data = Dataset(x=np.array([[0.0, 1.0], [0.0, 2.0]]), y=np.zeros(2))
    with pytest.raises(ZeroNormColumn):
        standardize(data, "formal")


@pytest.mark.parametrize("mode", ["practical", "formal"])
def test_standardize_idempotent(mode):
    rng = np.random.default_rng(11)
    d = standardize(random_dataset(rng, 20, 4), mode)
    d2 = standardize(Dataset(x=d.x0, y=d.y0), mode)
    np.testing.assert_allclose(d2.scales, np.ones(4), atol=1e-12)
    np.testing.assert_allclose(d2.x0, d.x0, atol=1e-12)
    np.testing.assert_allclose(d2.y0, d.y0, atol=1e-12)


def test_standardize_column_rescaling_invariance():
    rng = np.random.default_rng(12)
    data = random_dataset(rng, 25, 5)
    c = np.array([0.1, 3.0, 17.5, 0.004, 1.0])
    scaled = Dataset(x=data.x * c, y=data.y)
    d1 = standardize(data, "practical")
    d2 = standardize(scaled, "practical")
    np.testing.assert_allclose(d2.x0, d1.x0, atol=1e-12)
    np.testing.assert_allclose(d2.scales, d1.scales * c, rtol=1e-12)


def test_modelset_normalization_and_set_ops():
    m = ModelSet.of([3, 1, 3, 2])
    assert m.indices == (1, 2, 3)
    assert len(m) == 3 and 2 in m and 0 not in m
    assert m.minus([2]).indices == (1, 3)
    assert m.union([0]).indices == (0, 1, 2, 3)
    assert ModelSet.empty().indices == () and not ModelSet.empty()
    with pytest.raises(ValueError):
        ModelSet((2, 1))
    with pytest.raises(ValueError):
        ModelSet((-1,))


def test_rss_empty_model_is_squared_response_norm():
    rng = np.random.default_rng(13)
    d = standardize(random_dataset(rng, 15, 3), "formal")
    assert rss(d, ModelSet.empty()) == pytest.approx(float(d.y0 @ d.y0), rel=1e-14)


@pytest.mark.parametrize("mode", ["practical", "formal"])
def test_rss_matches_projection_oracle(mode):
    rng = np.random.default_rng(14)
    for _ in range(25):
        d = standardize(random_dataset(rng, 18, 6), mode)
        size = rng.integers(0, 5)
        model = ModelSet.of(rng.choice(6, size=size, replace=False))
        assert rss(d, model) == pytest.approx(oracle_rss(d, model), abs=1e-10)


@pytest.mark.parametrize("mode", ["practical", "formal"])
def test_rss_matches_raw_scale_fit(mode):
    # the standardized-scale residual must equal the raw fit's residual
    rng = np.random.default_rng(15)
    for _ in range(20):
        data = random_dataset(rng, 16, 5)
        d = standardize(data, mode)
        model = ModelSet.of(rng.choice(5, size=rng.integers(0, 4), replace=False))
        assert rss(d, model) == pytest.approx(oracle_raw_rss(data, model, mode), abs=1e-9)


def test_rss_monotone_under_nesting():
    rng = np.random.default_rng(16)
    for _ in range(20):
        d = standardize(random_dataset(rng, 20, 6), "practical")
        order = list(rng.permutation(6))
        values = [rss(d, ModelSet.of(order[:k])) for k in range(7)]
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-10


def test_rss_rejects_duplicate_columns():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((12, 3))
    x = np.column_stack([x, x[:, 0]])  # exact copy
    d = standardize(Dataset(x=x, y=rng.standard_normal(12)), "formal")
    with pytest.raises(RankDeficient):
        rss(d, ModelSet.of([0, 3]))
    assert rss(d, ModelSet.of([0, 1])) > 0.0


def test_ls_fit_orthonormal_columns():
    # orthonormal design: theta is just the per-column inner product
    q = np.linalg.qr(np.random.default_rng(18).standard_normal((10, 3)))[0]
    y = np.array([1.0, -2.0, 0.5, 0, 0, 0, 1, 0, 0, -1])
    d = standardize(Dataset(x=q, y=y), "formal")
    fit = ls_fit(d, ModelSet.of([0, 1, 2]))
    np.testing.assert_allclose(fit.theta_hat, d.x0.T @ d.y0, atol=1e-12)
    assert fit.rss == pytest.approx(float(d.y0 @ d.y0) - float(fit.theta_hat @ fit.theta_hat))
    assert fit.df_resid == 10 - 3


@pytest.mark.parametrize("mode", ["practical", "formal"])
def test_ls_fit_t_squared_matches_rss_drop_identity(mode):
    # t^2 / df == (rss(model minus j) - rss(model)) / rss(model), any j
    rng = np.random.default_rng(19)
    for _ in range(15):
        d = standardize(random_dataset(rng, 22, 6), mode)
        model = ModelSet.of(rng.choice(6, size=4, replace=False))
        fit = ls_fit(d, model)
        for pos, j in enumerate(model.indices):
            drop = (rss(d, model.minus([j])) - fit.rss) / fit.rss
            assert fit.t_squared[pos] / fit.df_resid == pytest.approx(drop, rel=1e-8, abs=1e-10)


def test_ls_fit_beta_is_theta_over_scales():
    rng = np.random.default_rng(20)
    data = random_dataset(rng, 30, 4)
    d = standardize(data, "practical")
    fit = ls_fit(d, ModelSet.of([1, 3]))
    np.testing.assert_allclose(fit.beta_hat, fit.theta_hat / d.scales[[1, 3]], rtol=1e-12)


def test_ls_fit_empty_model_is_null_fit():
    rng = np.random.default_rng(21)
    d = standardize(random_dataset(rng, 12, 3), "practical")
    fit = ls_fit(d, ModelSet.empty())
    assert fit.rss == pytest.approx(float(d.y0 @ d.y0))
    assert fit.df_resid == 11 and fit.theta_hat.size == 0


def test_ls_fit_degenerate_residual():
    rng = np.random.default_rng(22)
    x = rng.standard_normal((8, 2))
    y = x @ np.array([1.5, -2.0])  # exactly in the span
    d = standardize(Dataset(x=x, y=y), "formal")
    with pytest.raises(DegenerateResidual):
        ls_fit(d, ModelSet.of([0, 1]))
    fit = ls_fit(d, ModelSet.of([0, 1]), allow_degenerate=True)
    assert fit.t_squared is None and fit.rss < 1e-12


def test_ls_fit_too_many_predictors():
    rng = np.random.default_rng(23)
    d = standardize(random_dataset(rng, 5, 4), "practical")  # n_effective = 4
    with pytest.raises(TooManyPredictors):
        ls_fit(d, ModelSet.of([0, 1, 2, 3]))


# ------------------------------------------------------------ factor cache


def fit_fields(fit):
    """Every field of an LsFit, arrays as bytes and floats by repr."""
    t2 = None if fit.t_squared is None else fit.t_squared.tobytes()
    return (
        fit.model, fit.theta_hat.tobytes(), fit.beta_hat.tobytes(), repr(fit.rss), fit.df_resid, t2
    )


def outcome(call):
    """A call's result, or the type and message of what it raised."""
    try:
        return call()
    except (RankDeficient, DegenerateResidual) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("mode", ["practical", "formal"])
def test_factor_cache_hits_are_byte_identical(mode):
    rng = np.random.default_rng(24)
    n = 12
    x = rng.standard_normal((n, 13))
    x[:, 12] = x[:, 5]  # exact duplicate column
    # the second response lies in the span of columns 1 and 2: ~0 residual
    responses = [rng.standard_normal(n), x[:, [1, 2]] @ np.array([1.5, -2.0])]
    base = standardize(Dataset(x=x, y=responses[0]), mode)
    k_max = base.n_effective - 1  # largest model with a residual degree of freedom
    full_rank = [(1, 2), (3, 9), (0, 4, 8), tuple(range(k_max))]
    models = [()] + full_rank + [(5, 12)]
    cache = FactorCache(base)
    for y in responses:
        y0 = standardize(Dataset(x=x, y=y), mode).y0
        cold = dataclasses.replace(base, y0=y0)
        warm = dataclasses.replace(base, y0=y0, factors=cache)
        for _ in range(2):  # the first response fills the cache, the rest hit it
            for m in models:
                for allow in (False, True):
                    got = outcome(lambda: fit_fields(ls_fit(warm, m, allow_degenerate=allow)))
                    want = outcome(lambda: fit_fields(ls_fit(cold, m, allow_degenerate=allow)))
                    assert got == want
                assert repr(outcome(lambda: rss(warm, m))) == repr(outcome(lambda: rss(cold, m)))
    assert outcome(lambda: ls_fit(warm, (1, 2)))[0] is DegenerateResidual
    assert outcome(lambda: rss(warm, (5, 12)))[0] is RankDeficient
    assert len(cache) == len(full_rank)  # a raise is never stored


def test_factor_cache_serves_only_its_own_columns():
    rng = np.random.default_rng(25)
    a = standardize(random_dataset(rng, 15, 4), "practical")
    b = standardize(random_dataset(rng, 15, 4), "practical")
    warm = dataclasses.replace(a, factors=FactorCache(a))
    model = ModelSet.of([0, 2])
    filled = fit_fields(ls_fit(warm, model))
    for other in (dataclasses.replace(warm, x0=b.x0), dataclasses.replace(warm, scales=b.scales)):
        got = fit_fields(ls_fit(other, model))
        assert got != filled
        assert got == fit_fields(ls_fit(dataclasses.replace(other, factors=None), model))
        assert rss(other, model) == rss(dataclasses.replace(other, factors=None), model)
    assert len(warm.factors) == 1


def test_standardized_design_keeps_no_factors():
    data = random_dataset(np.random.default_rng(26), 30, 10)
    d = standardize(data, "formal")
    subsets = itertools.islice(
        (c for k in range(1, 11) for c in itertools.combinations(range(10), k)), 1000
    )
    for c in subsets:
        rss(d, c)
    assert d.factors is None
    assert standardize(data, "formal").factors is None


@pytest.mark.parametrize("mode", ["practical", "formal"])
def test_projection_link_check_random_models(mode):
    rng = np.random.default_rng(24)
    for _ in range(10):
        d = standardize(random_dataset(rng, 15, 5), mode)
        model = ModelSet.of(rng.choice(5, size=rng.integers(0, 4), replace=False))
        assert projection_link_check(d, model)


def test_projection_link_check_empty_model():
    rng = np.random.default_rng(25)
    for mode in ("practical", "formal"):
        d = standardize(random_dataset(rng, 9, 2), mode)
        assert projection_link_check(d, ModelSet.empty())


def test_from_csv_with_header_and_named_response(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("a,b,resp\n1,2,3\n4,5,6\n7,8,10\n")
    data = Dataset.from_csv(f, response="resp")
    assert data.n == 3 and data.p == 2
    np.testing.assert_allclose(data.y, [3, 6, 10])
    np.testing.assert_allclose(data.x[:, 1], [2, 5, 8])


def test_from_csv_default_response_is_last_column(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("1,2,3\n4,5,6\n")
    data = Dataset.from_csv(f, has_header=False)
    np.testing.assert_allclose(data.y, [3, 6])


def test_from_csv_index_response_and_errors(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("u,v,w\n1,2,3\n4,5,6\n")
    data = Dataset.from_csv(f, response=0)
    np.testing.assert_allclose(data.y, [1, 4])
    with pytest.raises(ValueError):
        Dataset.from_csv(f, response="missing")
    g = tmp_path / "bad.csv"
    g.write_text("u,v\n1,x\n")
    with pytest.raises(ValueError):
        Dataset.from_csv(g)


def test_design_json_export_shapes():
    rng = np.random.default_rng(26)
    d = standardize(random_dataset(rng, 7, 3), "practical")
    blob = d.to_json_dict()
    assert blob["mode"] == "practical"
    assert len(blob["x0"]) == 7 and len(blob["x0"][0]) == 3
    assert len(blob["scales"]) == 3 and len(blob["y0"]) == 7


def test_parametrization_effective_sample_size():
    assert Parametrization.PRACTICAL.n_effective(10) == 9
    assert Parametrization.FORMAL.n_effective(10) == 10
    assert Parametrization.parse("formal") is Parametrization.FORMAL
