"""Standardization, RSS and least-squares primitives.

Expected values come from independent routes: explicit pseudo-inverse
projection matrices for RSS, and raw-scale lstsq fits (with an intercept
column in practical mode) for the residual-link identity.
"""

import dataclasses
import math
import pickle

import numpy as np
import pytest
import scipy.linalg

from sosselect import design as design_module
from sosselect.design import (
    DEGENERATE_RSS,
    Dataset,
    LsFit,
    ModelSet,
    Parametrization,
    _center,
    _factor,
    _full_rank_factor,
    _gemv_rows,
    _ls_block,
    _solve_upper,
    _thin_q,
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


def test_standardize_accepts_only_the_exact_mode_names():
    data = Dataset(x=np.array([[1.0], [2.0], [3.0]]), y=np.array([1.0, 4.0, 1.0]))
    for mode in ("PRACTICAL", "Formal", " practical", "informal"):
        with pytest.raises(ValueError):
            standardize(data, mode)
    assert standardize(data, "formal").mode is Parametrization.FORMAL
    assert Parametrization(Parametrization.PRACTICAL) is Parametrization.PRACTICAL


def test_standardize_rejects_constant_column_in_practical_mode():
    data = Dataset(x=np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 4.0]]), y=np.zeros(3))
    with pytest.raises(ZeroNormColumn) as err:
        standardize(data, "practical")
    assert err.value.column == 0
    # a worker process hands it back by pickling: same type, fields and message
    back = pickle.loads(pickle.dumps(err.value))
    assert (type(back), back.column, back.norm, str(back)) == (
        ZeroNormColumn, 0, err.value.norm, str(err.value)
    )
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


@pytest.mark.parametrize("mode", ["practical", "formal"])
@pytest.mark.parametrize("shape, order", [((200, 1000), "C"), ((30, 7), "C"), ((45, 12), "F")])
def test_standardize_is_bytewise_the_norm_reference(mode, shape, order):
    # the reference divides a new array by np.linalg.norm's column norms;
    # standardize must give its bytes and layout and leave the data as it was
    rng = np.random.default_rng(13 + shape[1])
    x = np.asarray(3.0 * rng.standard_normal(shape) + 1.5, order=order)
    data = Dataset(x=x, y=rng.standard_normal(shape[0]))
    x_kept, y_kept = data.x.copy(order="K"), data.y.copy()
    d = standardize(data, mode)
    xc = _center(data.x, mode)
    scales = np.linalg.norm(xc, axis=0)
    x0 = xc / scales
    assert d.scales.tobytes() == scales.tobytes()
    assert d.x0.tobytes() == x0.tobytes() and d.x0.strides == x0.strides
    assert d.y0.tobytes() == _center(data.y, mode).tobytes()
    assert data.x.tobytes() == x_kept.tobytes() and data.x.strides == x_kept.strides
    assert data.y.tobytes() == y_kept.tobytes()


@pytest.mark.parametrize("mode", ["practical", "formal"])
@pytest.mark.parametrize("shape, order", [((200, 1000), "C"), ((40, 13), "C"), ((45, 12), "F")])
def test_standardize_into_given_arrays_is_the_allocating_formula(mode, shape, order):
    # the formula standardize ran on new arrays, written out: center (or
    # copy), sum the squares of the new array, divide a new array
    rng = np.random.default_rng(29 + shape[1])
    a = np.asarray(2.0 * rng.standard_normal(shape) - 0.5, order=order)
    y = rng.standard_normal(shape[0])
    xc = a - a.mean(axis=0, keepdims=True) if mode == "practical" else a.copy()
    scales = np.sqrt(np.add.reduce(xc * xc, axis=0))
    x0 = xc / scales
    fresh = standardize(Dataset(x=a, y=y), mode)
    assert fresh.scales.tobytes() == scales.tobytes()
    assert fresh.x0.tobytes() == x0.tobytes() and fresh.x0.strides == x0.strides
    if order == "F":
        return  # given arrays are C-ordered: the same bytes only for a C-ordered x
    # the given arrays hold stale values, which must not leak into the result
    out = np.full(shape, np.nan), np.full(shape, 7.0)
    into = standardize(Dataset(x=a, y=y), mode, out=out)
    assert into.x0 is out[0]
    assert into.scales.tobytes() == scales.tobytes() and into.x0.tobytes() == x0.tobytes()
    assert into.y0.tobytes() == fresh.y0.tobytes()
    assert not np.shares_memory(into.x0, a)


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


def ls_fit_reference(design, model):
    """ls_fit(allow_degenerate=True) as one response's scalar products: the
    gemv ``q.T @ y0``, one triangular solve and ``resid @ resid``."""
    model = ModelSet.of(model)
    k, n_eff = len(model), design.n_effective
    q, r, perm = _full_rank_factor(design.columns(model), model)
    rinv = _solve_upper(r, np.eye(k))
    unit_var = np.empty(k)
    unit_var[perm] = np.sum(rinv * rinv, axis=1)
    qty = q.T @ design.y0
    theta = np.empty(k)
    theta[perm] = _solve_upper(r, qty)
    resid = design.y0 - q @ qty
    rss_val = float(resid @ resid)
    t2 = None if rss_val < DEGENERATE_RSS else theta * theta / (unit_var * (rss_val / (n_eff - k)))
    scales = design.scales[list(model.indices)]
    return LsFit(model, theta, theta / scales, rss_val, n_eff - k, t2)


@pytest.mark.parametrize("mode", ["practical", "formal"])
def test_ls_block_rows_are_byte_identical_to_single_fits(mode):
    rng = np.random.default_rng(24)
    n = 12
    x = rng.standard_normal((n, 13))
    x[:, 12] = x[:, 5]  # exact duplicate column
    # one response lies in the span of columns 1 and 2: ~0 residual
    responses = [rng.standard_normal(n) * 3.0 for _ in range(4)]
    responses.insert(2, x[:, [1, 2]] @ np.array([1.5, -2.0]))
    base = standardize(Dataset(x=x, y=responses[0]), mode)
    ys = _center(np.array(responses), mode, axis=1)
    k_max = base.n_effective - 1  # largest model with a residual degree of freedom
    full_rank = [(1, 2), (3, 9), (0, 4, 8), tuple(range(k_max))]
    for m in [()] + full_rank:
        model = ModelSet.of(m)
        theta, beta, rss_b, t2 = _ls_block(base, model, ys, allow_degenerate=True)
        for b, y0 in enumerate(ys):
            design = dataclasses.replace(base, y0=y0)
            fit = ls_fit(design, model, allow_degenerate=True)
            row_t2 = None if np.isnan(t2[b]).any() else t2[b]
            row = LsFit(model, theta[b], beta[b], float(rss_b[b]), fit.df_resid, row_t2)
            assert fit_fields(row) == fit_fields(fit)
            if model:
                assert fit_fields(fit) == fit_fields(ls_fit_reference(design, model))
    # the degenerate row is the one response in the span of (1, 2)
    t2 = _ls_block(base, ModelSet.of((1, 2)), ys, allow_degenerate=True)[3]
    assert np.isnan(t2).any(axis=1).tolist() == [False, False, True, False, False]
    single = outcome(lambda: ls_fit(dataclasses.replace(base, y0=ys[2]), (1, 2)))
    assert single[0] is DegenerateResidual
    strict = outcome(lambda: _ls_block(base, ModelSet.of((1, 2)), ys, allow_degenerate=False))
    assert strict == single
    for call in (
        lambda: ls_fit(base, (5, 12)),
        lambda: _ls_block(base, ModelSet.of((5, 12)), ys, allow_degenerate=True),
    ):
        assert outcome(call)[0] is RankDeficient


@pytest.mark.parametrize("order", ["C", "F"])
def test_stacked_gemv_rows_are_the_single_products(order):
    # the one rule behind every block of responses: a stacked matmul runs one
    # gemv per row with the strides of ``a @ y``, so a numpy or BLAS change
    # that breaks it fails here first
    rng = np.random.default_rng(2025)
    for n, k, count in [(80, 6, 128), (12, 1, 5), (200, 13, 40), (7, 7, 1), (45, 3, 64)]:
        a = np.asarray(rng.standard_normal((k, n)), order=order)
        ys = rng.standard_normal((count, n)) * rng.uniform(0.1, 50.0)
        want = np.array([a @ y for y in ys])
        assert _gemv_rows(a, ys).tobytes() == want.tobytes()
        back = np.asarray(a.T, order=order)
        assert _gemv_rows(back, want).tobytes() == np.array([back @ v for v in want]).tobytes()
        assert np.vecdot(ys, ys).tobytes() == np.array([y @ y for y in ys]).tobytes()
        centered = np.array([_center(y, "practical") for y in ys])
        assert _center(ys, "practical", axis=1).tobytes() == centered.tobytes()


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


@pytest.mark.parametrize(
    "text, kwargs, match",
    [
        ("", {}, "empty file"),
        ("\n \n", {}, "empty file"),
        ("a,b\n", {}, "header but no data"),
        ("y\n1\n2\n", {}, "at least one predictor"),
        ("1,2\n3,4\n", {"has_header": False, "response": "y"}, "no header"),
        ("u,v\n1,2\n", {"response": 2}, "out of range"),
        ("u,v\n1,2\n", {"response": -1}, "out of range"),
        ("u,v,w\n1,2,3\n4,5\n", {}, "ragged"),
        ("u,v\n1,2\n3,4,5\n", {}, "ragged"),
        ("u,v\n1,x\n", {}, "non-numeric"),
    ],
)
def test_from_csv_rejects_malformed_files(tmp_path, text, kwargs, match):
    f = tmp_path / "bad.csv"
    f.write_text(text)
    with pytest.raises(ValueError, match=match):
        Dataset.from_csv(f, **kwargs)


@pytest.mark.parametrize(
    "x, y, match",
    [
        (np.ones(3), np.ones(3), "2-d"),
        (np.ones((3, 2)), np.ones(4), "3 rows but y has 4"),
        (np.ones((0, 2)), np.ones(0), "at least one"),
        (np.ones((3, 0)), np.ones(3), "at least one"),
        (np.array([[1.0], [np.nan]]), np.ones(2), "non-finite"),
        (np.ones((2, 1)), np.array([1.0, np.inf]), "non-finite"),
    ],
)
def test_dataset_rejects_bad_shapes_and_non_finite_values(x, y, match):
    with pytest.raises(ValueError, match=match):
        Dataset(x=x, y=y)


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
    assert Parametrization("formal") is Parametrization.FORMAL


def test_solve_upper_is_bytewise_the_scipy_solve():
    """The direct LAPACK call keeps scipy's layout rule: a C-ordered R is
    solved as its transpose, so every byte matches, for both layouts and for
    a vector and an identity right-hand side."""
    rng = np.random.default_rng(2017)
    solves = 0
    for k in range(1, 9):
        for _ in range(250):
            r = _factor(rng.standard_normal((k + 1 + int(rng.integers(0, 12)), k)))[1]
            assert not r.flags.f_contiguous or k == 1  # _factor's R is C-ordered
            for layout in (r, np.asfortranarray(r)):
                for b in (rng.standard_normal(k), np.eye(k)):
                    got = _solve_upper(layout, b)
                    want = scipy.linalg.solve_triangular(layout, b)
                    assert got.shape == want.shape and got.tobytes() == want.tobytes()
            solves += 1
    assert solves == 2000


@pytest.mark.parametrize("order", ["C", "F"])
def test_solve_upper_keeps_scipys_checks(order):
    r = np.asarray([[2.0, 1.0, 0.5], [0.0, 0.0, 1.0], [0.0, 0.0, 3.0]], order=order)
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        _solve_upper(r, np.ones(3))
    r[1, 1] = 1.0
    for bad in (np.nan, np.inf, -np.inf):
        broken = r.copy(order=order)
        broken[0, 2] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            _solve_upper(broken, np.ones(3))
        with pytest.raises(ValueError, match="infs or NaNs"):
            _solve_upper(r, np.array([1.0, bad, 1.0]))


def _qr_input(case):
    """The QR input of one byte-equality case: tall, square and wide shapes,
    one with k > 128 (LAPACK's blocked code), duplicate and all-zero
    columns, and F-ordered and int input."""
    rng = np.random.default_rng(2019)
    shape = {"square": (6, 6), "wide": (4, 9), "blocked": (200, 150)}.get(case, (30, 5))
    a = rng.standard_normal(shape)
    if case == "duplicate":
        a[:, 3] = a[:, 1]
    elif case == "zero":
        a[:, 2] = 0.0
    elif case == "fortran":
        a = np.asfortranarray(a)
    elif case == "int":
        a = rng.integers(-9, 10, shape)
    return a


def _assert_same_array(got, want):
    assert (got.dtype, got.shape, got.strides) == (want.dtype, want.shape, want.strides)
    assert (got.flags.c_contiguous, got.flags.f_contiguous) == (
        want.flags.c_contiguous,
        want.flags.f_contiguous,
    )
    assert got.tobytes() == want.tobytes()


QR_CASES = ["tall", "square", "wide", "blocked", "duplicate", "zero", "fortran", "int"]


@pytest.mark.parametrize("case", QR_CASES)
def test_factor_is_bytewise_scipys_pivoted_qr(case, monkeypatch):
    """The direct geqp3/orgqr calls give scipy's Q, R and perm: bytes,
    layouts and the int32 perm, with the workspace cache cold and warm."""
    a = _qr_input(case)
    want = scipy.linalg.qr(a, mode="economic", pivoting=True)
    monkeypatch.setattr(design_module, "_QR_WORK", {})
    for warm in (False, True):
        assert (a.shape in design_module._QR_WORK) is warm
        q, r, perm, _ = _factor(a)
        for got, expected in zip((q, r, perm), want):
            _assert_same_array(got, expected)
    assert perm.dtype == np.int32


@pytest.mark.parametrize("case", QR_CASES)
def test_thin_q_is_bytewise_numpys_qr(case):
    a = _qr_input(case)
    for _ in range(2):
        _assert_same_array(_thin_q(a), np.linalg.qr(a)[0])


def test_span_basis_keeps_its_edge_cases():
    assert span_basis(np.zeros((5, 0))).shape == (5, 0)
    assert _factor(np.zeros((5, 3)))[3] == 0
    assert span_basis(np.zeros((5, 3))).shape == (5, 0)
    with pytest.raises(ValueError, match="expected a 2-D array"):
        span_basis(np.ones(5))
    for bad in (np.nan, np.inf, -np.inf):
        x = np.ones((5, 2))
        x[1, 1] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            span_basis(x)
    q = span_basis(np.arange(12).reshape(6, 2))
    assert q.dtype == np.float64 and q.shape == (6, 2)


def test_ls_fit_rejects_a_non_finite_response_alone_or_in_a_block():
    rng = np.random.default_rng(2018)
    good = standardize(random_dataset(rng, 20, 4), "practical")
    y0 = good.y0.copy()
    y0[3] = np.nan
    model = ModelSet.of([0, 2, 3])
    with pytest.raises(ValueError, match="infs or NaNs"):
        ls_fit(dataclasses.replace(good, y0=y0), model)
    with pytest.raises(ValueError, match="infs or NaNs"):  # a finite row first
        _ls_block(good, model, np.array([good.y0, y0]), allow_degenerate=True)
