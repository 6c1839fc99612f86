"""Exact-GP baseline: kernels, fit/predict oracles, degenerate matrices."""

from __future__ import annotations

import dataclasses
import gc
import math

import numpy as np
import pytest

from safeshift.gp_baseline import (
    INV_LEAF,
    VAR_BLOCK,
    GpHyper,
    GpModel,
    HyperparameterError,
    _lower_inverse,
    gp_fit,
    gp_predict,
    kernel_matrix,
)

EPS = np.finfo(float).eps


def _k(kind, x, x2, sigma_f_sq, ell) -> float:
    """Covariance between two points: the 1x1 case of kernel_matrix."""
    return float(kernel_matrix(kind, [x], [x2], sigma_f_sq, ell)[0, 0])


def test_kernel_at_identical_points_is_signal_variance():
    for kind in ("rbf", "matern52"):
        assert _k(kind, [0.3, -1.2], [0.3, -1.2], 1.7, 0.5) == pytest.approx(1.7, rel=1e-15)


def test_rbf_unit_distance_value():
    # sigma_f_sq = 1, ell = 1, d = 1: exp(-1/2)
    val = _k("rbf", [0.0], [1.0], 1.0, 1.0)
    assert val == pytest.approx(0.6065306597126334, rel=1e-12)


def test_matern52_unit_distance_value():
    val = _k("matern52", [0.0], [1.0], 1.0, 1.0)
    z = math.sqrt(5.0)
    assert val == pytest.approx((1.0 + z + z * z / 3.0) * math.exp(-z), rel=1e-12)
    assert 0.5 < val < 0.6


def test_kernel_matrix_rejects_unknown_kind():
    with pytest.raises(ValueError):
        kernel_matrix("cubic", [[0.0]], [[1.0]], 1.0, 1.0)


def _reference_kernel(kind, xa, xb, sigma_f_sq, ell):
    """The kernel as plain numpy expressions, one temporary per operation."""
    d2 = np.zeros((len(xa), len(xb)))
    for j in range(xa.shape[1]):
        diff = xa[:, j, None] - xb[None, :, j]
        d2 += diff * diff
    if kind == "rbf":
        return sigma_f_sq * np.exp(-d2 / (2.0 * ell * ell))
    z = (math.sqrt(5.0) / ell) * np.sqrt(d2)
    return sigma_f_sq * (1.0 + z + z * z / 3.0) * np.exp(-z)


@pytest.mark.parametrize("kind", ["rbf", "matern52"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_kernel_matrix_bit_equal_to_reference_expressions(kind, dim, rng):
    xa = rng.normal(size=(37, dim))
    xb = np.vstack([rng.normal(size=(11, dim)), xa[:3]])  # exact zeros in d too
    ref = _reference_kernel(kind, xa, xb, 1.3, 0.7)
    assert np.array_equal(kernel_matrix(kind, xa, xb, 1.3, 0.7), ref)
    assert np.array_equal(kernel_matrix(kind, xa, xb[:1], 1.3, 0.7), ref[:, :1])


def test_hyper_validation():
    with pytest.raises(ValueError):
        gp_fit([[0.0]], [0.0], kernel="linear")
    with pytest.raises(ValueError):
        GpHyper(ell=-0.1)
    with pytest.raises(ValueError):
        GpHyper(sigma_n_sq=0.0)


def test_fit_rejects_empty_and_mismatched():
    with pytest.raises(ValueError):
        gp_fit(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError):
        gp_fit(np.zeros((3, 2)), np.zeros(2))
    with pytest.raises(ValueError):
        gp_fit(np.zeros((3, 2)), np.zeros((3, 1)))


def test_single_point_alpha_closed_form():
    hyper = GpHyper(sigma_f_sq=2.0, ell=0.5, sigma_n_sq=0.3)
    model = gp_fit([[0.4]], [1.5], hyper)
    # alpha = y / (sigma_f_sq + sigma_n_sq)
    assert model.alpha[0] == pytest.approx(1.5 / 2.3, rel=1e-12)
    mu, var = gp_predict(model, np.array([[0.4]]))
    assert mu[0] == pytest.approx(2.0 * 1.5 / 2.3, rel=1e-12)
    assert var[0] == pytest.approx(2.0 * 0.3 / 2.3, rel=1e-10)


def test_duplicated_point_still_factorizable():
    model = gp_fit([[1.0], [1.0]], [0.7, 0.7])  # defaults: sigma_n_sq = 1e-4
    mu, var = gp_predict(model, np.array([[1.0]]))
    assert mu[0] == pytest.approx(1.4 / 2.0001, rel=1e-9)
    assert var[0] >= 0.0


def test_two_point_posterior_against_explicit_inverse():
    hyper = GpHyper(sigma_f_sq=2.0, ell=0.8, sigma_n_sq=0.1)
    x = np.array([[0.0], [1.0]])
    y = np.array([1.0, -2.0])
    model = gp_fit(x, y, hyper)

    k01 = _k("rbf", [0.0], [1.0], 2.0, 0.8)
    a = 2.0 + 0.1
    det = a * a - k01 * k01
    k_inv = np.array([[a, -k01], [-k01, a]]) / det
    xq = np.array([0.3])
    k_star = np.array([_k("rbf", [0.0], xq, 2.0, 0.8), _k("rbf", [1.0], xq, 2.0, 0.8)])
    mu_ref = k_star @ k_inv @ y
    var_ref = 2.0 - k_star @ k_inv @ k_star

    mu, var = gp_predict(model, xq)
    assert mu[0] == pytest.approx(mu_ref, abs=1e-10)
    assert var == pytest.approx(var_ref, abs=1e-10)


@pytest.mark.parametrize("kind", ["rbf", "matern52"])
def test_posterior_matches_dense_solve(kind, rng):
    # Cholesky pipeline vs. a direct dense solve of the same system.
    n = 50
    x = rng.uniform(-2.0, 2.0, size=(n, 2))
    y = np.sin(x[:, 0]) + 0.1 * x[:, 1]
    hyper = GpHyper(sigma_f_sq=1.5, ell=0.6, sigma_n_sq=1e-3)
    model = gp_fit(x, y, hyper, kind)

    k = kernel_matrix(kind, x, x, 1.5, 0.6) + 1e-3 * np.eye(n)
    xq = rng.uniform(-2.0, 2.0, size=(20, 2))
    k_star = kernel_matrix(kind, x, xq, 1.5, 0.6)
    mu_ref = k_star.T @ np.linalg.solve(k, y)
    var_ref = 1.5 - np.sum(k_star * np.linalg.solve(k, k_star), axis=0)

    mu, var = gp_predict(model, xq)
    assert np.max(np.abs(mu - mu_ref)) < 1e-8
    assert np.max(np.abs(var - var_ref)) < 1e-8


def test_near_interpolation_at_small_noise():
    x = np.linspace(-1.0, 1.0, 9)[:, None]
    y = np.sin(3.0 * x[:, 0])
    model = gp_fit(x, y, GpHyper(sigma_f_sq=1.0, ell=0.5, sigma_n_sq=1e-10))
    mu, var = gp_predict(model, x)
    assert np.max(np.abs(mu - y)) < 1e-5
    assert np.all(var < 1e-5)


def test_prior_recovered_far_from_data():
    model = gp_fit([[0.0], [0.2]], [1.0, -1.0], GpHyper(sigma_f_sq=0.8, ell=0.3))
    mu, var = gp_predict(model, np.array([[50.0]]))
    assert abs(mu[0]) < 1e-6
    assert var[0] == pytest.approx(0.8, abs=1e-6)


def test_variance_bounded_by_signal_variance(rng):
    x = rng.normal(size=(20, 2))
    y = rng.normal(size=20)
    model = gp_fit(x, y, GpHyper(sigma_f_sq=2.5, ell=0.4))
    _, var = gp_predict(model, rng.normal(scale=2.0, size=(200, 2)))
    assert np.all(var >= 0.0)
    assert np.all(var <= 2.5 + 1e-12)


def test_unfactorizable_matrix_raises_hyperparameter_error():
    # Near-duplicate points with an enormous signal variance: round-off noise in
    # the Schur complements (~ulp(1e14)) dwarfs the maximum jitter, so the
    # factorization cannot be rescued.
    x = (1e-9 * np.arange(300.0))[:, None]
    y = np.zeros(300)
    hyper = GpHyper(sigma_f_sq=1e14, ell=0.5, sigma_n_sq=1e-15)
    with pytest.raises(HyperparameterError):
        gp_fit(x, y, hyper)


@pytest.mark.parametrize(
    "kind, ell",
    # 2 ell^2 underflows, so a zero distance gives 0/0; (sqrt(5) d/ell)^2 overflows, giving inf * 0
    [("rbf", 1e-170), ("matern52", 1e-160)],
)
def test_non_finite_kernel_matrix_raises_hyperparameter_error(kind, ell, rng):
    x = rng.normal(size=(10, 2))
    with pytest.raises(HyperparameterError, match="not finite"):
        gp_fit(x, np.sin(x[:, 0]), GpHyper(ell=ell), kind)


@pytest.mark.parametrize("kind", ["rbf", "matern52"])
def test_variance_from_inverse_factor_matches_cholesky_solve(kind, rng):
    n = 80
    x = rng.uniform(-2.0, 2.0, size=(n, 2))
    y = np.sin(x[:, 0]) * np.cos(x[:, 1])
    hyper = GpHyper(sigma_f_sq=1.5, ell=0.6, sigma_n_sq=1e-3)
    model = gp_fit(x, y, hyper, kind)

    chol = np.linalg.cholesky(kernel_matrix(kind, x, x, 1.5, 0.6) + 1e-3 * np.eye(n))
    xq = rng.uniform(-3.0, 3.0, size=(40, 2))
    v = np.linalg.solve(chol, kernel_matrix(kind, x, xq, 1.5, 0.6))
    var_ref = np.maximum(1.5 - np.sum(v * v, axis=0), 0.0)

    _, var = gp_predict(model, xq)
    np.testing.assert_allclose(var, var_ref, rtol=1e-8, atol=0)


def test_model_holds_one_square_matrix(rng):
    n = 25
    model = gp_fit(rng.normal(size=(n, 2)), rng.normal(size=n))
    square = [
        f.name
        for f in dataclasses.fields(GpModel)
        if getattr(getattr(model, f.name), "shape", None) == (n, n)
    ]
    assert square == ["chol_inv"]


@pytest.mark.parametrize("n", [1, INV_LEAF - 1, INV_LEAF, INV_LEAF + 1, 2 * INV_LEAF + 1, 600])
def test_lower_inverse_is_triangular_and_inverts(n, rng):
    x = rng.uniform(-2.0, 2.0, size=(n, 2))
    chol = np.linalg.cholesky(kernel_matrix("rbf", x, x, 1.0, 0.5) + 1e-2 * np.eye(n))
    inv = _lower_inverse(chol)
    assert np.all(np.triu(inv, 1) == 0.0)
    # componentwise bound for a triangular inverse: |L X - I| <= n eps |L| |X|
    residual = np.abs(chol @ inv - np.eye(n))
    assert np.all(residual <= n * EPS * (np.abs(chol) @ np.abs(inv)))


def test_fit_keeps_an_exactly_lower_triangular_inverse(rng):
    x = rng.normal(size=(3 * INV_LEAF + 5, 2))
    model = gp_fit(x, rng.normal(size=len(x)))
    assert np.all(np.triu(model.chol_inv, 1) == 0.0)


def test_fit_leaves_no_reference_cycle(rng):
    # a cycle would keep each fit's n x n arrays alive until the cyclic
    # collector runs, so memory would grow with every refit
    x = rng.normal(size=(2 * INV_LEAF + 3, 2))
    gc.collect()
    gc.disable()
    try:
        model = gp_fit(x, rng.normal(size=len(x)))
        del model
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("kind", ["rbf", "matern52"])
def test_blocked_variance_matches_dense_product(kind, rng):
    n = 2 * VAR_BLOCK + 7
    x = rng.uniform(-2.0, 2.0, size=(n, 2))
    hyper = GpHyper(sigma_f_sq=1.5, ell=0.6, sigma_n_sq=1e-3)
    model = gp_fit(x, np.sin(x[:, 0]), hyper, kind)
    xq = rng.uniform(-3.0, 3.0, size=(40, 2))
    v = model.chol_inv @ kernel_matrix(kind, x, xq, 1.5, 0.6)  # the dense (n, m) product
    var_ref = np.maximum(1.5 - np.sum(v * v, axis=0), 0.0)
    _, var = gp_predict(model, xq)
    # the blocks only reorder the sum of n squares, each at most sigma_f_sq
    np.testing.assert_allclose(var, var_ref, rtol=0, atol=n * EPS * 1.5)
