import numpy as np
import pytest

from fisherflow.densities import GaussianMixture, OracleVelocityField

from helpers import fd_gradient, rel_error


def asym_mixture():
    return GaussianMixture([0.4, 0.6], [[-1.0], [1.2]], [[0.55**2], [0.7**2]])


def mixture_2d():
    return GaussianMixture([0.3, 0.7], [[-1.0, 0.5], [1.5, -0.5]], [[0.4, 0.8], [0.6, 0.3]])


def test_weights_must_be_positive_and_normalized():
    with pytest.raises(ValueError):
        GaussianMixture([0.5, 0.4], [[0.0], [1.0]], [[1.0], [1.0]])
    with pytest.raises(ValueError):
        GaussianMixture([1.2, -0.2], [[0.0], [1.0]], [[1.0], [1.0]])
    with pytest.raises(ValueError):
        GaussianMixture([1.0], [[0.0]], [[0.0]])


def test_density_integrates_to_one():
    mix = mixture_2d()
    xs = np.linspace(-6, 7, 401)
    ys = np.linspace(-6, 6, 401)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    dens = mix.density(pts).reshape(401, 401)
    total = np.trapezoid(np.trapezoid(dens, ys, axis=1), xs)
    assert abs(total - 1.0) < 1e-6


def test_score_matches_finite_differences():
    rng = np.random.default_rng(7)
    mix = mixture_2d()
    for _ in range(10):
        x = rng.uniform(-2.5, 2.5, size=(1, 2))
        fd = fd_gradient(lambda v: mix.log_density(v)[0], x, step=1e-5)
        assert rel_error(mix.score(x), fd) < 1e-4


def test_score_survives_deep_tails():
    # log-sum-exp path: no overflow/underflow even 40 sigma out
    mix = asym_mixture()
    s = mix.score(np.array([[25.0]]))
    assert np.isfinite(s).all()


def test_hessian_matches_finite_differences():
    mix = mixture_2d()
    rng = np.random.default_rng(8)
    for _ in range(5):
        x = rng.uniform(-2, 2, size=(1, 2))
        h = mix.log_density_hessian(x)[0]
        fd = np.stack([fd_gradient(lambda v: mix.score(v)[0, i], x, step=1e-5)[0]
                       for i in range(2)])
        assert rel_error(h, fd) < 1e-4
        np.testing.assert_allclose(h, h.T, atol=1e-12)


def test_sampling_component_frequencies():
    mix = GaussianMixture([0.2, 0.8], [[-5.0], [5.0]], [[0.1], [0.1]])
    draws = mix.sample(np.random.default_rng(0), 20000)
    frac_right = float(np.mean(draws[:, 0] > 0))
    se = np.sqrt(0.2 * 0.8 / 20000)
    assert abs(frac_right - 0.8) < 3 * se


def test_sampling_mean_clt_bound():
    sigma = 0.7
    mix = GaussianMixture.single([1.5, -2.0], sigma)
    n = 4000
    draws = mix.sample(np.random.default_rng(1), n)
    assert np.all(np.abs(draws.mean(axis=0) - [1.5, -2.0]) < 4 * sigma / np.sqrt(n))


def test_sampling_deterministic_under_seed():
    mix = asym_mixture()
    a = mix.sample(np.random.default_rng(42), 100)
    b = mix.sample(np.random.default_rng(42), 100)
    np.testing.assert_array_equal(a, b)


def test_marginal_matches_monte_carlo():
    mix = asym_mixture()
    t = 0.7
    rng = np.random.default_rng(3)
    n = 100_000
    x1 = mix.sample(rng, n)
    x0 = rng.standard_normal(x1.shape)
    xt = t * x1 + (1 - t) * x0
    marg = mix.marginal(t)
    mean_an = float(np.sum(marg.weights[:, None] * marg.means, axis=0)[0])
    var_an = float(np.sum(marg.weights[:, None] * (marg.variances + marg.means**2), axis=0)[0]
                   - mean_an**2)
    assert abs(xt.mean() - mean_an) < 0.02
    assert abs(xt.var() - var_an) < 0.05


def test_velocity_is_conditional_expectation():
    # E[x1 - x0 | x_t in a small window] estimated by Monte Carlo
    mix = asym_mixture()
    t, probe = 0.6, 0.4
    rng = np.random.default_rng(4)
    n = 2_000_000
    x1 = mix.sample(rng, n)
    x0 = rng.standard_normal(x1.shape)
    xt = t * x1 + (1 - t) * x0
    mask = np.abs(xt[:, 0] - probe) < 0.01
    mc = float((x1[mask, 0] - x0[mask, 0]).mean())
    an = float(mix.velocity(t, np.array([[probe]]))[0, 0])
    assert abs(mc - an) < 0.03


def test_velocity_at_time_zero_is_mean_minus_point():
    mix = mixture_2d()
    mixture_mean = np.sum(mix.weights[:, None] * mix.means, axis=0)
    a = np.array([[0.3, -0.8]])
    np.testing.assert_allclose(mix.velocity(0.0, a), mixture_mean - a, rtol=1e-12)


def test_velocity_rejects_t_one():
    with pytest.raises(ValueError):
        asym_mixture().velocity(1.0, np.array([[0.0]]))


def test_standard_gaussian_velocity_antisymmetric_in_time():
    mix = GaussianMixture.single([0.0], 1.0)
    a = np.array([[0.7]])
    for t in (0.1, 0.3, 0.45):
        np.testing.assert_allclose(mix.velocity(t, a), -mix.velocity(1.0 - t, a), atol=1e-12)


def test_oracle_field_adapter_ignores_state():
    mix = mixture_2d()
    field = OracleVelocityField(mix)
    a = np.array([[0.5, 0.5]])
    np.testing.assert_array_equal(field(0.4, np.zeros(3), a), mix.velocity(0.4, a))
