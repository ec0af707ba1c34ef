import numpy as np
import pytest

from fisherflow import score
from fisherflow.densities import GaussianMixture, OracleVelocityField
from fisherflow.errors import NumericError
from fisherflow.validate import EPS_LADDER, RATE_MIXTURE, grad_curvature_ratio, loglog_slope

from helpers import dense_metric_reference


def test_perturbed_score_gaussian_oracle_exact():
    # N(0,1) target, t = 0.5: marginal is N(0, 0.5), score at a=1 is exactly -2
    field = OracleVelocityField(GaussianMixture.single([0.0], 1.0))
    est = score.perturbed_score(field, None, np.array([[1.0]]), t_eps=0.5)
    assert abs(est[0, 0] + 2.0) < 1e-12


def test_perturbed_score_zero_when_tv_equals_a():
    class Stub:
        def __call__(self, t, s, a):
            return np.asarray(a) / t

    est = score.perturbed_score(Stub(), None, np.array([0.3, -0.7]), t_eps=0.8)
    np.testing.assert_allclose(est, 0.0, atol=1e-15)


def test_perturbed_score_rejects_degenerate_time():
    field = OracleVelocityField(GaussianMixture.single([0.0], 1.0))
    for bad in (1.0, 1.5, 0.0, -0.2):
        with pytest.raises(ValueError, match="t_eps"):
            score.perturbed_score(field, None, np.array([[0.0]]), t_eps=bad)


def metric_matrix(s, normalize=False, damping=0.0):
    """The d x d metric of score s as the penalty kernel applies it: its gradients M e_i."""
    d = s.shape[0]
    _, columns = score.fisher_penalty_batch(np.tile(s, (d, 1)), np.eye(d), normalize, damping)
    return columns.T


def test_fisher_matrix_outer_product():
    np.testing.assert_array_equal(metric_matrix(np.array([1.0, 0.0])), [[1.0, 0.0], [0.0, 0.0]])
    assert score.rank1_scale(np.array([1.0]), 2, normalize=False)[0] == 1.0


def test_fisher_matrix_normalize_trace_d():
    m = metric_matrix(np.array([1.0, 1.0]), normalize=True)
    np.testing.assert_allclose(m, [[1.0, 1.0], [1.0, 1.0]])
    assert abs(np.trace(m) - 2.0) < 1e-12


def test_fisher_matrix_normalize_then_damp():
    m = metric_matrix(np.array([2.0, 0.0]), normalize=True, damping=0.1)
    np.testing.assert_allclose(m, [[2.1, 0.0], [0.0, 0.1]])


def test_fisher_matrix_degenerate_zero_score():
    assert score.rank1_scale(np.zeros(1), 3, normalize=True)[0] == 0.0  # the rank-1 term is dropped
    np.testing.assert_allclose(metric_matrix(np.zeros(3), normalize=True, damping=0.05),
                               0.05 * np.eye(3))


def test_fisher_matrix_rejects_negative_damping():
    with pytest.raises(ValueError, match="damping must be >= 0"):
        score.damped_inverse_apply(np.ones((1, 2)), np.ones((1, 2)), damping=-1.0)


def test_fisher_penalty_batch_rejects_negative_damping():
    with pytest.raises(ValueError, match="damping must be >= 0"):
        score.fisher_penalty_batch(np.ones((3, 2)), np.ones((3, 2)), damping=-1.0)


@pytest.mark.parametrize("scores, other", [
    (np.ones(5), np.ones(5)),  # one (d,) point
    (np.ones((2, 2, 2)), np.ones((2, 2, 2))),
    (np.ones((3, 2)), np.ones((3, 1))),
    (np.ones((3, 2)), np.ones((2, 2))),
])
@pytest.mark.parametrize("kernel", [score.fisher_penalty_batch, score.damped_inverse_apply])
def test_metric_kernels_take_matching_batches_only(kernel, scores, other):
    with pytest.raises(ValueError, match=r"matching \(B, d\) batches"):
        kernel(scores, other, normalize=False)


def test_fisher_matrix_always_symmetric_psd():
    rng = np.random.default_rng(0)
    for _ in range(50):
        d = rng.integers(1, 5)
        s = rng.normal(size=d) * rng.uniform(0.1, 10)
        m = metric_matrix(s, normalize=bool(rng.integers(2)), damping=float(rng.uniform(0, 0.5)))
        np.testing.assert_allclose(m, m.T, atol=1e-12)
        eig = np.linalg.eigvalsh(m)
        assert eig.min() >= -1e-10
        # undamped, unnormalized outer product has rank <= 1
        assert np.linalg.matrix_rank(metric_matrix(s), tol=1e-10) <= 1


def test_trace_normalization_scale_invariance():
    rng = np.random.default_rng(1)
    for _ in range(20):
        s = rng.normal(size=3)
        for c in (0.01, 3.0, 250.0):
            a = metric_matrix(s, normalize=True)
            b = metric_matrix(c * s, normalize=True)
            np.testing.assert_allclose(a, b, atol=1e-10)


def quadratic_penalty(s, delta, normalize=False, damping=0.0):
    return score.fisher_penalty_batch(s[None], delta[None], normalize, damping)[0][0]


def test_quadratic_penalty_values():
    # the isotropic metric: a zero score at unit damping
    assert quadratic_penalty(np.zeros(2), np.zeros(2), damping=1.0) == 0.0
    assert abs(quadratic_penalty(np.zeros(2), np.array([3.0, 4.0]), damping=1.0) - 12.5) < 1e-12
    perp = np.array([2.0, -1.0])  # orthogonal to the score: rank-1 null space
    assert abs(quadratic_penalty(np.array([1.0, 2.0]), perp)) < 1e-12
    rng = np.random.default_rng(2)
    for _ in range(20):
        assert quadratic_penalty(rng.normal(size=3), rng.normal(size=3), damping=0.1) >= 0.0


def test_damped_inverse_apply_known_solution():
    s = np.array([[1.0, 0.0]])
    x = score.damped_inverse_apply(s, s, damping=1.0)  # s s^T + I with |s|^2 = 1
    np.testing.assert_allclose(x, s / 2.0, rtol=1e-12)


def test_damped_inverse_apply_identity():
    g = np.array([[0.3, -0.2, 1.1]])
    np.testing.assert_allclose(score.damped_inverse_apply(np.zeros((1, 3)), g, damping=1.0), g,
                               rtol=1e-12)


def test_damped_inverse_apply_methods_agree():
    rng = np.random.default_rng(3)
    for _ in range(25):
        d = int(rng.integers(1, 5))
        s = rng.normal(size=d)
        normalize, damping = bool(rng.integers(2)), float(rng.uniform(1e-3, 1.0))
        m = metric_matrix(s, normalize, damping)
        g = rng.normal(size=d)
        sm = score.damped_inverse_apply(s[None], g[None], normalize, damping)[0]
        direct = np.linalg.solve(m, g)
        np.testing.assert_allclose(sm, direct, rtol=1e-8, atol=1e-12)
        assert np.linalg.norm(m @ sm - g) < 1e-8 * np.linalg.norm(g)


def test_damped_inverse_apply_singularities():
    s = np.array([[1.0, 0.0]])  # rank-1, no damping
    with pytest.raises(NumericError, match="outside the score span"):
        score.damped_inverse_apply(s, np.array([[0.0, 1.0]]))
    # inside the span the minimum-norm solution exists
    x = score.damped_inverse_apply(s, np.array([[2.0, 0.0]]))
    np.testing.assert_allclose(x, [[2.0, 0.0]], rtol=1e-12)
    # M = 0: a score too small to trace-normalize and no damping
    for zero in (np.zeros((1, 2)), np.full((1, 2), 1e-13)):
        with pytest.raises(NumericError, match="singular"):
            score.damped_inverse_apply(zero, np.array([[1.0, 2.0]]), normalize=True)
    # one singular row fails the whole batch
    with pytest.raises(NumericError, match="singular"):
        score.damped_inverse_apply(np.array([[1.0, 0.0], [0.0, 0.0]]), np.ones((2, 2)),
                                   normalize=True)


def test_optimal_epsilon_values():
    res = score.optimal_epsilon(1.0, 1.0, 2.0)
    assert abs(res.epsilon - 1.0) < 1e-12
    # FP32-scale machine precision lands at eps* of order 1e-1
    res = score.optimal_epsilon(1.0, 1.0, 1e-6)
    assert abs(res.epsilon - (5e-7) ** (1.0 / 6.0)) < 1e-12
    assert 0.03 < res.epsilon < 0.3


def test_optimal_epsilon_is_argmin():
    res = score.optimal_epsilon(2.5, 0.3, 1e-6)
    for factor in (0.5, 2.0):
        worse = score.perturbation_total_error(2.5, 0.3, 1e-6, factor * res.epsilon)
        assert worse > res.total_error


def test_optimal_epsilon_rejects_nonpositive():
    for args in [(0.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, 0.0)]:
        with pytest.raises(ValueError):
            score.optimal_epsilon(*args)


def test_fisher_penalty_batch_matches_per_sample_ops():
    rng = np.random.default_rng(4)
    scores = rng.normal(size=(16, 2))
    scores[3] = 0.0  # degenerate row exercises the fallback
    deltas = rng.normal(size=(16, 2))
    for normalize in (False, True):
        for damping in (0.0, 0.05):
            values, grads = score.fisher_penalty_batch(scores, deltas, normalize, damping)
            for i in range(16):
                m = dense_metric_reference(scores[i], normalize, damping)
                assert abs(values[i] - 0.5 * float(deltas[i] @ m @ deltas[i])) < 1e-12
                np.testing.assert_allclose(grads[i], m @ deltas[i], atol=1e-12)


def test_perturbed_score_from_trained_field_tracks_exact_marginal():
    # N(0, I_2) target: after training, scores on the |a| <= 2 grid stay close
    # to the exact time-0.8 marginal score (the 1/(1-t) factor amplifies field
    # error 4x, hence the generous data and step budget)
    from fisherflow import flow
    from fisherflow.densities import GaussianMixture

    rng = np.random.default_rng(20)
    mix = GaussianMixture.single([0.0, 0.0], 1.0)
    actions = mix.sample(rng, 65536)
    field = flow.VelocityField.create(0, 2, hidden=(64, 64), rng=rng)
    policy = flow.FlowPolicy(field, steps=10)
    flow.train_flow(policy, None, actions,
                    flow.FlowTrainConfig(steps=12000, learning_rate=2e-3), rng)
    g = np.linspace(-2, 2, 21)
    gx, gy = np.meshgrid(g, g)
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    pts = pts[np.linalg.norm(pts, axis=1) <= 2.0]
    est = score.batched_scores(field, None, pts, 0.8)
    exact = mix.marginal(0.8).score(pts)
    mean_err = float(np.linalg.norm(est - exact, axis=1).mean())
    assert mean_err < 0.15


# --- perturbation-rate studies on exact mixture marginals -------------------

def marginal_score_error(mix, a, eps):
    a = np.array([[a]])
    return float(np.linalg.norm(mix.marginal(1.0 - eps).score(a) - mix.score(a)))


def test_raw_score_error_is_first_order_at_generic_points():
    # the time-(1-eps) marginal also contracts the means by (1-eps); at generic
    # points that contributes a first-order term, so the raw error decays ~eps
    for a in (0.5, 1.5):
        errs = [marginal_score_error(RATE_MIXTURE, a, e) for e in EPS_LADDER]
        assert 0.6 < loglog_slope(EPS_LADDER, errs) < 1.4


def test_smoothing_error_constant_matches_prediction():
    # rescaled comparison (1-eps) s_t((1-eps) a) vs s_1(a) is a pure Gaussian
    # smoothing of width eps/(1-eps): error -> (width^2 / 2) |d/da (lap pi/pi)|
    for a in (0.5, 1.5, -0.4):
        c = abs(grad_curvature_ratio(RATE_MIXTURE, a))
        for eps in (0.05, 0.025):
            t = 1.0 - eps
            st = RATE_MIXTURE.marginal(t).score(np.array([[t * a]]))
            err = abs(float(t * st[0, 0]) - float(RATE_MIXTURE.score(np.array([[a]]))[0, 0]))
            width = eps / t
            predicted = 0.5 * width**2 * c
            assert abs(err / predicted - 1.0) < 0.05
