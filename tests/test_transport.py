import tracemalloc

import numpy as np
import pytest

from fisherflow import flow, nets, tasks, transport
from fisherflow.densities import GaussianMixture
from fisherflow.errors import ConvergenceError
from fisherflow.validate import OVERLAP_MIXTURE, linear_residual_map

from helpers import fd_divergence, grid_oracles_reference


def make_policy(state_dim=0, action_dim=2, seed=0):
    field = flow.VelocityField.create(state_dim, action_dim, hidden=(8,), rng=seed)
    return flow.FlowPolicy(field, steps=4)


def make_map(state_dim=0, action_dim=2, seed=0, hidden=(8, 8), cap=1.0):
    return transport.TransportMap.create(
        state_dim, action_dim, make_policy(state_dim, action_dim, seed),
        hidden=hidden, max_displacement=cap, rng=seed)


def constant_residual_map(c, cap=1.0):
    c = np.asarray(c, dtype=np.float64)
    d = c.size
    raw = cap * np.arctanh(c / cap)
    net = nets.DenseNet([d, d], [np.zeros((d, d))], [raw])
    return transport.TransportMap(net, make_policy(0, d), max_displacement=cap)


def test_apply_identity_at_init():
    tmap = make_map()
    a = np.array([[0.7, -1.1]])
    np.testing.assert_array_equal(tmap.action_map(None)(a), a)


def test_apply_constant_residual():
    tmap = constant_residual_map(np.array([0.3, -0.2]))
    for a in (np.array([[0.0, 0.0]]), np.array([[2.0, 1.0]])):
        np.testing.assert_allclose(tmap.action_map(None)(a), a + [0.3, -0.2], rtol=1e-12)


def test_apply_matches_manual_composition():
    tmap = make_map(state_dim=1, seed=3)
    tmap.residual_net.weights[-1][:] = np.random.default_rng(4).normal(
        size=tmap.residual_net.weights[-1].shape) * 0.3
    s, a = np.array([[0.5]]), np.array([[0.2, -0.4]])
    raw = nets.forward(tmap.residual_net, np.concatenate([s, a], axis=1))
    expected = a + 1.0 * np.tanh(raw / 1.0)
    np.testing.assert_allclose(tmap.action_map(s)(a), expected, rtol=1e-12)


def test_divergence_linear_field():
    c, d = 0.07, 3
    tmap = linear_residual_map(c * np.eye(d))
    a = np.array([[0.4, -0.2, 1.0]])
    assert abs(transport.log_det_inverse_approx(tmap, None, a).divergence[0] - c * d) < 1e-9
    assert abs(fd_divergence(tmap, None, a) - c * d) < 1e-6


def test_divergence_rotation_field_is_zero():
    w = np.array([[0.0, 1.0], [-1.0, 0.0]])  # delta = (-a2, a1)
    tmap = linear_residual_map(w, cap=1.0)  # diagonal entries vanish even with the cap
    for a in (np.zeros((1, 2)), np.array([[0.6, -0.3]])):
        assert abs(transport.log_det_inverse_approx(tmap, None, a).divergence[0]) < 1e-12


def test_divergence_methods_agree_on_random_nets():
    rng = np.random.default_rng(5)
    for seed in range(5):
        tmap = make_map(seed=seed)
        tmap.residual_net.weights[-1][:] = rng.normal(size=tmap.residual_net.weights[-1].shape) * 0.5
        a = rng.normal(size=(1, 2))
        vjp = transport.log_det_inverse_approx(tmap, None, a).divergence[0]
        assert abs(vjp - fd_divergence(tmap, None, a)) < 1e-4


def test_displacement_jacobian_runs_one_residual_forward(monkeypatch):
    calls = []
    forward = nets.forward

    def counting_forward(net, x, cache=None):
        calls.append(net)
        return forward(net, x, cache)

    monkeypatch.setattr(nets, "forward", counting_forward)
    tmap = make_map(seed=6)
    transport.log_det_inverse_approx(tmap, None, np.array([[0.3, -0.4], [0.1, 0.2]]))
    assert calls == [tmap.residual_net]


def test_log_det_expansion_known_gap():
    tmap = linear_residual_map(0.01 * np.eye(2))
    res = transport.log_det_inverse_approx(tmap, None, np.array([[0.3, -0.5]]))
    assert abs(res.exact_multiplier[0] - 1.01**-2) < 1e-9
    assert abs(res.approx_multiplier[0] - 0.98) < 1e-9
    assert res.gap[0] < 3e-4
    assert res.in_regime[0]


def test_log_det_constant_residual_is_exact():
    tmap = constant_residual_map(np.array([0.4, 0.1]))
    res = transport.log_det_inverse_approx(tmap, None, np.array([[1.0, 2.0]]))
    assert abs(np.log(res.approx_multiplier[0])) < 1e-10
    assert abs(np.log(res.exact_multiplier[0])) < 1e-10


def test_log_det_flags_regime_violation():
    tmap = linear_residual_map(2.0 * np.eye(2))  # divergence 4 > 1
    res = transport.log_det_inverse_approx(tmap, None, np.zeros((1, 2)))
    assert not res.in_regime[0]
    assert res.approx_multiplier[0] == 1.0 - res.divergence[0] <= 0.0


def test_kl_quadratic_zero_residual():
    mix = GaussianMixture.single([0.0, 0.0], 1.0)
    est = transport.kl_quadratic(lambda a: np.zeros_like(a), mix,
                                 mix.sample(np.random.default_rng(0), 100))
    assert est.value == 0.0


def test_kl_quadratic_rejects_empty_samples():
    mix = GaussianMixture.single([0.0], 1.0)
    with pytest.raises(ValueError):
        transport.kl_quadratic(lambda a: a, mix, np.zeros((0, 1)))


def test_kl_quadratic_gaussian_shift_matches_closed_form():
    # unit Gaussian, constant shift c: E[s s^T] = I so the quadratic form has
    # expectation |c|^2/2, the exact KL of the shifted Gaussian
    mix = GaussianMixture.single([0.0, 0.0], 1.0)
    c = np.array([0.25, -0.15])
    samples = mix.sample(np.random.default_rng(1), 10_000)
    est = transport.kl_quadratic(lambda a: np.broadcast_to(c, a.shape), mix, samples)
    exact = 0.5 * float(c @ c)
    assert abs(est.value - exact) < 3 * est.stderr


GRID_1D = transport.GridSpec((-9.0,), (9.0,), (4001,))


def test_quadrature_oracle_identity_map():
    mix = GaussianMixture.single([0.0], 1.0)
    res = transport.kl_quadrature_oracle(mix, lambda a: a, None, GRID_1D)
    assert abs(res.value) < 1e-6


def test_quadrature_oracle_requires_coverage():
    mix = GaussianMixture.single([0.0], 1.0)
    small = transport.GridSpec((-2.0,), (2.0,), (101,))
    with pytest.raises(ValueError):
        transport.kl_quadrature_oracle(mix, lambda a: a, None, small)


def test_quadrature_oracle_rejects_high_dims():
    mix = GaussianMixture.single([0.0, 0.0, 0.0], 1.0)
    grid = transport.GridSpec((-8.0,) * 3, (8.0,) * 3, (11,) * 3)
    with pytest.raises(ValueError):
        transport.kl_quadrature_oracle(mix, lambda a: a, None, grid)


def test_inversion_diverges_for_expanding_map():
    with pytest.raises(ConvergenceError, match=r"1 of 1 rows still moving, largest last step"):
        transport.invert_map(lambda a: 3.0 * a, np.array([[1.0]]))


def test_inversion_recovers_preimages():
    tmap = constant_residual_map(np.array([0.2, -0.3]))
    targets = np.array([[0.5, 0.5], [-1.0, 2.0]])
    pre = transport.invert_map(tmap.action_map(None), targets)
    np.testing.assert_allclose(pre, targets - np.array([0.2, -0.3]), atol=1e-10)


SEPARATED_MIXTURE = GaussianMixture([0.5, 0.5], [[-2.0], [2.0]], [[0.09], [0.09]])


def test_quadratic_form_agrees_with_quadrature_on_two_mode_mixture():
    # separated two-mode oracle, constant shift 0.05: both sides are close to
    # the within-mode Gaussian value c^2/(2 sigma^2)
    grid = transport.GridSpec((-9.0,), (9.0,), (8001,))
    shift = lambda a: a + 0.05
    kl = transport.kl_quadrature_oracle(SEPARATED_MIXTURE, shift, None, grid).value
    quad = transport.expected_quadratic_penalty(
        SEPARATED_MIXTURE, lambda a: np.full_like(a, 0.05), grid)
    assert abs(quad - kl) / kl < 0.20
    # Monte-Carlo route agrees too
    samples = SEPARATED_MIXTURE.sample(np.random.default_rng(2), 20_000)
    est = transport.kl_quadratic(lambda a: np.full_like(a, 0.05), SEPARATED_MIXTURE, samples)
    assert abs(est.value - kl) / kl < 0.20


def test_curvature_term_cancels_for_constant_shifts():
    # the dropped density-curvature term integrates to zero for constant
    # displacements (boundary flux vanishes)
    grid = transport.GridSpec((-10.0,), (10.0,), (4001,))
    val = transport.curvature_term_diagnostic(
        OVERLAP_MIXTURE, lambda a: np.full_like(a, 0.3), grid)
    assert abs(val) < 1e-8


def test_curvature_term_finite_for_varying_fields():
    grid = transport.GridSpec((-10.0,), (10.0,), (4001,))
    val = transport.curvature_term_diagnostic(OVERLAP_MIXTURE, lambda a: 0.1 * a, grid)
    assert np.isfinite(val)


def test_grid_spec_integrate_and_mass():
    # region_mass carries an O(h) bias at the region boundary, hence the fine grid
    grid = transport.GridSpec((-8.0,), (8.0,), (20001,))
    mix = GaussianMixture.single([0.0], 1.0)
    pts = grid.mesh()
    total = grid.integrate(mix.density(pts))
    assert abs(total - 1.0) < 1e-9
    from scipy.special import erf
    inner = transport.region_mass(mix.density(pts), grid, lambda p: np.abs(p[:, 0]) <= 1.0)
    assert abs(inner - erf(1.0 / np.sqrt(2.0))) < 1e-3


def test_grid_spec_2d_mesh_and_coverage():
    grid = transport.GridSpec((-5.0, -4.0), (5.0, 4.0), (41, 31))
    assert grid.mesh().shape == (41 * 31, 2)
    mix = GaussianMixture.single([0.0, 0.0], 0.5)
    assert grid.covers(mix)
    assert not grid.covers(GaussianMixture.single([0.0, 0.0], 2.0))


STANDARD_1D = GaussianMixture.single([0.0], 1.0)
# every function that takes a grid, called on a 1-D grid over STANDARD_1D
GRID_FUNCTIONS = {
    "kl_quadrature_oracle": lambda grid: transport.kl_quadrature_oracle(
        STANDARD_1D, lambda a: a + 0.3, None, grid).value,
    "expected_quadratic_penalty": lambda grid: transport.expected_quadratic_penalty(
        STANDARD_1D, lambda a: np.full_like(a, 0.3), grid),
    "curvature_term_diagnostic": lambda grid: transport.curvature_term_diagnostic(
        STANDARD_1D, lambda a: 0.1 * a, grid),
    "pushforward_region_mass": lambda grid: transport.pushforward_region_mass(
        STANDARD_1D, lambda a: a + 0.3, grid, lambda p: p[:, 0] > 0.0),
    "region_mass": lambda grid: transport.region_mass(
        STANDARD_1D.density(grid.mesh()), grid, lambda p: p[:, 0] > 0.0),
    "integrate": lambda grid: grid.integrate(STANDARD_1D.density(grid.mesh())),
}


@pytest.mark.parametrize("name", sorted(GRID_FUNCTIONS))
@pytest.mark.parametrize("lo, hi", [(9.0, -9.0), (1.0, 1.0), (np.nan, 9.0), (-9.0, np.nan),
                                    (-np.inf, 9.0), (-9.0, np.inf)],
                         ids=["reversed", "equal", "nan_lo", "nan_hi", "inf_lo", "inf_hi"])
def test_grid_functions_refuse_bounds_that_are_not_finite_lo_below_hi(name, lo, hi):
    # integrated over a reversed grid, the trapezoidal rule would return the negated value
    fn = GRID_FUNCTIONS[name]
    assert np.isfinite(fn(transport.GridSpec((-9.0,), (9.0,), (4001,))))
    with pytest.raises(ValueError, match="finite lo < hi"):
        fn(transport.GridSpec((lo,), (hi,), (4001,)))
    with pytest.raises(ValueError, match="finite lo < hi"):
        transport.GridSpec((-9.0, lo), (9.0, hi), (41, 41))


def test_pushforward_density_2d_shift():
    mix = GaussianMixture.single([0.0, 0.0], 1.0)
    c = np.array([0.4, -0.2])
    pts = np.random.default_rng(6).normal(size=(50, 2))
    vals = transport.pushforward_density(mix, lambda a: a + c, pts)
    np.testing.assert_allclose(vals, mix.density(pts - c), rtol=1e-6)


def test_residual_backward_matches_finite_differences():
    from helpers import fd_gradient, rel_error

    tmap = make_map(seed=9)
    rng = np.random.default_rng(10)
    tmap.residual_net.weights[-1][:] = rng.normal(size=tmap.residual_net.weights[-1].shape) * 0.4
    a = rng.normal(size=(1, 2))
    upstream = rng.normal(size=(1, 2))
    saved = []
    tmap.residual(None, a, saved)
    _, d_action = tmap.residual_backward(upstream, saved)
    fd = fd_gradient(lambda v: float(np.sum(upstream * tmap.residual(None, v))), a, step=1e-5)
    assert rel_error(d_action, fd) < 1e-4


@pytest.mark.parametrize("rows", [1, 3])
def test_residual_backward_refuses_an_upstream_of_another_row_count(rows):
    # one row would broadcast against the pass's two without the check
    tmap, saved = make_map(), []
    tmap.residual(None, np.zeros((2, 2)), saved)
    with pytest.raises(ValueError, match=rf"upstream has shape \({rows}, 2\), the pass \(2, 2\)"):
        tmap.residual_backward(np.ones((rows, 2)), saved)


BIMODAL_TASK = tasks.make_task("bimodal_asymmetric")
BIMODAL_MIXTURE = BIMODAL_TASK.density()


def test_pushforward_region_mass_evaluates_the_mask_at_mapped_points():
    grid = transport.GridSpec((-6.0, -6.0), (6.0, 6.0), (61, 61))
    box = lambda p: np.abs(p[:, 0]) <= 0.5
    identity = transport.pushforward_region_mass(BIMODAL_MIXTURE, lambda a: a, grid, box)
    shifted = transport.pushforward_region_mass(BIMODAL_MIXTURE, lambda a: a + 3.0, grid, box)
    pts = grid.mesh()
    assert shifted == transport.region_mass(BIMODAL_MIXTURE.density(pts), grid,
                                            lambda p: box(p + 3.0))
    assert shifted > 100 * identity
    with pytest.raises(TypeError):
        transport.pushforward_region_mass(BIMODAL_MIXTURE, lambda a: a + 3.0, grid, box(pts))


# 111 x 111 = 12321 points: three full blocks of GRID_BLOCK_ROWS and a ragged one
BLOCKED_GRID = transport.GridSpec((-4.5, -4.5), (4.5, 4.5), (111, 111))
ABLATION_GRID = transport.GridSpec((-4.5, -4.5), (4.5, 4.5), (181, 181))


def _blocked_grid_oracles(density, delta_fn, grid, mask):
    map_fn = lambda a: a + delta_fn(a)
    return {"kl": transport.kl_quadrature_oracle(density, map_fn, None, grid).value,
            "penalty": transport.expected_quadratic_penalty(density, delta_fn, grid),
            "curvature": transport.curvature_term_diagnostic(density, delta_fn, grid),
            "region_mass": transport.pushforward_region_mass(density, map_fn, grid, mask)}


@pytest.mark.parametrize("delta_fn", [lambda a: np.zeros_like(a) + [0.3, -0.2],
                                      lambda a: 0.2 * np.sin(a)], ids=["shift", "sine"])
def test_blocked_grid_oracles_match_whole_array_reference_bit_for_bit(delta_fn):
    mask = BIMODAL_TASK.corridor_mask
    blocked = _blocked_grid_oracles(BIMODAL_MIXTURE, delta_fn, BLOCKED_GRID, mask)
    assert blocked == grid_oracles_reference(BIMODAL_MIXTURE, delta_fn, BLOCKED_GRID, mask)
    assert blocked["region_mass"] > 0.0 and blocked["kl"] > 0.0


def test_blocked_grid_oracles_match_whole_array_reference_for_a_residual_net():
    # BLAS picks its kernel for the thin output layer by row count, so a net's
    # last bits depend on the block size; finite differences magnify them
    tmap = make_map(seed=11, hidden=(16, 16))
    tmap.residual_net.weights[-1][:] = np.random.default_rng(12).normal(
        size=tmap.residual_net.weights[-1].shape) * 0.05
    delta_fn = tmap.delta_fn(None)
    mask = BIMODAL_TASK.corridor_mask
    blocked = _blocked_grid_oracles(BIMODAL_MIXTURE, delta_fn, BLOCKED_GRID, mask)
    reference = grid_oracles_reference(BIMODAL_MIXTURE, delta_fn, BLOCKED_GRID, mask)
    for name, value in reference.items():
        assert value != 0.0
        assert abs(blocked[name] - value) <= 1e-11 * abs(value), name


@pytest.mark.parametrize("oracle", [transport.curvature_term_diagnostic,
                                    transport.expected_quadratic_penalty])
def test_grid_oracles_run_one_component_pass(monkeypatch, oracle):
    calls = []
    component_log_pdf = GaussianMixture._component_log_pdf

    def counting(self, x):
        calls.append(x.shape[0])
        return component_log_pdf(self, x)

    monkeypatch.setattr(GaussianMixture, "_component_log_pdf", counting)
    oracle(BIMODAL_MIXTURE, lambda a: 0.1 * a, BLOCKED_GRID)
    # one pass per block of the grid walk, the last one ragged
    n, block = BLOCKED_GRID.mesh().shape[0], transport.GRID_BLOCK_ROWS
    assert len(calls) == -(-n // block) > 2
    assert sum(calls) == n and max(calls) <= block and calls[-1] < block


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_grid_oracles_hold_one_block_of_activations():
    # whole-mesh evaluation of these two calls traced 34.1 MB and 11.6 MB; blocked, 5.0 and 2.2 MB
    wide = make_map(seed=13, hidden=(64, 64))
    narrow = make_map(seed=14, hidden=(16, 16))
    for tmap in (wide, narrow):
        tmap.residual_net.weights[-1][:] = np.random.default_rng(15).normal(
            size=tmap.residual_net.weights[-1].shape) * 0.02
    mass = _traced_peak(lambda: transport.pushforward_region_mass(
        BIMODAL_MIXTURE, wide.action_map(None), ABLATION_GRID, BIMODAL_TASK.corridor_mask))
    kl = _traced_peak(lambda: transport.kl_quadrature_oracle(
        BIMODAL_MIXTURE, narrow, None, ABLATION_GRID))
    assert mass < 8e6
    assert kl < 4e6


def test_log_density_hessian_holds_no_per_component_tensor():
    mix = tasks.make_task("crescent").density()
    pts = ABLATION_GRID.mesh()
    n, k, d = pts.shape[0], mix.n_components, mix.dim
    peak = _traced_peak(lambda: mix.log_density_hessian(pts))
    # below the size of two (N, k, d, d) float64 tensors (21.0 MB at k = 10)
    assert peak < 2 * n * k * d * d * 8
