"""Acceptance suite: every exit criterion at its stated tolerance.

Each criterion is one test that prints a [PASS] line with the measured
numbers (visible with `pytest -s` or on failure). The heavy directional
criteria (7-9) train real runs and dominate the wall time; run
`pytest tests/test_acceptance.py -v -s` to watch them.
"""

from dataclasses import astuple, replace

import numpy as np
import pytest

from fisherflow import flow, score, tasks, training, transport, validate

from helpers import iterate_quadratic_refine


def report(line):
    print(f"\n[PASS] {line}")


def check_suite(label, suite):
    """Assert on a `validate` suite, the one source of criteria 1-4, 6 and eps* of 9."""
    outcome = suite()
    assert outcome.passed, outcome.detail
    report(f"{label}: {outcome.detail}")


# -- shared fixtures ----------------------------------------------------------

BIMODAL = tasks.make_task("bimodal_asymmetric")


@pytest.fixture(scope="module")
def bimodal_dataset():
    return tasks.make_dataset(BIMODAL, 8192, seed=100)


def bimodal_config(seed, metric="fisher", t_eps=0.8, **kw):
    base = dict(seed=seed, metric=metric, t_eps=t_eps, steps=2500, flow_steps=1500,
                epsilon=0.1, eta=0.2, lambda_init=10.0, log_interval=200)
    base.update(kw)
    return training.RefineConfig(**base)


class BimodalRuns:
    """Runs on the bimodal dataset, each trained once per module, on shared base streams.

    Criteria 7-9 ask for some runs more than once: criterion 7's constrained
    run is criterion 8's seed-0 fisher arm, and criterion 9's t_eps = 0.8 arms
    are its fisher arms of seeds 0 and 1. A run is keyed by its config with
    every row logged, since log_interval changes only the log, and replays the
    stream recorded for its seed's stream fields (`training.STREAM_FIELDS`).
    """

    def __init__(self, dataset):
        self.dataset, self.streams, self.runs = dataset, {}, {}

    def __call__(self, config):
        config = replace(config, log_interval=1)
        run = astuple(config)
        if run not in self.runs:
            stream = tuple(getattr(config, name) for name in training.STREAM_FIELDS)
            if stream not in self.streams:
                self.streams[stream] = training.BaseStream.record(config, self.dataset, BIMODAL)
            self.runs[run] = training.run_refinement(config, self.dataset, BIMODAL,
                                                     base=self.streams[stream])
        return self.runs[run]


@pytest.fixture(scope="module")
def bimodal_runs(bimodal_dataset):
    return BimodalRuns(bimodal_dataset)


# -- criterion 1: score-identity exactness ------------------------------------

def test_criterion_1_score_identity_exactness():
    check_suite("criterion 1 (score identity)", validate.suite_score_identity)


# -- criterion 2: second-order perturbation rate ------------------------------

def test_criterion_2_second_order_perturbation_rate():
    check_suite("criterion 2 (perturbation rate)", validate.suite_perturbation_rate)


# -- criterion 3: KL quadratic form vs quadrature oracle ----------------------

def test_criterion_3_kl_quadratic_vs_quadrature():
    check_suite("criterion 3 (KL quadratic)", validate.suite_kl_quadrature)


# -- criterion 4: determinant expansion ----------------------------------------

def test_criterion_4_determinant_expansion():
    check_suite("criterion 4 (determinant expansion)", validate.suite_determinant_expansion)


# -- criterion 5: closed-form natural gradient agreement ----------------------

def test_criterion_5_closed_form_matches_iterated_updates():
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 5))
        s = rng.normal(size=d) * rng.uniform(0.2, 3.0)
        normalize, damping = bool(rng.integers(2)), float(rng.uniform(0.05, 1.0))
        g = rng.normal(size=d)
        lam = float(rng.uniform(0.2, 5.0))
        closed = score.damped_inverse_apply(s[None], g[None], normalize, damping)[0] / lam
        iterated = iterate_quadratic_refine(s, g, lam, normalize, damping)
        worst = max(worst, float(np.max(np.abs(closed - iterated))))
    assert worst < 1e-3
    report(f"criterion 5 (closed-form refinement): max coordinate gap {worst:.2e} "
           f"over 20 random surrogates")


# -- criterion 6: optimality-gap identity --------------------------------------

def test_criterion_6_optimality_gap_identity():
    check_suite("criterion 6 (optimality gap)", validate.suite_optimality_gap)


# -- criterion 7: dual controller ----------------------------------------------

def test_criterion_7_dual_controller_tracks_constraint(bimodal_dataset, bimodal_runs):
    # first establish that the unconstrained optimum violates epsilon
    free = training.run_refinement(
        bimodal_config(seed=0, lambda_init=0.0, eta=0.0, steps=800, flow_steps=800,
                       log_interval=100),
        bimodal_dataset, BIMODAL)
    assert free.final["final_constraint"] > 0.1

    cfg = bimodal_config(seed=0, log_interval=1)
    res = bimodal_runs(cfg)
    lambdas = np.array([row["lambda"] for row in res.log])
    constraints = np.array([row["constraint"] for row in res.log])
    assert np.all(lambdas >= 0.0)
    tail = constraints[int(0.8 * len(constraints)):]
    running_mean = float(tail.mean())
    assert 0.5 * cfg.epsilon <= running_mean <= 2.0 * cfg.epsilon
    report(f"criterion 7 (dual controller): unconstrained constraint "
           f"{free.final['final_constraint']:.3f} > eps, tracked tail mean "
           f"{running_mean:.4f} in [{0.5*cfg.epsilon}, {2*cfg.epsilon}], min lambda "
           f"{lambdas.min():.3f}")


# -- criterion 8: directional ablation -----------------------------------------

ABLATION_GRID = transport.GridSpec((-4.5, -4.5), (4.5, 4.5), (181, 181))


def corridor_mass_of(tmap):
    mix = BIMODAL.density()
    return transport.pushforward_region_mass(
        mix, tmap.action_map(None), ABLATION_GRID, BIMODAL.corridor_mask)


def test_criterion_8_fisher_beats_isotropic_and_preserves_support(bimodal_runs):
    wins = 0
    details = []
    behavioral_mass = transport.region_mass(
        BIMODAL.density().density(ABLATION_GRID.mesh()), ABLATION_GRID, BIMODAL.corridor_mask)
    for seed in range(5):
        # both arms replay one base stream: same pretrained flow and base actions per step
        rf = bimodal_runs(bimodal_config(seed, "fisher"))
        ri = bimodal_runs(bimodal_config(seed, "isotropic"))
        vf = rf.final["mean_refined_value"]
        vi = ri.final["mean_refined_value"]
        wins += vf >= vi
        fisher_mass = corridor_mass_of(rf.transport_map)
        assert fisher_mass < 2.0 * behavioral_mass
        details.append(f"seed {seed}: {vf:.4f} vs {vi:.4f}, corridor {fisher_mass:.2e}")
    assert wins >= 4
    report("criterion 8 (directional ablation): fisher >= isotropic on "
           f"{wins}/5 seeds; corridor mass < 2x behavioral ({behavioral_mass:.2e}); "
           + "; ".join(details))


# -- criterion 9: perturbed-time sweep shape ------------------------------------

def test_criterion_9_perturbed_time_sweep_shape(bimodal_runs):
    seeds = (0, 1)
    t_values = (0.70, 0.75, 0.80, 0.95)
    vals = {t_eps: [] for t_eps in t_values}
    for seed in seeds:
        # every t_eps of one seed replays the same base stream
        for t_eps in t_values:
            vals[t_eps].append(bimodal_runs(bimodal_config(seed, t_eps=t_eps))
                               .final["mean_refined_value"])
    means = {t_eps: float(np.mean(v)) for t_eps, v in vals.items()}
    low_band = np.mean([means[0.70], means[0.75], means[0.80]])
    assert low_band >= means[0.95]
    assert all(means[t] >= means[0.95] for t in (0.70, 0.75, 0.80))

    report("criterion 9 (perturbed-time sweep): "
           + ", ".join(f"t_eps={t}: {v:.4f}" for t, v in sorted(means.items())))
    check_suite("criterion 9 (optimal perturbation)", validate.suite_optimal_epsilon)


# -- criterion 10: gradient hygiene ---------------------------------------------

def test_criterion_10_gradient_hygiene(bimodal_dataset):
    from fisherflow import nets
    from helpers import fd_array_gradient, fd_gradient, rel_error, vjp

    rng = np.random.default_rng(10)
    worst_net = 0.0
    for sizes in ([3, 5, 2], [2, 6, 6, 1]):
        net = nets.DenseNet.create(sizes, rng=rng)
        x = rng.standard_normal((1, sizes[0]))
        up = rng.standard_normal((1, sizes[-1]))
        tape = vjp(net, x, up)
        scalar = lambda xv: float(np.sum(up * nets.forward(net, xv)))
        worst_net = max(worst_net, rel_error(tape.d_input, fd_gradient(scalar, x, 1e-4)))
        for k in range(len(net.weights)):
            fd = fd_array_gradient(lambda: scalar(x), net.weights[k], 1e-4)
            worst_net = max(worst_net, rel_error(tape.d_weights[k], fd))
    assert worst_net < 1e-3

    mix = BIMODAL.density()
    worst_score = 0.0
    for _ in range(10):
        a = rng.uniform(-3, 3, size=(1, 2))
        if mix.density(a)[0] < 1e-8:
            continue
        fd = fd_gradient(lambda v: mix.log_density(v)[0], a, step=1e-5)
        worst_score = max(worst_score, rel_error(mix.score(a), fd))
    assert worst_score < 1e-4

    worst_q = 0.0
    for _ in range(10):
        a = rng.uniform(-3, 3, size=(1, 2))
        _, grad = BIMODAL.q_value(None, a)
        fd = fd_gradient(lambda v: BIMODAL.q_value(None, v)[0][0], a, step=1e-5)
        worst_q = max(worst_q, rel_error(grad, fd))
    assert worst_q < 1e-6

    # actor updates must never touch the behavioral flow parameters
    field = flow.VelocityField.create(0, 2, hidden=(16, 16), rng=3)
    policy = flow.FlowPolicy(field, steps=5)
    tmap = transport.TransportMap.create(0, 2, policy, hidden=(16, 16), rng=4)
    snapshot = [p.tobytes() for p in field.net.parameters()]
    adam = nets.AdamState.for_net(tmap.residual_net)
    states = bimodal_dataset.states[:64]
    for _ in range(10):
        base = flow.sample_action(policy, states,
                                  np.random.default_rng(5).standard_normal((64, 2)))
        training.actor_update(tmap, BIMODAL.q_value, score.batched_scores(field, states, base, 0.8),
                              training.DualState(), states, base, adam)
    assert [p.tobytes() for p in field.net.parameters()] == snapshot
    report(f"criterion 10 (gradient hygiene): net FD {worst_net:.2e} (<1e-3), "
           f"score FD {worst_score:.2e} (<1e-4), q FD {worst_q:.2e} (<1e-6), "
           f"flow params bit-identical")
