import re
from dataclasses import replace

import numpy as np
import pytest

from fisherflow import tasks, transport
from fisherflow.densities import GaussianMixture

from helpers import fd_gradient, gated_actions_reference, rel_error


def test_catalog_constructs_all_tasks():
    for name in tasks.TASK_NAMES:
        task = tasks.make_task(name)
        assert task.action_dim == 2
        assert task.name == name


def test_unknown_task_rejected():
    with pytest.raises(ValueError):
        tasks.make_task("maze")


def test_behavioral_density_normalized_on_grid():
    for name in ("bimodal_asymmetric", "detached_hotspot", "crescent"):
        task = tasks.make_task(name)
        grid = transport.GridSpec((-5.0, -5.0), (5.0, 5.0), (201, 201))
        total = grid.integrate(task.density().density(grid.mesh()))
        assert abs(total - 1.0) < 1e-3


def test_q_landscape_bounded_and_smooth():
    rng = np.random.default_rng(0)
    for name in tasks.TASK_NAMES:
        task = tasks.make_task(name)
        pts = rng.uniform(-5, 5, size=(200, 2))
        vals, grads = task.q_value(None, pts)
        assert np.all(np.isfinite(vals)) and np.all(np.isfinite(grads))
        assert np.max(np.abs(vals)) < 10.0


def test_analytic_score_single_gaussian():
    task = replace(tasks.make_task("bimodal_asymmetric"),
                   behavioral=GaussianMixture.single([0.0, 0.0], 1.0))
    a = np.array([0.4, -1.2])
    np.testing.assert_allclose(task.density(None).score(a), -a, rtol=1e-12)


def test_analytic_score_zero_at_symmetric_midpoint():
    task = tasks.make_task("bimodal_asymmetric")
    np.testing.assert_allclose(task.density(None).score(np.zeros(2)), 0.0, atol=1e-12)


def test_analytic_score_matches_finite_differences():
    rng = np.random.default_rng(1)
    task = tasks.make_task("bimodal_asymmetric")
    mix = task.density()
    for _ in range(10):
        a = rng.uniform(-3, 3, size=2)
        if mix.density(a) < 1e-8:
            continue
        fd = fd_gradient(lambda v: mix.log_density(v), a, step=1e-5)
        assert rel_error(mix.score(a), fd) < 1e-4


def test_sample_behavioral_degenerate_weights():
    task = tasks.make_task("bimodal_asymmetric")
    mix = GaussianMixture(np.array([1.0 - 1e-15, 1e-15]), task.behavioral.means,
                          task.behavioral.variances)
    lone = replace(task, behavioral=mix)
    draws = lone.sample_behavioral(None, np.random.default_rng(2), 500)
    assert np.all(draws[:, 0] < 0)  # all from the left component


def test_sample_behavioral_seeded_and_counted():
    task = tasks.make_task("crescent")
    a = task.sample_behavioral(None, 7, 64)
    b = task.sample_behavioral(None, 7, 64)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (64, 2)
    with pytest.raises(ValueError):
        task.sample_behavioral(None, 7, 0)


def test_q_gradient_zero_at_single_bump_center():
    landscape = tasks.QLandscape([1.0], [[0.5, -0.5]], [0.7])
    task = replace(tasks.make_task("bimodal_asymmetric"), landscape=landscape)
    _, grad = task.q_value(None, np.array([0.5, -0.5]))
    np.testing.assert_allclose(grad, 0.0, atol=1e-14)


def test_q_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    for name in tasks.TASK_NAMES:
        task = tasks.make_task(name)
        for _ in range(5):
            a = rng.uniform(-3, 3, size=2)
            _, grad = task.q_value(None, a)
            fd = fd_gradient(lambda v: task.q_value(None, v)[0], a, step=1e-5)
            assert rel_error(grad, fd) < 1e-6


def test_detached_hotspot_beats_on_support_values():
    task = tasks.make_task("detached_hotspot")
    hotspot_value = task.q_value(None, np.array([3.2, 3.2]))[0]
    angles = np.linspace(0, np.pi / 2, 200)
    arc = 2.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    on_support = task.q_value(None, arc)[0]
    assert hotspot_value > float(np.max(on_support))


def test_corridor_documented_for_bimodal():
    task = tasks.make_task("bimodal_asymmetric")
    pts = np.array([[0.0, 0.0], [3.0, 0.0]])
    mask = task.corridor_mask(pts)
    assert mask[0] and not mask[1]
    # the corridor really is low density: the density at its edge, its highest
    # point on the axis between the modes, sits far below the mode peak
    edge = task.corridor[0][1]
    ceiling = float(task.density().density(np.array([edge, 0.0])))
    peak = float(task.density().density(np.array([2.0, 0.0])))
    assert 0 < ceiling < 0.05 * peak


def test_make_dataset_single_row_schema():
    task = tasks.make_task("bimodal_asymmetric")
    ds = tasks.make_dataset(task, 1, seed=0)
    assert len(ds) == 1
    assert ds.states.shape == (1, 0)
    assert ds.actions.shape == (1, 2)
    assert ds.rewards.shape == (1,)
    assert ds.next_states is None


def test_make_dataset_zero_noise_rewards_exact():
    task = tasks.make_task("bimodal_asymmetric")
    ds = tasks.make_dataset(task, 128, seed=1, noise=0.0)
    vals, _ = task.q_value(ds.states, ds.actions)
    np.testing.assert_array_equal(ds.rewards, vals)


def test_make_dataset_rejects_bad_arguments():
    task = tasks.make_task("bimodal_asymmetric")
    with pytest.raises(ValueError):
        tasks.make_dataset(task, 0, seed=0)
    with pytest.raises(ValueError):
        tasks.make_dataset(task, 4, seed=0, mode="episodic")
    for noise in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match="noise"):
            tasks.make_dataset(task, 4, seed=0, noise=noise)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_load_rejects_non_finite_cells(tmp_path, cell):
    path = tmp_path / "d.txt"
    tasks.save_dataset(tasks.make_dataset(tasks.make_task("bimodal_asymmetric"), 4, seed=0), path)
    lines = path.read_text().splitlines()
    lines[3] = " ".join(lines[3].split()[:-1] + [cell])  # the reward of data row 2
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="data row 2"):
        tasks.load_dataset(path)


def test_dataset_file_bytes_deterministic(tmp_path):
    task = tasks.make_task("bimodal_asymmetric")
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    tasks.save_dataset(tasks.make_dataset(task, 64, seed=5, noise=0.1), p1)
    tasks.save_dataset(tasks.make_dataset(task, 64, seed=5, noise=0.1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_dataset_roundtrip(tmp_path):
    task = tasks.make_task("bimodal_gated")
    ds = tasks.make_dataset(task, 32, seed=6, mode="chain", noise=0.05)
    path = tmp_path / "chain.txt"
    tasks.save_dataset(ds, path)
    back = tasks.load_dataset(path)
    np.testing.assert_allclose(back.states, ds.states, rtol=1e-15)
    np.testing.assert_allclose(back.actions, ds.actions, rtol=1e-15)
    np.testing.assert_allclose(back.rewards, ds.rewards, rtol=1e-15)
    np.testing.assert_allclose(back.next_states, ds.next_states, rtol=1e-15)
    assert back.meta["task"] == "bimodal_gated"
    assert back.meta["mode"] == "chain"


def test_load_rejects_foreign_files(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("1.0 2.0\n")
    with pytest.raises(ValueError):
        tasks.load_dataset(path)


def test_gated_task_weights_respond_to_state():
    task = tasks.make_task("bimodal_gated")
    left = task.density(np.array([-3.0, 0.0]))
    right = task.density(np.array([3.0, 0.0]))
    assert left.weights[0] > 0.9   # strongly left mode for negative s1
    assert right.weights[1] > 0.9
    ds = tasks.make_dataset(task, 16, seed=7)
    assert ds.states.shape == (16, 2)


# --- gated generation and the dataset reader, pinned to the per-row and whole-text paths ---

def dataset_arrays(ds):
    return [ds.states, ds.actions, ds.rewards, ds.next_states]


@pytest.mark.parametrize("size", [1, 7, 4096])
@pytest.mark.parametrize("mode", ["chain", "bandit"])
def test_gated_dataset_matches_per_row_sampling(monkeypatch, size, mode):
    task = tasks.make_task("bimodal_gated")
    for seed in (0, 1, 13):
        got = tasks.make_dataset(task, size, seed=seed, mode=mode, noise=0.3)
        with monkeypatch.context() as m:
            m.setattr(tasks, "_gated_actions", gated_actions_reference)
            want = tasks.make_dataset(task, size, seed=seed, mode=mode, noise=0.3)
        for a, b in zip(dataset_arrays(got), dataset_arrays(want)):
            if b is None:
                assert a is None
            else:
                np.testing.assert_array_equal(a, b)


def test_gated_dataset_builds_no_mixture_per_row(monkeypatch):
    task = tasks.make_task("bimodal_gated")
    calls = {"density": 0, "gate": 0}
    density = tasks.SyntheticTask.density

    def counted_density(self, s=None):
        calls["density"] += 1
        return density(self, s)

    def counted_gate(s):
        calls["gate"] += 1
        return task.weight_gate(s)

    monkeypatch.setattr(tasks.SyntheticTask, "density", counted_density)
    tasks.make_dataset(replace(task, weight_gate=counted_gate), 64, seed=3, mode="chain")
    assert calls == {"density": 0, "gate": 64}


@pytest.mark.parametrize("weights, message", [
    ([0.0, 1.0], "must be positive"),
    ([0.5, 0.5 + 1e-9], "must sum to 1"),
])
def test_gated_dataset_rejects_bad_gate_weights_as_a_row_mixture_does(weights, message):
    task = replace(tasks.make_task("bimodal_gated"), weight_gate=lambda s: np.array(weights))
    states = task.sample_states(np.random.default_rng(0), 3)
    with pytest.raises(ValueError, match=message):
        gated_actions_reference(task, states, np.random.default_rng(0))
    with pytest.raises(ValueError, match=message):
        tasks.make_dataset(task, 3, seed=0)


@pytest.mark.parametrize("name, mode", [("bimodal_gated", "chain"), ("bimodal_asymmetric", "bandit")])
def test_load_dataset_returns_the_saved_arrays_bit_for_bit(tmp_path, name, mode):
    ds = tasks.make_dataset(tasks.make_task(name), 257, seed=8, mode=mode, noise=0.1)
    path = tmp_path / "d.txt"
    tasks.save_dataset(ds, path)
    back = tasks.load_dataset(path)
    whole = np.loadtxt(path, ndmin=2)  # the header is a comment line
    for a, b in zip(dataset_arrays(back), dataset_arrays(ds)):
        if b is None:
            assert a is None
        else:
            np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(
        np.column_stack([a for a in dataset_arrays(back) if a is not None]), whole)
    assert back.meta == ds.meta


def saved_lines(tmp_path):
    path = tmp_path / "d.txt"
    tasks.save_dataset(tasks.make_dataset(tasks.make_task("bimodal_asymmetric"), 4, seed=0), path)
    return path, path.read_text().splitlines()


@pytest.mark.filterwarnings("ignore:loadtxt:UserWarning")  # numpy's note on the empty body
@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines[:2] + ["1.0 abc 2.0"] + lines[3:],
     "could not convert string 'abc' to float64 at row 1, column 2"),
    (lambda lines: lines[:1] + [" ".join(line.split()[:2]) for line in lines[1:]],
     "dataset has 2 columns, header implies 3"),
    (lambda lines: lines[:2] + ["1.0 2.0"] + lines[3:], "number of columns changed from 3 to 2"),
    (lambda lines: ["# some-other-format v1"] + lines[1:], "not a fisherflow dataset file"),
    (lambda lines: [lines[0].replace(" v1 ", " v7 ")] + lines[1:], "unsupported dataset format 'v7'"),
    (lambda lines: lines[:1], "no data rows"),
])
def test_load_dataset_messages(tmp_path, edit, message):
    path, lines = saved_lines(tmp_path)
    path.write_text("\n".join(edit(lines)) + "\n")
    with pytest.raises(ValueError, match=re.escape(message)):
        tasks.load_dataset(path)
