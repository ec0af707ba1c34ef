"""The benchmark tracer's bindings into the library.

bench/tracer.py patches library names where their callers look them up
(`owner.__dict__[attr]`), so deleting or re-importing one of those names
breaks a traced benchmark run with a KeyError. These tests install and
uninstall the tracer to catch that here, and check that the training loop
still reaches the penalty, score and Euler sampler layers through those bindings.
"""

import importlib.util
import os
from pathlib import Path

import numpy as np

from fisherflow import tasks, training, transport
from fisherflow.densities import GaussianMixture

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_tracer_install_finds_every_binding_and_uninstall_restores_it():
    tracer = load_tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)
        assert patched
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} not restored"


def test_oracle_penalty_reaches_the_tracer_as_unnormalized():
    # the degenerate-score counter only counts normalized calls, and reads
    # `normalize` from the call's arguments: a zero score must not count here
    tracer = load_tracer()
    try:
        tracer.install()
        transport.kl_quadratic(lambda a: a, GaussianMixture.single([0.0], 1.0),
                               np.array([[0.0], [1.0]]))
    finally:
        tracer.uninstall()
    assert tracer.counts["score.fisher_penalty_batch.rows"] == 2
    assert tracer.counts["score.fisher_penalty_batch.degenerate_rows"] == 0


def tiny_config(**kw):
    return training.RefineConfig(**{**dict(seed=3, steps=4, flow_steps=5, batch_size=16,
                                           hidden=(8, 8), eval_samples=20), **kw})


PENALTY_LAYERS = ("training.actor_update", "score.fisher_penalty_batch", "score.batched_scores",
                  "flow.sample_action")


def test_each_actor_step_reaches_the_penalty_and_score_spans(monkeypatch):
    # the tracer keeps one span stack: one usable core keeps `_each_step` serial
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    task = tasks.make_task("bimodal_asymmetric")
    dataset = tasks.make_dataset(task, 128, seed=0, mode="chain")
    arms = [tiny_config(metric="fisher"), tiny_config(metric="isotropic")]
    tracer, seen = load_tracer(), []

    def span_counts():
        totals = tracer.totals()
        return tuple(totals[name][0] if name in totals else 0 for name in PENALTY_LAYERS)

    try:
        tracer.install()
        for _ in training.run_arms(arms, dataset, task):
            seen.append(span_counts())
        training.run_refinement(tiny_config(mode="td", analytic_q=False), dataset, task)
        seen.append(span_counts())
    finally:
        tracer.uninstall()
    # running totals after the fisher arm, the isotropic arm and a TD fisher run of 4 steps:
    # one actor step and one penalty per step, and scores for the fisher runs only; Euler
    # samples once per step and for evaluation in the stream both arms share, and twice per
    # step (base and next actions) plus evaluation in the TD run, each through the module's
    # `flow.sample_action`, the one binding the tracer patches
    assert seen == [(4, 4, 4, 5), (8, 8, 4, 5), (12, 12, 8, 14)]
