"""The benchmark tracer's bindings into the library.

bench/tracer.py patches library names where their callers look them up
(`owner.__dict__[attr]`), so deleting or re-importing one of those names
breaks a traced benchmark run with a KeyError. These tests install and
uninstall the tracer to catch that here.
"""

import importlib.util
from pathlib import Path

import numpy as np

from fisherflow import transport
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
