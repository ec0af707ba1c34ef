"""Self-tests of the benchmark harness (not part of the library's test suite).

    python3 -m pytest -q bench/selftest.py

Each test runs bench/run.py in a subprocess with --seconds 1, so a run does
one pass (two, one traced, with --trace 1). About three minutes on two cores.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("bandit-ablation", "td-wide", "oracle-audit")
ARTIFACTS = ("report.csv", "aggregate.csv", "metrics.jsonl", "checkpoint.json", "final.json")
# metrics that count work: a traced run must reproduce them exactly
EXACT_SUFFIXES = (".calls", ".rows", ".gflop", ".erf_elements", ".euler_evals", ".repeat_frac",
                  ".map_evals", ".failures", ".failed", ".spans", ".artifact_bytes", ".clip_frac",
                  ".degenerate_frac")


def bench(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc


def result(workload, seed, trace):
    proc = bench(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    workdir = ROOT / ".bench_run" / f"{workload}-seed{seed}-trace{trace}"
    record = json.loads((workdir / "result.json").read_text())
    artifacts = {name: (workdir / "out" / name).read_bytes()
                 for name in ARTIFACTS if (workdir / "out" / name).is_file()}
    return {"summary": summary, "record": record, "artifacts": artifacts}


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(workload, seed, trace, repeat=0):
        key = (workload, seed, trace, repeat)
        if key not in cache:
            cache[key] = result(workload, seed, trace)
        return cache[key]

    return get


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def layers():
    return json.loads((ROOT / "bench" / "layers.json").read_text())


@pytest.mark.parametrize("workload", ("bandit-ablation", "td-wide"))
def test_traced_and_untraced_runs_write_identical_artifacts(runs, workload):
    untraced = runs(workload, 3, 0)
    traced = runs(workload, 3, 1)
    assert untraced["summary"]["correct"] and traced["summary"]["correct"]
    assert untraced["artifacts"], "the workload wrote no artifacts"
    assert untraced["artifacts"] == traced["artifacts"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_two_traced_runs_give_identical_counts(runs, workload):
    first = runs(workload, 3, 1)["summary"]["metrics"]
    second = runs(workload, 3, 1, repeat=1)["summary"]["metrics"]
    exact = [name for name in first if name.endswith(EXACT_SUFFIXES)]
    assert "nets.gelu.erf_elements" in exact and "flow.sample_action.repeat_frac" in exact
    assert {n: first[n]["value"] for n in exact} == {n: second[n]["value"] for n in exact}


def test_every_layer_metric_is_produced_and_nonzero_where_documented(runs, spec, layers):
    names = [m["name"] for m in spec["per_layer"]]
    documented = {name: workload for group in layers["layers"]
                  for name, workload in group["metrics"].items()}
    assert sorted(documented) == sorted(names)
    produced = {w: runs(w, 3, 1)["summary"]["metrics"] for w in WORKLOADS}
    for workload, metrics in produced.items():
        assert sorted(metrics) == sorted(names), workload
    for name, workload in documented.items():
        if workload is not None:
            assert produced[workload][name]["value"] != 0, (name, workload)


def test_repeat_fraction_separates_the_training_workloads(runs):
    bandit = runs("bandit-ablation", 3, 1)["summary"]["metrics"]
    td = runs("td-wide", 3, 1)["summary"]["metrics"]
    assert bandit["flow.sample_action.repeat_frac"]["value"] == pytest.approx(0.5, abs=0.01)
    assert bandit["flow.train_flow.repeat_frac"]["value"] == 0.5
    assert td["flow.sample_action.repeat_frac"]["value"] == 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_seed_changes_the_inputs(runs, workload):
    three = runs(workload, 3, 1)["record"]["inputs_sha256"]
    four = runs(workload, 4, 0)["record"]["inputs_sha256"]
    assert three != four


def test_end_to_end_run_reports_every_metric(runs, spec):
    metrics = runs("bandit-ablation", 3, 0)["summary"]["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in spec["end_to_end"])
    assert all(m["value"] > 0 for m in metrics.values())


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".bench_run" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    (bare / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    for path in (ROOT / "bench").glob("*.*"):
        if path.is_file():
            (bare / "bench" / path.name).write_bytes(path.read_bytes())
    proc = bench("bandit-ablation", 1, 0, cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
