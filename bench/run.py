#!/usr/bin/env python3
"""fisherflow benchmark: one workload, measured for a fixed time, outputs checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The workloads are defined in workloads.py and
described, with their metrics, in BENCHMARK.json. A run builds the workload's
inputs from --seed (set-up, repeated and timed), then repeats the workload's
fixed work (a pass) with those inputs until --seconds have passed. Every
pass is checked and must reproduce the first pass's outputs byte for byte.

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json.
Their times are in reference seconds: each timed stretch is scaled by the
machine-speed probe of probe.py, run before and after it, because a small
shared host drifts in speed by a quarter over seconds to minutes.
With --trace 1 it alternates untraced and traced passes and reports the
per-layer metrics: medians over traced passes, spans written out at the
end, and the tracing overhead from the two kinds of pass. The last stdout
line is one JSON object: correct, attempted, failed, metrics. The human
table before it adds error_rate and refined_value, and result.json in the
run's work directory holds the machine fingerprint, the inputs digest and
every pass.

BLAS is pinned to one thread before numpy is imported; the run refuses to
start unless numpy's OpenBLAS reports exactly one thread.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from probe import REFERENCE_S, Probe  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
WORKLOAD_NAMES = ("bandit-ablation", "td-wide", "oracle-audit")
SETUP_REPEATS = 5
# the probe runs between operations once this much work has passed since the last probe
PROBE_EVERY_S = 1.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def openblas():
    """Threads in use and build string of numpy's bundled scipy_openblas."""
    import numpy as np

    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                           "libscipy_openblas64_*.so*")
    libs = sorted(glob.glob(pattern))
    if not libs:
        raise RuntimeError(f"numpy's bundled OpenBLAS not found ({pattern})")
    lib = ctypes.CDLL(libs[0])
    get_threads = lib.scipy_openblas_get_num_threads64_
    get_threads.argtypes = []
    get_threads.restype = ctypes.c_int
    get_config = lib.scipy_openblas_get_config64_
    get_config.argtypes = []
    get_config.restype = ctypes.c_char_p
    return int(get_threads()), get_config().decode()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit():
    """Commit of the checkout, read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(threads, blas_config):
    import numpy
    import scipy

    return {
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_config,
        "blas_threads": threads,
        "commit": git_commit(),
    }


def import_seconds():
    """Wall time for a fresh interpreter to import the CLI: the import share of set-up."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import fisherflow.cli"], env=env, cwd=ROOT,
                   check=True, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
    return time.perf_counter() - start


@dataclass
class Op:
    name: str
    wall_s: float
    cpu_s: float
    value: object
    error: str | None
    # mean probe time (wall, CPU) of the probes before and after the op's stretch
    probe_wall_s: float = 0.0
    probe_cpu_s: float = 0.0

    @property
    def ref_wall_s(self):
        return self.wall_s * REFERENCE_S / self.probe_wall_s

    @property
    def ref_cpu_s(self):
        return self.cpu_s * REFERENCE_S / self.probe_cpu_s


@dataclass
class Pass:
    traced: bool
    ops: list
    failures: dict
    outputs: dict
    artifact_bytes: int
    layers: dict = field(default_factory=dict)

    @property
    def wall_s(self):
        return sum(op.wall_s for op in self.ops)

    @property
    def cpu_s(self):
        return sum(op.cpu_s for op in self.ops)

    @property
    def ref_wall_s(self):
        return sum(op.ref_wall_s for op in self.ops)

    @property
    def ref_cpu_s(self):
        return sum(op.ref_cpu_s for op in self.ops)


def run_pass(workload, out, probe, tracer=None):
    """One pass; the probe runs before the first operation and after every PROBE_EVERY_S."""
    ops = workload.ops(out)
    done = []
    before = probe.run()
    stretch = []
    if tracer is not None:
        tracer.install()
    try:
        for k, (name, fn) in enumerate(ops):
            wall, cpu = time.perf_counter(), time.process_time()
            try:
                value, error = fn(), None
            except Exception as exc:  # a failed operation is counted, not fatal
                value, error = None, f"{type(exc).__name__}: {exc}"
            done.append(Op(name, time.perf_counter() - wall, time.process_time() - cpu,
                           value, error))
            stretch.append(done[-1])
            if k == len(ops) - 1 or sum(op.wall_s for op in stretch) >= PROBE_EVERY_S:
                after = probe.run()
                for op in stretch:
                    op.probe_wall_s = 0.5 * (before[0] + after[0])
                    op.probe_cpu_s = 0.5 * (before[1] + after[1])
                before, stretch = after, []
    finally:
        if tracer is not None:
            tracer.uninstall()
    values = {op.name: op.value for op in done if op.error is None}
    failures = {op.name: op.error for op in done if op.error is not None}
    try:
        for name, message in workload.verify(values, out):
            failures.setdefault(name, message)
    except Exception as exc:  # a check that cannot read its input fails the pass's last op
        failures.setdefault(done[-1].name, f"check raised {type(exc).__name__}: {exc}")
    files = sorted(p for p in out.iterdir() if p.is_file())
    outputs = {
        "values": {name: repr(value) for name, value in values.items()},
        "artifacts": {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files},
    }
    layers = tracer.layer_metrics() if tracer is not None else {}
    return Pass(tracer is not None, done, failures, outputs,
                sum(p.stat().st_size for p in files), layers)


def percentile(values, q):
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "fisherflow" / "__init__.py").is_file():
        print(f"error: fisherflow sources not found under {SRC}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"error: {spec_path} not found", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))
    try:
        threads, blas_config = openblas()
    except (OSError, AttributeError, RuntimeError) as exc:
        print(f"error: cannot read the BLAS thread count: {exc}", file=sys.stderr)
        return 2
    if threads != 1:
        print(f"error: OpenBLAS runs {threads} threads; the benchmark needs exactly 1",
              file=sys.stderr)
        return 2

    import tracer as tracing
    import workloads

    machine = fingerprint(threads, blas_config)
    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    out = workdir / "out"
    out.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    tracer = tracing.Tracer() if args.trace else None
    probe = Probe()
    probe.run()  # first touch of its arrays
    try:
        setup_s, setup_ref_s, setup_layers = [], [], {}

        def timed_setup():
            before = probe.run()[0]
            imports = import_seconds()
            start = time.perf_counter()
            inputs = workload.setup()
            setup_s.append(imports + time.perf_counter() - start)
            after = probe.run()[0]
            setup_ref_s.append(setup_s[-1] * REFERENCE_S / (0.5 * (before + after)))
            return inputs

        if tracer is None:
            inputs = timed_setup()
        else:
            tracer.install()
            try:
                inputs = workload.setup()
            finally:
                tracer.uninstall()
            setup_layers = tracer.layer_metrics()

        passes = []
        deadline = time.perf_counter() + args.seconds
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            passes.append(run_pass(workload, out, probe, tracer if traced else None))
            enough = tracer is None or len(passes) >= 2
            if enough and time.perf_counter() >= deadline:
                break
            if tracer is None and len(setup_s) < SETUP_REPEATS:
                # spread the set-up repeats over the run: the machine's speed drifts
                # on a scale of seconds, and back-to-back repeats would share one state
                inputs = timed_setup()
        try:
            quality = workload.quality(out)
        except (OSError, LookupError, StopIteration, ValueError):
            quality = None  # the failed pass is already counted
    finally:
        workload.close()

    first = passes[0].outputs
    for p in passes[1:]:
        if p.outputs != first:
            p.failures.setdefault(p.ops[-1].name, "outputs differ from the first pass")
    attempted = sum(len(p.ops) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    untraced = [p for p in passes if not p.traced]
    latencies_ms = [1e3 * op.ref_wall_s for p in untraced for op in p.ops]

    if tracer is None:
        values = {
            "setup_s": statistics.median(setup_ref_s),
            "wall_s": statistics.median(p.ref_wall_s for p in untraced),
            "cpu_s": statistics.median(p.ref_cpu_s for p in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "latency_p50_ms": percentile(latencies_ms, 50),
            "latency_p95_ms": percentile(latencies_ms, 95),
        }
        wanted = spec["end_to_end"]
    else:
        traced = [p for p in passes if p.traced]
        values = {name: statistics.median(p.layers[name] for p in traced)
                  for name in traced[0].layers}
        values["tasks.make_dataset.s"] = setup_layers["tasks.make_dataset.s"]
        values["cli.artifact_bytes"] = statistics.median(p.artifact_bytes for p in traced)
        # each traced pass against the untraced pass just before it, so that the
        # machine's drift over the run cancels within a pair
        values["trace.overhead_frac"] = statistics.median(
            t.wall_s / u.wall_s for u, t in zip(passes[0::2], passes[1::2])) - 1.0
        wanted = spec["per_layer"]
        tracer.write_spans(workdir / "spans.csv")
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}

    error_rate = failed / attempted
    failures = [f"pass {i}: {name}: {msg}" for i, p in enumerate(passes)
                for name, msg in p.failures.items()]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "fingerprint": machine,
        "inputs_sha256": hashlib.sha256(inputs).hexdigest(),
        "passes": [{"traced": p.traced, "wall_s": p.wall_s, "cpu_s": p.cpu_s,
                    "ref_wall_s": p.ref_wall_s, "ref_cpu_s": p.ref_cpu_s,
                    "ops": len(p.ops), "failed": len(p.failures),
                    "op_ms": [1e3 * op.wall_s for op in p.ops],
                    "probe_ms": [1e3 * op.probe_wall_s for op in p.ops]} for p in passes],
        "op_names": [op.name for op in passes[0].ops],
        "latency_samples": len(latencies_ms), "setup_s": setup_s, "setup_ref_s": setup_ref_s,
        "error_rate": error_rate, "refined_value": quality,
        "failures": failures, "metrics": metrics, "outputs": first,
    }
    (workdir / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True))

    beyond_p95 = sum(t > percentile(latencies_ms, 95) for t in latencies_ms)
    print(f"fisherflow bench  workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} ops={attempted} latency samples={len(latencies_ms)} "
          f"(beyond p95: {beyond_p95})")
    print("fingerprint " + json.dumps(machine, sort_keys=True))
    for message in failures[:20]:
        print(f"FAILED {message}")
    for name, metric in metrics.items():
        print(f"  {name:44s} {metric['value']:14.6g} {metric['unit']}")
    if tracer is None:
        measured = statistics.median(p.wall_s for p in untraced)
        probe_ms = statistics.median(1e3 * op.probe_wall_s for p in untraced for op in p.ops)
        print(f"  {'wall_s as measured':44s} {measured:14.6g} s (probe {probe_ms:.1f} ms, "
              f"reference {1e3 * REFERENCE_S:g} ms)")
        print(f"  {'error_rate':44s} {error_rate:14.6g} ({failed}/{attempted} ops failed)")
        shown = "n/a (no refinement)" if quality is None else f"{quality:14.6g}"
        print(f"  {'refined_value':44s} {shown}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
