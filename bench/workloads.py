"""The benchmark's three workloads: inputs from a seed, one pass of fixed work, output checks.

Every workload is a closed loop with one caller: the next operation starts
only after the previous one returns. A pass is the workload's fixed work;
the runner repeats passes with identical inputs, so every pass must produce
identical outputs. `setup` builds the inputs from the workload seed (the
library only ever sees the generated files, configs and nets), `ops` lists
one pass, and `verify` returns the operations whose outputs fail a check.
Checks use the library's own tolerances (acceptance criteria 3 and 8, the
validate suites) unchanged.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math

import numpy as np

from fisherflow import cli, flow, nets, tasks, training, transport, validate
from fisherflow.densities import GaussianMixture

DATA_ROWS = 8192
# criterion-8 grid: the corridor-mass check of the directional ablation
ABLATION_GRID = transport.GridSpec((-4.5, -4.5), (4.5, 4.5), (181, 181))


def run_cli(argv):
    """In-process `fisherflow <argv>`; returns stdout, raises on a nonzero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"fisherflow {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def derived_seeds(seed, count):
    """Independent 31-bit seeds for the generated inputs of one workload seed."""
    return [int(v) for v in np.random.SeedSequence(seed).generate_state(count) % (2**31 - 1)]


def write_config(path, entries):
    path.write_text("".join(f"{key} = {value}\n" for key, value in entries.items()))


def finite(*values):
    return all(math.isfinite(float(v)) for v in values)


def read_report(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class Workload:
    name = ""

    def __init__(self, seed, workdir):
        self.seed = int(seed)
        self.workdir = workdir

    def setup(self):
        """Build the inputs; returns the bytes that identify them."""
        raise NotImplementedError

    def ops(self, out):
        """One pass: [(operation name, zero-argument callable)], artifacts go to `out`."""
        raise NotImplementedError

    def verify(self, values, out):
        """[(operation name, message)] for every operation whose output fails a check."""
        raise NotImplementedError

    def quality(self, out):
        """Refined value of the pass, or None when the workload refines nothing."""
        return None

    def close(self):
        pass


class BanditAblation(Workload):
    """`fisherflow ablate-metric`: both metric arms, bandit mode, analytic Q, criterion-8 settings."""

    name = "bandit-ablation"
    task_name = "bimodal_asymmetric"
    train = {"train.steps": 200, "train.flow_steps": 200, "train.hidden": "64,64",
             "train.eta": 0.2, "train.lambda_init": 10.0, "train.epsilon": 0.1}

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # the CLI keeps no run results; capture them for the support and value checks
        self.results = []
        self._run_refinement = training.run_refinement

        def capture(config, *args, **kwargs):
            result = self._run_refinement(config, *args, **kwargs)
            self.results.append((config.metric, result))
            return result

        training.run_refinement = capture

    def setup(self):
        data_seed, self.train_seed = derived_seeds(self.seed, 2)
        self.task = tasks.make_task(self.task_name)
        data = self.workdir / "data.txt"
        run_cli(["gen-data", "--task", self.task_name, "--size", str(DATA_ROWS),
                 "--seed", str(data_seed), "--out", str(data)])
        self.config = self.workdir / "ablate.conf"
        write_config(self.config, {"task": self.task_name, "data.file": data,
                                   "seeds": self.train_seed, **self.train})
        self.behavioral_mass = transport.region_mass(
            self.task.density().density(ABLATION_GRID.mesh()), ABLATION_GRID,
            self.task.corridor_mask)
        return data.read_bytes() + self.config.read_bytes()

    def close(self):
        training.run_refinement = self._run_refinement

    def ops(self, out):
        self.results.clear()
        return [("ablate-metric",
                 lambda: run_cli(["ablate-metric", "--config", str(self.config), "--out", str(out)]))]

    def verify(self, values, out):
        bad = []
        rows = read_report(out / "report.csv")
        if [r["metric"] for r in rows] != ["fisher", "isotropic"]:
            bad.append(f"report.csv rows {[r['metric'] for r in rows]}, want one per arm")
        if any(int(r["seed"]) != self.train_seed for r in rows):
            bad.append("report.csv seed differs from the configured seed")
        if not all(finite(r["mean_refined_value"], r["final_constraint"], r["final_lambda"])
                   for r in rows):
            bad.append("non-finite value in report.csv")
        arms = dict(self.results)
        if [metric for metric, _ in self.results] != ["fisher", "isotropic"]:
            bad.append(f"refinement runs {list(arms)}, want fisher then isotropic")
        for metric, result in self.results:
            final = result.final
            if not finite(*final.values()):
                bad.append(f"{metric}: non-finite final metrics {final}")
            elif final["mean_refined_value"] < final["mean_base_value"]:
                bad.append(f"{metric}: refined value {final['mean_refined_value']:.4f} below "
                           f"base {final['mean_base_value']:.4f}")
        if "fisher" in arms:
            fisher = arms["fisher"].transport_map
            mass = transport.pushforward_region_mass(
                self.task.density(), fisher.action_map(None), ABLATION_GRID, self.task.corridor_mask)
            if not mass < 2.0 * self.behavioral_mass:
                bad.append(f"fisher corridor mass {mass:.3e} not below 2x behavioral "
                           f"{self.behavioral_mass:.3e}")
        return [("ablate-metric", msg) for msg in bad]

    def quality(self, out):
        rows = read_report(out / "report.csv")
        return float(next(r["mean_refined_value"] for r in rows if r["metric"] == "fisher"))


class TDWide(Workload):
    """`fisherflow train` in TD mode: learned critics, flow trained every step, width 256."""

    name = "td-wide"
    task_name = "bimodal_gated"
    steps = 25
    train = {"train.mode": "td", "train.analytic_q": "false", "train.hidden": "256,256",
             "train.steps": steps, "train.flow_steps": 40, "train.log_interval": 5}

    def setup(self):
        data_seed, self.train_seed = derived_seeds(self.seed, 2)
        data = self.workdir / "data.txt"
        run_cli(["gen-data", "--task", self.task_name, "--size", str(DATA_ROWS), "--mode", "chain",
                 "--seed", str(data_seed), "--out", str(data)])
        self.config = self.workdir / "train.conf"
        write_config(self.config, {"task": self.task_name, "data.file": data, "data.mode": "chain",
                                   "seeds": self.train_seed, **self.train})
        return data.read_bytes() + self.config.read_bytes()

    def ops(self, out):
        return [("train",
                 lambda: run_cli(["train", "--config", str(self.config), "--out", str(out)]))]

    def verify(self, values, out):
        bad = []
        rows = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
        if not rows or rows[-1]["step"] != self.steps - 1:
            bad.append(f"metrics.jsonl ends at step {rows[-1]['step'] if rows else None}, "
                       f"want {self.steps - 1}")
        if not all(finite(r["td_loss"], r["flow_loss"]) for r in rows):
            bad.append("non-finite TD or flow loss in metrics.jsonl")
        final = json.loads((out / "final.json").read_text())
        if not finite(*final.values()):
            bad.append(f"non-finite final metrics {final}")
        report = read_report(out / "report.csv")
        if len(report) != 1 or not finite(report[0]["mean_refined_value"]):
            bad.append("report.csv must hold one finite row")
        if not (out / "checkpoint.json").is_file():
            bad.append("no checkpoint.json")
        return [("train", msg) for msg in bad]

    def quality(self, out):
        return float(read_report(out / "report.csv")[0]["mean_refined_value"])


def _central_box(points):
    return np.all(np.abs(np.atleast_2d(points)) <= 0.8, axis=1)


def contraction_map(rng, hidden, bound, probe):
    """Residual map with a random residual net whose action-Jacobian norm stays below `bound`.

    The raw net output is linear in the last layer, so scaling that layer
    scales the raw Jacobian exactly; the tanh cap only shrinks it. The
    bound is measured by central differences on `probe`, which covers the
    audit grid plus the largest displacement, so fixed-point inversion is a
    contraction wherever it iterates.
    """
    policy = flow.FlowPolicy(flow.VelocityField.create(0, 2, hidden, rng=rng))
    tmap = transport.TransportMap.create(0, 2, policy, hidden, rng=rng)
    net = tmap.residual_net
    net.weights[-1][:] = rng.standard_normal(net.weights[-1].shape)
    net.biases[-1][:] = rng.standard_normal(net.biases[-1].shape)
    h = 1e-5
    cols = [(nets.forward(net, probe + e) - nets.forward(net, probe - e)) / (2 * h)
            for e in (np.array([h, 0.0]), np.array([0.0, h]))]
    worst = float(np.linalg.norm(np.stack(cols, axis=2), 2, axis=(1, 2)).max())
    net.weights[-1] *= bound / worst
    net.biases[-1] *= bound / worst
    return tmap


class OracleAudit(Workload):
    """Validation traffic: validate suites, 1-D quadrature ladders, 181^2 oracles over seeded maps."""

    name = "oracle-audit"
    # 1-D ladders of acceptance criterion 3 on 20001-point grids
    LADDER_GRID = transport.GridSpec((-10.0,), (10.0,), (20001,))
    LADDER_SHIFTS = (0.2, 0.1, 0.05, 0.025, 0.0125)
    SLOPE_SHIFTS = (0.1, 0.05, 0.025)
    LADDERS = (("normal", GaussianMixture.single([0.0], 1.0)),
               ("overlap", validate.OVERLAP_MIXTURE),
               ("rate", validate.RATE_MIXTURE))
    MIXTURES = (("bimodal", "bimodal_asymmetric"), ("arc", "thin_manifold_corridor"),
                ("crescent", "crescent"))
    MAPS_PER_MIXTURE = 2
    MAP_HIDDEN = (16, 16)
    JACOBIAN_BOUND = 0.25
    # audit grid plus the residual cap (max_displacement = 1)
    PROBE = transport.GridSpec((-5.5, -5.5), (5.5, 5.5), (111, 111))

    def setup(self):
        self.suites = [name for name, _ in validate.all_suites()]
        probe = self.PROBE.mesh()
        self.maps = []
        digest = b""
        for k, (label, task_name) in enumerate(self.MIXTURES):
            task = tasks.make_task(task_name)
            mask = task.corridor_mask if task.corridor is not None else _central_box
            for j in range(self.MAPS_PER_MIXTURE):
                rng = np.random.default_rng([self.seed, k, j])
                tmap = contraction_map(rng, self.MAP_HIDDEN, self.JACOBIAN_BOUND, probe)
                self.maps.append((f"{label}-{j}", task.density(), tmap, mask))
                digest += b"".join(p.tobytes() for p in tmap.residual_net.parameters())
        return digest

    def ops(self, out):
        ops = [(f"validate {name}", lambda name=name: run_cli(["validate", "--suite", name]))
               for name in self.suites]
        gauss = GaussianMixture.single([0.0], 1.0)
        ops.append(("shift-kl", lambda: transport.kl_quadrature_oracle(
            gauss, lambda a: a + 0.3, None, transport.GridSpec((-9.0,), (9.0,), (4001,))).value))
        ops.append(("scale-kl", lambda: transport.kl_quadrature_oracle(
            gauss, lambda a: 1.1 * a, None, transport.GridSpec((-12.0,), (12.0,), (6001,))).value))
        grid = self.LADDER_GRID
        for label, mix in self.LADDERS:
            for c in self.LADDER_SHIFTS:
                ops.append((f"{label} kl c={c}", lambda mix=mix, c=c: transport.kl_quadrature_oracle(
                    mix, lambda a: a + c, None, grid).value))
                ops.append((f"{label} quad c={c}", lambda mix=mix, c=c:
                            transport.expected_quadratic_penalty(
                                mix, lambda a: np.full_like(a, c), grid)))
        grid2d = ABLATION_GRID
        for label, mix, tmap, mask in self.maps:
            ops += [
                (f"{label} kl", lambda mix=mix, tmap=tmap: transport.kl_quadrature_oracle(
                    mix, tmap, None, grid2d).value),
                (f"{label} region-mass", lambda mix=mix, tmap=tmap, mask=mask:
                 transport.pushforward_region_mass(mix, tmap.action_map(None), grid2d, mask)),
                (f"{label} quad", lambda mix=mix, tmap=tmap:
                 transport.expected_quadratic_penalty(mix, tmap.delta_fn(None), grid2d)),
                (f"{label} curvature", lambda mix=mix, tmap=tmap:
                 transport.curvature_term_diagnostic(mix, tmap.delta_fn(None), grid2d)),
            ]
        return ops

    def verify(self, values, out):
        bad = []

        def check(name, ok, msg):
            if name in values and not ok:
                bad.append((name, msg))

        for name in self.suites:
            text = values.get(f"validate {name}")
            check(f"validate {name}", text is not None and text.startswith("[PASS]"),
                  f"suite did not pass: {text!r}")
        shift = values.get("shift-kl", math.nan)
        check("shift-kl", abs(shift - 0.045) < 1e-4, f"shift KL {shift} not 0.045 +- 1e-4")
        scale = values.get("scale-kl", math.nan)
        closed = 0.5 * (1.21 - 1.0 - math.log(1.21))
        check("scale-kl", abs(scale - closed) < 1e-4, f"scale KL {scale} not {closed} +- 1e-4")
        for label, _ in self.LADDERS:
            kl = {c: values.get(f"{label} kl c={c}", math.nan) for c in self.LADDER_SHIFTS}
            quad = {c: values.get(f"{label} quad c={c}", math.nan) for c in self.LADDER_SHIFTS}
            for c in self.LADDER_SHIFTS:
                check(f"{label} kl c={c}", finite(kl[c]) and kl[c] > 0, f"KL {kl[c]}")
                check(f"{label} quad c={c}", finite(quad[c]) and quad[c] > 0, f"penalty {quad[c]}")
            if label == "normal":
                # a shifted Gaussian has KL = c^2 / 2 exactly, and so does its Fisher form
                for c in self.LADDER_SHIFTS:
                    check(f"{label} kl c={c}", abs(kl[c] - c * c / 2) < 1e-4, f"KL {kl[c]} != c^2/2")
                    check(f"{label} quad c={c}", abs(quad[c] - c * c / 2) < 1e-4,
                          f"penalty {quad[c]} != c^2/2")
                continue
            last = f"{label} quad c={self.SLOPE_SHIFTS[-1]}"
            rel = abs(quad[0.05] - kl[0.05]) / kl[0.05]
            check(f"{label} quad c=0.05", rel < 0.20, f"KL vs Fisher form gap {rel:.2%} >= 20%")
            gaps = [abs(kl[c] - quad[c]) for c in self.SLOPE_SHIFTS]
            if all(g > 0 for g in gaps):
                slope = float(np.polyfit(np.log(self.SLOPE_SHIFTS), np.log(gaps), 1)[0])
            else:
                slope = math.nan
            check(last, slope >= 2.5, f"KL gap slope {slope:.3f} < 2.5")
        for label, *_ in self.maps:
            kl = values.get(f"{label} kl", math.nan)
            check(f"{label} kl", finite(kl) and kl > 0, f"KL {kl}")
            mass = values.get(f"{label} region-mass", math.nan)
            check(f"{label} region-mass", 0.0 <= mass <= 1.0 + 1e-9, f"region mass {mass}")
            quad = values.get(f"{label} quad", math.nan)
            check(f"{label} quad", finite(quad) and quad > 0, f"penalty {quad}")
            curv = values.get(f"{label} curvature", math.nan)
            check(f"{label} curvature", finite(curv), f"curvature term {curv}")
        return bad


WORKLOADS = {w.name: w for w in (BanditAblation, TDWide, OracleAudit)}
