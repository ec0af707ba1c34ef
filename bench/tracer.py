"""Per-layer tracing of fisherflow from outside the library.

The tracer replaces each traced public function at every binding its callers
use (a module attribute, a name imported into another module, or a class
attribute) with a wrapper that records a span: name, start, end and the
index of the enclosing span. Spans live in memory and are written out once,
at the end of a run. A layer's self time is its spans' duration minus the
part covered by its direct child spans (calls are single-threaded, so
children never overlap).

Counts are taken at the same boundaries: rows and FLOPs computed from
argument shapes, Euler evaluations, clip events, degenerate scores, map
evaluations inside grid inversion, and repeated calls. A call repeats when
the hash of its inputs (velocity-net parameters, states, noise and, for
flow training, the generator state) was already seen in the same pass.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import time
from collections import defaultdict

import numpy as np

from fisherflow import cli, flow, nets, score, tasks, training, transport, validate
from fisherflow.densities import GaussianMixture
from fisherflow.errors import ConvergenceError
from fisherflow.score import _DEGENERATE_TRACE
from fisherflow.tasks import SyntheticTask
from fisherflow.transport import TransportMap


def _rows(x):
    x = np.asarray(x)
    return 1 if x.ndim < 2 else x.shape[0]


def _dense_flop(net, rows):
    """Multiply-add FLOPs of one dense pass: 2 * rows * sum(in * out), computed from shapes."""
    return 2.0 * rows * sum(w.shape[0] * w.shape[1] for w in net.weights)


def _digest(*parts):
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(repr((part.shape, part.dtype.str)).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, (list, tuple)) and part and isinstance(part[0], np.ndarray):
            for arr in part:
                h.update(np.ascontiguousarray(arr).tobytes())
        else:
            h.update(repr(part).encode())
    return h.digest()


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Span recorder plus counters; `install` patches the library, `uninstall` restores it."""

    def __init__(self):
        self._patches = []
        self.reset()

    def reset(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self._stack = []
        self.counts = defaultdict(float)
        self._seen = defaultdict(set)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                record = spans[index]
                record[1] = start
                record[2] = end
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _repeat(self, name, key):
        seen = self._seen[name]
        if key in seen:
            self.counts[name + ".repeats"] += 1
        else:
            seen.add(key)

    def _patch(self, name, bindings, before=None, after=None, fn=None):
        for owner, attr in bindings:
            original = owner.__dict__[attr]
            target = fn(original) if fn is not None else original
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, target, before, after))

    def install(self):
        """Clear earlier spans and counts, then wrap every traced binding until uninstall."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.reset()
        c = self.counts

        def forward_counts(args, kwargs):
            net, x = args[0], _arg(args, kwargs, 1, "x")
            rows = _rows(x)
            c["nets.forward.rows"] += rows
            c["nets.forward.flop"] += _dense_flop(net, rows)

        def backward_counts(args, kwargs):
            # forward recompute, then weight gradients and input deltas per layer
            net, x = args[0], _arg(args, kwargs, 1, "x")
            c["nets.backward.flop"] += 3.0 * _dense_flop(net, _rows(x))

        def erf_counts(args, kwargs):
            c["nets.gelu.erf_elements"] += np.size(args[0])

        def clip_counts(args, kwargs, norm):
            max_norm = _arg(args, kwargs, 1, "max_norm")
            c["nets.clip_gradients.clipped"] += bool(max_norm > 0 and norm > max_norm)

        def sample_counts(args, kwargs):
            policy, s, z = args[0], _arg(args, kwargs, 1, "s"), _arg(args, kwargs, 2, "z")
            c["flow.sample_action.euler_evals"] += policy.steps
            net = getattr(policy.field, "net", None)
            params = net.parameters() if net is not None else repr(policy.field)
            self._repeat("flow.sample_action", _digest(params, s, z, policy.steps))

        def train_flow_counts(args, kwargs):
            policy, states, actions, config, rng = (
                _arg(args, kwargs, i, n) for i, n in
                enumerate(("policy", "states", "actions", "config", "rng")))
            self._repeat("flow.train_flow", _digest(
                policy.field.net.parameters(), states, actions, config, rng.bit_generator.state))

        def penalty_counts(args, kwargs):
            scores = np.atleast_2d(np.asarray(_arg(args, kwargs, 0, "scores"), dtype=np.float64))
            c["score.fisher_penalty_batch.rows"] += scores.shape[0]
            if _arg(args, kwargs, 2, "normalize", True):
                sq = np.sum(scores * scores, axis=1)
                c["score.fisher_penalty_batch.degenerate_rows"] += int(np.sum(sq <= _DEGENERATE_TRACE))

        def density_rows(args, kwargs):
            c["densities.rows"] += _rows(_arg(args, kwargs, 1, "x"))

        def suite_outcome(args, kwargs, outcome):
            c["validate.suites.failed"] += not outcome.passed

        def counted_inversion(original):
            def invert_map(map_fn, targets, *rest, **kw):
                def counted(a):
                    c["transport.invert_map.map_evals"] += 1
                    return map_fn(a)
                try:
                    return original(counted, targets, *rest, **kw)
                except ConvergenceError:
                    c["transport.invert_map.failures"] += 1
                    raise
            return invert_map

        p = self._patch
        p("nets.forward", [(nets, "forward")], before=forward_counts)
        p("nets.backward", [(nets, "backward")], before=backward_counts)
        p("nets.gelu.erf", [(nets, "erf")], before=erf_counts)
        p("nets.adam_step", [(nets, "adam_step")])
        p("nets.clip_gradients", [(nets, "clip_gradients")], after=clip_counts)
        p("flow.sample_action", [(flow, "sample_action")], before=sample_counts)
        p("flow.flow_matching_loss", [(flow, "flow_matching_loss"),
                                      (training, "flow_matching_loss")])
        p("flow.train_flow", [(flow, "train_flow"), (training, "train_flow")],
          before=train_flow_counts)
        p("score.perturbed_score", [(score, "perturbed_score")])
        p("score.batched_scores", [(score, "batched_scores"), (training, "batched_scores")])
        p("score.fisher_penalty_batch", [(score, "fisher_penalty_batch"),
                                         (training, "fisher_penalty_batch"),
                                         (transport, "fisher_penalty_batch")],
          before=penalty_counts)
        p("transport.residual", [(TransportMap, "residual")])
        p("transport.residual_backward", [(TransportMap, "residual_backward")])
        p("transport.invert_map", [(transport, "invert_map")], fn=counted_inversion)
        p("transport.kl_quadrature_oracle", [(transport, "kl_quadrature_oracle"),
                                             (validate, "kl_quadrature_oracle")])
        p("transport.pushforward_region_mass", [(transport, "pushforward_region_mass")])
        p("transport.expected_quadratic_penalty", [(transport, "expected_quadratic_penalty"),
                                                   (validate, "expected_quadratic_penalty")])
        p("transport.curvature_term_diagnostic", [(transport, "curvature_term_diagnostic")])
        for method in ("log_density", "score", "log_density_hessian"):
            p(f"densities.{method}", [(GaussianMixture, method)], before=density_rows)
        p("tasks.make_dataset", [(tasks, "make_dataset")])
        p("tasks.q_value", [(SyntheticTask, "q_value")])
        for fn_name in ("actor_update", "critic_update", "evaluate_policy", "run_refinement"):
            p(f"training.{fn_name}", [(training, fn_name)])
        p("cli.io", [(cli, "save_checkpoint"), (cli, "write_report")])
        for _, suite in validate.all_suites():
            p("validate.suite", [(validate, suite.__name__)], after=suite_outcome)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def totals(self):
        """Per span name: (calls, total seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _), covered in zip(self.spans, child):
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - covered
        return out

    def layer_metrics(self):
        """Per-layer metric values for the work recorded since the last reset."""
        t = self.totals()
        c = self.counts

        def calls(name):
            return float(t[name][0]) if name in t else 0.0

        def total(name):
            return t[name][1] if name in t else 0.0

        def self_s(name):
            return t[name][2] if name in t else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        m = {}
        fwd_gflop = c["nets.forward.flop"] / 1e9
        bwd_gflop = c["nets.backward.flop"] / 1e9
        m.update({
            "nets.forward.calls": calls("nets.forward"),
            "nets.forward.rows": c["nets.forward.rows"],
            "nets.forward.self_s": self_s("nets.forward"),
            "nets.forward.gflop": fwd_gflop,
            "nets.forward.gflop_per_s": ratio(fwd_gflop, self_s("nets.forward")),
            "nets.backward.calls": calls("nets.backward"),
            "nets.backward.self_s": self_s("nets.backward"),
            "nets.backward.gflop": bwd_gflop,
            "nets.backward.gflop_per_s": ratio(bwd_gflop, self_s("nets.backward")),
            "nets.gelu.erf_elements": c["nets.gelu.erf_elements"],
            "nets.gelu.erf_s": total("nets.gelu.erf"),
            "nets.adam_step.calls": calls("nets.adam_step"),
            "nets.adam_step.self_s": self_s("nets.adam_step"),
            "nets.clip_gradients.calls": calls("nets.clip_gradients"),
            "nets.clip_gradients.clip_frac": ratio(c["nets.clip_gradients.clipped"],
                                                   calls("nets.clip_gradients")),
        })
        m.update({
            "flow.sample_action.calls": calls("flow.sample_action"),
            "flow.sample_action.self_s": self_s("flow.sample_action"),
            "flow.sample_action.euler_evals": c["flow.sample_action.euler_evals"],
            "flow.sample_action.repeat_frac": ratio(c["flow.sample_action.repeats"],
                                                    calls("flow.sample_action")),
            "flow.flow_matching_loss.calls": calls("flow.flow_matching_loss"),
            "flow.flow_matching_loss.self_s": self_s("flow.flow_matching_loss"),
            "flow.train_flow.calls": calls("flow.train_flow"),
            "flow.train_flow.s": total("flow.train_flow"),
            "flow.train_flow.repeat_frac": ratio(c["flow.train_flow.repeats"],
                                                 calls("flow.train_flow")),
        })
        m.update({
            "score.perturbed_score.calls": calls("score.perturbed_score"),
            "score.perturbed_score.self_s": self_s("score.perturbed_score"),
            "score.fisher_penalty_batch.calls": calls("score.fisher_penalty_batch"),
            "score.fisher_penalty_batch.self_s": self_s("score.fisher_penalty_batch"),
            "score.degenerate_frac": ratio(c["score.fisher_penalty_batch.degenerate_rows"],
                                           c["score.fisher_penalty_batch.rows"]),
        })
        m.update({
            "transport.residual.calls": calls("transport.residual"),
            "transport.residual.self_s": self_s("transport.residual"),
            "transport.residual_backward.calls": calls("transport.residual_backward"),
            "transport.residual_backward.self_s": self_s("transport.residual_backward"),
            "transport.invert_map.calls": calls("transport.invert_map"),
            "transport.invert_map.self_s": self_s("transport.invert_map"),
            "transport.invert_map.map_evals": c["transport.invert_map.map_evals"],
            "transport.invert_map.failures": c["transport.invert_map.failures"],
        })
        for oracle in ("kl_quadrature_oracle", "pushforward_region_mass",
                       "expected_quadratic_penalty", "curvature_term_diagnostic"):
            m[f"transport.{oracle}.self_s"] = self_s(f"transport.{oracle}")
        m["densities.rows"] = c["densities.rows"]
        for method in ("log_density", "score", "log_density_hessian"):
            m[f"densities.{method}.self_s"] = self_s(f"densities.{method}")
        m.update({
            "tasks.make_dataset.s": total("tasks.make_dataset"),
            "tasks.q_value.calls": calls("tasks.q_value"),
            "tasks.q_value.self_s": self_s("tasks.q_value"),
            "training.actor_update.calls": calls("training.actor_update"),
            "training.actor_update.self_s": self_s("training.actor_update"),
            "training.critic_update.calls": calls("training.critic_update"),
            "training.critic_update.self_s": self_s("training.critic_update"),
            "training.evaluate_policy.s": total("training.evaluate_policy"),
            "training.run_refinement.calls": calls("training.run_refinement"),
            "cli.io_s": total("cli.io"),
            "validate.suites.s": total("validate.suite"),
            "validate.suites.failed": c["validate.suites.failed"],
            "trace.spans": float(len(self.spans)),
        })
        return m

    def write_spans(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("id", "name", "start_s", "end_s", "parent"))
            origin = self.spans[0][1] if self.spans else 0.0
            for index, (name, start, end, parent) in enumerate(self.spans):
                writer.writerow((index, name, f"{start - origin:.9f}", f"{end - origin:.9f}", parent))
