"""Span recorder and layer counters for the traced benchmark run.

`Tracer.install()` replaces, for the duration of a `with` block, the
module and class attributes through which each layer of meshmoe is
called, so that every call records one span: name, start, end, parent
span and request id (the training iteration or the inference mesh).
Spans stay in memory and are written out when the run ends.  Counters
are taken at the same boundaries by reading the arguments and return
values from outside.  Nothing is patched outside the `with` block, and
the untraced run never enters one.
"""

import json
import os
import time
from contextlib import contextmanager

import numpy as np

import meshmoe.experts
import meshmoe.gate
import meshmoe.sac
import meshmoe.trainer
from meshmoe.autodiff import Tensor
from meshmoe.optim import Adam

SETUP = "setup"
SIMPLEX_TOL = 1e-9


def graph_size(root: Tensor) -> tuple:
    """(node count, bytes of node data) of the graph reachable from `root`.

    A node whose data is a view of another array counts that array once.
    """
    seen = {id(root)}
    stack = [root]
    buffers = {}
    while stack:
        node = stack.pop()
        owner = node.data if node.data.base is None else node.data.base
        buffers[id(owner)] = getattr(owner, "nbytes", node.data.nbytes)
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen), sum(buffers.values())


def rows_on_simplex(values: np.ndarray) -> bool:
    values = np.asarray(values)
    return bool(np.all(np.isfinite(values)) and np.all(values >= 0.0)
                and np.all(np.abs(values.sum(axis=-1) - 1.0) <= SIMPLEX_TOL))


class Tracer:
    """Spans, exact counters and output-check failures of one traced job."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, request]
        self.stack = []
        self.request = SETUP
        self.counters = {}       # request -> {counter: exact count}
        self.violations = {}     # request -> count of failed output checks

    # --- recording -----------------------------------------------------

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        record = [name, time.perf_counter(), None, parent, self.request]
        self.spans.append(record)
        self.stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()

    def count(self, name: str, amount) -> None:
        counts = self.counters.setdefault(self.request, {})
        counts[name] = counts.get(name, 0) + int(amount)

    def check(self, ok: bool) -> None:
        if not ok:
            self.violations[self.request] = self.violations.get(self.request, 0) + 1

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    # --- patching ------------------------------------------------------

    @contextmanager
    def install(self):
        originals = []

        def wrap(owner, attr, make):
            original = getattr(owner, attr)
            originals.append((owner, attr, original))
            setattr(owner, attr, make(original))

        def timed(name, after=None, before=None):
            def make(fn):
                def wrapper(*args, **kwargs):
                    if before is not None:
                        before(*args, **kwargs)
                    with self.span(name):
                        out = fn(*args, **kwargs)
                    if after is not None:
                        after(out, *args, **kwargs)
                    return out
                return wrapper
            return make

        def on_iteration(*args, **kwargs):
            self.request = 0 if self.request == SETUP else self.request + 1

        def on_walks(walks, *args, **kwargs):
            self.count("walks.positions", sum(len(w) for w in walks))
            self.count("walks.jumps", sum(sum(w.jump_flags) for w in walks))

        def on_gate_rows(weights, *args, **kwargs):
            self.check(rows_on_simplex(weights.data))
            if self.inside("trainer.inference"):
                nodes, nbytes = graph_size(weights)
                self.count("autodiff.eval_graph_nodes", nodes)
                self.count("autodiff.eval_graph_bytes", nbytes)

        def on_features(out, features, *args, **kwargs):
            self.count("gate.tokens", features.shape[0] * features.shape[1])

        def on_prediction(pred, *args, **kwargs):
            self.check(rows_on_simplex(pred.data))

        def on_similarity(out, predictions, kind="kld"):
            if kind != "none":
                self.count("trainer.pair_divergences",
                           sum(len(p) * (len(p) - 1) for p in predictions))

        # the SAC agent's own backward passes and Adam steps run outside
        # train_iteration and are left out of these counts
        def on_backward(loss):
            if self.inside("trainer.iteration"):
                self.check(bool(np.isfinite(loss.data)))
                nodes, nbytes = graph_size(loss)
                self.count("autodiff.graph_nodes", nodes)
                self.count("autodiff.graph_bytes", nbytes)
                self.count("autodiff.backwards", 1)

        def on_adam(opt):
            if self.inside("trainer.iteration"):
                self.count("optim.params_stepped",
                           sum(p.grad is not None for p in opt.params.values()))

        def on_agent(lam, *args, **kwargs):
            self.count("sac.agent_steps", 1)

        def on_update(stats, *args, **kwargs):
            self.count("sac.updates_trained", stats is not None)

        def on_save(out, params, path):
            self.count("checkpoint.bytes", os.path.getsize(path))

        trainer = meshmoe.trainer
        wrap(trainer, "train_iteration",
             timed("trainer.iteration", before=on_iteration))
        wrap(trainer, "gate_forward_mesh", timed("gate.mesh", after=on_gate_rows))
        wrap(meshmoe.gate, "gate_forward_features",
             timed("gate.features", after=on_features))
        wrap(meshmoe.gate, "extract_walks", timed("walks.extract", after=on_walks))
        wrap(meshmoe.experts, "extract_walks",
             timed("walks.extract", after=on_walks))
        for cls in (meshmoe.experts.WalkRnnExpert, meshmoe.experts.FaceMlpExpert,
                    meshmoe.experts.EdgeSegmenterExpert):
            wrap(cls, "predict",
                 timed(f"experts.{cls.kind}.predict", after=on_prediction))
        wrap(trainer, "similarity_loss",
             timed("trainer.similarity_loss", after=on_similarity))
        wrap(trainer, "diversity_loss", timed("trainer.diversity_loss"))
        wrap(trainer, "expert_chooser", timed("trainer.route_reward"))
        wrap(trainer, "batch_reward", timed("trainer.route_reward"))
        wrap(trainer, "save_checkpoint", timed("checkpoint.save", after=on_save))
        wrap(trainer, "load_checkpoint", timed("checkpoint.load"))
        wrap(Tensor, "backward", timed("autodiff.backward", before=on_backward))
        wrap(Adam, "step", timed("optim.adam_step", before=on_adam))
        wrap(meshmoe.sac.SacLambdaAgent, "step",
             timed("sac.agent_step", after=on_agent))
        wrap(meshmoe.sac, "sac_update", timed("sac.update", after=on_update))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    # --- summaries -----------------------------------------------------

    def self_times(self) -> dict:
        """{request: {layer: seconds}}: span time minus its child spans.

        Spans inside a SAC agent step are charged to the agent step, so
        `sac.agent_step` reads as the whole agent turn and the autodiff
        and optimizer layers read as the trainer's own work.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        owner = []
        for index, (name, _, _, parent, _) in enumerate(self.spans):
            inherited = owner[parent] if parent is not None else None
            owner.append(inherited if inherited == "sac.agent_step" else name)
        out = {}
        for index, (name, start, end, parent, request) in enumerate(self.spans):
            layer = owner[index]
            per_request = out.setdefault(request, {})
            per_request[layer] = (per_request.get(layer, 0.0)
                                  + (end - start) - child_time[index])
        return out

    def write(self, fh, job: int) -> None:
        """One JSON line per span, tagged with the job it belongs to."""
        for name, start, end, parent, request in self.spans:
            fh.write(json.dumps({"job": job, "name": name, "start": start,
                                 "end": end, "parent": parent,
                                 "request": request}) + "\n")


# --- per-layer metrics -------------------------------------------------------

# metric -> span names whose self time it sums, per request (iteration or mesh)
STEP_TIMES = {
    "walks.extract_s": ("walks.extract",),
    "gate.forward_s": ("gate.mesh", "gate.features"),
    "experts.walk_rnn.predict_s": ("experts.walk_rnn.predict",),
    "experts.face_mlp.predict_s": ("experts.face_mlp.predict",),
    "experts.edge_seg.predict_s": ("experts.edge_seg.predict",),
    "trainer.similarity_loss_s": ("trainer.similarity_loss",),
    "trainer.diversity_loss_s": ("trainer.diversity_loss",),
    "trainer.route_reward_s": ("trainer.route_reward",),
    "autodiff.backward_s": ("autodiff.backward",),
    "optim.adam_step_s": ("optim.adam_step",),
    "sac.agent_step_s": ("sac.agent_step",),
}
# metric -> span names whose self time it sums over one set-up
SETUP_TIMES = {
    "checkpoint.save_s": ("checkpoint.save",),
    "checkpoint.load_s": ("checkpoint.load",),
    "synth.generate_s": ("synth.generate",),
}


def exact_counts(tracer: Tracer, steps_only: bool = False) -> dict:
    """Counters summed over the job, or over its steps alone (iterations or
    meshes, leaving out set-up, warm-up and probes).  Equal across runs at
    a seed."""
    totals = {}
    for request, counts in tracer.counters.items():
        if steps_only and not isinstance(request, int):
            continue
        for name, value in counts.items():
            totals[name] = totals.get(name, 0) + value
    return totals


def _step_requests(tracer: Tracer) -> list:
    return sorted({s[4] for s in tracer.spans if isinstance(s[4], int)})


def layer_metrics(tracers: list, overhead_share: float) -> tuple:
    """({metric: (value, unit)}, notes) from the traced jobs.

    Times are medians over steps of each layer's self time in that step
    (set-up layers: median over the jobs' set-ups).  Counts come from the
    first job and are per step, or per backward pass for the training
    graph, so they read as exact counts of one step.
    """
    step_samples = {name: [] for name in STEP_TIMES}
    setup_samples = {name: [] for name in SETUP_TIMES}
    for tracer in tracers:
        per_request = tracer.self_times()
        for request in _step_requests(tracer):
            times = per_request[request]
            for metric, names in STEP_TIMES.items():
                step_samples[metric].append(sum(times.get(n, 0.0) for n in names))
        setup = per_request.get(SETUP, {})
        for metric, names in SETUP_TIMES.items():
            setup_samples[metric].append(sum(setup.get(n, 0.0) for n in names))
    metrics = {m: (float(np.median(v)), "s") for m, v in step_samples.items()}
    metrics.update({m: (float(np.median(v)), "s") for m, v in setup_samples.items()})

    def ratio(num, den):
        return num / den if den else 0.0

    tokens = sum(exact_counts(t, steps_only=True).get("gate.tokens", 0)
                 for t in tracers)
    steps = exact_counts(tracers[0], steps_only=True)
    totals = exact_counts(tracers[0])
    step_count = len(_step_requests(tracers[0]))
    backwards = steps.get("autodiff.backwards", 0)
    trained = totals.get("sac.updates_trained", 0)
    agent_steps = totals.get("sac.agent_steps", 0)
    metrics.update({
        "walks.positions": (ratio(steps.get("walks.positions", 0), step_count),
                            "count"),
        "walks.jump_share": (ratio(steps.get("walks.jumps", 0),
                                   steps.get("walks.positions", 0)), "fraction"),
        "gate.tokens": (ratio(steps.get("gate.tokens", 0), step_count), "count"),
        "gate.forward_s_per_token": (
            ratio(sum(step_samples["gate.forward_s"]), tokens), "s/token"),
        "trainer.pair_divergences": (
            ratio(steps.get("trainer.pair_divergences", 0), step_count), "count"),
        "autodiff.graph_nodes": (
            ratio(steps.get("autodiff.graph_nodes", 0), backwards), "count"),
        "autodiff.graph_mb": (
            ratio(steps.get("autodiff.graph_bytes", 0), backwards) / 1e6, "MB"),
        "autodiff.eval_graph_nodes": (
            ratio(steps.get("autodiff.eval_graph_nodes", 0), step_count), "count"),
        "autodiff.eval_graph_mb": (
            ratio(steps.get("autodiff.eval_graph_bytes", 0), step_count) / 1e6, "MB"),
        "optim.params_stepped": (
            ratio(steps.get("optim.params_stepped", 0), step_count), "count"),
        "sac.update_share": (ratio(trained, agent_steps), "fraction"),
        "checkpoint.bytes": (totals.get("checkpoint.bytes", 0), "bytes"),
        "trace.overhead_share": (overhead_share, "ratio"),
    })
    notes = {
        "sac.update_share": f"{trained} trained updates of {agent_steps} agent steps",
        "counts": f"per step over the {step_count} steps of the first traced job",
    }
    return metrics, notes
