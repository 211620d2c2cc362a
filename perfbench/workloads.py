"""The four benchmark workloads: set-up, the timed loop and the output checks.

Every input is generated from the workload seed through `meshmoe.synth`
and `meshmoe.mesh`; the program is driven only through `build_experts`,
`build_system`, `train_run`, `inference` and the system checkpoint calls.
Why each workload exists is written down in README.md next to this file.

A training workload runs one `train_run` that stops at the first epoch
boundary after both its fixed schedule (`epochs`) and the time budget are
done.  Timings come from every loop turn; quality, the result digest and
the exact counters come from the fixed schedule alone, so they repeat bit
for bit at a seed however fast the machine is.  The large-mesh workload
loops over its meshes until the time budget is spent, after at least one
full pass, and takes quality and digest from the first pass.

Every timed step and set-up is bracketed by runs of a fixed reference
computation (`SpeedProbe`), so that its time can be scaled to a machine
of fixed speed; see `SpeedProbe` for why.
"""

import csv
import gc
import hashlib
import math
import os
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from meshmoe import synth
from meshmoe.experts import build_experts
from meshmoe.mesh import build_mesh, normalize_coordinates
from meshmoe.rng import derive
from meshmoe.sac import SACConfig, SacLambdaAgent
from meshmoe.trainer import (build_system, inference, load_system, save_system,
                             system_parameters, train_run)

from spans import Tracer, rows_on_simplex

SMALL_GATE = {"encoder_layers": 2, "decoder_layers": 2, "d_model": 32,
              "heads": 4, "ff_width": 64}
BATCH_SIZE = 16
AGENT_BATCH = 16          # replay batch; SAC updates start at iteration 16
MAX_EPOCHS = 100_000      # train_run bound; the epoch callback stops earlier
SETUP_REPEATS = 6         # before the steps, and again after them
PROBE_MESHES = 3          # held-out meshes routed after the fixed schedule
TAIL_BEYOND = 10
PROB_FLOOR = 1e-12
REFERENCE_ITERATIONS = 100     # small-operation part of the reference
REFERENCE_SCORES = (4, 256, 16)  # attention part: 4 heads, L=256, 16 per head
REFERENCE_NOMINAL_S = 0.0025   # one reference run on the 2-core host, fast phase
PROBE_MIN_RUNS = 3
PROBE_SHARE = 0.03            # probe time / time of the interval before it


@dataclass(frozen=True)
class TrainWorkload:
    task: str
    classes: int              # shape classes (segmentation: fixed at 3)
    per_class: int
    experts: tuple
    epochs: int               # fixed schedule behind quality and counters
    gate: dict = field(default_factory=dict)

    kind = "train"


@dataclass(frozen=True)
class EvalWorkload:
    shapes: tuple             # (synth builder name, its arguments)
    copies: int               # jittered instances of each shape
    experts: tuple
    gate: dict = field(default_factory=dict)

    kind = "eval"


WORKLOADS = {
    "train_gate": TrainWorkload(
        task="classification", classes=3, per_class=20,
        experts=("face_mlp", "face_mlp", "face_mlp"), epochs=6),
    "train_experts": TrainWorkload(
        task="classification", classes=5, per_class=20,
        experts=("walk_rnn", "face_mlp", "walk_rnn", "face_mlp"),
        epochs=4, gate=SMALL_GATE),
    "train_seg": TrainWorkload(
        task="segmentation", classes=3, per_class=20,
        experts=("edge_seg", "edge_seg", "edge_seg"), epochs=6, gate=SMALL_GATE),
    "eval_large": EvalWorkload(
        shapes=(("icosphere", (3,)), ("torus", (32, 20)), ("cylinder", (40, 16))),
        copies=1, experts=("face_mlp", "face_mlp", "face_mlp")),
}

# The same workloads at a size that runs in seconds, for the smoke test.
TINY = {
    "train_gate": replace(WORKLOADS["train_gate"], per_class=5, epochs=2,
                          gate=SMALL_GATE),
    "train_experts": replace(WORKLOADS["train_experts"], per_class=5, epochs=2),
    "train_seg": replace(WORKLOADS["train_seg"], per_class=5, epochs=2),
    "eval_large": replace(
        WORKLOADS["eval_large"], gate=SMALL_GATE,
        shapes=(("icosphere", (1,)), ("torus", (10, 6)), ("cylinder", (12, 4)))),
}


class BenchError(RuntimeError):
    pass


@dataclass
class Setup:
    system: object
    dataset: object = None    # training workloads
    meshes: list = None       # eval workload
    checks: int = 0           # output checks made during set-up
    checks_failed: int = 0


@dataclass
class Job:
    """One timed pass over a workload."""

    step_times: list          # seconds per loop turn or per inference call
    step_scales: list         # each step's SpeedProbe factor
    step_meshes: list         # meshes each step processed
    quality: float
    task_loss: float
    digest: str
    step_failures: list       # failed output checks per step
    extra_attempted: int = 0  # probe inferences after the schedule
    extra_failed: int = 0

    @property
    def scaled_times(self) -> list:
        return [t * f for t, f in zip(self.step_times, self.step_scales)]


class SpeedProbe:
    """Measures how fast the machine runs, with a fixed reference computation.

    The shared host's speed drifts by tens of percent over seconds and over
    minutes; a fixed loop of small numpy operations ran 1.6x slower in some
    stretches than in others.  Averaging over a longer run does not remove
    drift that lasts minutes.  So the probe runs the same reference work
    right before and right after every timed interval, and scales the
    interval to a machine that runs the reference in REFERENCE_NOMINAL_S.
    The reference has two parts, because the drift hits them differently
    and every workload mixes them: a Python-level loop over small numpy
    operations (what an autodiff node costs) and one attention-sized
    batched product with its softmax exponent (what the gate costs at long
    walks).  A burst is at least PROBE_MIN_RUNS runs of the reference,
    taking PROBE_SHARE of the interval before it; its time is their median,
    which a single stall of the host does not move.  The reference lives
    in the benchmark, so no change to the program moves it; its time is
    never counted in a step.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((32, 32)) / 32
        self.queries = rng.standard_normal(REFERENCE_SCORES)
        heads, length, _ = REFERENCE_SCORES
        # written in place: a fresh array's page faults would cost more or
        # less with the allocator state the program leaves behind
        self.scores = np.empty((heads, length, length))
        self.row_max = np.empty((heads, length, 1))
        self.bursts = []           # seconds per reference run, one per burst
        self.mark = time.perf_counter()
        for _ in range(PROBE_MIN_RUNS):
            self._reference()      # warm-up

    def _reference(self) -> float:
        x, counts = self.matrix, {}
        start = time.perf_counter()
        for i in range(REFERENCE_ITERATIONS):
            x = np.tanh(self.matrix @ x) + self.matrix
            counts[i & 15] = counts.get(i & 15, 0.0) + 0.5
        np.matmul(self.queries, self.queries.transpose(0, 2, 1), out=self.scores)
        np.max(self.scores, axis=-1, keepdims=True, out=self.row_max)
        np.subtract(self.scores, self.row_max, out=self.scores)
        np.exp(self.scores, out=self.scores)
        return time.perf_counter() - start

    def burst(self) -> None:
        """Probe now; the interval since the previous burst sets its length."""
        budget = PROBE_SHARE * (time.perf_counter() - self.mark)
        runs = []
        while len(runs) < PROBE_MIN_RUNS or sum(runs) < budget:
            runs.append(self._reference())
        self.bursts.append(statistics.median(runs))
        self.mark = time.perf_counter()

    def scale(self, index: int) -> float:
        """Factor for the interval between bursts `index` and `index + 1`."""
        return 2 * REFERENCE_NOMINAL_S / (self.bursts[index] + self.bursts[index + 1])

    def scales(self) -> list:
        return [self.scale(i) for i in range(len(self.bursts) - 1)]


# --- set-up ----------------------------------------------------------------

def setup(workload, seed: int, scratch: str, tracer: Tracer | None = None) -> Setup:
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    if workload.kind == "train":
        with span("synth.generate"):
            if workload.task == "segmentation":
                dataset = synth.generate_segmentation_set(workload.per_class,
                                                          derive(seed, "data"))
            else:
                dataset = synth.generate_classification_set(
                    workload.classes, workload.per_class, derive(seed, "data"))
        experts = build_experts(list(workload.experts), dataset.num_classes,
                                derive(seed, "experts"))
        system = build_system(experts, task=workload.task,
                              seed=derive(seed, "gate"), **workload.gate)
        return Setup(system=system, dataset=dataset)

    with span("synth.generate"):
        meshes = large_meshes(workload, seed)
    num_classes = len(workload.shapes)
    system = build_system(build_experts(list(workload.experts), num_classes,
                                        derive(seed, "experts")),
                          seed=derive(seed, "gate"), **workload.gate)
    path = os.path.join(scratch, "system.ckpt")
    save_system(system, path)
    loaded = build_system(build_experts(list(workload.experts), num_classes,
                                        derive(seed, "experts", "reload")),
                          seed=derive(seed, "gate", "reload"), **workload.gate)
    load_system(loaded, path)
    saved = system_parameters(system)
    restored = system_parameters(loaded)
    mismatched = sum(not np.array_equal(saved[k].data, restored[k].data)
                     for k in saved)
    return Setup(system=loaded, meshes=meshes, checks=1,
                 checks_failed=int(mismatched > 0))


def large_meshes(workload: EvalWorkload, seed: int) -> list:
    """Jittered, normalized copies of each refined shape; class = shape index."""
    meshes = []
    for label, (builder, args) in enumerate(workload.shapes):
        base_vertices, faces = getattr(synth, builder)(*args)
        for copy in range(workload.copies):
            vertices = synth.jitter_vertices(base_vertices,
                                             derive(seed, "large", label, copy))
            mesh = build_mesh(vertices, faces, mesh_id=f"{builder}_{label}_{copy}",
                              class_label=label)
            meshes.append(normalize_coordinates(mesh))
    return meshes


def timed_setups(workload, seed: int, scratch: str) -> tuple:
    """Set up SETUP_REPEATS times; returns (speed-scaled seconds of each,
    wall seconds of each, last set-up)."""
    probe = SpeedProbe()
    probe.burst()
    durations = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = time.perf_counter()
        built = setup(workload, seed, scratch)
        durations.append(time.perf_counter() - start)
        probe.burst()
    scaled = [d * f for d, f in zip(durations, probe.scales())]
    return scaled, durations, built


# --- training --------------------------------------------------------------

class TimedAgent:
    """Passes every call to the SAC agent; times each train_run loop turn.

    A turn runs from the end of one agent step to the end of the next, so
    it holds one `train_iteration` plus the agent step that follows it.
    A speed-probe burst follows every agent step, outside the turns.
    """

    def __init__(self, agent):
        self.agent = agent
        self.probe = SpeedProbe()
        self.turns = []
        self.failures = []
        self.mark = None

    def step(self, s_t, r_t, s_prev, terminal):
        lam = self.agent.step(s_t, r_t, s_prev, terminal)
        now = time.perf_counter()
        if s_prev is not None:
            self.turns.append(now - self.mark)
            self.failures.append(int(not rows_on_simplex(s_t))
                                 + int(not 0.0 <= r_t <= 1.0))
        self.probe.burst()
        self.mark = time.perf_counter()
        return lam

    def restart_clock(self) -> None:
        self.mark = time.perf_counter()


def train_job(workload: TrainWorkload, built: Setup, seed: int, seconds: float,
              scratch: str, tracer: Tracer | None = None) -> Job:
    system, dataset = built.system, built.dataset
    deadline = time.perf_counter() + seconds
    num_experts = len(system.experts)
    agent = TimedAgent(SacLambdaAgent(
        SACConfig(state_dim=num_experts, batch_size=AGENT_BATCH),
        seed=derive(seed, "agent")))
    probes = []

    def at_epoch_end(epoch, summary):
        if epoch + 1 == workload.epochs:
            if tracer is not None:
                iteration, tracer.request = tracer.request, "probe"
            for mesh in dataset.test_meshes[:PROBE_MESHES]:
                pred, j = inference(system, mesh, seed=derive(seed, "probe"))
                probes.append((mesh.mesh_id, j, pred))
            if tracer is not None:
                tracer.request = iteration
            agent.restart_clock()
        return epoch + 1 >= workload.epochs and time.perf_counter() >= deadline

    log_path = os.path.join(scratch, "train_log.csv")
    train_run(system, dataset, agent, epochs=MAX_EPOCHS, batch_size=BATCH_SIZE,
              seed=derive(seed, "train"), log_path=log_path,
              epoch_callback=at_epoch_end)
    with open(log_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    if len(rows) != len(agent.turns):
        raise BenchError(f"{len(rows)} logged iterations, {len(agent.turns)} turns")

    digest = hashlib.sha256()
    failures = []
    final_rewards, final_div = [], []
    for row, agent_failures in zip(rows, agent.failures):
        epoch = int(row[0])
        lam, l_sim, l_div, l_joint, reward = (float(v) for v in row[2:7])
        selection = np.array([float(v) for v in row[7:]])
        bad = agent_failures
        bad += not all(math.isfinite(v) for v in (l_sim, l_div, l_joint))
        bad += not 0.0 <= reward <= 1.0
        bad += not rows_on_simplex(selection)
        bad += not -1.0 <= lam <= 1.0
        failures.append(bad)
        if epoch < workload.epochs:
            digest.update(",".join(row).encode())
        if epoch == workload.epochs - 1:
            final_rewards.append(reward)
            final_div.append(l_div)

    probe_failed = 0
    for mesh_id, j, pred in probes:
        probe_failed += not (rows_on_simplex(pred) and 0 <= j < num_experts)
        digest.update(f"{mesh_id}:{j}:".encode() + pred.tobytes())

    batches = [min(BATCH_SIZE, len(dataset.train_ids) - i)
               for i in range(0, len(dataset.train_ids), BATCH_SIZE)]
    return Job(step_times=agent.turns, step_scales=agent.probe.scales(),
               step_meshes=[batches[i % len(batches)]
                            for i in range(len(agent.turns))],
               quality=float(np.mean(final_rewards)),
               task_loss=float(np.mean(final_div)),
               digest=digest.hexdigest(), step_failures=failures,
               extra_attempted=len(probes), extra_failed=probe_failed)


# --- large-mesh inference --------------------------------------------------

def eval_job(workload: EvalWorkload, built: Setup, seed: int, seconds: float,
             tracer: Tracer | None = None) -> Job:
    system, meshes = built.system, built.meshes
    infer_seed = derive(seed, "infer")
    # the first call on a large mesh runs about twice as long as later ones
    if tracer is not None:
        tracer.request = "warmup"
    inference(system, meshes[0], seed=infer_seed)
    probe = SpeedProbe()
    probe.burst()

    deadline = time.perf_counter() + seconds
    first_pass = []
    times, failures = [], []
    step = 0
    while step < len(meshes) or time.perf_counter() < deadline:
        mesh = meshes[step % len(meshes)]
        if tracer is not None:
            tracer.request = step
        context = (tracer.span("trainer.inference") if tracer is not None
                   else nullcontext())
        start = time.perf_counter()
        with context:
            pred, j = inference(system, mesh, seed=infer_seed)
        times.append(time.perf_counter() - start)
        probe.burst()
        bad = int(not rows_on_simplex(pred)) + int(not 0 <= j < len(system.experts))
        if step < len(meshes):
            first_pass.append((mesh, j, pred))
        else:
            _, j0, pred0 = first_pass[step % len(meshes)]
            bad += int(j != j0 or not np.array_equal(pred, pred0))
        failures.append(bad)
        step += 1

    digest = hashlib.sha256()
    true_probs = []
    for mesh, j, pred in first_pass:
        digest.update(f"{mesh.mesh_id}:{j}:".encode() + pred.tobytes())
        true_probs.append(float(pred[mesh.class_label]))
    return Job(step_times=times, step_scales=probe.scales(),
               step_meshes=[1] * len(times),
               quality=float(np.mean(true_probs)),
               task_loss=float(np.mean([-math.log(max(p, PROB_FLOOR))
                                        for p in true_probs])),
               digest=digest.hexdigest(), step_failures=failures)


def run_job(workload, built: Setup, seed: int, seconds: float, scratch: str,
            tracer: Tracer | None = None) -> Job:
    """Measure for `seconds`, and at least the fixed schedule (0: exactly it)."""
    gc.collect()
    if workload.kind == "train":
        return train_job(workload, built, seed, seconds, scratch, tracer)
    return eval_job(workload, built, seed, seconds, tracer)


# --- metrics ---------------------------------------------------------------

def tail(values: list) -> tuple:
    """(value, samples beyond it) at the highest percentile with TAIL_BEYOND
    samples above it.  Short runs have no such percentile; they use the
    upper median, so that the tail never reads below the median."""
    ordered = sorted(values)
    index = max(len(ordered) - 1 - TAIL_BEYOND, len(ordered) // 2)
    return ordered[index], len(ordered) - 1 - index


def end_to_end(job: Job, setup_s: float, setup_wall_s: float,
               peak_rss_mb: float) -> tuple:
    """({metric: (value, unit)}, notes).

    The bounded times are scaled by the speed probe: `meshes_per_s` and
    `setup_s` read as on a machine that runs the reference computation in
    REFERENCE_NOMINAL_S.  The wall-clock values go to the notes, with the
    median and tail step times, which have no bound.
    """
    n = len(job.step_times)
    tail_s, beyond = tail(job.step_times)
    meshes = sum(job.step_meshes)
    metrics = {
        "meshes_per_s": (meshes / sum(job.scaled_times), "meshes/s"),
        "task_loss": (job.task_loss, "nats"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {"meshes_per_s_wall": meshes / sum(job.step_times),
             "setup_s_wall": setup_wall_s,
             "machine_speed": (f"{1.0 / statistics.median(job.step_scales):.4g}"
                               " x nominal, median over steps"),
             "step_s_p50": statistics.median(job.step_times),
             "step_s_tail": tail_s,
             "step_s_tail_at": (f"p{100.0 * (n - beyond) / n:.1f} of {n} steps, "
                                f"{beyond} beyond it"),
             "quality": job.quality}
    return metrics, notes
