"""Command-line pipeline from data generation to evaluation.

Subcommands: gen-data, pretrain-experts, pretrain-gate, train, eval,
dump-walks, gradcheck.  Every run writes a JSON manifest with the resolved
configuration, the seed, and content hashes of the files it consumed, so a
run can be reproduced bit for bit.  Config file values override the
built-in defaults and command-line flags override both.
"""

import argparse
import csv
import hashlib
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, replace

from .blas import blas_name, blas_pinned, blas_threads
from .checkpoint import (CheckpointError, atomic_write, copy_into, load_checkpoint,
                         save_checkpoint)
from .config import SECTIONS, ConfigError, RunConfig, load_config
from .experts import build_experts, expert_parameters, train_expert_supervised
from .gate import average_pretrained_gates, gate_parameters, init_gate_params, pretrain_imitation
from .gradcheck import standard_battery
from .mesh import TASKS, load_dataset, load_off, save_dataset
from .optim import OptimError
from .rng import derive
from .sac import SacLambdaAgent, StaticLambdaAgent
from .synth import generate_classification_set, generate_segmentation_set
from .trainer import (SIM_KINDS, TrainerError, build_system, check_pool,
                      evaluate_ensemble, inference, load_system, save_system,
                      task_scores, train_run)
from .walks import extract_walks

_ERRORS = (TrainerError, OptimError, OSError, ValueError)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out_dir, command: str, cfg: RunConfig, inputs: list,
                    outputs: list) -> None:
    manifest = {
        "command": command,
        "config": asdict(cfg),
        "seed": cfg.seed,
        "blas": blas_name(),
        "blas_threads": blas_threads(),
        "inputs": {str(p): _sha256(p) for p in inputs if os.path.exists(p)},
        "outputs": [str(p) for p in outputs],
    }
    path = os.path.join(out_dir, f"manifest_{command}.json")
    with atomic_write(path) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


@contextmanager
def _blame(given: dict, section: str, field: str | None = None):
    """Re-raise a ValueError from inside as a ConfigError prefixed with the
    flag or config line that set [section] `field`, or the field the error
    names as its `setting` (of a tuple of fields, the first that a flag or
    line set); a value left at its default keeps the error."""
    try:
        yield
    except ValueError as err:
        setting = getattr(err, "setting", None) or field
        names = (setting,) if isinstance(setting, str) else setting or ()
        at = next((given[section, name] for name in names if (section, name) in given), None)
        if at is None:
            raise
        raise ConfigError(f"{at}: {err}") from None


def _resolve_config(args) -> tuple:
    """Defaults <- config file <- command-line flags; returns (cfg, inputs,
    given), where `given` maps each (section, field) that a flag or the
    config file set to that flag or its 'path:line'."""
    inputs = []
    if args.config:
        cfg, given = load_config(args.config)
        inputs.append(args.config)
    else:
        cfg, given = RunConfig(), {}
    for flag, (_, target) in _FLAGS.items():
        value = getattr(args, flag.replace("-", "_"), None)
        if target is not None and value is not None:
            section, field = target
            setattr(cfg if section == "run" else getattr(cfg, section), field, value)
            given[target] = f"--{flag}"
    if getattr(args, "lambda_range", None) is not None:
        try:
            lo, hi = (float(v) for v in args.lambda_range.split(","))
        except ValueError:
            raise ConfigError(
                f"--lambda-range wants 'lo,hi', got {args.lambda_range!r}"
            ) from None
        cfg.agent.lambda_min, cfg.agent.lambda_max = lo, hi
        given[("agent", "lambda_min")] = given[("agent", "lambda_max")] = "--lambda-range"

    # each section checks its fields when built: build each again, as set
    for section in SECTIONS:
        with _blame(given, section):
            replace(getattr(cfg, section))
    with _blame(given, "agent", "static_lambda"):
        cfg.static_lambda_value()
    # argparse checks a flag's choices; a value from the config file is checked here
    for options, target in _FLAGS.values():
        if "choices" in options and target is not None:
            value = getattr(getattr(cfg, target[0]), target[1])
            if value not in options["choices"]:
                raise ConfigError(f"{given[target]}: {target[1]} must "
                                  f"be one of {', '.join(options['choices'])}, got {value!r}")
    return cfg, inputs, given


def _data_dir(args) -> str:
    return args.data_dir or os.path.join(args.out_dir, "data")


def _dataset_run(args) -> tuple:
    """(cfg, inputs, given, out_dir, dataset) of a subcommand that reads a
    dataset; its config, dataset and named checkpoints are all checked first."""
    cfg, inputs, given = _resolve_config(args)
    data_dir = _data_dir(args)
    dataset = load_dataset(data_dir)
    inputs += [os.path.join(data_dir, "manifest.csv"),
               os.path.join(data_dir, "dataset.ini")]
    # a named checkpoint must exist; eval's --ckpt always names one
    for flag in ("experts_ckpt", "gate_init", "ckpt"):
        path = getattr(args, flag, None)
        if path is not None and not os.path.exists(path):
            raise CheckpointError(f"--{flag.replace('_', '-')}: no checkpoint at {path}")
    return cfg, inputs, given, args.out_dir, dataset


def _load_if_present(what: str, params: dict, path, inputs: list) -> None:
    """Copy the checkpoint at `path`, if there is one, into `params` in
    place and count it among the run's inputs."""
    if os.path.exists(path):
        copy_into(params, load_checkpoint(path))
        inputs.append(path)
        print(f"loaded {what} from {path}")


def _build_pool(cfg: RunConfig, dataset, given: dict) -> list:
    """The configured experts, checked against the dataset's task."""
    with _blame(given, "experts", "specs"):
        experts = build_experts(cfg.expert_specs(), num_classes=dataset.num_classes,
                                seed=derive(cfg.seed, "experts"),
                                hidden=cfg.experts.hidden)
    check_pool(experts, dataset.task)
    return experts


def _build_full_system(cfg: RunConfig, dataset, given: dict):
    experts = _build_pool(cfg, dataset, given)
    gate_config = cfg.gate.build(num_experts=len(experts))
    system = build_system(experts, task=dataset.task, gate_config=gate_config,
                          seed=derive(cfg.seed, "gate"))
    system.walks_train = cfg.trainer.walks_train
    system.walks_infer = cfg.trainer.walks_infer
    return system


# -------------------------------------------------------------- subcommands

def _cmd_gen_data(args) -> int:
    cfg, inputs, given = _resolve_config(args)
    data_dir = _data_dir(args)
    with _blame(given, "data"):
        if cfg.data.task == "segmentation":
            dataset = generate_segmentation_set(per_class=cfg.data.per_class,
                                                seed=cfg.seed)
        else:
            dataset = generate_classification_set(
                classes=cfg.data.classes, per_class=cfg.data.per_class,
                seed=cfg.seed, task=cfg.data.task)
    save_dataset(dataset, data_dir)
    _write_manifest(args.out_dir, "gen-data", cfg, inputs,
                    [os.path.join(data_dir, "manifest.csv")])
    print(f"wrote {len(dataset.meshes)} meshes "
          f"({len(dataset.train_ids)} train / {len(dataset.test_ids)} test) "
          f"to {data_dir}")
    return 0


def _cmd_pretrain_experts(args) -> int:
    cfg, inputs, given, out, dataset = _dataset_run(args)
    experts = _build_pool(cfg, dataset, given)
    ckpt = os.path.join(out, "experts.ckpt")
    losses_csv = os.path.join(out, "pretrain_losses.csv")
    rows = []
    for expert in experts:
        if not expert.trainable:
            print(f"{expert.name}: not trainable, skipped")
            continue
        # zero epochs skip the fit, as `train` does
        history = train_expert_supervised(
            expert, dataset.train_meshes, epochs=cfg.trainer.epochs,
            batch_size=cfg.trainer.batch_size, lr=cfg.trainer.expert_lr,
            seed=derive(cfg.seed, "pretrain", expert.name)) if cfg.trainer.epochs else []
        rows += [[expert.name, e, loss] for e, loss in enumerate(history)]
        print(f"{expert.name}: loss {history[0]:.4f} -> {history[-1]:.4f} "
              f"over {len(history)} epochs" if history else f"{expert.name}: 0 epochs")
    save_checkpoint(expert_parameters(experts), ckpt)
    with atomic_write(losses_csv) as fh:
        writer = csv.writer(fh)
        writer.writerow(["expert", "epoch", "loss"])
        writer.writerows(rows)
    _write_manifest(out, "pretrain-experts", cfg, inputs, [ckpt, losses_csv])
    print(f"saved {ckpt}")
    return 0


def _cmd_pretrain_gate(args) -> int:
    cfg, inputs, given, out, dataset = _dataset_run(args)
    experts = _build_pool(cfg, dataset, given)
    _load_if_present("expert parameters", expert_parameters(experts),
                     args.experts_ckpt or os.path.join(out, "experts.ckpt"), inputs)
    imitation_config = cfg.gate.build(num_experts=len(experts), num_classes=dataset.num_classes,
                                      head_mode="class_imitation")
    pretrained = []
    for j, expert in enumerate(experts):
        # the same init seed for every expert: averaging weights only makes
        # sense when the per-expert trainings start from the same point
        params = init_gate_params(imitation_config, derive(cfg.seed, "gate-imit"))
        history = pretrain_imitation(
            params, imitation_config, expert, dataset.train_meshes,
            epochs=cfg.trainer.epochs, walk_count=cfg.trainer.walks_train,
            batch_size=cfg.trainer.batch_size, lr=cfg.trainer.gate_lr,
            seed=derive(cfg.seed, "imit", j)) if cfg.trainer.epochs else []
        pretrained.append(params)
        print(f"imitated {expert.name}: loss {history[0]:.4f} -> {history[-1]:.4f}"
              if history else f"imitated {expert.name}: 0 epochs")
    averaged = average_pretrained_gates(pretrained, imitation_config,
                                        derive(cfg.seed, "gate"))
    ckpt = os.path.join(out, "gate_init.ckpt")
    save_checkpoint(gate_parameters(averaged), ckpt)
    _write_manifest(out, "pretrain-gate", cfg, inputs, [ckpt])
    print(f"saved {ckpt}")
    return 0


def _cmd_train(args) -> int:
    cfg, inputs, given, out, dataset = _dataset_run(args)
    system = _build_full_system(cfg, dataset, given)
    _load_if_present("expert parameters", expert_parameters(system.experts),
                     args.experts_ckpt or os.path.join(out, "experts.ckpt"), inputs)
    _load_if_present("gate initialization", gate_parameters(system.gate_params),
                     args.gate_init or os.path.join(out, "gate_init.ckpt"), inputs)

    static = cfg.static_lambda_value()
    if static is not None:
        agent = StaticLambdaAgent(static)
        print(f"static lambda = {static}")
    else:
        agent = SacLambdaAgent(cfg.agent.build(state_dim=len(system.experts)),
                               seed=derive(cfg.seed, "agent"))

    log_csv = os.path.join(out, "train_log.csv")
    history = train_run(
        system, dataset, agent, epochs=cfg.trainer.epochs,
        batch_size=cfg.trainer.batch_size, gate_lr=cfg.trainer.gate_lr,
        expert_lr=cfg.trainer.expert_lr, sim_kind=cfg.trainer.sim_loss,
        seed=derive(cfg.seed, "train"), log_path=log_csv)
    ckpt = os.path.join(out, "model.ckpt")
    save_system(system, ckpt)
    # train_run writes the log at each epoch end: no epoch, no log
    _write_manifest(out, "train", cfg, inputs, [ckpt, log_csv] if history else [ckpt])
    if history:
        last = history[-1]
        print(f"epoch {last['epoch']}: reward {last['reward']:.3f}, "
              f"lambda {last['lambda']:+.3f}")
    print(f"saved {ckpt}")
    return 0


def _cmd_eval(args) -> int:
    args.ckpt = args.ckpt or os.path.join(args.out_dir, "model.ckpt")
    cfg, inputs, given, out, dataset = _dataset_run(args)
    system = _build_full_system(cfg, dataset, given)
    load_system(system, args.ckpt)
    inputs.append(args.ckpt)

    meshes = dataset.train_meshes if args.split == "train" else dataset.test_meshes
    seed = derive(cfg.seed, "eval", args.split)
    method = "ensemble" if args.ensemble else "moe"
    if args.ensemble:
        if dataset.task == "segmentation":
            raise TrainerError("hard voting is a classification baseline; "
                               "segmentation has no ensemble mode")
        scores = {"accuracy": evaluate_ensemble(system, meshes, seed=seed)["accuracy"]}
    else:
        predictions = [inference(system, mesh, seed)[0] for mesh in meshes]
        scores = task_scores(dataset.task, meshes, predictions)

    report = os.path.join(out, "report.csv")
    old = ""
    if os.path.exists(report):
        with open(report, newline="", encoding="utf-8") as fh:
            old = fh.read()
    with atomic_write(report) as fh:
        fh.write(old)
        writer = csv.writer(fh)
        if not old:
            writer.writerow(["split", "method", "metric", "value"])
        for metric, value in scores.items():
            writer.writerow([args.split, method, metric, f"{value:.10g}"])
    for metric, value in scores.items():
        print(f"{args.split} {method} {metric} = {value:.4f}")
    _write_manifest(out, "eval", cfg, inputs, [report])
    return 0


def _cmd_dump_walks(args) -> int:
    cfg, _, _ = _resolve_config(args)
    mesh = load_off(args.mesh_file)
    with _blame({("walks", "count"): "--count"}, "walks"):
        walks = extract_walks(mesh, args.count, cfg.seed)
    lines = [f"{mesh.mesh_id} {len(walk)} "
             + " ".join(str(v) for v in walk.vertex_indices)
             for walk in walks]
    text = "\n".join(lines)
    if args.out:
        with atomic_write(args.out) as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _cmd_gradcheck(args) -> int:
    cfg, _, _ = _resolve_config(args)
    all_passed = True
    for name, report in standard_battery(seed=cfg.seed):
        status = "PASS" if report.passed else "FAIL"
        print(f"{name:<16} {status}  (max rel err {report.max_rel_error:.3e}, "
              f"{report.checked} coords)")
        all_passed = all_passed and report.passed
    return 0 if all_passed else 1


# -------------------------------------------------------------- parser

# Every flag, declared once: its argparse options and the RunConfig (section,
# field) it overrides, if any ("run" is the top level, as in config files).
_FLAGS = {
    "seed": ({"type": int}, ("run", "seed")),
    "config": ({"help": "key=value config file; flags override it"}, None),
    "out-dir": ({"default": "runs"}, None),
    "data-dir": ({"help": "dataset directory (default <out-dir>/data)"}, None),
    "classes": ({"type": int}, ("data", "classes")),
    "per-class": ({"type": int}, ("data", "per_class")),
    "task": ({"choices": TASKS}, ("data", "task")),
    "epochs": ({"type": int}, ("trainer", "epochs")),
    "batch-size": ({"type": int}, ("trainer", "batch_size")),
    "experts": ({"help": "comma-separated expert specs"}, ("experts", "specs")),
    "walks-train": ({"type": int}, ("trainer", "walks_train")),
    "walks-infer": ({"type": int}, ("trainer", "walks_infer")),
    "lambda-range": ({"metavar": "LO,HI"}, None),   # parsed by _resolve_config
    "static-lambda": ({"metavar": "X", "help": "constant lambda instead of the learned agent"},
                      ("agent", "static_lambda")),
    "loss-sim": ({"choices": SIM_KINDS}, ("trainer", "sim_loss")),
    "experts-ckpt": ({}, None),
    "gate-init": ({}, None),
    "ckpt": ({}, None),
    "split": ({"default": "test", "choices": ["train", "test"]}, None),
    "ensemble": ({"action": "store_true",
                  "help": "hard-voting baseline over all experts"}, None),
    "mesh-file": ({"required": True}, None),
    "count": ({"type": int, "default": 8}, None),
    "out": ({}, None),
}

# Each subcommand: its handler, its help line and the flags it reads.
_COMMANDS = {
    "gen-data": (_cmd_gen_data, "write a synthetic mesh dataset",
                 "seed config out-dir data-dir classes per-class task"),
    "pretrain-experts": (_cmd_pretrain_experts,
                         "supervised pre-training of each trainable expert",
                         "seed config out-dir data-dir epochs batch-size experts"),
    "pretrain-gate": (_cmd_pretrain_gate,
                      "imitation pre-training per expert, then averaging",
                      "seed config out-dir data-dir epochs batch-size experts "
                      "walks-train experts-ckpt"),
    "train": (_cmd_train, "joint MoE training with a coefficient agent",
              "seed config out-dir data-dir epochs batch-size experts walks-train "
              "lambda-range static-lambda loss-sim experts-ckpt gate-init"),
    "eval": (_cmd_eval, "evaluate a trained system",
             "seed config out-dir data-dir experts walks-infer ckpt split ensemble"),
    "dump-walks": (_cmd_dump_walks, "print walk vertex sequences for one mesh",
                   "seed config mesh-file count out"),
    "gradcheck": (_cmd_gradcheck,
                  "finite-difference checks on every building block", "seed config"),
}


class _Parser(argparse.ArgumentParser):
    """Reads `--flag -1,1` as `--flag=-1,1`: argparse alone takes a value that
    starts with '-' for an option, unless it reads like -1 or -0.5.  `--flag`
    may be any prefix that names one of this parser's flags, as argparse
    allows."""

    def parse_known_args(self, args=None, namespace=None):
        args = list(sys.argv[1:] if args is None else args)
        actions = self._option_string_actions
        for i in range(len(args) - 2, -1, -1):
            flag, value = args[i], args[i + 1]
            if flag[:2] != "--" or value[:1] != "-" or value[:2] == "--":
                continue
            if flag not in actions:
                flags = [f for f in actions if f.startswith(flag)]
                flag = flags[0] if len(flags) == 1 else None
            if flag and actions[flag].nargs is None:
                args[i:i + 2] = [f"{flag}={value}"]
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="meshmoe",
        description="walk-routed mixture of mesh experts")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_line, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for flag in flags.split():
            p.add_argument(f"--{flag}", **_FLAGS[flag][0])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # one BLAS thread: large-K GEMM sums depend on the thread count
        with blas_pinned(1):
            return args.func(args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
