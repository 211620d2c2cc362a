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
from dataclasses import asdict

from .autodiff import Tensor
from .checkpoint import (CheckpointError, atomic_write, copy_into,
                         load_checkpoint, save_checkpoint)
from .config import ConfigError, RunConfig, config_snapshot, load_config
from .experts import (ExpertError, build_experts, expert_parameters,
                      train_expert_supervised)
from .gate import (GateConfig, GateError, average_pretrained_gates,
                   init_gate_params, pretrain_imitation)
from .gradcheck import standard_battery
from .mesh import MeshError, load_dataset, load_off, save_dataset
from .optim import OptimError
from .rng import derive
from .sac import SACConfig, SacLambdaAgent, StaticLambdaAgent
from .synth import generate_classification_set, generate_segmentation_set
from .trainer import (TrainerError, build_system, evaluate_ensemble,
                      inference, load_system, save_system, task_scores,
                      train_run)
from .walks import WalkError, extract_walks

_ERRORS = (ConfigError, MeshError, WalkError, TrainerError, CheckpointError,
           ExpertError, GateError, OptimError, OSError, ValueError)


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
        "config": config_snapshot(cfg),
        "seed": cfg.seed,
        "inputs": {str(p): _sha256(p) for p in inputs if os.path.exists(p)},
        "outputs": [str(p) for p in outputs],
    }
    path = os.path.join(out_dir, f"manifest_{command}.json")
    with atomic_write(path) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def _resolve_config(args) -> tuple:
    """Defaults <- config file <- command-line flags; returns (cfg, inputs)."""
    inputs = []
    if args.config:
        cfg = load_config(args.config)
        inputs.append(args.config)
    else:
        cfg = RunConfig()
    for flag, section, field in (
            ("seed", cfg, "seed"), ("epochs", cfg.trainer, "epochs"),
            ("batch_size", cfg.trainer, "batch_size"), ("experts", cfg.experts, "specs"),
            ("walks_train", cfg.trainer, "walks_train"),
            ("walks_infer", cfg.trainer, "walks_infer"),
            ("static_lambda", cfg.agent, "static_lambda"),
            ("loss_sim", cfg.trainer, "sim_loss"), ("classes", cfg.data, "classes"),
            ("per_class", cfg.data, "per_class"), ("task", cfg.data, "task")):
        if getattr(args, flag, None) is not None:
            setattr(section, field, getattr(args, flag))
    if getattr(args, "lambda_range", None) is not None:
        try:
            lo, hi = (float(v) for v in args.lambda_range.split(","))
        except ValueError:
            raise ConfigError(
                f"--lambda-range wants 'lo,hi', got {args.lambda_range!r}"
            ) from None
        cfg.agent.lambda_min, cfg.agent.lambda_max = lo, hi
    return cfg, inputs


def _out_dir(args) -> str:
    os.makedirs(args.out_dir, exist_ok=True)
    return args.out_dir


def _data_dir(args) -> str:
    return args.data_dir or os.path.join(args.out_dir, "data")


def _dataset_run(args) -> tuple:
    """(cfg, inputs, out_dir, dataset) of a subcommand that reads a dataset."""
    cfg, inputs = _resolve_config(args)
    out = _out_dir(args)
    data_dir = _data_dir(args)
    dataset = load_dataset(data_dir)
    inputs += [os.path.join(data_dir, "manifest.csv"),
               os.path.join(data_dir, "dataset.ini")]
    return cfg, inputs, out, dataset


def _load_if_present(what: str, params: dict, path, inputs: list) -> None:
    """Copy the checkpoint at `path`, if there is one, into `params` in
    place and count it among the run's inputs."""
    if os.path.exists(path):
        copy_into(params, load_checkpoint(path))
        inputs.append(path)
        print(f"loaded {what} from {path}")


def _build_pool(cfg: RunConfig, num_classes: int) -> list:
    return build_experts(cfg.expert_specs(), num_classes=num_classes,
                         seed=derive(cfg.seed, "experts"),
                         hidden=cfg.experts.hidden)


def _build_full_system(cfg: RunConfig, dataset):
    experts = _build_pool(cfg, dataset.num_classes)
    # num_classes materializes the imitation head too, so imitation-pretrained
    # checkpoints and randomly initialized ones stay interchangeable
    gate_config = GateConfig(num_experts=len(experts),
                             num_classes=dataset.num_classes, **asdict(cfg.gate))
    system = build_system(experts, task=dataset.task, gate_config=gate_config,
                          seed=derive(cfg.seed, "gate"))
    system.walks_train = cfg.trainer.walks_train
    system.walks_infer = cfg.trainer.walks_infer
    return system


# -------------------------------------------------------------- subcommands

def _cmd_gen_data(args) -> int:
    cfg, inputs = _resolve_config(args)
    out = _out_dir(args)
    data_dir = _data_dir(args)
    if cfg.data.task == "segmentation":
        dataset = generate_segmentation_set(per_class=cfg.data.per_class,
                                            seed=cfg.seed)
    else:
        dataset = generate_classification_set(
            classes=cfg.data.classes, per_class=cfg.data.per_class,
            seed=cfg.seed, task=cfg.data.task)
    save_dataset(dataset, data_dir)
    _write_manifest(out, "gen-data", cfg, inputs,
                    [os.path.join(data_dir, "manifest.csv")])
    print(f"wrote {len(dataset.meshes)} meshes "
          f"({len(dataset.train_ids)} train / {len(dataset.test_ids)} test) "
          f"to {data_dir}")
    return 0


def _cmd_pretrain_experts(args) -> int:
    cfg, inputs, out, dataset = _dataset_run(args)
    experts = _build_pool(cfg, dataset.num_classes)
    ckpt = os.path.join(out, "experts.ckpt")
    losses_csv = os.path.join(out, "pretrain_losses.csv")
    rows = []
    for expert in experts:
        if not expert.trainable:
            print(f"{expert.name}: not trainable, skipped")
            continue
        history = train_expert_supervised(
            expert, dataset.train_meshes, epochs=cfg.trainer.epochs,
            batch_size=cfg.trainer.batch_size, lr=cfg.trainer.expert_lr,
            seed=derive(cfg.seed, "pretrain", expert.name))
        rows += [[expert.name, e, loss] for e, loss in enumerate(history)]
        print(f"{expert.name}: loss {history[0]:.4f} -> {history[-1]:.4f} "
              f"over {len(history)} epochs")
    save_checkpoint(expert_parameters(experts), ckpt)
    with atomic_write(losses_csv) as fh:
        writer = csv.writer(fh)
        writer.writerow(["expert", "epoch", "loss"])
        writer.writerows(rows)
    _write_manifest(out, "pretrain-experts", cfg, inputs, [ckpt, losses_csv])
    print(f"saved {ckpt}")
    return 0


def _cmd_pretrain_gate(args) -> int:
    cfg, inputs, out, dataset = _dataset_run(args)
    experts = _build_pool(cfg, dataset.num_classes)
    _load_if_present("expert parameters", expert_parameters(experts),
                     args.experts_ckpt or os.path.join(out, "experts.ckpt"), inputs)
    imitation_config = GateConfig(num_experts=len(experts),
                                  num_classes=dataset.num_classes,
                                  head_mode="class_imitation", **asdict(cfg.gate))
    # one shared init per run: averaging weights only makes sense when the
    # per-expert trainings start from the same point
    shared = init_gate_params(imitation_config, derive(cfg.seed, "gate-imit"))
    pretrained = []
    for j, expert in enumerate(experts):
        params = {k: Tensor(v.data.copy(), requires_grad=True)
                  for k, v in shared.items()}
        history = pretrain_imitation(
            params, imitation_config, expert, dataset.train_meshes,
            epochs=cfg.trainer.epochs, walk_count=cfg.trainer.walks_train,
            batch_size=cfg.trainer.batch_size, lr=cfg.trainer.gate_lr,
            seed=derive(cfg.seed, "imit", j))
        pretrained.append(params)
        print(f"imitated {expert.name}: loss {history[0]:.4f} -> "
              f"{history[-1]:.4f}")
    averaged = average_pretrained_gates(pretrained, imitation_config,
                                        derive(cfg.seed, "gate"))
    ckpt = os.path.join(out, "gate_init.ckpt")
    save_checkpoint({f"gate.{k}": v for k, v in averaged.items()}, ckpt)
    _write_manifest(out, "pretrain-gate", cfg, inputs, [ckpt])
    print(f"saved {ckpt}")
    return 0


def _cmd_train(args) -> int:
    cfg, inputs, out, dataset = _dataset_run(args)
    system = _build_full_system(cfg, dataset)
    _load_if_present("expert parameters", expert_parameters(system.experts),
                     args.experts_ckpt or os.path.join(out, "experts.ckpt"), inputs)
    _load_if_present("gate initialization",
                     {f"gate.{k}": v for k, v in system.gate_params.items()},
                     args.gate_init or os.path.join(out, "gate_init.ckpt"), inputs)

    static = cfg.static_lambda_value()
    if static is not None:
        agent = StaticLambdaAgent(static)
        print(f"static lambda = {static}")
    else:
        agent_fields = asdict(cfg.agent)
        del agent_fields["static_lambda"]
        sac_config = SACConfig(state_dim=len(system.experts), **agent_fields)
        agent = SacLambdaAgent(sac_config, seed=derive(cfg.seed, "agent"))

    log_csv = os.path.join(out, "train_log.csv")
    history = train_run(
        system, dataset, agent, epochs=cfg.trainer.epochs,
        batch_size=cfg.trainer.batch_size, gate_lr=cfg.trainer.gate_lr,
        expert_lr=cfg.trainer.expert_lr, sim_kind=cfg.trainer.sim_loss,
        seed=derive(cfg.seed, "train"), log_path=log_csv)
    ckpt = os.path.join(out, "model.ckpt")
    save_system(system, ckpt)
    _write_manifest(out, "train", cfg, inputs, [ckpt, log_csv])
    if history:
        last = history[-1]
        print(f"epoch {last['epoch']}: reward {last['reward']:.3f}, "
              f"lambda {last['lambda']:+.3f}")
    print(f"saved {ckpt}")
    return 0


def _cmd_eval(args) -> int:
    cfg, inputs, out, dataset = _dataset_run(args)
    ckpt = args.ckpt or os.path.join(out, "model.ckpt")
    if not os.path.exists(ckpt):
        raise TrainerError(f"no checkpoint at {ckpt}; run train first")
    system = _build_full_system(cfg, dataset)
    load_system(system, ckpt)
    inputs.append(ckpt)

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
    cfg, _ = _resolve_config(args)
    mesh = load_off(args.mesh_file)
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
    cfg, _ = _resolve_config(args)
    all_passed = True
    for name, report in standard_battery(seed=cfg.seed):
        status = "PASS" if report.passed else "FAIL"
        print(f"{name:<16} {status}  (max rel err {report.max_rel_error:.3e}, "
              f"{report.checked} coords)")
        all_passed = all_passed and report.passed
    return 0 if all_passed else 1


# -------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--config", default=None,
                        help="key=value config file; flags override it")
    common.add_argument("--out-dir", default="runs")
    common.add_argument("--data-dir", default=None,
                        help="dataset directory (default <out-dir>/data)")
    common.add_argument("--epochs", type=int, default=None)
    common.add_argument("--batch-size", type=int, default=None)
    common.add_argument("--experts", default=None,
                        help="comma-separated expert specs")
    common.add_argument("--walks-train", type=int, default=None)
    common.add_argument("--walks-infer", type=int, default=None)
    common.add_argument("--lambda-range", default=None, metavar="LO,HI")

    parser = argparse.ArgumentParser(
        prog="meshmoe",
        description="walk-routed mixture of mesh experts")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", parents=[common],
                       help="write a synthetic mesh dataset")
    p.add_argument("--classes", type=int, default=None)
    p.add_argument("--per-class", type=int, default=None)
    p.add_argument("--task", default=None,
                   choices=["classification", "retrieval", "segmentation"])
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("pretrain-experts", parents=[common],
                       help="supervised pre-training of each trainable expert")
    p.set_defaults(func=_cmd_pretrain_experts)

    p = sub.add_parser("pretrain-gate", parents=[common],
                       help="imitation pre-training per expert, then averaging")
    p.add_argument("--experts-ckpt", default=None)
    p.set_defaults(func=_cmd_pretrain_gate)

    p = sub.add_parser("train", parents=[common],
                       help="joint MoE training with a coefficient agent")
    p.add_argument("--static-lambda", default=None, metavar="X",
                   help="constant lambda instead of the learned agent")
    p.add_argument("--loss-sim", default=None,
                   choices=["kld", "cosine", "mse", "none"])
    p.add_argument("--experts-ckpt", default=None)
    p.add_argument("--gate-init", default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate a trained system")
    p.add_argument("--ckpt", default=None)
    p.add_argument("--split", default="test", choices=["train", "test"])
    p.add_argument("--ensemble", action="store_true",
                   help="hard-voting baseline over all experts")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("dump-walks", parents=[common],
                       help="print walk vertex sequences for one mesh")
    p.add_argument("--mesh-file", required=True)
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_dump_walks)

    p = sub.add_parser("gradcheck", parents=[common],
                       help="finite-difference checks on every building block")
    p.set_defaults(func=_cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
