"""Finite-difference verification of reverse-mode gradients.

`check_gradients` evaluates a closure, backpropagates, then compares each
(sampled) coordinate's analytic gradient against a central difference
quotient.  Relative error uses max(|analytic|, |numeric|, 1e-6) in the
denominator so zero-gradient coordinates compare cleanly.
"""

from dataclasses import dataclass, field

import numpy as np

from .rng import Rng, derive


@dataclass
class GradReport:
    passed: bool
    max_rel_error: float
    worst_path: str = ""
    worst_coord: tuple = ()
    analytic: float = 0.0
    numeric: float = 0.0
    checked: int = 0
    failures: list = field(default_factory=list)

    def __str__(self):
        status = "ok" if self.passed else "FAIL"
        return (f"gradcheck {status}: max rel err {self.max_rel_error:.3e} "
                f"at {self.worst_path}{list(self.worst_coord)} "
                f"(analytic {self.analytic:.6e}, numeric {self.numeric:.6e}, "
                f"{self.checked} coords)")


def check_gradients(fn, params: dict, step: float = 1e-5, tolerance: float = 1e-4,
                    max_coords: int = 40, seed: int = 0) -> GradReport:
    """Compare analytic and numeric d fn / d params coordinate-wise.

    fn: nullary closure over `params` returning a scalar Tensor; it is
    re-evaluated twice per checked coordinate with perturbed data.
    Tensors larger than max_coords get a seeded coordinate sample.
    """
    for p in params.values():
        p.grad = None
    loss = fn()
    loss.backward()
    analytic = {k: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
                for k, p in params.items()}

    report = GradReport(passed=True, max_rel_error=0.0)
    for path in sorted(params):
        p = params[path]
        size = p.data.size
        if size == 0:
            continue
        flat_indices = list(range(size))
        if size > max_coords:
            rng = Rng(derive(seed, "gradcheck", path))
            flat_indices = sorted({rng.randbelow(size) for _ in range(max_coords)})
        flat = p.data.reshape(-1)
        for idx in flat_indices:
            original = flat[idx]
            flat[idx] = original + step
            up = float(fn().data)
            flat[idx] = original - step
            down = float(fn().data)
            flat[idx] = original
            numeric = (up - down) / (2.0 * step)
            a = float(analytic[path].reshape(-1)[idx])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
            report.checked += 1
            if rel > report.max_rel_error:
                coord = np.unravel_index(idx, p.data.shape)
                report.max_rel_error = rel
                report.worst_path = path
                report.worst_coord = tuple(int(c) for c in coord)
                report.analytic = a
                report.numeric = numeric
            if rel > tolerance:
                report.passed = False
                report.failures.append((path, idx, a, numeric, rel))
    for p in params.values():
        p.grad = None
    return report


def standard_battery(seed: int = 0, tolerance: float = 1e-4,
                     max_coords: int = 8) -> list:
    """Finite-difference checks across every differentiable building block.

    Returns [(name, GradReport), ...] covering attention, a full MHA block,
    the recurrent cell, cross-entropy, KL divergence, the gate end to end,
    and the joint training loss composite.
    """
    from . import autodiff as ad
    from . import layers
    from .autodiff import Tensor
    from .experts import build_experts
    from .gate import GateConfig, gate_forward_batch, gate_forward_features, init_gate_params
    from .synth import generate_classification_set
    from .trainer import build_system, diversity_loss, joint_loss, similarity_loss

    rng = Rng(derive(seed, "battery"))
    entries = []

    attn = {name: Tensor(rng.normal_fill((2, 3, 4)) * 0.5, requires_grad=True)
            for name in ("q", "k", "v")}
    attn_mix = rng.normal_fill((2, 3, 4))
    entries.append(("attention", lambda: ad.tsum(ad.mul(
        layers.scaled_dot_product_attention(attn["q"], attn["k"], attn["v"]),
        Tensor(attn_mix))), attn))

    mha = {"x": Tensor(rng.normal_fill((2, 3, 8)) * 0.5, requires_grad=True)}
    layers.init_mha_block(mha, "blk", 8, 16, derive(seed, "mha"))
    mha_mix = rng.normal_fill((2, 3, 8))
    entries.append(("mha_block", lambda: ad.tsum(ad.mul(
        layers.mha_block(mha["x"], mha, "blk", heads=2), Tensor(mha_mix))),
        mha))

    gru = {"x": Tensor(rng.normal_fill((2, 3, 4)) * 0.5, requires_grad=True)}
    layers.init_gru(gru, "gru", 4, 6, derive(seed, "gru"))
    gru_mix = rng.normal_fill((2, 6))
    entries.append(("recurrent_cell", lambda: ad.tsum(ad.mul(
        layers.gru_forward(gru["x"], gru, "gru", 6), Tensor(gru_mix))), gru))

    ce = {"logits": Tensor(rng.normal_fill((5,)), requires_grad=True)}
    entries.append(("cross_entropy", lambda: layers.cross_entropy(
        ad.softmax(ce["logits"], axis=-1), 2), ce))

    kld = {"a": Tensor(rng.normal_fill((4,)), requires_grad=True),
           "b": Tensor(rng.normal_fill((4,)), requires_grad=True)}
    entries.append(("kl_divergence", lambda: layers.kl_divergence(
        ad.softmax(kld["a"], axis=-1), ad.softmax(kld["b"], axis=-1)), kld))

    tiny = GateConfig(num_experts=2, encoder_layers=1, decoder_layers=1,
                      d_model=8, heads=2, ff_width=16)
    gate_params = init_gate_params(tiny, derive(seed, "gate"))
    feats = rng.normal_fill((3, 5, 4)) * 0.5
    gate_mix = rng.normal_fill((2,))

    def gate_fn():
        logits = gate_forward_features(feats, gate_params, tiny)
        weights = ad.softmax(ad.tmean(logits, axis=0), axis=-1)
        return ad.tsum(ad.mul(weights, Tensor(gate_mix)))

    entries.append(("gate_end_to_end", gate_fn, gate_params))

    data = generate_classification_set(classes=2, per_class=4,
                                       seed=derive(seed, "data"))
    experts = build_experts(["face_mlp", "face_mlp"], num_classes=2,
                            seed=derive(seed, "experts"), hidden=8)
    # zero-init biases put dead rows exactly on the relu kink, where central
    # differences are ill-defined; nudge to a generic point
    bias_rng = Rng(derive(seed, "debias"))
    for expert in experts:
        for name, tensor in expert.params.items():
            if ".b" in name:
                tensor.data = tensor.data + bias_rng.uniform_fill(
                    tensor.data.shape, -0.05, 0.05)
    system = build_system(experts, gate_config=tiny, seed=derive(seed, "sys"))
    batch = data.train_meshes[:2]
    composite_params = {f"gate.{k}": v for k, v in system.gate_params.items()}
    for expert in experts:
        composite_params.update(
            {f"{expert.name}.{k}": v for k, v in expert.params.items()})

    def composite_fn():
        rows = gate_forward_batch(
            batch, system.walks_train, system.gate_params, system.gate_config,
            [derive(seed, "walks", mesh.mesh_id) for mesh in batch])
        preds = [[e.predict(mesh, derive(seed, "pred", e.name, mesh.mesh_id))
                  for e in experts] for mesh in batch]
        targets = [mesh.class_label for mesh in batch]
        return joint_loss(similarity_loss(preds),
                          diversity_loss(rows, preds, targets), 0.7)

    entries.append(("loss_composite", composite_fn, composite_params))

    return [(name, check_gradients(fn, params, tolerance=tolerance,
                                   max_coords=max_coords,
                                   seed=derive(seed, name)))
            for name, fn, params in entries]
