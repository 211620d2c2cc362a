"""Finite-difference verification of reverse-mode gradients.

`check_gradients` evaluates a closure, backpropagates, then compares each
(sampled) coordinate's analytic gradient against a central difference
quotient of step 1e-5.  Relative error uses max(|analytic|, |numeric|,
1e-6) in the denominator so zero-gradient coordinates compare cleanly.
"""

from dataclasses import dataclass

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

    def __str__(self):
        status = "ok" if self.passed else "FAIL"
        return (f"gradcheck {status}: max rel err {self.max_rel_error:.3e} "
                f"at {self.worst_path}{list(self.worst_coord)} "
                f"(analytic {self.analytic:.6e}, numeric {self.numeric:.6e}, "
                f"{self.checked} coords)")


def check_gradients(fn, params: dict, tolerance: float = 1e-4, max_coords: int = 40,
                    seed: int = 0) -> GradReport:
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
            flat[idx] = original + 1e-5
            up = float(fn().data)
            flat[idx] = original - 1e-5
            down = float(fn().data)
            flat[idx] = original
            numeric = (up - down) / 2e-5
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
    for p in params.values():
        p.grad = None
    return report


def standard_battery(seed: int = 0) -> list:
    """Finite-difference checks across every differentiable building block.

    Returns [(name, GradReport), ...] covering the fused multi-head
    attention, the decoder's query attention over unprojected memory, the
    linear and layer norm ops, a full MHA block, the recurrent cell,
    cross-entropy, KL divergence, the gate end to end, and the joint
    training loss of `trainer.step_loss` over a face-MLP and a walk-RNN
    expert, under the checkpoint names of `system_parameters`.
    """
    from . import autodiff as ad
    from . import layers
    from .autodiff import Tensor
    from .experts import build_experts
    from .gate import GateConfig, gate_forward_features, init_gate_params
    from .synth import generate_classification_set
    from .trainer import build_system, step_loss, system_parameters
    from .walks import walk_softmax_rows

    def stream(name: str) -> Rng:
        # one stream per entry, so adding an entry moves no other's points
        return Rng(derive(seed, "battery", name))

    def probed(rng: Rng, out):
        # out() summed against mix weights drawn next from the entry's stream
        mix = Tensor(rng.normal_fill(out().shape))
        return lambda: ad.tsum(ad.mul(out(), mix))

    entries = []

    rng = stream("attention")
    attn = {name: Tensor(rng.normal_fill((2, 3, 4)) * 0.5, requires_grad=True)
            for name in ("q", "k", "v")}
    entries.append(("attention", probed(rng, lambda: layers.multi_head_attention(
        attn["q"], attn["k"], attn["v"], heads=2)), attn))

    rng = stream("mha_block")
    mha = {"x": Tensor(rng.normal_fill((2, 3, 8)) * 0.5, requires_grad=True)}
    layers.init_mha_block(mha, "blk", 8, 16, derive(seed, "mha"))
    entries.append(("mha_block", probed(
        rng, lambda: layers.mha_block(mha["x"], mha, "blk", heads=2)), mha))

    rng = stream("recurrent_cell")
    gru = {"x": Tensor(rng.normal_fill((2, 3, 4)) * 0.5, requires_grad=True)}
    layers.init_gru(gru, "gru", 4, 6, derive(seed, "gru"))
    entries.append(("recurrent_cell", probed(
        rng, lambda: layers.gru_forward(gru["x"], gru, "gru", 6)), gru))

    rng = stream("cross_entropy")
    ce = {"logits": Tensor(rng.normal_fill((5,)), requires_grad=True)}
    entries.append(("cross_entropy", lambda: layers.cross_entropy(
        ad.softmax(ce["logits"]), 2), ce))

    rng = stream("kl_divergence")
    kld = {"a": Tensor(rng.normal_fill((4,)), requires_grad=True),
           "b": Tensor(rng.normal_fill((4,)), requires_grad=True)}
    entries.append(("kl_divergence", lambda: layers.kl_divergence(
        ad.softmax(kld["a"]), ad.softmax(kld["b"])), kld))

    tiny = GateConfig(num_experts=2, encoder_layers=1, decoder_layers=1,
                      d_model=8, heads=2, ff_width=16)
    gate_params = init_gate_params(tiny, derive(seed, "gate"))
    rng = stream("gate_end_to_end")
    feats = rng.normal_fill((3, 5, 4)) * 0.5
    entries.append(("gate_end_to_end", probed(rng, lambda: walk_softmax_rows(
        [feats], lambda walks: gate_forward_features(walks, gate_params, tiny))[0]),
        gate_params))

    rng = stream("cross_attention")
    cross = {"q": Tensor(rng.normal_fill((2, 1, 4)) * 0.5, requires_grad=True),
             "memory": Tensor(rng.normal_fill((2, 5, 4)) * 0.5, requires_grad=True),
             "wk": Tensor(rng.normal_fill((4, 4)) * 0.5, requires_grad=True),
             "wv": Tensor(rng.normal_fill((4, 4)) * 0.5, requires_grad=True),
             "vb": Tensor(rng.normal_fill((4,)) * 0.1, requires_grad=True)}
    entries.append(("cross_attention", probed(rng, lambda: layers.query_attention(
        cross["q"], cross["memory"], cross["wk"], cross["wv"], cross["vb"], heads=2)),
        cross))

    rng = stream("linear")
    lin = {"x": Tensor(rng.normal_fill((2, 3, 4)) * 0.5, requires_grad=True),
           "w": layers.glorot((4, 5), derive(seed, "linear")),
           "b": Tensor(rng.normal_fill((5,)) * 0.1, requires_grad=True)}
    entries.append(("linear", probed(
        rng, lambda: layers.linear(lin["x"], lin["w"], lin["b"])), lin))

    rng = stream("layer_norm")
    norm = {"x": Tensor(rng.normal_fill((2, 3, 6)), requires_grad=True),
            "g": Tensor(1.0 + rng.normal_fill((6,)) * 0.1, requires_grad=True),
            "b": Tensor(rng.normal_fill((6,)) * 0.1, requires_grad=True)}
    entries.append(("layer_norm", probed(
        rng, lambda: layers.layer_norm(norm["x"], norm["g"], norm["b"])), norm))

    data = generate_classification_set(classes=2, per_class=4,
                                       seed=derive(seed, "data"))
    experts = build_experts(["face_mlp", "walk_rnn"], num_classes=2,
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
    entries.append(("loss_composite", lambda: step_loss(system, batch, 0.7, seed)[0],
                    system_parameters(system)))

    return [(name, check_gradients(fn, params, max_coords=8, seed=derive(seed, name)))
            for name, fn, params in entries]
