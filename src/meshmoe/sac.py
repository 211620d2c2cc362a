"""Soft actor-critic over the one-dimensional loss-balance coefficient.

Gaussian policy squashed by tanh into [lambda_min, lambda_max]; twin
critics with soft-updated targets; entropy temperature alpha tuned toward
a target entropy of -1 (one action dimension).  The agent consumes
(state, reward) pairs from the trainer each iteration and emits the next
coefficient; an epoch is one episode, terminal on its last batch.
"""

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import layers
from .autodiff import Tensor
from .checkpoint import at_least, blamed, must
from .optim import Adam, descend
from .rng import Rng, derive

LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0
TARGET_ENTROPY = -1.0   # -(action dimensions)
INIT_ALPHA = 0.1
_LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class Transition:
    state: np.ndarray
    action: float          # squashed lambda
    reward: float
    next_state: np.ndarray
    terminal: bool


@dataclass
class SACConfig:
    state_dim: int
    discount: float = 0.99
    tau: float = 0.005
    lr: float = 3e-4
    buffer_capacity: int = 10000
    batch_size: int = 64
    lambda_min: float = -1.0
    lambda_max: float = 1.0
    hidden: int = 64

    def __post_init__(self):
        at_least(self, state_dim=1)
        must(self, "discount", 0 <= self.discount <= 1, "be in [0, 1]")
        must(self, "tau", 0 < self.tau <= 1, "be in (0, 1]")
        must(self, "lr", 0 < self.lr < math.inf, "be finite and > 0")
        at_least(self, buffer_capacity=1, batch_size=1)
        for name in ("lambda_min", "lambda_max"):
            must(self, name, math.isfinite(getattr(self, name)), "be finite")
        at_least(self, hidden=1)
        if self.lambda_min >= self.lambda_max:
            raise blamed(ValueError(f"lambda range [{self.lambda_min}, {self.lambda_max}] "
                                    f"is empty"), ("lambda_min", "lambda_max"))
        if self.buffer_capacity < self.batch_size:
            raise blamed(ValueError(f"buffer_capacity {self.buffer_capacity} is below batch_size "
                                    f"{self.batch_size}"), ("buffer_capacity", "batch_size"))

    @property
    def mid(self) -> float:
        return (self.lambda_max + self.lambda_min) / 2.0

    @property
    def half_span(self) -> float:
        return (self.lambda_max - self.lambda_min) / 2.0


def _mlp_init(prefix: str, d_in: int, hidden: int, d_out: int, seed: int) -> dict:
    return {
        f"{prefix}.w1": layers.glorot((d_in, hidden), derive(seed, prefix, 1)),
        f"{prefix}.b1": layers.zeros((hidden,)),
        f"{prefix}.w2": layers.glorot((hidden, hidden), derive(seed, prefix, 2)),
        f"{prefix}.b2": layers.zeros((hidden,)),
        f"{prefix}.w3": layers.glorot((hidden, d_out), derive(seed, prefix, 3)),
        f"{prefix}.b3": layers.zeros((d_out,)),
    }


def _mlp_forward(params: dict, prefix: str, x: Tensor) -> Tensor:
    h = ad.relu(layers.linear(x, params[f"{prefix}.w1"], params[f"{prefix}.b1"]))
    h = ad.relu(layers.linear(h, params[f"{prefix}.w2"], params[f"{prefix}.b2"]))
    return layers.linear(h, params[f"{prefix}.w3"], params[f"{prefix}.b3"])


class SACState:
    """Actor, twin critics with targets, temperature, replay, optimizers."""

    def __init__(self, config: SACConfig, seed: int = 0):
        self.config = config
        h = config.hidden
        self.actor = _mlp_init("actor", config.state_dim, h, 2, derive(seed, "actor"))
        self.critic1 = _mlp_init("q1", config.state_dim + 1, h, 1, derive(seed, "q1"))
        self.critic2 = _mlp_init("q2", config.state_dim + 1, h, 1, derive(seed, "q2"))
        self.target1 = {k: v.detach() for k, v in self.critic1.items()}
        self.target2 = {k: v.detach() for k, v in self.critic2.items()}
        self.log_alpha = Tensor(math.log(INIT_ALPHA), requires_grad=True)
        self.buffer = deque(maxlen=config.buffer_capacity)
        self.rng = Rng(derive(seed, "agent"))
        self.actor_opt = Adam(self.actor, lr=config.lr)
        self.critic_opt = Adam({**self.critic1, **self.critic2}, lr=config.lr)
        self.alpha_opt = Adam({"log_alpha": self.log_alpha}, lr=config.lr)
        self.updates = 0
        self.last_update = None     # sac_update's dict, once one has trained

    @property
    def alpha(self) -> float:
        return float(np.exp(self.log_alpha.data))

    def parameters(self) -> dict:
        """Flat view for checkpointing."""
        out = {}
        for group, params in (("actor", self.actor), ("critic1", self.critic1),
                              ("critic2", self.critic2), ("target1", self.target1),
                              ("target2", self.target2)):
            for k, v in params.items():
                out[f"{group}.{k}"] = v
        out["log_alpha"] = self.log_alpha
        return out


def _squash(u: np.ndarray, config: SACConfig) -> np.ndarray:
    # clip because mid + half*tanh can overshoot by one ulp off-center
    return np.clip(config.mid + config.half_span * np.tanh(u),
                   config.lambda_min, config.lambda_max)


def actor_forward(sac: SACState, states: Tensor):
    """Returns (mean, log_std) tensors of shape (B, 1)."""
    out = _mlp_forward(sac.actor, "actor", states)
    mean = ad.slice_index(out, 1, 0)
    log_std = ad.slice_index(out, 1, 1)
    log_std = ad.clamp(log_std, LOG_STD_MIN, LOG_STD_MAX)
    return (ad.reshape(mean, (states.shape[0], 1)),
            ad.reshape(log_std, (states.shape[0], 1)))


def sample_action(sac: SACState, state: np.ndarray, stochastic: bool = True):
    """Draw lambda at one state; returns (lambda, pre_squash_action)."""
    states = Tensor(np.asarray(state, dtype=np.float64).reshape(1, -1))
    mean, log_std = actor_forward(sac, states)
    if stochastic:
        noise = sac.rng.normal()
        u = float(mean.data[0, 0]) + math.exp(float(log_std.data[0, 0])) * noise
    else:
        u = float(mean.data[0, 0])
    return float(_squash(np.array(u), sac.config)), u


def _sampled_action_and_logp(sac: SACState, states: Tensor, noise: np.ndarray):
    """Reparameterized draw at `states`; returns (lambda, log pi(lambda)),
    each (B, 1), the log-prob with the tanh change-of-variables correction."""
    cfg = sac.config
    mean, log_std = actor_forward(sac, states)
    u = ad.add(mean, ad.mul(ad.exp(log_std), Tensor(noise)))
    z = ad.div(ad.sub(u, mean), ad.exp(log_std))
    gauss = ad.mul(ad.add(ad.add(ad.mul(ad.mul(z, z), Tensor(0.5)), log_std),
                          Tensor(0.5 * _LOG_2PI)), Tensor(-1.0))
    t = ad.tanh(u)
    correction = ad.log(ad.add(ad.sub(Tensor(1.0), ad.mul(t, t)), Tensor(1e-6)))
    logp = ad.sub(ad.sub(gauss, correction), Tensor(math.log(cfg.half_span)))
    action = ad.add(ad.mul(ad.tanh(u), Tensor(cfg.half_span)), Tensor(cfg.mid))
    return action, logp


def critic_forward(params: dict, prefix: str, states: Tensor, actions: Tensor) -> Tensor:
    return _mlp_forward(params, prefix, ad.concat([states, actions], axis=1))


def soft_update(target: dict, online: dict, tau: float) -> None:
    for key in online:
        target[key].data *= (1.0 - tau)
        target[key].data += tau * online[key].data


def sac_update(sac: SACState) -> dict | None:
    """One gradient step on critics, actor, and temperature; soft-update targets.

    No-op (returns None) while the buffer holds fewer than batch_size
    transitions.
    """
    cfg = sac.config
    if len(sac.buffer) < cfg.batch_size:
        return None
    sac.updates += 1
    idx = [sac.rng.randbelow(len(sac.buffer)) for _ in range(cfg.batch_size)]
    batch = [sac.buffer[i] for i in idx]
    states = Tensor(np.stack([t.state for t in batch]))
    actions = Tensor(np.array([[t.action] for t in batch]))
    rewards = np.array([[t.reward] for t in batch])
    next_states = Tensor(np.stack([t.next_state for t in batch]))
    terminals = np.array([[float(t.terminal)] for t in batch])

    # critic targets from the frozen target critics at a fresh next action
    noise = sac.rng.normal_fill((cfg.batch_size, 1))
    next_action, next_logp = _sampled_action_and_logp(sac, next_states, noise)
    q1_next = critic_forward(sac.target1, "q1", next_states, next_action)
    q2_next = critic_forward(sac.target2, "q2", next_states, next_action)
    min_next = np.minimum(q1_next.data, q2_next.data)
    y = rewards + cfg.discount * (1.0 - terminals) * (
        min_next - sac.alpha * next_logp.data)

    q1 = critic_forward(sac.critic1, "q1", states, actions)
    q2 = critic_forward(sac.critic2, "q2", states, actions)
    d1 = ad.sub(q1, Tensor(y))
    d2 = ad.sub(q2, Tensor(y))
    critic_loss = ad.add(ad.tmean(ad.mul(d1, d1)), ad.tmean(ad.mul(d2, d2)))
    descend(critic_loss, sac.critic_opt)

    # actor: maximize min-critic value plus entropy bonus
    noise = sac.rng.normal_fill((cfg.batch_size, 1))
    new_action, logp = _sampled_action_and_logp(sac, states, noise)
    q1_new = critic_forward(sac.critic1, "q1", states, new_action)
    q2_new = critic_forward(sac.critic2, "q2", states, new_action)
    use_q1 = (q1_new.data <= q2_new.data).astype(np.float64)
    min_q = ad.add(ad.mul(q1_new, Tensor(use_q1)),
                   ad.mul(q2_new, Tensor(1.0 - use_q1)))
    actor_loss = ad.tmean(ad.sub(ad.mul(logp, Tensor(sac.alpha)), min_q))
    # this also adds to the critics' grads, which the next update clears
    descend(actor_loss, sac.actor_opt)

    # temperature: move alpha toward the target entropy
    entropy_gap = Tensor(logp.data + TARGET_ENTROPY)    # detached
    alpha_loss = ad.tmean(ad.mul(entropy_gap, ad.mul(sac.log_alpha, Tensor(-1.0))))
    descend(alpha_loss, sac.alpha_opt)

    soft_update(sac.target1, sac.critic1, cfg.tau)
    soft_update(sac.target2, sac.critic2, cfg.tau)
    return {"critic_loss": critic_loss.item(), "actor_loss": actor_loss.item(),
            "alpha": sac.alpha}


def agent_step(sac: SACState, s_t: np.ndarray, r_t: float,
               s_prev: np.ndarray | None, lambda_prev: tuple | None,
               terminal: bool) -> tuple:
    """One protocol turn: store, maybe update, sample the next coefficient.

    `lambda_prev` is the (lambda, pre_squash) pair from the previous call;
    the first call (no prior action) stores nothing.  Returns the next
    (lambda, pre_squash) pair; `sac.last_update` keeps the update's losses.
    """
    if s_prev is not None and lambda_prev is not None:
        sac.buffer.append(Transition(
            state=np.asarray(s_prev, dtype=np.float64), action=lambda_prev[0],
            reward=float(r_t), next_state=np.asarray(s_t, dtype=np.float64),
            terminal=bool(terminal)))
        sac.last_update = sac_update(sac)
    return sample_action(sac, s_t, stochastic=True)


class SacLambdaAgent:
    """Trainer-facing wrapper holding SACState plus the step protocol."""

    def __init__(self, config: SACConfig, seed: int = 0):
        self.sac = SACState(config, seed=seed)
        self._last = None     # (lambda, pre_squash) emitted previously

    def step(self, s_t, r_t, s_prev, terminal) -> float:
        self._last = agent_step(self.sac, s_t, r_t, s_prev, self._last, terminal)
        return self._last[0]

    @property
    def last_update(self) -> dict | None:
        return self.sac.last_update


class StaticLambdaAgent:
    """Constant-coefficient stand-in with the same step interface."""

    def __init__(self, value: float):
        self.value = float(value)

    def step(self, s_t, r_t, s_prev, terminal) -> float:
        return self.value
