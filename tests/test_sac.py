"""Actor-critic coefficient agent: replay, targets, squashing, convergence."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meshmoe.rng import Rng
from meshmoe.sac import (SACConfig, SACState, SacLambdaAgent,
                         StaticLambdaAgent, Transition, _squash, agent_step,
                         critic_forward, sac_update, sample_action,
                         soft_update)
from meshmoe.autodiff import Tensor


def small_config(**overrides) -> SACConfig:
    base = dict(state_dim=2, hidden=8, batch_size=4, buffer_capacity=16)
    base.update(overrides)
    return SACConfig(**base)


def fill_buffer(sac, count, seed=0, terminal=True, reward=None):
    rng = Rng(seed)
    for k in range(count):
        s = rng.normal_fill((sac.config.state_dim,))
        s2 = rng.normal_fill((sac.config.state_dim,))
        u = rng.normal()
        r = rng.uniform(-1.0, 1.0) if reward is None else reward
        sac.buffer.append(Transition(
            state=s, action=float(_squash(np.array(u), sac.config)),
            reward=r, next_state=s2, terminal=terminal))


def test_config_validation():
    with pytest.raises(ValueError, match="lambda range"):
        SACConfig(state_dim=2, lambda_min=1.0, lambda_max=-1.0)
    with pytest.raises(ValueError, match="state_dim"):
        SACConfig(state_dim=0)


@pytest.mark.parametrize("lo, hi", [(math.nan, 1.0), (-1.0, math.nan), (-math.inf, 1.0),
                                    (-1.0, math.inf), (-math.inf, math.inf)])
def test_config_rejects_a_non_finite_lambda_range(lo, hi):
    """`lo >= hi` is False when either end is nan, so finiteness has its own check."""
    with pytest.raises(ValueError, match="lambda_(min|max) must be finite"):
        SACConfig(state_dim=2, lambda_min=lo, lambda_max=hi)


def test_config_rejects_a_buffer_smaller_than_its_batch():
    with pytest.raises(ValueError, match="buffer_capacity 3 is below batch_size 4"):
        SACConfig(state_dim=2, buffer_capacity=3, batch_size=4)
    assert SACConfig(state_dim=2, buffer_capacity=4, batch_size=4).buffer_capacity == 4


def test_squash_midpoint_and_bounds():
    cfg = SACConfig(state_dim=1)
    assert _squash(np.array(0.0), cfg) == 0.0
    assert _squash(np.array(50.0), cfg) <= 1.0
    assert _squash(np.array(-50.0), cfg) >= -1.0
    narrow = SACConfig(state_dim=1, lambda_min=0.0, lambda_max=0.5)
    assert _squash(np.array(0.0), narrow) == 0.25
    assert 0.0 <= _squash(np.array(-9.0), narrow) <= 0.5


@given(u=st.floats(min_value=-40.0, max_value=40.0),
       lo=st.floats(min_value=-2.0, max_value=0.4),
       width=st.floats(min_value=0.05, max_value=3.0))
@settings(deadline=None, max_examples=200)
def test_squash_stays_in_range(u, lo, width):
    cfg = SACConfig(state_dim=1, lambda_min=lo, lambda_max=lo + width)
    lam = float(_squash(np.array(u), cfg))
    assert cfg.lambda_min <= lam <= cfg.lambda_max


def test_sampled_actions_in_range():
    cfg = small_config(lambda_min=-0.25, lambda_max=0.75)
    sac = SACState(cfg, seed=3)
    rng = Rng(11)
    for _ in range(200):
        state = rng.normal_fill((cfg.state_dim,), sigma=3.0)
        lam, _ = sample_action(sac, state)
        assert cfg.lambda_min <= lam <= cfg.lambda_max


def test_deterministic_action_repeatable():
    sac = SACState(small_config(), seed=5)
    state = np.array([0.4, -1.2])
    a1, u1 = sample_action(sac, state, stochastic=False)
    a2, u2 = sample_action(sac, state, stochastic=False)
    assert a1 == a2 and u1 == u2
    # stochastic draws advance the stream and differ
    b1, _ = sample_action(sac, state, stochastic=True)
    b2, _ = sample_action(sac, state, stochastic=True)
    assert b1 != b2


def test_buffer_fifo_eviction():
    sac = SACState(small_config(buffer_capacity=2, batch_size=2), seed=0)
    for r in (1.0, 2.0, 3.0):
        sac.buffer.append(Transition(
            state=np.zeros(2), action=0.0, reward=r,
            next_state=np.zeros(2), terminal=False))
    assert len(sac.buffer) == 2
    assert [t.reward for t in sac.buffer] == [2.0, 3.0]


def test_update_noop_until_batch_full():
    sac = SACState(small_config(batch_size=4), seed=0)
    fill_buffer(sac, 3)
    assert sac_update(sac) is None
    assert sac.updates == 0
    fill_buffer(sac, 1, seed=9)
    out = sac_update(sac)
    assert out is not None and sac.updates == 1
    assert set(out) == {"critic_loss", "actor_loss", "alpha"}


def test_soft_update_tau_one_copies():
    sac = SACState(small_config(), seed=2)
    fill_buffer(sac, 4)
    sac_update(sac)   # de-synchronize online from target
    soft_update(sac.target1, sac.critic1, tau=1.0)
    for key in sac.critic1:
        np.testing.assert_array_equal(sac.target1[key].data, sac.critic1[key].data)


def test_soft_update_contracts_distance():
    tau = 0.005
    sac = SACState(small_config(), seed=4)
    fill_buffer(sac, 8)
    for _ in range(3):
        sac_update(sac)
    for key in sac.critic1:
        before = np.linalg.norm(sac.target1[key].data - sac.critic1[key].data)
        online_snapshot = sac.critic1[key].data.copy()
        soft_update({key: sac.target1[key]}, {key: sac.critic1[key]}, tau)
        after = np.linalg.norm(sac.target1[key].data - online_snapshot)
        assert after <= (1.0 - tau) * before + 1e-9


def test_zero_discount_matches_all_terminal():
    # y = r exactly in both cases, so the resulting parameter updates agree
    def run(discount, terminal):
        sac = SACState(small_config(discount=discount), seed=7)
        fill_buffer(sac, 6, seed=21, terminal=terminal)
        sac_update(sac)
        return sac
    a = run(discount=0.0, terminal=False)
    b = run(discount=0.99, terminal=True)
    for key in a.critic1:
        np.testing.assert_array_equal(a.critic1[key].data, b.critic1[key].data)
    for key in a.actor:
        np.testing.assert_array_equal(a.actor[key].data, b.actor[key].data)
    assert a.log_alpha.data == b.log_alpha.data


def test_critic_loss_decreases_on_fixed_targets():
    # terminal transitions make y = r, a stationary regression target
    sac = SACState(small_config(lr=1e-2, batch_size=8), seed=1)
    fill_buffer(sac, 16, seed=5, terminal=True)
    losses = [sac_update(sac)["critic_loss"] for _ in range(300)]
    assert np.mean(losses[-10:]) < 0.25 * np.mean(losses[:10])


def test_critic_fits_constant_reward():
    sac = SACState(small_config(lr=1e-2, batch_size=8), seed=6)
    fill_buffer(sac, 16, seed=13, terminal=True, reward=1.7)
    for _ in range(300):
        sac_update(sac)
    t = sac.buffer[0]
    q = critic_forward(sac.critic1, "q1",
                       Tensor(t.state.reshape(1, -1)),
                       Tensor(np.array([[t.action]])))
    assert abs(q.data[0, 0] - 1.7) < 0.2


def test_agent_step_protocol():
    sac = SACState(small_config(), seed=8)
    state = np.full(2, 0.5)
    first = agent_step(sac, state, 0.0, None, None, False)
    assert len(sac.buffer) == 0          # nothing to store yet
    assert isinstance(first, tuple) and len(first) == 2
    nxt = agent_step(sac, state, -0.4, state, first, True)
    assert len(sac.buffer) == 1
    t = sac.buffer[0]
    assert t.reward == -0.4 and t.terminal
    assert t.action == first[0]
    np.testing.assert_array_equal(t.state, state)
    np.testing.assert_array_equal(t.next_state, state)
    agent_step(sac, state, 0.1, state, nxt, False)
    assert len(sac.buffer) == 2


def test_wrapper_tracks_previous_action():
    agent = SacLambdaAgent(small_config(), seed=0)
    state = np.full(2, 1.0)
    lam0 = agent.step(state, 0.0, None, False)
    assert len(agent.sac.buffer) == 0
    agent.step(state, 0.3, state, False)
    assert len(agent.sac.buffer) == 1
    assert agent.sac.buffer[0].action == lam0


def test_agent_keeps_the_last_update():
    """`last_update` is None until the buffer holds a batch, then the
    update's own dict."""
    agent = SacLambdaAgent(small_config(), seed=0)
    state = np.full(2, 1.0)
    agent.step(state, 0.0, None, False)
    for k in range(agent.sac.config.batch_size):
        assert agent.last_update is None
        agent.step(state, 0.1 * k, state, False)
    stats = agent.last_update
    assert stats is agent.sac.last_update
    assert np.isfinite(stats["critic_loss"]) and np.isfinite(stats["actor_loss"])
    assert stats["alpha"] == agent.sac.alpha


def test_static_agent_is_constant():
    agent = StaticLambdaAgent(0.1)
    state = np.zeros(2)
    assert agent.step(state, 0.0, None, False) == 0.1
    assert agent.step(state, -5.0, state, True) == 0.1


def test_parameters_view_complete():
    sac = SACState(small_config(), seed=0)
    params = sac.parameters()
    assert "log_alpha" in params
    prefixes = {"actor", "critic1", "critic2", "target1", "target2"}
    assert {p.split(".")[0] for p in params if p != "log_alpha"} == prefixes
    # live views, not copies
    params["log_alpha"].data += 1.0
    assert sac.log_alpha.data == params["log_alpha"].data


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_surrogate_reward_convergence(seed):
    # quadratic bandit peaked at 0.3; deterministic policy must settle nearby
    state = np.full(3, 1.0 / 3.0)
    agent = SacLambdaAgent(SACConfig(state_dim=3), seed=seed)
    lam = agent.step(state, 0.0, None, False)
    for _ in range(2000):
        reward = -(lam - 0.3) ** 2
        lam = agent.step(state, reward, state, True)
    final = sample_action(agent.sac, state, stochastic=False)[0]
    assert abs(final - 0.3) <= 0.1
