from collections import deque

import numpy as np
import pytest

from ebmplan.baselines import online_train_action_ff
from ebmplan.energy import make_energy_model, transition_energies
from ebmplan.envs import particle_env
from ebmplan.nn import init_adam_state
from ebmplan.online import (
    OnlineConfig,
    ReplayBuffer,
    contrastive_update,
    execute_plan,
    online_train,
    run_online,
)
from ebmplan.planner import PlannerConfig, plan


def tiny_config(**overrides):
    defaults = dict(
        planner=PlannerConfig(num_samples=16, num_iterations=4, horizon=6, noise_scale=0.01),
        deviation_threshold=0.1,
        buffer_capacity=64,
        env_step_budget=30,
        episode_length=10,
        hidden_sizes=(8, 8),
    )
    defaults.update(overrides)
    return OnlineConfig(**defaults)


def test_execute_plan_feasible_plan_runs_to_full_horizon():
    spec = particle_env()
    start = spec.start_state
    steps = np.tile(np.array([0.03, 0.0]), (5, 1))
    planned = np.concatenate([start[None], start[None] + np.cumsum(steps, axis=0)])
    real, prefix = execute_plan(spec, start, planned, 0.1)
    assert real.shape == planned.shape
    assert np.allclose(real, planned, atol=1e-12)
    assert np.array_equal(prefix, planned)


def test_execute_plan_stops_after_first_deviation():
    spec = particle_env(start=(0.0, 0.0))
    planned = np.array([[0.0, 0.0], [0.5, 0.0], [0.6, 0.0]])
    real, prefix = execute_plan(spec, np.zeros(2), planned, 0.1)
    assert real.shape == (2, 2)
    assert prefix.shape == (2, 2)
    assert np.allclose(real[1], [0.05, 0.0], rtol=1e-15)  # hop capped by the env
    assert np.array_equal(prefix[1], planned[1])


def test_execute_plan_infinite_threshold_runs_everything():
    spec = particle_env(start=(0.0, 0.0))
    planned = np.array([[0.0, 0.0], [0.5, 0.0], [0.9, 0.3], [0.2, -0.4]])
    real, prefix = execute_plan(spec, np.zeros(2), planned, np.inf)
    assert real.shape == planned.shape
    assert np.array_equal(prefix, planned)


def test_execute_plan_rejects_mismatched_start():
    spec = particle_env()
    planned = np.zeros((3, 2))
    with pytest.raises(ValueError):
        execute_plan(spec, np.array([0.1, 0.0]), planned, 0.1)


def test_replay_buffer_fifo_eviction_and_capacity():
    buf = ReplayBuffer(capacity=5)
    rows = np.arange(16, dtype=float).reshape(8, 2)
    buf.add(rows)
    assert len(buf) == 5
    assert np.array_equal(buf.as_array()[0], rows[3])  # oldest surviving row
    buf.add(rows[:1])
    assert len(buf) == 5
    assert np.array_equal(buf.as_array()[0], rows[4])


def test_replay_buffer_matches_deque_reference_across_wraparound():
    # the ring must keep the order and the draws of a deque of row copies
    rng = np.random.default_rng(20)
    buf = ReplayBuffer(capacity=7)
    reference = deque(maxlen=7)
    for size in (3, 5, 1, 9, 2, 6, 7, 4):
        rows = rng.normal(size=(size, 3))
        buf.add(rows)
        reference.extend(row.copy() for row in rows)
        assert len(buf) == len(reference)
        assert np.array_equal(buf.as_array(), np.stack(reference))
        idx = np.random.default_rng(size).integers(0, len(reference), size=5)
        expected = np.stack([reference[i] for i in idx])
        assert np.array_equal(buf.sample(5, np.random.default_rng(size)), expected)


def test_replay_buffer_sampling_with_replacement():
    buf = ReplayBuffer(capacity=4)
    buf.add(np.array([[1.0, 2.0]]))
    sample = buf.sample(6, np.random.default_rng(0))
    assert sample.shape == (6, 2)
    assert np.array_equal(sample, np.tile([1.0, 2.0], (6, 1)))


def test_replay_buffer_empty_sample_raises():
    with pytest.raises(ValueError):
        ReplayBuffer(capacity=2).sample(1, np.random.default_rng(0))


def test_replay_buffer_with_replay_appends_draws_to_fresh_rows():
    buf = ReplayBuffer(capacity=8)
    fresh = np.arange(6, dtype=float).reshape(3, 2)
    assert buf.with_replay(fresh, None, np.random.default_rng(0)) is fresh
    buf.add(-fresh)
    for n, expected_draws in ((None, 3), (5, 5)):
        mixed = buf.with_replay(fresh, n, np.random.default_rng(1))
        assert np.array_equal(mixed[:3], fresh)
        assert np.array_equal(mixed[3:], buf.sample(expected_draws, np.random.default_rng(1)))


def plan_execute_update(spec, model, goal, buffers, config, rng):
    """One online iteration from the start state: plan, execute, contrastive update."""
    state = spec.start_state
    planned = plan(model, state, goal, config.planner, rng)
    real, prefix = execute_plan(spec, state, planned, config.deviation_threshold)
    new_model, _, loss = contrastive_update(
        model, init_adam_state(model.net), real, prefix, rng, buffers, config
    )
    return new_model, real, prefix, loss


def test_online_train_step_grows_buffers_by_fresh_pairs():
    spec = particle_env()
    config = tiny_config()
    rng = np.random.default_rng(3)
    model = make_energy_model(spec.state_dim, rng, config.hidden_sizes)
    buffers = (ReplayBuffer(64), ReplayBuffer(64))
    _, real, prefix, loss = plan_execute_update(
        spec, model, np.array([0.2, 0.2]), buffers, config, rng
    )
    executed = real.shape[0] - 1
    assert prefix.shape == real.shape
    assert len(buffers[0]) == executed
    assert len(buffers[1]) == executed
    assert np.isfinite(loss)


def test_online_train_step_deterministic():
    spec = particle_env()
    config = tiny_config()

    def run():
        rng = np.random.default_rng(11)
        model = make_energy_model(spec.state_dim, rng, config.hidden_sizes)
        buffers = (ReplayBuffer(64), ReplayBuffer(64))
        return plan_execute_update(spec, model, np.array([0.1, 0.3]), buffers, config, rng)

    (model_a, real_a, _, loss_a), (model_b, real_b, _, loss_b) = run(), run()
    assert loss_a == loss_b
    assert np.array_equal(real_a, real_b)
    assert np.array_equal(model_a.net.weights[0], model_b.net.weights[0])


def test_online_train_step_near_perfect_planning_cancels():
    # with a tiny noise scale the plan is almost exactly executable, so the
    # fresh positive and negative pairs coincide and the +-E terms cancel,
    # leaving only the squared stabilizer terms
    spec = particle_env()
    config = tiny_config(
        planner=PlannerConfig(
            num_samples=8, num_iterations=2, horizon=4, noise_scale=1e-4,
            score_mode="prior-only",
        )
    )
    rng = np.random.default_rng(5)
    model = make_energy_model(spec.state_dim, rng, config.hidden_sizes)
    buffers = (ReplayBuffer(64), ReplayBuffer(64))
    new_model, real, prefix, loss = plan_execute_update(spec, model, None, buffers, config, rng)
    assert np.allclose(real, prefix, atol=1e-8)
    energies = transition_energies(new_model, buffers[0].as_array())
    expected = float(np.mean(2.0 * transition_energies(model, buffers[0].as_array()) ** 2))
    assert abs(loss - expected) < 1e-6
    assert energies.shape[0] == real.shape[0] - 1
    # the contrastive gap on fresh pairs stays at zero under perfect planning
    from ebmplan.energy import collate

    gap = transition_energies(model, collate(real)).mean() - transition_energies(
        model, collate(prefix)
    ).mean()
    assert abs(gap) < 1e-7


def test_online_train_zero_budget_returns_empty_series():
    spec = particle_env()
    config = tiny_config(env_step_budget=0)
    result = online_train(spec, np.array([0.2, 0.2]), config, np.random.default_rng(0))
    assert result.episode_scores == []
    assert result.metrics == []


def test_online_train_goal_at_start_scores_near_zero():
    spec = particle_env(start=(0.1, 0.1))
    config = tiny_config(env_step_budget=20, episode_length=10)
    result = online_train(spec, np.array([0.1, 0.1]), config, np.random.default_rng(1))
    assert len(result.episode_scores) >= 1
    assert all(abs(s) < 0.2 for s in result.episode_scores)


def test_online_train_bit_identical_metrics_across_runs():
    # both model kinds run through the same loop; a loop, not parameters, so
    # the test keeps its id
    spec = particle_env()
    config = tiny_config(env_step_budget=25)
    goal = np.array([-0.3, -0.2])
    for train in (online_train, online_train_action_ff):
        a = train(spec, goal, config, np.random.default_rng(7))
        b = train(spec, goal, config, np.random.default_rng(7))
        assert len(a.metrics) == len(b.metrics)
        for ra, rb in zip(a.metrics, b.metrics):
            assert (ra.step, ra.episode, ra.executed, ra.occupancy) == (
                rb.step, rb.episode, rb.executed, rb.occupancy
            )
            assert ra.score == rb.score
            assert ra.loss == rb.loss
        assert a.episode_scores == b.episode_scores


def test_online_train_respects_budget_and_episode_length():
    spec = particle_env()
    config = tiny_config(env_step_budget=23, episode_length=7)
    for train in (online_train, online_train_action_ff):
        result = train(spec, np.array([0.4, 0.4]), config, np.random.default_rng(2))
        assert result.metrics[-1].step == 23
        steps = 0
        for row in result.metrics:
            assert row.step > steps
            steps = row.step
        assert len(result.episode_scores) >= 2


def test_run_online_ends_the_episode_at_the_first_goal_hit():
    spec = particle_env(start=(0.0, 0.0))
    goal = np.array([0.1, 0.0])
    # a feasible straight plan through x = 0.03, 0.06, 0.09, 0.12, 0.15; only
    # x = 0.09 lies within the tolerance of the goal
    config = tiny_config(env_step_budget=6, episode_length=10, goal_tolerance=0.015)
    model = make_energy_model(2, np.random.default_rng(0), (4,))
    starts, lengths = [], []

    def propose(model, state, rng):
        starts.append(state.copy())
        return state + np.arange(6)[:, None] * np.array([0.03, 0.0])

    def learn(model, adam_state, real, prefix, rng):
        lengths.append((real.shape[0], prefix.shape[0]))
        return model, adam_state, 0.0

    result = run_online(spec, goal, config, np.random.default_rng(0), model, propose, learn)
    assert lengths == [(4, 4), (4, 4)]
    assert [row.executed for row in result.metrics] == [3, 3]
    assert [row.episode for row in result.metrics] == [0, 1]
    assert np.array_equal(starts[1], spec.start_state)
    rewards = [spec.reward(np.array([0.03 * i, 0.0]), goal) for i in (1, 2, 3)]
    assert result.episode_scores[0] == pytest.approx(sum(rewards), abs=1e-12)
    assert len(result.episode_scores) == 2


def test_run_online_cuts_a_chunk_with_two_goal_hits_at_the_first():
    spec = particle_env(start=(0.0, 0.0))
    goal = np.array([0.1, 0.0])
    # the plan passes x = 0.09 and x = 0.12, both within the tolerance
    config = tiny_config(env_step_budget=5, episode_length=10, goal_tolerance=0.035)
    model = make_energy_model(2, np.random.default_rng(0), (4,))
    chunks = []

    def propose(model, state, rng):
        return state + np.arange(6)[:, None] * np.array([0.03, 0.0])

    def learn(model, adam_state, real, prefix, rng):
        chunks.append(real.copy())
        return model, adam_state, 0.0

    result = run_online(spec, goal, config, np.random.default_rng(0), model, propose, learn)
    assert [len(chunk) for chunk in chunks] == [4, 3]
    kept = [float(spec.reward(s, goal)) for s in chunks[0][1:]]
    assert [r >= -config.goal_tolerance for r in kept] == [False, False, True]
    assert result.episode_scores == [sum(kept)]


def test_online_config_validation():
    with pytest.raises(ValueError):
        tiny_config(deviation_threshold=0.0)
    with pytest.raises(ValueError):
        tiny_config(episode_length=0)
    with pytest.raises(ValueError):
        tiny_config(batch_size=0)
