import dataclasses
from collections import deque

import numpy as np
import pytest

from ebmplan import online
from ebmplan.energy import (
    collate,
    contrastive_loss_and_grads,
    contrastive_train_step,
    make_energy_model,
    transition_energies,
)
from ebmplan.envs import maze_env, particle_env, reacher_env
from ebmplan.experiments import MODEL_KINDS, online_train
from ebmplan.nn import adam_step, init_adam_state
from ebmplan.online import (
    GOAL_TOLERANCE,
    OnlineConfig,
    ReplayBuffer,
    execute_plan,
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
    real, prefix, _ = execute_plan(spec, start, planned, 0.1)
    assert real.shape == planned.shape
    assert np.allclose(real, planned, atol=1e-12)
    assert np.array_equal(prefix, planned)


def test_execute_plan_stops_after_first_deviation():
    spec = particle_env(start=(0.0, 0.0))
    planned = np.array([[0.0, 0.0], [0.5, 0.0], [0.6, 0.0]])
    real, prefix, _ = execute_plan(spec, np.zeros(2), planned, 0.1)
    assert real.shape == (2, 2)
    assert prefix.shape == (2, 2)
    assert np.allclose(real[1], [0.05, 0.0], rtol=1e-15)  # hop capped by the env
    assert np.array_equal(prefix[1], planned[1])


def test_execute_plan_infinite_threshold_runs_everything():
    spec = particle_env(start=(0.0, 0.0))
    planned = np.array([[0.0, 0.0], [0.5, 0.0], [0.9, 0.3], [0.2, -0.4]])
    real, prefix, _ = execute_plan(spec, np.zeros(2), planned, np.inf)
    assert real.shape == planned.shape
    assert np.array_equal(prefix, planned)


def test_execute_plan_rejects_mismatched_start():
    spec = particle_env()
    planned = np.zeros((3, 2))
    with pytest.raises(ValueError):
        execute_plan(spec, np.array([0.1, 0.0]), planned, 0.1)


def assert_holds(buf, rows, seed=0):
    # a seeded draw picks rows by their oldest-first index, so 200 draws that
    # reach every index show the buffer's length, order and content
    idx = np.random.default_rng(seed).integers(0, len(rows), size=200)
    assert set(idx.tolist()) == set(range(len(rows)))
    assert np.array_equal(buf.sample(200, np.random.default_rng(seed)), rows[idx])


def test_replay_buffer_fifo_eviction_and_capacity():
    buf = ReplayBuffer(capacity=5)
    rows = np.arange(16, dtype=float).reshape(8, 2)
    buf.add(rows)
    assert_holds(buf, rows[3:])  # rows[3] is the oldest surviving row
    buf.add(rows[:1])
    assert_holds(buf, np.concatenate([rows[4:], rows[:1]]))


def test_replay_buffer_matches_deque_reference_across_wraparound():
    # the ring must keep the order and the draws of a deque of row copies
    rng = np.random.default_rng(20)
    buf = ReplayBuffer(capacity=7)
    reference = deque(maxlen=7)
    for size in (3, 5, 1, 9, 2, 6, 7, 4):
        rows = rng.normal(size=(size, 3))
        buf.add(rows)
        reference.extend(row.copy() for row in rows)
        assert_holds(buf, np.stack(reference), seed=size + 100)
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


def plan_execute_update(spec, model, goal, config, rng):
    """One online step from the start state: plan, execute, contrastive step on fresh pairs."""
    state = spec.start_state
    planned = plan(model, state, goal, config.planner, rng)
    real, prefix, _ = execute_plan(spec, state, planned, config.deviation_threshold)
    new_model, _, loss = contrastive_train_step(
        model, (collate(real), collate(prefix)), config.learning_rate, init_adam_state(model.net)
    )
    return new_model, real, prefix, loss


def test_online_train_step_grows_buffers_by_fresh_pairs():
    # run_online pads each fresh array with as many rows drawn from its own
    # buffer, and the buffer holds exactly the fresh rows of earlier updates
    spec = particle_env()
    config = tiny_config()
    rng = np.random.default_rng(3)
    model = make_energy_model(spec.state_dim, rng, config.hidden_sizes)
    goal = np.array([0.2, 0.2])
    fresh, batches, losses = [], [], []

    def propose(model, state, rng):
        return plan(model, state, goal, config.planner, rng)

    def fresh_rows(real, prefix, actions):
        assert prefix.shape == real.shape
        fresh.append((collate(real), collate(prefix)))
        return fresh[-1]

    def train_step(model, batch, learning_rate, adam_state):
        batches.append(batch)
        model, adam_state, loss = contrastive_train_step(model, batch, learning_rate, adam_state)
        losses.append(loss)
        return model, adam_state, loss

    result = run_online(spec, goal, config, rng, model, propose, fresh_rows, train_step)
    assert [len(pos) for pos, _ in fresh] == [row.executed for row in result.metrics]
    assert len(batches) >= 2
    for k, batch in enumerate(batches):
        for j in (0, 1):
            rows = fresh[k][j]
            assert np.array_equal(batch[j][: len(rows)], rows)
            replay = batch[j][len(rows) :]
            assert len(replay) == (len(rows) if k else 0)
            if k:
                stored = np.concatenate([f[j] for f in fresh[:k]])
                assert all((stored == row).all(axis=1).any() for row in replay)
    assert np.isfinite(losses).all()


def test_online_train_step_deterministic():
    spec = particle_env()
    config = tiny_config()

    def run():
        rng = np.random.default_rng(11)
        model = make_energy_model(spec.state_dim, rng, config.hidden_sizes)
        return plan_execute_update(spec, model, np.array([0.1, 0.3]), config, rng)

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
    new_model, real, prefix, loss = plan_execute_update(spec, model, None, config, rng)
    assert np.allclose(real, prefix, atol=1e-8)
    positives = collate(real)
    energies = transition_energies(new_model, positives)
    expected = float(np.mean(2.0 * transition_energies(model, positives) ** 2))
    assert abs(loss - expected) < 1e-6
    assert energies.shape[0] == real.shape[0] - 1
    # the contrastive gap on fresh pairs stays at zero under perfect planning
    gap = transition_energies(model, collate(real)).mean() - transition_energies(
        model, collate(prefix)
    ).mean()
    assert abs(gap) < 1e-7


def test_contrastive_train_step_is_loss_grads_then_adam():
    rng = np.random.default_rng(8)
    model = make_energy_model(2, rng, (8, 8))
    batch = (rng.normal(size=(5, 4)), rng.normal(size=(5, 4)))
    state = init_adam_state(model.net)
    new_model, new_state, loss = contrastive_train_step(model, batch, 0.01, state)
    want_loss, grads = contrastive_loss_and_grads(model, *batch)
    want_net, want_state = adam_step(model.net, grads, state, 0.01)
    assert loss == want_loss
    assert np.array_equal(new_model.net.flat, want_net.flat)
    assert np.array_equal(new_state.first, want_state.first)
    assert np.array_equal(new_state.second, want_state.second)
    assert new_state.step_count == want_state.step_count == 1
    assert new_model.state_dim == model.state_dim


def test_online_train_zero_budget_returns_empty_series():
    spec = particle_env()
    config = tiny_config(env_step_budget=0)
    result = online_train("ebm", spec, np.array([0.2, 0.2]), config, np.random.default_rng(0))
    assert result.episode_scores == []
    assert result.metrics == []


def test_online_train_goal_at_start_scores_near_zero():
    spec = particle_env(start=(0.1, 0.1))
    config = tiny_config(env_step_budget=20, episode_length=10)
    result = online_train("ebm", spec, np.array([0.1, 0.1]), config, np.random.default_rng(1))
    assert len(result.episode_scores) >= 1
    assert all(abs(s) < 0.2 for s in result.episode_scores)


def test_online_train_bit_identical_metrics_across_runs():
    # both model kinds run through the same loop; a loop, not parameters, so
    # the test keeps its id
    spec = particle_env()
    config = tiny_config(env_step_budget=25)
    goal = np.array([-0.3, -0.2])
    for kind in MODEL_KINDS:
        a = online_train(kind, spec, goal, config, np.random.default_rng(7))
        b = online_train(kind, spec, goal, config, np.random.default_rng(7))
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
    for kind in MODEL_KINDS:
        result = online_train(kind, spec, np.array([0.4, 0.4]), config, np.random.default_rng(2))
        assert result.metrics[-1].step == 23
        steps = 0
        for row in result.metrics:
            assert row.step > steps
            steps = row.step
        assert len(result.episode_scores) >= 2


def test_run_online_ends_the_episode_at_the_first_goal_hit():
    spec = particle_env(start=(0.0, 0.0))
    goal = np.array([0.09, 0.045])
    # a feasible straight plan through x = 0.03, 0.06, 0.09, 0.12, 0.15 at y = 0;
    # only x = 0.09 lies within the tolerance of the goal
    config = tiny_config(env_step_budget=6, episode_length=10)
    model = make_energy_model(2, np.random.default_rng(0), (4,))
    starts, lengths = [], []

    def propose(model, state, rng):
        starts.append(state.copy())
        return state + np.arange(6)[:, None] * np.array([0.03, 0.0])

    def fresh_rows(real, prefix, actions):
        lengths.append((real.shape[0], prefix.shape[0], actions.shape[0]))
        return (collate(real),)

    def train_step(model, batch, learning_rate, adam_state):
        return model, adam_state, 0.0

    result = run_online(spec, goal, config, np.random.default_rng(0), model, propose,
                        fresh_rows, train_step)
    # the cut keeps one action per kept transition
    assert lengths == [(4, 4, 3), (4, 4, 3)]
    assert [row.executed for row in result.metrics] == [3, 3]
    assert [row.episode for row in result.metrics] == [0, 1]
    assert np.array_equal(starts[1], spec.start_state)
    rewards = [spec.reward(np.array([0.03 * i, 0.0]), goal) for i in (1, 2, 3)]
    assert result.episode_scores[0] == pytest.approx(sum(rewards), abs=1e-12)
    assert len(result.episode_scores) == 2


def test_run_online_cuts_a_chunk_with_two_goal_hits_at_the_first():
    spec = particle_env(start=(0.0, 0.0))
    goal = np.array([0.105, 0.045])
    # the plan passes x = 0.09 and x = 0.12, both within the tolerance
    assert spec.reward(np.array([0.12, 0.0]), goal) >= -GOAL_TOLERANCE
    config = tiny_config(env_step_budget=5, episode_length=10)
    model = make_energy_model(2, np.random.default_rng(0), (4,))
    chunks = []

    def propose(model, state, rng):
        return state + np.arange(6)[:, None] * np.array([0.03, 0.0])

    def fresh_rows(real, prefix, actions):
        chunks.append(real.copy())
        assert len(actions) == len(real) - 1 and len(prefix) == len(real)
        return (collate(real),)

    def train_step(model, batch, learning_rate, adam_state):
        return model, adam_state, 0.0

    result = run_online(spec, goal, config, np.random.default_rng(0), model, propose,
                        fresh_rows, train_step)
    assert [len(chunk) for chunk in chunks] == [4, 3]
    kept = [float(spec.reward(s, goal)) for s in chunks[0][1:]]
    assert [r >= -GOAL_TOLERANCE for r in kept] == [False, False, True]
    assert result.episode_scores == [sum(kept)]


def test_online_config_validation():
    with pytest.raises(ValueError):
        tiny_config(deviation_threshold=0.0)
    with pytest.raises(ValueError):
        tiny_config(episode_length=0)
    with pytest.raises(ValueError):
        tiny_config(batch_size=0)
    with pytest.raises(ValueError, match="learning_rate"):
        tiny_config(learning_rate=0.0)


def spied(spec):
    """``spec`` with a ``step`` that records a copy of every action it receives."""
    sent = []

    def step(state, action):
        sent.append(np.array(action, copy=True))
        return spec.step(state, action)

    return dataclasses.replace(spec, step=step), sent


def test_execute_plan_returns_the_actions_sent_to_step():
    rng = np.random.default_rng(4)
    reacher = reacher_env()
    cases = [
        # a feasible step, then hops the env caps
        ("particle", particle_env(start=(0.0, 0.0)),
         np.array([[0.0, 0.0], [0.03, 0.0], [0.5, 0.0], [0.6, 0.1]])),
        # the second and third moves end inside the middle wall and are rejected
        ("maze", maze_env(start=(0.0, -0.12)),
         np.array([[0.0, -0.12], [0.0, -0.08], [0.0, -0.04], [0.0, 0.0], [0.03, -0.1]])),
        ("reacher", reacher, reacher.start_state + np.concatenate(
            [np.zeros((1, 4)), rng.normal(scale=0.2, size=(5, 4))])),
    ]
    for name, spec, planned in cases:
        spy, sent = spied(spec)
        real, prefix, actions = execute_plan(spy, spec.start_state, planned, np.inf)
        assert actions.shape == (len(real) - 1, spec.action_dim)
        assert actions.tobytes() == np.stack(sent).tobytes(), name
        assert real.shape == prefix.shape == planned.shape
        if name == "maze":
            blocked = (real[1:] == real[:-1]).all(axis=1)
            assert blocked.tolist() == [False, True, True, False]


def test_action_ff_buffer_rows_are_observed_transitions(monkeypatch):
    # each (s, a, s') row stored for the forward model holds the clipped command
    # that execute_plan sent from s, and s' is that command's outcome. The
    # reacher's clip is idempotent, so there a is admissible and steps from s to
    # s' exactly. clip_to_ball is not: a clipped row can lie 1 ulp outside the
    # step ball, so on the particle map both hold to 1e-15 only.
    buffers = []

    class RecordedBuffer(ReplayBuffer):
        def __init__(self, capacity):
            super().__init__(capacity)
            self.added = []
            buffers.append(self)

        def add(self, rows):
            self.added.append(np.array(rows))
            super().add(rows)

    monkeypatch.setattr(online, "ReplayBuffer", RecordedBuffer)
    config = tiny_config(env_step_budget=25, buffer_capacity=64)
    cases = (("particle", particle_env(), np.array([-0.3, -0.2]), 1e-15),
             ("reacher", reacher_env(), np.array([0.4, -0.3, 0.0, 0.0]), 0.0))
    for name, spec, goal, atol in cases:
        buffers.clear()
        spy, sent = spied(spec)
        online_train("action-ff", spy, goal, config, np.random.default_rng(7))
        (buffer,) = buffers
        rows = np.concatenate(buffer.added)
        assert len(rows) == len(sent) == config.env_step_budget
        d = spec.state_dim
        states, actions, nexts = rows[:, :d], rows[:, d:-d], rows[:, -d:]
        assert np.array_equal(actions, spec.clip_action(np.stack(sent)))
        for s, a, sent_a, s_next in zip(states, actions, sent, nexts):
            assert np.array_equal(spec.step(s, sent_a), s_next), name
            assert np.allclose(spec.clip_action(a), a, rtol=0.0, atol=atol), name
            assert np.allclose(spec.step(s, a), s_next, rtol=0.0, atol=atol), name
