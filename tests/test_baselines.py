import numpy as np
import pytest

from ebmplan.baselines import (
    ActionFFModel,
    _rollout,
    ff_mse_loss_and_grads,
    ff_plan,
    ff_predict,
    ff_train_step,
    make_action_ff,
    pack_transitions,
)
from ebmplan.envs import make_env, particle_env
from ebmplan.nn import MlpParams, adam_step, forward_cached, init_adam_state, mlp_init
from ebmplan.planner import PlannerConfig, mppi_refine
from oracles import (
    fd_param_grads,
    max_rel_error,
    naive_mlp_forward,
    packed_rollout_final_states,
)


def no_clip(actions):
    # every action admissible: the planner's samples reach the model unchanged
    return actions


def exact_linear_particle_model():
    # single identity layer computing s' = s + a
    weights = np.concatenate([np.eye(2), np.eye(2)], axis=1)
    net = MlpParams.from_layers([weights], [np.zeros(2)])
    return ActionFFModel(net)


def test_action_ff_model_reads_its_sizes_from_the_net():
    model = ActionFFModel(mlp_init([6, 8, 4], np.random.default_rng(0)))
    assert (model.state_dim, model.action_dim) == (4, 2)
    # as many inputs as outputs leaves no room for an action
    with pytest.raises(ValueError):
        ActionFFModel(mlp_init([4, 8, 4], np.random.default_rng(0)))


def test_ff_predict_zero_model_gives_zero_state():
    model = make_action_ff(2, 2, np.random.default_rng(0), (8,))
    for w in model.net.weights:
        w[:] = 0.0
    out = ff_predict(model, np.array([[0.4, -0.2, 0.01, 0.02]]))[0]
    assert np.array_equal(out, np.zeros(2))


def test_ff_predict_is_forward_on_concatenation():
    model = make_action_ff(2, 2, np.random.default_rng(1), (8, 8))
    s, a = np.array([0.1, 0.9]), np.array([-0.03, 0.02])
    assert np.array_equal(
        ff_predict(model, np.concatenate([s, a])[None]),
        forward_cached(model.net, np.concatenate([s, a])[None])[0],
    )


def test_ff_predict_matches_naive_reference():
    model = make_action_ff(2, 2, np.random.default_rng(2), (6, 6))
    s, a = np.array([0.3, -0.8]), np.array([0.04, -0.01])
    expected = naive_mlp_forward(model.net, np.concatenate([s, a]))
    assert np.allclose(ff_predict(model, np.concatenate([s, a])[None])[0], expected, rtol=1e-12)


def test_ff_predict_dimension_mismatch_raises():
    model = make_action_ff(2, 2, np.random.default_rng(3), (4,))
    with pytest.raises(ValueError):
        ff_predict(model, np.zeros((1, 5)))


def test_ff_train_step_exact_model_has_zero_loss_and_grads():
    model = exact_linear_particle_model()
    rng = np.random.default_rng(4)
    s = rng.uniform(-1, 1, (16, 2))
    a = rng.uniform(-0.05, 0.05, (16, 2))
    rows = pack_transitions(s, a, s + a)
    loss, grads = ff_mse_loss_and_grads(model, rows)
    assert loss == 0.0
    for g in grads.weights + grads.biases:
        assert np.array_equal(g, np.zeros_like(g))
    new_model, _, _ = ff_train_step(model, (rows,), 1e-3, init_adam_state(model.net))
    assert np.array_equal(new_model.net.weights[0], model.net.weights[0])


def test_ff_mse_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    for seed in range(3):
        model = make_action_ff(2, 2, np.random.default_rng(seed + 10), (6, 6))
        s = rng.uniform(-1, 1, (4, 2))
        a = rng.uniform(-0.05, 0.05, (4, 2))
        rows = pack_transitions(s, a, rng.uniform(-1, 1, (4, 2)))
        _, analytic = ff_mse_loss_and_grads(model, rows)
        numeric = fd_param_grads(
            lambda p: ff_mse_loss_and_grads(ActionFFModel(p), rows)[0],
            model.net,
        )
        assert max_rel_error(analytic, numeric) < 1e-4


def test_ff_empty_batch_raises():
    model = make_action_ff(1, 1, np.random.default_rng(0), (4,))
    with pytest.raises(ValueError):
        ff_mse_loss_and_grads(model, np.empty((0, 3)))


def test_ff_fits_linear_1d_dynamics():
    # learnability oracle: s' = s + a reaches MSE < 1e-4 within 2000 steps
    rng = np.random.default_rng(6)
    s = rng.uniform(-1, 1, (512, 1))
    a = rng.uniform(-0.5, 0.5, (512, 1))
    s_next = s + a
    model = make_action_ff(1, 1, np.random.default_rng(7), (32, 32))
    adam = init_adam_state(model.net)
    rows = np.concatenate([s, a, s_next], axis=1)
    batch_rng = np.random.default_rng(8)
    loss = np.inf
    for _ in range(2000):
        idx = batch_rng.integers(0, 512, size=64)
        model, adam, loss = ff_train_step(model, (rows[idx],), 3e-3, adam)
    final_loss, _ = ff_mse_loss_and_grads(model, rows)
    assert final_loss < 1e-4


def test_ff_plan_zero_iterations_with_exact_model():
    model = exact_linear_particle_model()
    config = PlannerConfig(num_iterations=0, horizon=5, noise_scale=0.02)
    start = np.array([0.1, -0.1])
    actions, predicted = ff_plan(
        model, start, np.zeros(2), config, np.random.default_rng(0), no_clip
    )
    assert np.array_equal(actions, np.zeros((4, 2)))
    assert np.array_equal(predicted, np.tile(start, (5, 1)))


def test_ff_plan_single_sample_degenerate_weights():
    model = exact_linear_particle_model()
    config = PlannerConfig(
        num_samples=1, num_iterations=3, horizon=4, noise_scale=0.02, temperature=0.5
    )
    actions, predicted = ff_plan(
        model, np.zeros(2), np.array([0.3, 0.0]), config, np.random.default_rng(1), no_clip
    )
    assert actions.shape == (3, 2)
    assert predicted.shape == (4, 2)
    # single sample always receives weight one; rollout must stay consistent
    rolled = np.zeros(2)
    for t in range(3):
        rolled = ff_predict(model, np.concatenate([rolled, actions[t]])[None])[0]
        assert np.allclose(predicted[t + 1], rolled, rtol=1e-12)


def test_ff_plan_reaches_nearby_goal_with_exact_model():
    spec = particle_env()
    model = exact_linear_particle_model()
    config = PlannerConfig(
        num_samples=200, num_iterations=25, horizon=8, noise_scale=0.015, temperature=0.02
    )
    start = np.zeros(2)
    goal = np.array([0.2, 0.0])
    actions, predicted = ff_plan(
        model, start, goal, config, np.random.default_rng(2), spec.clip_action
    )
    assert np.linalg.norm(predicted[-1] - goal) < 0.05
    for action in actions:
        assert np.linalg.norm(action) <= 0.05 + 1e-12


def test_ff_plan_trajectory_is_rollout_of_actions():
    model = make_action_ff(2, 2, np.random.default_rng(8), (8, 8))
    # horizon 2 plans a single action, perturbed by isotropic noise
    for horizon in (6, 2):
        config = PlannerConfig(
            num_samples=16, num_iterations=4, horizon=horizon, noise_scale=0.05
        )
        actions, predicted = ff_plan(
            model, np.array([0.2, 0.2]), np.zeros(2), config, np.random.default_rng(3), no_clip
        )
        assert actions.shape == (horizon - 1, 2)
        assert predicted.shape == (horizon, 2)
        state = np.array([0.2, 0.2])
        assert np.array_equal(predicted[0], state)
        for t in range(actions.shape[0]):
            state = ff_predict(model, np.concatenate([state, actions[t]])[None])[0]
            assert np.array_equal(predicted[t + 1], state)


def test_rollout_on_a_float32_copy_is_the_packed_oracle_bit_for_bit():
    model = make_action_ff(2, 2, np.random.default_rng(9), (16, 16))
    scorer = ActionFFModel(model.net.astype(np.float32))
    start = np.array([0.3, 0.25])
    rng = np.random.default_rng(10)
    for horizon in (2, 14):
        for n in (1, 128):
            actions = rng.uniform(-0.05, 0.05, (n, horizon - 1, 2))
            rolled = _rollout(scorer, start, actions)
            assert rolled.shape == (horizon, n, 2) and rolled.dtype == np.float32
            assert np.array_equal(rolled[0], np.tile(start.astype(np.float32), (n, 1)))
            expected = packed_rollout_final_states(scorer.net, start, actions)
            assert np.array_equal(rolled[-1], expected)


def test_ff_plan_packed_scorer_matches_rollout_scorer():
    # ff_plan scores through _rollout exactly as the packed float32 buffer does
    spec = particle_env()
    model = make_action_ff(2, 2, np.random.default_rng(8), (16, 16))
    scorer = model.net.astype(np.float32)
    start, goal = np.array([0.3, 0.25]), np.array([0.65, 0.53])

    def packed_distance(samples):
        final = packed_rollout_final_states(scorer, start, samples)
        return ((final.astype(float) - goal) ** 2).sum(axis=1)

    for horizon in (14, 2):
        config = PlannerConfig(
            num_samples=128, num_iterations=5, horizon=horizon, noise_scale=0.012,
            temperature=0.15,
        )
        candidate = np.zeros((horizon - 1, 2))
        expected = mppi_refine(
            candidate, spec.clip_action, packed_distance, config, np.random.default_rng(3)
        )
        actions, _ = ff_plan(model, start, goal, config, np.random.default_rng(3), spec.clip_action)
        assert np.array_equal(actions, expected)


def test_ff_plan_leaves_model_unchanged():
    model = make_action_ff(2, 2, np.random.default_rng(8), (8, 8))
    arrays = model.net.weights + model.net.biases
    snapshot = [a.copy() for a in arrays]
    config = PlannerConfig(num_samples=16, num_iterations=3, horizon=5, noise_scale=0.05)
    ff_plan(model, np.zeros(2), np.array([0.3, 0.0]), config, np.random.default_rng(4), no_clip)
    assert all(a is b for a, b in zip(model.net.weights + model.net.biases, arrays))
    for a, before in zip(arrays, snapshot):
        assert a.dtype == np.float64
        assert np.array_equal(a, before)


def test_ff_plan_raises_when_all_scores_non_finite():
    model = make_action_ff(2, 2, np.random.default_rng(8), (8,))
    model.net.biases[-1][0] = np.nan
    config = PlannerConfig(num_samples=8, num_iterations=2, horizon=4)
    with pytest.raises(ValueError):
        ff_plan(model, np.zeros(2), np.zeros(2), config, np.random.default_rng(1), no_clip)

