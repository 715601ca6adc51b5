from dataclasses import replace

import numpy as np
import pytest

from ebmplan import experiments
from ebmplan.baselines import make_action_ff
from ebmplan.energy import EnergyModel, make_energy_model, transition_energies
from ebmplan.envs import (MazeLayout, default_maze_layout, make_env, maze_env, occupancy_cells,
                          particle_env)
from ebmplan.experiments import (
    CSV_HEADERS,
    MODEL_KINDS,
    ExperimentConfig,
    energy_heatmap,
    evaluate_model,
    gen_random_dataset,
    pretrain,
    run_diversity,
    run_experiment,
    run_explore,
    run_policy_episode,
    write_csv,
)
from ebmplan.nn import MlpParams
from ebmplan.online import OnlineConfig
from ebmplan.planner import PlannerConfig

# the values pretrain's settings defaulted to before every one became required
PRETRAIN_SETTINGS = {"hidden_sizes": (64, 64), "learning_rate": 1e-3, "batch_size": 64,
                     "repeat_factor": 100, "negative_scale": 0.1}


def test_gen_random_dataset_single_transition():
    spec = particle_env()
    s, a, s2 = gen_random_dataset(spec, 1, np.random.default_rng(0), reset_every=100)
    assert s.shape == (1, 2) and a.shape == (1, 2) and s2.shape == (1, 2)
    assert np.array_equal(s[0], spec.start_state)
    assert np.array_equal(s2[0], spec.step(s[0], a[0]))


def test_gen_random_dataset_replays_exactly():
    for kind in ("particle", "maze", "reacher"):
        spec = make_env(kind)
        s, a, s2 = gen_random_dataset(spec, 400, np.random.default_rng(1), reset_every=50)
        for i in range(400):
            assert np.array_equal(s2[i], spec.step(s[i], a[i]))


def test_gen_random_dataset_coverage():
    spec = particle_env()
    s, _, _ = gen_random_dataset(spec, 10_000, np.random.default_rng(2), reset_every=100)
    assert len(occupancy_cells(s)) > 50


def test_pretrain_zero_steps_returns_seeded_initialization():
    spec = particle_env()
    dataset = gen_random_dataset(spec, 50, np.random.default_rng(3), reset_every=100)
    result = pretrain("ebm", dataset, "shuffled", 0, np.random.default_rng(7),
                      **{**PRETRAIN_SETTINGS, "hidden_sizes": (8, 8)})
    expected = make_energy_model(2, np.random.default_rng(7), (8, 8))
    for a, b in zip(result.model.net.weights, expected.net.weights):
        assert np.array_equal(a, b)
    assert result.losses == []


def test_pretrain_rejects_bad_mode_and_empty_dataset():
    spec = particle_env()
    dataset = gen_random_dataset(spec, 10, np.random.default_rng(0), reset_every=100)
    with pytest.raises(ValueError):
        pretrain("ebm", dataset, "stratified", 5, np.random.default_rng(0), **PRETRAIN_SETTINGS)
    empty = (np.empty((0, 2)), np.empty((0, 2)), np.empty((0, 2)))
    with pytest.raises(ValueError):
        pretrain("action-ff", empty, "shuffled", 5, np.random.default_rng(0), **PRETRAIN_SETTINGS)
    with pytest.raises(ValueError):
        pretrain("transformer", dataset, "shuffled", 5, np.random.default_rng(0),
                 **PRETRAIN_SETTINGS)


def test_pretrain_action_ff_reaches_low_mse_on_particle():
    from ebmplan.baselines import ff_mse_loss_and_grads, pack_transitions

    spec = particle_env()
    dataset = gen_random_dataset(spec, 2000, np.random.default_rng(4), reset_every=100)
    result = pretrain(
        "action-ff", dataset, "shuffled", 1500, np.random.default_rng(5),
        hidden_sizes=(32, 32), learning_rate=3e-3, batch_size=64,
        repeat_factor=100, negative_scale=0.1,
    )
    loss, _ = ff_mse_loss_and_grads(result.model, pack_transitions(*dataset))
    assert loss < 1e-3


def test_pretrain_sequential_mode_walks_in_order():
    # each kind must match a hand loop over rows 0 x5 then 1 x5 with its own
    # update step; a loop over kinds, not parameters, so the test keeps its id
    from ebmplan.baselines import ff_train_step
    from ebmplan.energy import contrastive_loss_and_grads, pack_pairs, sample_negative_pairs
    from ebmplan.nn import adam_step, init_adam_state

    spec = particle_env()
    states, actions, next_states = dataset = gen_random_dataset(
        spec, 30, np.random.default_rng(6), reset_every=100
    )
    rows = [0] * 5 + [1] * 5
    pairs = pack_pairs(states, next_states)
    transitions = np.concatenate([states, actions, next_states], axis=1)
    for kind in ("ebm", "action-ff"):
        result = pretrain(kind, dataset, "sequential-repeated", 10, np.random.default_rng(8),
                          **{**PRETRAIN_SETTINGS, "hidden_sizes": (4,), "repeat_factor": 5})
        rng = np.random.default_rng(8)
        if kind == "ebm":
            model = make_energy_model(2, rng, (4,))
        else:
            model = make_action_ff(2, 2, rng, (4,))
        adam_state = init_adam_state(model.net)
        losses = []
        for i in rows:
            if kind == "ebm":
                positives = pairs[[i]]
                negatives = sample_negative_pairs(model, positives, rng, scale=0.1)
                loss, grads = contrastive_loss_and_grads(model, positives, negatives)
                net, adam_state = adam_step(model.net, grads, adam_state, 1e-3)
                model = EnergyModel(net)
            else:
                batch = (transitions[[i]],)
                model, adam_state, loss = ff_train_step(model, batch, 1e-3, adam_state)
            losses.append(loss)
        assert result.losses == [(0, losses[0]), (9, losses[9])]
        got = result.model.net
        for a, b in zip(got.weights + got.biases, model.net.weights + model.net.biases):
            assert np.array_equal(a, b), kind


def test_run_policy_episode_teleport_oracle():
    # scripted max-speed agent straight toward a goal 0.3 away: the summed
    # rewards over a 50-step episode are -(0.3+0.25+0.2+0.15+0.1+0.05) = -1.05
    spec = particle_env(start=(0.0, 0.0))
    goal = np.array([0.3, 0.0])

    def policy(state):
        return goal - state

    score = run_policy_episode(spec, goal, policy, 50)
    assert np.isclose(score, -1.05, atol=1e-12)


def test_run_policy_episode_stationary_at_goal_scores_zero():
    spec = particle_env(start=(0.2, 0.1))
    goal = np.array([0.2, 0.1])
    score = run_policy_episode(spec, goal, lambda s: np.zeros(2), 50)
    assert score == 0.0


def test_run_explore_random_budget_one_and_monotone():
    spec = particle_env()
    config = OnlineConfig(env_step_budget=1)
    series = run_explore("random", spec, seed=0, config=config)
    assert series == [(1, 1)]
    config = OnlineConfig(env_step_budget=200)
    series = run_explore("random", spec, seed=1, config=config)
    occ = [c for _, c in series]
    assert all(b >= a for a, b in zip(occ, occ[1:]))
    assert series[-1][0] == 200


def test_run_explore_ebm_prior_budget_one():
    spec = particle_env()
    config = OnlineConfig(
        planner=PlannerConfig(num_samples=8, num_iterations=2, horizon=4,
                              noise_scale=0.01, score_mode="prior-only"),
        hidden_sizes=(8, 8), env_step_budget=1,
    )
    series = run_explore("ebm-prior", spec, seed=0, config=config)
    assert series[-1] == (1, 1)


def test_run_explore_rejects_unknown_policy():
    with pytest.raises(ValueError):
        run_explore("greedy", particle_env(), seed=0, config=OnlineConfig(env_step_budget=10))


def test_run_diversity_identical_seeds_zero_spread():
    model = make_energy_model(2, np.random.default_rng(0), (8,))
    spreads = run_diversity(
        model, np.zeros(2), np.array([0.3, 0.0]), [6, 10], [7, 7, 7],
        PlannerConfig(num_samples=16, num_iterations=3, horizon=6, noise_scale=0.05),
    )
    assert spreads[6] == 0.0 and spreads[10] == 0.0


def test_run_diversity_symmetric_in_trial_order():
    model = make_energy_model(2, np.random.default_rng(1), (8,))
    config = PlannerConfig(num_samples=16, num_iterations=3, horizon=8, noise_scale=0.05)
    a = run_diversity(model, np.zeros(2), np.array([0.3, 0.0]), [8], [1, 2, 3], config)
    b = run_diversity(model, np.zeros(2), np.array([0.3, 0.0]), [8], [3, 1, 2], config)
    assert np.isclose(a[8], b[8], rtol=1e-12)


def test_run_diversity_needs_two_trials():
    model = make_energy_model(2, np.random.default_rng(0), (8,))
    with pytest.raises(ValueError):
        run_diversity(model, np.zeros(2), np.zeros(2), [6], [1],
                      PlannerConfig(horizon=6))


def test_energy_heatmap_zero_model_constant():
    model = make_energy_model(2, np.random.default_rng(0), (8,))
    for w in model.net.weights:
        w[:] = 0.0
    matrix = energy_heatmap(model, 10)
    assert matrix.shape == (10, 10)
    assert np.array_equal(matrix, np.zeros((10, 10)))


def test_energy_heatmap_even_network_is_grid_symmetric():
    # hand-built net: tanh(a x - c) - tanh(a x + c) is even in x, applied to
    # both map coordinates and summed, so the heatmap must be symmetric under
    # coordinate flips and x/y swap on the centered grid
    a, c = 1.3, 0.7
    w0 = np.zeros((4, 4))
    w0[0, 0], w0[1, 0] = a, a
    w0[2, 1], w0[3, 1] = a, a
    b0 = np.array([-c, c, -c, c])
    w1 = np.array([[1.0, -1.0, 1.0, -1.0]])
    net = MlpParams.from_layers([w0, w1], [b0, np.zeros(1)])
    model = EnergyModel(net)
    matrix = energy_heatmap(model, 16)
    assert np.allclose(matrix, matrix[::-1, :], atol=1e-10)  # y flip
    assert np.allclose(matrix, matrix[:, ::-1], atol=1e-10)  # x flip
    assert np.allclose(matrix, matrix.T, atol=1e-10)  # swap
    assert not np.allclose(matrix, 0.0)


def test_energy_heatmap_displacement_changes_pairs():
    model = make_energy_model(2, np.random.default_rng(9), (8,))
    base = energy_heatmap(model, 6)
    shifted = energy_heatmap(model, 6, displacement=(0.05, 0.0))
    assert not np.allclose(base, shifted)


def test_energy_heatmap_rejects_non_2d():
    model = make_energy_model(4, np.random.default_rng(0), (8,))
    with pytest.raises(ValueError):
        energy_heatmap(model, 8)


def test_write_csv_formats_and_replaces_atomically(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ("a", "b"), [(1, 0.5), (2, -1.25)])
    assert path.read_text() == "a,b\n1,0.5\n2,-1.25\n"
    write_csv(path, ("a", "b"), [(3, 0.1)])
    assert path.read_text().splitlines()[1] == "3,0.1"
    assert not path.with_name(path.name + ".tmp").exists()


def test_config_accepts_exactly_the_model_kinds(monkeypatch):
    # the config reads the table: adding or removing a record adds or removes a model value
    def loads(name):
        try:
            return ExperimentConfig.from_dict({"kind": "pretrain", "model": name}).model == name
        except ValueError as exc:
            assert "unknown model kind" in str(exc)
            return False

    assert set(MODEL_KINDS) == {"ebm", "action-ff"}
    assert all(loads(name) for name in MODEL_KINDS)
    assert not any(loads(name) for name in ("EBM", "ff", "action_ff", "transformer", ""))
    monkeypatch.setitem(MODEL_KINDS, "transformer", MODEL_KINDS["ebm"])
    monkeypatch.delitem(MODEL_KINDS, "action-ff")
    assert loads("transformer") and loads("ebm") and not loads("action-ff")


def test_experiment_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"kind": "online", "typo_key": 1})
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"kind": "mystery"})
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"kind": "online", "seeds": []})
    with pytest.raises(ValueError, match="non-negative"):
        ExperimentConfig.from_dict({"kind": "online", "goal": [0.0, 0.0], "seeds": [0, -1]})
    with pytest.raises(ValueError, match="kind"):
        ExperimentConfig.from_dict({})
    with pytest.raises(ValueError, match="online.learning_rate: set by the top level"):
        ExperimentConfig.from_dict({"kind": "explore", "online": {"learning_rate": 0.01}})
    # limits checked at load, not after a run has done work
    for kind, key, value in [("eval", "episode_length", 0), ("comparison", "episode_length", -3),
                             ("comparison", "ff_learning_rate", 0.0),
                             ("pretrain", "dataset_size", 0), ("pretrain", "pretrain_batch", 0),
                             ("heatmap", "resolution", 0), ("pretrain", "negative_scale", -0.1),
                             ("diversity", "trials", 1)]:
        data = {"kind": kind, key: value}
        if "goal" in experiments.KIND_KEYS[kind]:
            data["goal"] = [0.2, 0.0]
        if kind == "eval":
            data["model_checkpoint"] = "model.npz"
        with pytest.raises(ValueError, match=f"^{key} must be"):
            ExperimentConfig.from_dict(data)
    with pytest.raises(ValueError, match="horizons"):
        ExperimentConfig.from_dict({"kind": "diversity", "goal": [0.2, 0.0], "horizons": [6, 1]})
    with pytest.raises(ValueError, match="env_options.start: start state lies inside a wall"):
        ExperimentConfig.from_dict({"kind": "comparison", "goal": [0.4, 0.0],
                                    "env_options": {"start": [0.3, 0.0]}})


def test_experiment_config_rejects_a_heatmap_of_a_non_2d_env():
    with pytest.raises(ValueError, match="^experiment 'heatmap' needs a 2-D state space; "
                                         "env 'reacher' has state_dim 4$"):
        ExperimentConfig.from_dict({"kind": "heatmap", "env": "reacher"})
    for env in ("particle", "maze"):
        assert ExperimentConfig.from_dict({"kind": "heatmap", "env": env}).env == env


def test_obstacle_env_is_built_through_make_env(monkeypatch):
    # a wrapper of make_env, as a tracer installs, sees the blocked env as well
    built = []

    def spy(kind, **options):
        built.append(kind)
        return make_env(kind, **options)

    monkeypatch.setattr(experiments, "make_env", spy)
    config = ExperimentConfig.from_dict({"kind": "comparison", "goal": [0.4, 0.0]})
    assert "maze" in built
    blocked = config.obstacle_env()
    assert blocked.maze_layout.walls == (experiments.COMPARISON_OBSTACLE,)
    assert np.array_equal(blocked.start_state, config.make_env().start_state)


def test_comparison_wall_blocks_steps_across_each_face_only():
    # the wall's faces are written out here, so a moved COMPARISON_OBSTACLE fails
    # this test: x from 0.28 to 0.38 and y from -0.22 to 0.26
    blocked = ExperimentConfig.from_dict({"kind": "comparison", "goal": [0.4, 0.0]}).obstacle_env()
    # (a point in the middle of each face, the face's outward normal)
    faces = [((0.28, 0.02), (-1.0, 0.0)), ((0.38, 0.02), (1.0, 0.0)),
             ((0.33, -0.22), (0.0, -1.0)), ((0.33, 0.26), (0.0, 1.0))]
    for point, normal in faces:
        point, normal = np.array(point), np.array(normal)
        start = point + 0.03 * normal
        # a step that ends 0.01 outside the face moves; one that ends 0.01 inside stays put
        outside = blocked.step(start, -0.02 * normal)
        assert np.allclose(outside, point + 0.01 * normal, rtol=0, atol=1e-15), point
        assert np.array_equal(blocked.step(start, -0.04 * normal), start), point


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_experiment_writes_nothing_when_a_net_diverges(tmp_path):
    config = ExperimentConfig.from_dict({
        "kind": "pretrain", "hidden_sizes": [8], "dataset_size": 40, "pretrain_steps": 5,
        "pretrain_batch": 8, "learning_rate": 1e200, "out_dir": str(tmp_path / "out"),
    })
    with pytest.raises(ValueError, match="seed 0: numerical blow-up: pretrain step 0"):
        run_experiment(config, quiet=True)
    assert not (tmp_path / "out").exists()


def test_experiment_config_builds_envs_and_planner():
    config = ExperimentConfig.from_dict(
        {
            "kind": "online",
            "env": "maze",
            "env_options": {"start": [-0.5, -0.8]},
            "goal": [0.8, -0.25],
            "planner": {"num_samples": 16, "horizon": 8, "noise_scale": 0.01},
            "online": {"env_step_budget": 10},
        }
    )
    spec = config.make_env()
    assert spec.maze_layout == default_maze_layout()
    assert config.planner.num_samples == 16
    online = config.online_config()
    assert online.env_step_budget == 10
    assert online.planner.horizon == 8


def test_top_level_episode_length_does_not_reach_online_config():
    base = {"kind": "online", "goal": [0.2, 0.2], "online": {"env_step_budget": 10}}
    # an online config may not set it, and the field, set in code, is not read
    with pytest.raises(ValueError, match="episode_length: experiment 'online' does not read it"):
        ExperimentConfig.from_dict({**base, "episode_length": 80})
    top = replace(ExperimentConfig.from_dict(base), episode_length=80)
    assert top.online_config().episode_length == 50
    section = ExperimentConfig.from_dict(
        {**base, "online": {"env_step_budget": 10, "episode_length": 80}}
    )
    assert section.online_config().episode_length == 80


def test_evaluate_model_vacuous_obstacle_matches_open_scores():
    spec = particle_env(start=(0.0, 0.0))
    goal = np.array([0.2, 0.0])
    planner = PlannerConfig(num_samples=16, num_iterations=4, horizon=5,
                            noise_scale=0.02, goal_weight=5.0, temperature=0.05)
    ebm = make_energy_model(2, np.random.default_rng(0), (8,))
    ff = make_action_ff(2, 2, np.random.default_rng(1), (8,))
    # an obstacle far from every plausible path changes nothing
    far_wall = (-0.9, -0.9, -0.8, -0.8)
    blocked = maze_env(MazeLayout((far_wall,)), start=(0.0, 0.0))
    for kind, model in (("ebm", ebm), ("action-ff", ff)):
        for seed in (0, 1):
            open_scores = evaluate_model(
                kind, model, spec, goal, planner, 2, 10, np.random.default_rng(seed)
            )
            blocked_scores = evaluate_model(
                kind, model, blocked, goal, planner, 2, 10, np.random.default_rng(seed)
            )
            assert np.allclose(blocked_scores, open_scores, rtol=1e-12)


def test_csv_headers_pinned():
    assert CSV_HEADERS["online"] == (
        "seed", "step", "episode", "score", "loss", "executed", "occupancy"
    )
    assert CSV_HEADERS["eval"] == ("seed", "episode", "score")
    assert CSV_HEADERS["explore"] == ("seed", "step", "occupancy")
    assert CSV_HEADERS["diversity"] == ("seed", "horizon", "spread")
    assert CSV_HEADERS["obstacle"] == ("seed", "model", "condition", "episode", "score")
    assert CSV_HEADERS["ablation"] == ("seed", "model", "mode", "episode", "score")
