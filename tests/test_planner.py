import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebmplan.energy import EnergyModel, make_energy_model
from ebmplan.envs import make_env
from ebmplan.experiments import ExperimentConfig
from ebmplan.planner import (
    NOISE_DECAY,
    PlannerConfig,
    SmoothNoiseGen,
    mppi_refine,
    mppi_weights,
    plan,
    plan_target,
)
from oracles import finite_difference_matrix, smooth_noise_covariance


def zero_model(state_dim=2):
    model = make_energy_model(state_dim, np.random.default_rng(0), (4,))
    for w in model.net.weights:
        w[:] = 0.0
    return model


def test_finite_difference_matrix_t3_hand_value():
    expected = np.array(
        [
            [1.0, 0.0, 0.0],
            [-2.0, 1.0, 0.0],
            [1.0, -2.0, 1.0],
        ]
    )
    assert np.array_equal(finite_difference_matrix(3), expected)


def test_finite_difference_matrix_precision_is_spd():
    # independent routine: eigenvalues of A^T A via numpy's symmetric solver
    for horizon in (2, 3, 5, 11):
        a = finite_difference_matrix(horizon)
        eigenvalues = np.linalg.eigvalsh(a.T @ a)
        assert eigenvalues.min() > 0.0


def test_finite_difference_matrix_row_sums():
    a = finite_difference_matrix(7)
    sums = a.sum(axis=1)
    assert sums[0] == 1.0  # start pin
    assert sums[1] == -1.0  # start boundary row
    assert np.array_equal(sums[2:], np.zeros(5))


def test_finite_difference_matrix_precision_symmetric_exact():
    a = finite_difference_matrix(9)
    r = a.T @ a
    assert np.array_equal(r, r.T)


def test_finite_difference_matrix_rejects_short_horizon():
    with pytest.raises(ValueError):
        finite_difference_matrix(1)


def test_smooth_noise_zero_scale_and_shape():
    gen = SmoothNoiseGen(6, 3)
    sample = gen.sample(np.array([0.0]), np.random.default_rng(1), n=1)[0, 0]
    assert sample.shape == (6, 3)
    assert np.array_equal(sample, np.zeros((6, 3)))
    batch = gen.sample(np.array([0.5]), np.random.default_rng(2), n=4)[0]
    assert batch.shape == (4, 6, 3)


def test_smooth_noise_factorization_reproduces_precision():
    factor = finite_difference_matrix(8)
    identity = smooth_noise_covariance(8) @ (factor.T @ factor)
    assert np.allclose(identity, np.eye(8), atol=1e-8)


def test_smooth_noise_horizon_one_is_plain_gaussian_noise():
    scales = 0.05 * 0.92 ** np.arange(5)
    for dim, n in ((1, 7), (2, 24), (3, 1)):
        rng = np.random.default_rng(dim)
        ref_rng = np.random.default_rng(dim)
        out = SmoothNoiseGen(1, dim).sample(scales, rng, n)
        expected = ref_rng.normal(0.0, scales[:, None, None, None], size=(len(scales), n, 1, dim))
        assert out.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_smooth_noise_empirical_covariance():
    gen = SmoothNoiseGen(5, 1)
    scale = 0.3
    draws = gen.sample(np.array([scale]), np.random.default_rng(3), n=40000)[0][:, :, 0]
    empirical = np.cov(draws.T, bias=True)
    expected = scale**2 * smooth_noise_covariance(gen.horizon)
    assert np.max(np.abs(empirical - expected) / np.abs(expected)) < 0.1


def reference_smooth_noise(horizon, dim, scale, rng, n):
    # one draw per call, recurrence over a 2-D array: the per-iteration form
    z = rng.standard_normal((horizon, n * dim)) * scale
    y = np.empty_like(z)
    y[0] = z[0]
    y[1] = z[1] + 2.0 * y[0]
    for t in range(2, horizon):
        y[t] = z[t] + 2.0 * y[t - 1] - y[t - 2]
    return y.reshape(horizon, n, dim).transpose(1, 0, 2)


def test_smooth_noise_scale_array_equals_scalar_draws_in_order():
    scales = 0.02 * 0.92 ** np.arange(6)
    for horizon, dim, n in ((16, 4, 96), (13, 2, 128), (2, 3, 5)):
        gen = SmoothNoiseGen(horizon, dim)
        rng = np.random.default_rng(horizon)
        ref_rng = np.random.default_rng(horizon)
        stacked = gen.sample(scales, rng, n=n)
        assert stacked.shape == (len(scales), n, horizon, dim)
        for k, scale in enumerate(scales):
            expected = reference_smooth_noise(horizon, dim, scale, ref_rng, n)
            assert np.array_equal(stacked[k], expected)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        # one scale (K = 1) and one draw per scale (n = 1) are batches too
        single = gen.sample(scales[2:3], np.random.default_rng(1), n=n)[0]
        expected = reference_smooth_noise(horizon, dim, scales[2], np.random.default_rng(1), n)
        assert np.array_equal(single, expected)
        ref_rng = np.random.default_rng(2)
        one = gen.sample(scales[:2], np.random.default_rng(2), n=1)
        assert one.shape == (2, 1, horizon, dim)
        for k in range(2):
            expected = reference_smooth_noise(horizon, dim, scales[k], ref_rng, 1)[0]
            assert np.array_equal(one[k, 0], expected)
    with pytest.raises(ValueError, match="non-negative"):
        gen.sample(np.array([0.1, -0.1]), np.random.default_rng(0), n=1)
    with pytest.raises(ValueError, match="1-D"):
        gen.sample(0.1, np.random.default_rng(0), n=1)


def reference_refine(candidate, project, score, config, rng):
    # the kernel with one noise draw per iteration and the scale decayed in the loop
    horizon, dim = candidate.shape
    scale = config.noise_scale
    for _ in range(config.num_iterations):
        if horizon >= 2:
            noise = reference_smooth_noise(horizon, dim, scale, rng, config.num_samples)
        else:
            noise = rng.normal(0.0, scale, size=(config.num_samples, horizon, dim))
        samples = project(candidate[None] + noise)
        weights = mppi_weights(score(samples), config.temperature)
        candidate = np.einsum("n,ntd->td", weights, samples)
        scale *= NOISE_DECAY
    return candidate


def test_mppi_refine_one_noise_draw_matches_per_iteration_draws():
    target = np.array([0.3, -0.2])

    def clip(samples):
        np.clip(samples, -0.5, 0.5, out=samples)
        return samples

    def score(samples):
        return ((samples - target) ** 2).sum(axis=(1, 2))

    # T = 1 takes the isotropic path; the decayed scales must be the repeated
    # product, which differs from noise_scale * NOISE_DECAY ** k in the last bit
    config = PlannerConfig(num_samples=24, num_iterations=8, noise_scale=0.05, temperature=0.2)
    for horizon in (1, 2, 7):
        candidate = np.zeros((horizon, 2))
        rng = np.random.default_rng(9)
        ref_rng = np.random.default_rng(9)
        out = mppi_refine(candidate.copy(), clip, score, config, rng)
        expected = reference_refine(candidate.copy(), clip, score, config, ref_rng)
        assert np.array_equal(out, expected)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_mppi_weights_uniform_for_equal_scores():
    w = mppi_weights(np.full(8, 3.7))
    assert np.allclose(w, np.full(8, 1 / 8), rtol=1e-15)


def test_mppi_weights_single_score():
    assert np.array_equal(mppi_weights(np.array([42.0])), np.array([1.0]))


def test_mppi_weights_analytic_pair():
    w = mppi_weights(np.array([0.0, np.log(3.0)]))
    assert np.allclose(w, [0.75, 0.25], rtol=1e-12)


def test_mppi_weights_sum_and_shift_invariance():
    rng = np.random.default_rng(4)
    scores = rng.normal(size=50)
    w = mppi_weights(scores)
    assert abs(w.sum() - 1.0) < 1e-12
    assert (w > 0).all()
    assert np.allclose(w, mppi_weights(scores + 100.0), rtol=1e-12)


def test_mppi_weights_rejects_bad_input():
    with pytest.raises(ValueError):
        mppi_weights(np.array([]))
    with pytest.raises(ValueError):
        mppi_weights(np.array([1.0, np.nan]))


def test_plan_zero_iterations_returns_constant_trajectory():
    config = PlannerConfig(num_iterations=0, horizon=5, score_mode="gaussian-goal")
    start = np.array([0.2, -0.4])
    traj = plan(zero_model(), start, np.zeros(2), config, np.random.default_rng(5))
    assert traj.shape == (5, 2)
    assert np.array_equal(traj, np.tile(start, (5, 1)))


def test_mppi_refine_zero_iterations_returns_candidate_unchanged():
    config = PlannerConfig(num_iterations=0, horizon=4)
    candidate = np.arange(8.0).reshape(4, 2)
    rng = np.random.default_rng(5)

    def never_called(samples):
        raise AssertionError("no iteration should project or score")

    out = mppi_refine(candidate.copy(), never_called, never_called, config, rng)
    assert np.array_equal(out, candidate)
    # no noise was drawn either
    assert rng.random() == np.random.default_rng(5).random()


def test_plan_single_sample_returns_that_sample():
    config = PlannerConfig(
        num_samples=1, num_iterations=1, horizon=4, noise_scale=0.3, score_mode="prior-only"
    )
    start = np.array([0.1, 0.1])
    traj = plan(zero_model(), start, None, config, np.random.default_rng(6))
    gen = SmoothNoiseGen(4, 2)
    noise = gen.sample(np.array([0.3]), np.random.default_rng(6), n=1)[0]
    expected = np.tile(start, (4, 1)) + noise[0]
    expected[0] = start
    assert np.allclose(traj, expected, rtol=1e-12)


def test_plan_is_deterministic_and_clamps_start():
    config = PlannerConfig(num_samples=32, num_iterations=6, horizon=8, noise_scale=0.1)
    start = np.array([-0.3, 0.6])
    goal = np.array([0.5, 0.5])
    a = plan(zero_model(), start, goal, config, np.random.default_rng(7))
    b = plan(zero_model(), start, goal, config, np.random.default_rng(7))
    assert np.array_equal(a, b)
    assert np.array_equal(a[0], start)


def test_plan_leaves_model_unchanged():
    model = make_energy_model(2, np.random.default_rng(8), (8, 8))
    arrays = model.net.weights + model.net.biases
    snapshot = [a.copy() for a in arrays]
    config = PlannerConfig(num_samples=16, num_iterations=3, horizon=5, noise_scale=0.1)
    plan(model, np.zeros(2), np.array([0.5, 0.5]), config, np.random.default_rng(9))
    assert all(a is b for a, b in zip(model.net.weights + model.net.biases, arrays))
    for a, before in zip(arrays, snapshot):
        assert a.dtype == np.float64
        assert np.array_equal(a, before)


def test_plan_quadratic_goal_converges_to_goal():
    # zero energy + gaussian goal reduces to minimizing ||s_T - g||^2
    config = PlannerConfig(num_samples=200, num_iterations=30, horizon=10, noise_scale=0.2)
    start = np.zeros(2)
    goal = np.array([0.4, 0.25])
    model = zero_model()
    for seed in range(3):
        traj = plan(model, start, goal, config, np.random.default_rng(seed))
        assert np.linalg.norm(traj[-1] - goal) < 0.1


def test_plan_score_non_increasing_on_quadratic():
    start = np.zeros(2)
    goal = np.array([0.5, -0.3])
    model = zero_model()
    improved = 0
    for seed in range(4):
        config = PlannerConfig(num_samples=100, num_iterations=15, horizon=8, noise_scale=0.2)
        initial = float(((start - goal) ** 2).sum())
        traj = plan(model, start, goal, config, np.random.default_rng(seed))
        final = float(((traj[-1] - goal) ** 2).sum())
        if final <= initial:
            improved += 1
    assert improved >= 3


def test_plan_diversity_grows_with_horizon():
    model = zero_model()
    start = np.zeros(2)
    goal = np.array([0.5, 0.0])

    def spread(horizon):
        config = PlannerConfig(
            num_samples=64, num_iterations=8, horizon=horizon, noise_scale=0.05
        )
        midpoints = np.stack(
            [
                plan(model, start, goal, config, np.random.default_rng(seed))[horizon // 2]
                for seed in range(32)
            ]
        )
        diffs = np.linalg.norm(midpoints[:, None] - midpoints[None, :], axis=-1)
        return diffs[np.triu_indices(32, k=1)].mean()

    assert spread(40) > spread(10)


def test_plan_rejects_dimension_mismatch_and_bad_target():
    config = PlannerConfig(horizon=4)
    with pytest.raises(ValueError):
        plan(zero_model(), np.zeros(3), np.zeros(2), config, np.random.default_rng(0))
    with pytest.raises(ValueError):
        plan(zero_model(), np.zeros(2), np.zeros(3), config, np.random.default_rng(0))
    bad = PlannerConfig(horizon=4, score_mode="reward")
    with pytest.raises(ValueError):
        plan(zero_model(), np.zeros(2), np.zeros(2), bad, np.random.default_rng(0))


def test_reward_mode_target_is_the_env_reward():
    rng = np.random.default_rng(4)
    config = PlannerConfig(score_mode="reward")
    for kind in ("particle", "maze", "reacher"):
        spec = make_env(kind)
        goal = rng.uniform(-1, 1, spec.state_dim)
        states = rng.uniform(-1, 1, (6, 5, spec.state_dim))
        target = plan_target(spec, goal, config)
        assert np.array_equal(target(states), spec.reward(states, goal))


def test_plan_raises_when_all_scores_non_finite():
    model = zero_model()
    model.net.biases[-1][0] = np.nan
    config = PlannerConfig(num_samples=8, num_iterations=2, horizon=4, score_mode="prior-only")
    with pytest.raises(ValueError):
        plan(model, np.zeros(2), None, config, np.random.default_rng(1))


def test_planner_config_validation():
    with pytest.raises(ValueError):
        PlannerConfig(num_samples=0)
    with pytest.raises(ValueError):
        PlannerConfig(horizon=1)
    with pytest.raises(ValueError):
        PlannerConfig(noise_scale=0.0)
    with pytest.raises(ValueError):
        PlannerConfig(score_mode="nonsense")
    # the noise decay is the constant NOISE_DECAY, so a config that sets it is refused
    with pytest.raises(ValueError, match=r"unknown config keys: \['planner.noise_decay'\]"):
        ExperimentConfig.from_dict(
            {"kind": "online", "goal": [0.2, 0.0], "planner": {"noise_decay": 0.0}}
        )


FINITE = st.floats(-1e6, 1e6)
TEMPERATURES = st.floats(1e-3, 1e3)


@settings(max_examples=60, deadline=None)
@given(st.lists(FINITE, min_size=1, max_size=40), TEMPERATURES)
def test_mppi_weights_are_a_distribution(scores, temperature):
    w = mppi_weights(np.array(scores), temperature)
    assert (w >= 0).all()
    assert abs(w.sum() - 1.0) <= 1e-12 * len(scores)


@settings(max_examples=40, deadline=None)
@given(st.lists(FINITE | st.sampled_from([np.nan, np.inf, -np.inf]), min_size=1, max_size=12)
       .filter(lambda scores: np.isfinite(scores).any()),
       TEMPERATURES, st.integers(0, 2**32 - 1))
def test_mppi_refine_gives_non_finite_scores_zero_weight(scores, temperature, seed):
    scores = np.array(scores)
    finite = np.isfinite(scores)
    config = PlannerConfig(num_samples=len(scores), num_iterations=1, horizon=5,
                           noise_scale=0.1, temperature=temperature)
    seen = []

    def score(samples):
        seen.append(samples.copy())
        return scores

    out = mppi_refine(np.zeros((5, 2)), lambda samples: samples, score, config,
                      np.random.default_rng(seed))
    # the result is the weighted mean of the finite-scored samples alone
    expected = np.einsum("n,ntd->td", mppi_weights(scores[finite], temperature),
                         seen[0][finite])
    assert np.allclose(out, expected, rtol=1e-12, atol=1e-15)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2),
       st.sampled_from(["gaussian-goal", "prior-only"]), st.integers(0, 2**32 - 1))
def test_plan_row_zero_is_the_start(start, score_mode, seed):
    start = np.array(start)
    model = make_energy_model(2, np.random.default_rng(seed), (8,))
    config = PlannerConfig(num_samples=8, num_iterations=3, horizon=6, noise_scale=0.1,
                           score_mode=score_mode)
    traj = plan(model, start, np.zeros(2), config, np.random.default_rng(seed))
    assert np.array_equal(traj[0], start)
