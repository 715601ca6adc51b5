import numpy as np
import pytest

from ebmplan.energy import (
    EnergyModel,
    collate,
    contrastive_loss_and_grads,
    fixed_goal_scores,
    goal_scores,
    make_energy_model,
    pack_pairs,
    perturb_and_reweight,
    reward_scores,
    sample_negative_pairs,
    softmin_weights,
    trajectory_energies,
    transition_energies,
)
from ebmplan.nn import adam_step, init_adam_state, mlp_forward, mlp_init
from ebmplan.planner import mppi_weights
from oracles import fd_param_grads, max_rel_error, naive_mlp_forward


def seeded_model(seed, state_dim=2, hidden=(8, 8)):
    return make_energy_model(state_dim, np.random.default_rng(seed), hidden)


def zero_model(state_dim=2):
    model = seeded_model(0, state_dim)
    for w in model.net.weights:
        w[:] = 0.0
    return model


def random_traj(seed, length, state_dim=2):
    return np.random.default_rng(seed).normal(size=(length, state_dim))


def test_zero_model_energy_is_zero():
    model = zero_model()
    assert transition_energies(model, np.array([0.3, -0.1, 0.2, 0.9])[None])[0] == 0.0


def test_transition_energy_is_forward_on_concatenation():
    model = seeded_model(4)
    a, b = np.array([0.1, 0.2]), np.array([-0.4, 0.5])
    pair = pack_pairs(a, b)
    assert transition_energies(model, pair[None])[0] == float(mlp_forward(model.net, pair)[0])


def test_transition_energy_matches_naive_reference():
    model = seeded_model(17)
    pair = np.array([0.25, -0.5, 0.75, 0.1])
    expected = naive_mlp_forward(model.net, pair)[0]
    assert np.isclose(transition_energies(model, pair[None])[0], expected, rtol=1e-12)


def test_transition_energy_dimension_mismatch_raises():
    model = seeded_model(1)
    with pytest.raises(ValueError):
        transition_energies(model, np.zeros(3)[None])
    with pytest.raises(ValueError):
        transition_energies(model, np.zeros((5, 3)))


def test_energy_model_validates_dimensions():
    # the state size is half the input size, so an odd input size fits no state
    net = mlp_init([5, 8, 1], np.random.default_rng(0))
    with pytest.raises(ValueError):
        EnergyModel(net)
    with pytest.raises(ValueError):
        EnergyModel(mlp_init([4, 8, 2], np.random.default_rng(0)))
    assert EnergyModel(mlp_init([6, 8, 1], np.random.default_rng(0))).state_dim == 3


def test_trajectory_energy_single_pair():
    model = seeded_model(5)
    traj = random_traj(2, 2)
    assert np.isclose(
        trajectory_energies(model, traj[None])[0],
        transition_energies(model, pack_pairs(traj[0], traj[1])[None])[0],
        rtol=1e-12,
    )


def test_trajectory_energy_zero_model_and_length_check():
    model = zero_model()
    assert trajectory_energies(model, random_traj(3, 7)[None])[0] == 0.0
    with pytest.raises(ValueError):
        trajectory_energies(model, random_traj(3, 7)[:1][None])


def test_trajectory_energy_splits_at_shared_endpoint():
    model = seeded_model(6)
    traj = random_traj(8, 9)
    k = 4
    total = trajectory_energies(model, traj[None])[0]
    left = trajectory_energies(model, traj[: k + 1][None])[0]
    right = trajectory_energies(model, traj[k:][None])[0]
    assert np.isclose(total, left + right, rtol=1e-10)


def test_goal_score_at_goal_equals_trajectory_energy():
    model = seeded_model(7)
    traj = random_traj(4, 5)
    assert np.isclose(
        goal_scores(model, traj[None], traj[-1])[0],
        trajectory_energies(model, traj[None])[0],
        rtol=1e-12,
    )


def test_goal_score_zero_model_unit_distance():
    model = zero_model()
    traj = np.zeros((4, 2))
    goal = np.array([1.0, 0.0])
    assert goal_scores(model, traj[None], goal, goal_weight=1.0)[0] == 1.0


def test_goal_score_componentwise_oracle():
    model = seeded_model(8)
    traj = random_traj(9, 6)
    goal = np.array([0.2, -0.7])
    w = 2.5
    energy = trajectory_energies(model, traj[None])[0]
    expected = energy + w * float(((traj[-1] - goal) ** 2).sum())
    assert np.isclose(goal_scores(model, traj[None], goal, w)[0], expected, rtol=1e-12)


def test_goal_score_zero_weight_is_trajectory_energy():
    model = seeded_model(9)
    traj = random_traj(10, 4)
    scores = goal_scores(model, traj[None], np.array([5.0, 5.0]), 0.0)
    assert scores[0] == trajectory_energies(model, traj[None])[0]


def test_fixed_goal_score_zero_model_and_two_term_expansion():
    assert fixed_goal_scores(zero_model(), random_traj(1, 3)[None], np.zeros(2))[0] == 0.0
    model = seeded_model(10)
    traj = random_traj(11, 2)
    goal = np.array([0.4, 0.4])
    expected = (
        transition_energies(model, pack_pairs(traj[0], traj[1])[None])[0]
        + transition_energies(model, pack_pairs(traj[1], goal)[None])[0]
    )
    assert np.isclose(fixed_goal_scores(model, traj[None], goal)[0], expected, rtol=1e-12)


def test_fixed_goal_score_term_by_term_oracle():
    model = seeded_model(12)
    traj = random_traj(13, 5)
    goal = np.array([-0.3, 0.9])
    expected = sum(
        transition_energies(model, pack_pairs(traj[t], traj[t + 1])[None])[0] for t in range(4)
    ) + transition_energies(model, pack_pairs(traj[-1], goal)[None])[0]
    assert np.isclose(fixed_goal_scores(model, traj[None], goal)[0], expected, rtol=1e-10)


def test_reward_score_zero_reward_is_trajectory_energy():
    model = seeded_model(14)
    traj = random_traj(15, 6)
    zero_reward = lambda states: np.zeros(states.shape[:-1])
    assert np.isclose(
        reward_scores(model, traj[None], zero_reward)[0],
        trajectory_energies(model, traj[None])[0],
        rtol=1e-12,
    )


def test_reward_score_zero_model_is_negative_reward_sum():
    traj = random_traj(16, 5)
    reward = lambda states: states[..., 0]
    assert np.isclose(
        reward_scores(zero_model(), traj[None], reward)[0], -traj[:, 0].sum(), rtol=1e-12
    )


def test_reward_score_term_by_term_oracle():
    model = seeded_model(18)
    traj = random_traj(19, 4)
    reward = lambda states: np.sin(states[..., 0]) + states[..., 1] ** 2
    energies = sum(
        transition_energies(model, pack_pairs(traj[t], traj[t + 1])[None])[0] for t in range(3)
    )
    rewards = sum(float(np.sin(s[0]) + s[1] ** 2) for s in traj)
    assert np.isclose(reward_scores(model, traj[None], reward)[0], energies - rewards, rtol=1e-10)


def test_contrastive_identical_batches_reduce_to_squared_terms():
    model = seeded_model(20)
    batch = np.random.default_rng(21).normal(size=(6, 4))
    loss, _ = contrastive_loss_and_grads(model, batch, batch)
    energies = transition_energies(model, batch)
    assert np.isclose(loss, float(np.mean(2.0 * energies**2)), rtol=1e-12)


def test_contrastive_zero_model_loss_and_grads():
    model = zero_model()
    rng = np.random.default_rng(22)
    pos = rng.normal(size=(5, 4))
    neg = rng.normal(size=(5, 4))
    loss, grads = contrastive_loss_and_grads(model, pos, neg)
    assert loss == 0.0
    # at zero energy the squared terms contribute nothing: gradients equal the
    # mean gradient of E(x+) - E(x-)
    numeric = fd_param_grads(
        lambda p: float(
            np.mean(
                mlp_forward(p, pos)[:, 0] - mlp_forward(p, neg)[:, 0]
            )
        ),
        model.net,
    )
    assert max_rel_error(grads, numeric) < 1e-4


def test_contrastive_gradients_match_finite_differences():
    from ebmplan.energy import contrastive_loss_and_grads as loss_fn

    for seed in range(3):
        model = seeded_model(seed + 30, hidden=(6, 6))
        rng = np.random.default_rng(seed + 40)
        pos = rng.normal(size=(4, 4))
        neg = rng.normal(size=(4, 4))
        _, analytic = loss_fn(model, pos, neg)
        numeric = fd_param_grads(
            lambda p: loss_fn(EnergyModel(p), pos, neg)[0], model.net
        )
        assert max_rel_error(analytic, numeric) < 1e-4


def test_contrastive_empty_batch_raises():
    model = seeded_model(1)
    with pytest.raises(ValueError):
        contrastive_loss_and_grads(model, np.empty((0, 4)), np.ones((2, 4)))


def test_contrastive_unequal_batches_raise():
    model = seeded_model(33)
    rng = np.random.default_rng(34)
    with pytest.raises(ValueError, match="equal"):
        contrastive_loss_and_grads(model, rng.normal(size=(2, 4)), rng.normal(size=(5, 4)))
    with pytest.raises(ValueError, match="equal"):
        contrastive_loss_and_grads(model, rng.normal(size=(5, 4)), rng.normal(size=(2, 4)))


def test_contrastive_loss_decreases_over_small_steps():
    model = seeded_model(50, hidden=(16, 16))
    rng = np.random.default_rng(51)
    pos = rng.normal(size=(8, 4))
    neg = rng.normal(size=(8, 4)) + 2.0
    adam = init_adam_state(model.net)
    losses = []
    for _ in range(11):
        loss, grads = contrastive_loss_and_grads(model, pos, neg)
        losses.append(loss)
        net, adam = adam_step(model.net, grads, adam, 1e-4)
        model = EnergyModel(net)
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_one_step_reduces_positive_negative_gap():
    model = seeded_model(60, hidden=(16, 16))
    rng = np.random.default_rng(61)
    pos = rng.normal(size=(8, 4))
    neg = rng.normal(size=(8, 4)) + 1.5

    def gap(m):
        return float(
            transition_energies(m, pos).mean() - transition_energies(m, neg).mean()
        )

    before = gap(model)
    _, grads = contrastive_loss_and_grads(model, pos, neg)
    net, _ = adam_step(model.net, grads, init_adam_state(model.net), 1e-4)
    assert gap(EnergyModel(net)) < before


def test_collate_examples():
    traj = np.arange(10, dtype=float).reshape(5, 2)
    pairs = collate(traj)
    assert pairs.shape == (4, 4)
    for i in range(4):
        assert np.array_equal(pairs[i], np.concatenate([traj[i], traj[i + 1]]))
    assert collate(traj[:2]).shape == (1, 4)
    with pytest.raises(ValueError):
        collate(traj[:1])


def test_collate_concatenation_bookkeeping():
    rng = np.random.default_rng(70)
    a = rng.normal(size=(4, 2))
    b = rng.normal(size=(3, 2))
    joined = np.concatenate([a, b])
    expected = np.concatenate(
        [collate(a), pack_pairs(a[-1], b[0])[None, :], collate(b)]
    )
    assert np.allclose(collate(joined), expected, rtol=1e-15)


def test_sample_negative_pairs_moves_toward_lower_energy():
    model = seeded_model(80, hidden=(16, 16))
    rng = np.random.default_rng(81)
    seeds = rng.normal(size=(32, 4))
    negatives = sample_negative_pairs(model, seeds, rng, scale=0.2)
    assert negatives.shape == seeds.shape
    before = transition_energies(model, seeds).mean()
    after = transition_energies(model, negatives).mean()
    assert after < before


def test_sample_negative_pairs_deterministic():
    model = seeded_model(82)
    seeds = np.random.default_rng(83).normal(size=(4, 4))
    a = sample_negative_pairs(model, seeds, np.random.default_rng(9), scale=0.05)
    b = sample_negative_pairs(model, seeds, np.random.default_rng(9), scale=0.05)
    assert np.array_equal(a, b)


def reference_negatives(model, seeds, rng, scale):
    # the sampler as its own loop: one draw for all 5 iterations of 16 samples,
    # per-row softmin weights of the float32 copy's energies, the batched average
    scorer = EnergyModel(model.net.astype(np.float32))
    b, width = seeds.shape
    current = seeds.copy()
    for noise in rng.normal(0.0, scale, size=(5, b, 16, width)):
        candidates = current[:, None, :] + noise
        energies = transition_energies(scorer, candidates.reshape(b * 16, width))
        weights = np.stack([softmin_weights(row) for row in energies.reshape(b, 16)])
        current = np.einsum("bn,bnw->bw", weights, candidates)
    return current


@pytest.mark.parametrize("state_dim", [2, 4])
def test_sample_negative_pairs_matches_reference_loop_bit_for_bit(state_dim):
    # (48, 4) is the particle's pretraining batch, (48, 8) the reacher's
    model = seeded_model(88, state_dim, hidden=(64, 64))
    seeds = np.random.default_rng(89).normal(size=(48, 2 * state_dim))
    rng, ref_rng = np.random.default_rng(90), np.random.default_rng(90)
    out = sample_negative_pairs(model, seeds, rng, scale=0.1)
    assert np.array_equal(out, reference_negatives(model, seeds, ref_rng, 0.1))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("k", [1, 2, 5, 48])
def test_perturb_and_reweight_solves_k_problems_like_k_calls(k):
    rng = np.random.default_rng(k)

    def project(samples):
        np.clip(samples, -1.5, 1.5, out=samples)
        return samples

    for n, item in [(16, (4,)), (48, (8,)), (96, (9, 4)), (128, (64,))]:
        target = rng.normal(size=item)

        def score(samples):
            return ((samples - target) ** 2).reshape(len(samples), -1).sum(axis=1)

        current = rng.normal(size=(k, *item))
        noises = rng.normal(scale=0.3, size=(3, k, n, *item))
        together = perturb_and_reweight(current, noises, project, score, softmin_weights)
        assert together.shape == current.shape
        for i in range(k):
            alone = perturb_and_reweight(current[i : i + 1], noises[:, i : i + 1], project,
                                         score, softmin_weights)
            assert np.array_equal(together[i], alone[0])


def test_sample_negative_pairs_leaves_model_unchanged():
    model = seeded_model(84)
    arrays = model.net.weights + model.net.biases
    snapshot = [a.copy() for a in arrays]
    sample_negative_pairs(model, np.zeros((3, 4)), np.random.default_rng(85), scale=0.05)
    assert all(a is b for a, b in zip(model.net.weights + model.net.biases, arrays))
    for a, before in zip(arrays, snapshot):
        assert a.dtype == np.float64
        assert np.array_equal(a, before)


def test_scores_of_float32_net_are_float64_and_match_float64_net():
    model = seeded_model(86, hidden=(64, 64))
    model32 = EnergyModel(model.net.astype(np.float32))
    trajs = np.random.default_rng(87).normal(size=(5, 6, 2))
    goal = np.array([0.3, -0.2])

    def reward(states):
        return -np.linalg.norm(states - goal, axis=-1)

    cases = [
        (trajectory_energies, ()),
        (goal_scores, (goal, 2.0)),
        (fixed_goal_scores, (goal,)),
        (reward_scores, (reward,)),
    ]
    for score, extra in cases:
        want = score(model, trajs, *extra)
        got = score(model32, trajs, *extra)
        assert got.dtype == np.float64, score.__name__
        assert np.allclose(got, want, rtol=1e-5, atol=1e-5), score.__name__


def test_softmin_weights_rows_equal_mppi_weights_bit_for_bit():
    # the negative sampler weighs a batch of rows; MPPI weighs one score vector
    scores = np.random.default_rng(4).normal(scale=300.0, size=(5, 16))
    for temperature in (1.0, 0.15):
        batch = softmin_weights(scores, temperature)
        for row, weights in zip(scores, batch):
            assert np.array_equal(weights, mppi_weights(row, temperature))
