"""Transition energies, trajectory scores, and the contrastive objective.

Data conventions used throughout the package:

* a state is a float vector of length ``state_dim``;
* a transition pair packs two consecutive states into one row of length
  ``2 * state_dim``; ``pack_pairs`` is the one packer of such rows, and
  ``nn.forward_cached`` the one check of their width;
* a trajectory is a (T, state_dim) array with T >= 2, and a batch of
  trajectories is (n, T, state_dim).

All scoring functions are pure: lower score means higher trajectory
probability. The scalar energy of a transition is the network output on the
concatenated pair, and a trajectory's energy is the sum over its consecutive
pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .nn import (
    SCORING_DTYPE,
    AdamState,
    MlpParams,
    adam_step,
    backward,
    forward_cached,
    mlp_init,
)


@dataclass
class EnergyModel:
    """A scalar energy network over packed pairs of ``state_dim = net.in_dim // 2`` states."""

    net: MlpParams
    state_dim: int = field(init=False)

    def __post_init__(self) -> None:
        if self.net.in_dim % 2 or self.net.out_dim != 1:
            raise ValueError(f"an energy network maps 2 * state_dim inputs to 1 output, "
                             f"not {self.net.in_dim} to {self.net.out_dim}")
        self.state_dim = self.net.in_dim // 2


def make_energy_model(
    state_dim: int,
    rng: np.random.Generator,
    hidden_sizes: tuple[int, ...],
) -> EnergyModel:
    dims = [2 * state_dim, *hidden_sizes, 1]
    return EnergyModel(mlp_init(dims, rng))


def pack_pairs(s_from: np.ndarray, s_to: np.ndarray) -> np.ndarray:
    """Concatenate aligned (..., state_dim) from/to states into (..., 2 * state_dim) pairs."""
    s_from = np.asarray(s_from, dtype=float)
    s_to = np.asarray(s_to, dtype=float)
    if s_from.shape != s_to.shape:
        raise ValueError(f"state shapes differ: {s_from.shape} vs {s_to.shape}")
    return np.concatenate([s_from, s_to], axis=-1)


def transition_energies(model: EnergyModel, pairs: np.ndarray) -> np.ndarray:
    """Energies of a (n, 2*state_dim) batch of packed pairs, as float64.

    The net computes in its own dtype; a ``SCORING_DTYPE`` net's energies are
    upcast, so sums over pairs and the terms added to them stay in float64.
    """
    return forward_cached(model.net, pairs)[0][:, 0].astype(float)


def trajectory_energies(model: EnergyModel, trajs: np.ndarray) -> np.ndarray:
    """Summed pair energies of a (n, T, state_dim) trajectory batch."""
    trajs = np.asarray(trajs, dtype=float)
    if trajs.ndim != 3 or trajs.shape[1] < 2 or trajs.shape[2] != model.state_dim:
        raise ValueError(f"expected (n, T>=2, {model.state_dim}) batch, got {trajs.shape}")
    n, T, d = trajs.shape
    pairs = pack_pairs(trajs[:, :-1], trajs[:, 1:]).reshape(n * (T - 1), 2 * d)
    return transition_energies(model, pairs).reshape(n, T - 1).sum(axis=1)


def _check_goal(model: EnergyModel, goal: np.ndarray) -> np.ndarray:
    goal = np.asarray(goal, dtype=float)
    if goal.shape != (model.state_dim,):
        raise ValueError(f"goal shape {goal.shape} != ({model.state_dim},)")
    return goal


def goal_scores(
    model: EnergyModel, trajs: np.ndarray, goal: np.ndarray, goal_weight: float = 1.0
) -> np.ndarray:
    """Trajectory energy plus a quadratic end-state penalty (Gaussian goal)."""
    goal = _check_goal(model, goal)
    if goal_weight < 0:
        raise ValueError("goal_weight must be non-negative")
    trajs = np.asarray(trajs, dtype=float)
    penalty = ((trajs[:, -1, :] - goal) ** 2).sum(axis=1)
    return trajectory_energies(model, trajs) + goal_weight * penalty


# no planner score mode uses it; it stays because the benchmark's tracer wraps it by name
def fixed_goal_scores(model: EnergyModel, trajs: np.ndarray, goal: np.ndarray) -> np.ndarray:
    """Trajectory energy where the goal enters as one more transition pair."""
    goal = _check_goal(model, goal)
    trajs = np.asarray(trajs, dtype=float)
    tail = pack_pairs(trajs[:, -1, :], np.broadcast_to(goal, trajs[:, -1, :].shape))
    return trajectory_energies(model, trajs) + transition_energies(model, tail)


def reward_scores(
    model: EnergyModel, trajs: np.ndarray, reward: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """Energy minus accumulated reward, so lower still means more probable.

    ``reward`` must map a (..., state_dim) array of states to (...) values.
    """
    trajs = np.asarray(trajs, dtype=float)
    rewards = np.asarray(reward(trajs), dtype=float)
    if rewards.shape != trajs.shape[:2]:
        raise ValueError(f"reward output shape {rewards.shape} != {trajs.shape[:2]}")
    return trajectory_energies(model, trajs) - rewards.sum(axis=1)


def contrastive_loss_and_grads(
    model: EnergyModel, positives: np.ndarray, negatives: np.ndarray
) -> tuple[float, MlpParams]:
    """Mean of ``E+^2 + E-^2 + E+ - E-`` over the batch, with exact grads.

    Positive pairs are observed transitions whose energy is pushed down;
    negative pairs come from the model's own plans and are pushed up. The
    squared terms, with a fixed coefficient of 1, keep energies from
    drifting. The two batches must have the same number of rows.
    """
    positives = np.atleast_2d(np.asarray(positives, dtype=float))
    negatives = np.atleast_2d(np.asarray(negatives, dtype=float))
    n = positives.shape[0]
    if n == 0 or negatives.shape[0] != n:
        raise ValueError(f"batches must be non-empty and equal, got {n} and {len(negatives)} rows")

    e_pos, cache_pos = forward_cached(model.net, positives)
    e_neg, cache_neg = forward_cached(model.net, negatives)
    e_pos = e_pos[:, 0]
    e_neg = e_neg[:, 0]
    loss = float(np.mean(e_pos**2 + e_neg**2 + e_pos - e_neg))

    cot_pos = ((2.0 * e_pos + 1.0) / n)[:, None]
    cot_neg = ((2.0 * e_neg - 1.0) / n)[:, None]
    grads_pos, _ = backward(model.net, cache_pos, cot_pos)
    grads_neg, _ = backward(model.net, cache_neg, cot_neg)
    return loss, grads_pos.like(grads_pos.flat + grads_neg.flat)


def contrastive_train_step(
    model: EnergyModel,
    batch: tuple[np.ndarray, np.ndarray],
    learning_rate: float,
    adam_state: AdamState,
) -> tuple[EnergyModel, AdamState, float]:
    """One Adam step on the contrastive loss of a (positives, negatives) batch."""
    positives, negatives = batch
    loss, grads = contrastive_loss_and_grads(model, positives, negatives)
    net, new_state = adam_step(model.net, grads, adam_state, learning_rate)
    return EnergyModel(net), new_state, loss


def softmin_weights(scores: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Normalized ``exp(-(score - min) / temperature)`` over the last axis."""
    # exponent floor keeps negligible weights out of the subnormal range,
    # where arithmetic slows down by orders of magnitude on some hosts
    shifted = -(scores - scores.min(axis=-1, keepdims=True)) / temperature
    weights = np.exp(np.maximum(shifted, -650.0))
    return weights / weights.sum(axis=-1, keepdims=True)


def perturb_and_reweight(
    current: np.ndarray,
    noises: np.ndarray,
    project: Callable[[np.ndarray], np.ndarray],
    score: Callable[[np.ndarray], np.ndarray],
    weigh: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Refine K independent (K, *item) problems by iterated perturb-and-reweight.

    ``noises`` is (iters, K, n, *item), drawn by the caller. Each iteration
    adds its noise to every problem's current item, maps the K * n samples
    through ``project`` (which may modify its argument in place), scores them
    with ``score`` (K * n values, lower is better), turns the (K, n) scores
    into weights with ``weigh`` (each row summing to 1), and moves each
    problem to the weighted average of its own samples. Problem k's result
    is, bit for bit, what a call with problem k alone gives.
    """
    k, n, *item = noises.shape[1:]
    for noise in noises:
        samples = project((current[:, None] + noise).reshape(k * n, *item))
        weights = weigh(score(samples).reshape(k, n))
        current = np.einsum("kn,knw->kw", weights, samples.reshape(k, n, -1)).reshape(k, *item)
    return current


# the negative sampler's perturbations per seed row and its iterations
NEGATIVE_SAMPLES = 16
NEGATIVE_ITERS = 5


def sample_negative_pairs(
    model: EnergyModel,
    seed_pairs: np.ndarray,
    rng: np.random.Generator,
    scale: float,
) -> np.ndarray:
    """Low-energy pairs drawn from the model by ``perturb_and_reweight``: the
    negatives for training on a static dataset, where no plans exist.

    Each seed row is one problem, with ``NEGATIVE_SAMPLES`` isotropic Gaussian
    draws of standard deviation ``scale`` for each of ``NEGATIVE_ITERS``
    iterations, no projection, and ``softmin_weights`` (temperature 1) of the
    energies of a ``SCORING_DTYPE`` copy of the net; the caller's model is
    left untouched.
    """
    seeds = np.atleast_2d(np.asarray(seed_pairs, dtype=float))
    b, width = seeds.shape
    scorer = EnergyModel(model.net.astype(SCORING_DTYPE))
    # one draw for every iteration: the same numbers as one draw per iteration
    noises = rng.normal(0.0, scale, size=(NEGATIVE_ITERS, b, NEGATIVE_SAMPLES, width))
    return perturb_and_reweight(seeds, noises, lambda samples: samples,
                                lambda samples: transition_energies(scorer, samples),
                                softmin_weights)
