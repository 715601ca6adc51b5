"""Sampling-based trajectory inference over state sequences (MPPI).

``mppi_refine`` runs the perturb-and-reweight loop,
``energy.perturb_and_reweight``, on one candidate trajectory over temporally
smooth Gaussian noise; the action-space planner of ``baselines`` calls it as
well. ``plan`` clamps index 0 to the start state throughout, so the result is
always conditioned on where the agent actually is.

Smoothness comes from drawing noise with covariance ``scale^2 * (A^T A)^-1``
for the T-by-T second-order finite-difference matrix ``A`` (the stencil
(1, -2, 1) without the two rows that would pin the end), which leaves the end
of the horizon unconstrained: noise variance grows toward the end of the
trajectory, so plans explore widely where they are least committed.
``SmoothNoiseGen`` draws it by the second-difference recurrence, never forming ``A``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .energy import (
    EnergyModel,
    goal_scores,
    perturb_and_reweight,
    reward_scores,
    softmin_weights,
    trajectory_energies,
)
from .envs import EnvSpec
from .nn import SCORING_DTYPE

SCORE_MODES = ("gaussian-goal", "reward", "prior-only")
# the factor the noise scale shrinks by each MPPI iteration
NOISE_DECAY = 0.92


@dataclass(frozen=True)
class PlannerConfig:
    """MPPI hyperparameters.

    ``noise_scale`` multiplies the smooth-noise covariance directly and is
    decayed geometrically by ``NOISE_DECAY`` each iteration, which anneals the
    candidate from coarse exploration to fine convergence.
    """

    num_samples: int = 200
    num_iterations: int = 20
    horizon: int = 20
    noise_scale: float = 0.02
    goal_weight: float = 1.0
    score_mode: str = "gaussian-goal"
    temperature: float = 1.0

    def __post_init__(self) -> None:
        if self.num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        if self.num_iterations < 0:
            raise ValueError("num_iterations must be >= 0")
        if self.horizon < 2:
            raise ValueError("horizon must be >= 2")
        if not self.noise_scale > 0:
            raise ValueError("noise_scale must be positive")
        if self.goal_weight < 0:
            raise ValueError("goal_weight must be non-negative")
        if self.score_mode not in SCORE_MODES:
            raise ValueError(f"score_mode must be one of {SCORE_MODES}")
        if not self.temperature > 0:
            raise ValueError("temperature must be positive")


class SmoothNoiseGen:
    """Draws zero-mean noise with covariance ``scale^2 * (A^T A)^-1`` per column.

    ``A`` is unit-lower-triangular with a fixed three-term stencil, so
    solving ``A y = z`` is the forward recurrence
    ``y_t = z_t + 2 y_{t-1} - y_{t-2}`` (a discrete double integration of
    white noise), vectorized over all columns at once. At T = 1 the draw is
    plain Gaussian noise.
    """

    def __init__(self, horizon: int, state_dim: int):
        if horizon < 1 or state_dim < 1:
            raise ValueError("horizon and state_dim must be >= 1")
        self.horizon = horizon
        self.state_dim = state_dim

    def sample(self, scales: np.ndarray, rng: np.random.Generator, n: int) -> np.ndarray:
        """A (K, n, T, d) batch: ``n`` perturbations at each of the K ``scales``.

        All K draws come from one ``standard_normal`` call, so they equal, bit
        for bit, K calls with one scale each, in order, and leave ``rng`` in
        the same state.
        """
        scales = np.asarray(scales, dtype=float)
        if scales.ndim != 1:
            raise ValueError("scales must be a 1-D array")
        if (scales < 0).any():
            raise ValueError("scales must be non-negative")
        k = scales.size
        z = rng.standard_normal((k, self.horizon, n * self.state_dim))
        z *= scales.reshape(k, 1, 1)
        y = np.empty_like(z)
        y[:, 0] = z[:, 0]
        if self.horizon > 1:
            y[:, 1] = z[:, 1] + 2.0 * y[:, 0]
        for t in range(2, self.horizon):
            y[:, t] = z[:, t] + 2.0 * y[:, t - 1] - y[:, t - 2]
        return y.reshape(k, self.horizon, n, self.state_dim).transpose(0, 2, 1, 3)


def mppi_weights(scores: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Normalized exponentiated negative scores (stabilized by the minimum)."""
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 1 or scores.size == 0:
        raise ValueError("scores must be a non-empty 1-D array")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    return softmin_weights(scores, temperature)


def mppi_refine(
    candidate: np.ndarray,
    project: Callable[[np.ndarray], np.ndarray],
    score: Callable[[np.ndarray], np.ndarray],
    config: PlannerConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Refine a (T, d) candidate by ``perturb_and_reweight``; shared by both planners.

    The candidate is one problem. Its noise is ``num_samples`` smooth draws
    for each of ``config.num_iterations`` iterations, at a scale that decays
    by ``NOISE_DECAY`` per iteration; ``project`` and ``score`` take (n, T, d)
    samples. Samples with non-finite scores get weight zero and the rest get
    ``mppi_weights`` at ``config.temperature``; if every score is non-finite
    the planner raises.

    The noise of every iteration is drawn up front in one call, which gives
    the same numbers and the same final ``rng`` state as one draw per
    iteration only because ``project`` and ``score`` never draw from ``rng``;
    a callback that did would see, and leave, a different stream.
    """
    horizon, dim = candidate.shape
    # the same repeated product as decaying inside the loop; decay ** k rounds differently
    scales = np.empty(config.num_iterations)
    scale = config.noise_scale
    for k in range(config.num_iterations):
        scales[k] = scale
        scale *= NOISE_DECAY
    noises = SmoothNoiseGen(horizon, dim).sample(scales, rng, n=config.num_samples)

    def weigh(scores: np.ndarray) -> np.ndarray:
        finite = np.isfinite(scores)
        if not finite.any():
            raise ValueError("all sampled candidates scored non-finite")
        weights = np.zeros(scores.shape)
        weights[finite] = mppi_weights(scores[finite], config.temperature)
        return weights

    return perturb_and_reweight(candidate[None], noises[:, None], project, score, weigh)[0]


def plan_target(spec: EnvSpec, goal: np.ndarray | None, config: PlannerConfig):
    """What ``plan`` scores against: the goal, ``spec.reward`` bound to it, or nothing."""
    if config.score_mode == "reward":
        return lambda states: spec.reward(states, goal)
    if config.score_mode == "prior-only":
        return None
    return goal


def _scorer(
    model: EnergyModel,
    target: np.ndarray | Callable[[np.ndarray], np.ndarray] | None,
    config: PlannerConfig,
) -> Callable[[np.ndarray], np.ndarray]:
    # checks ``target`` against the score mode once; the scorer maps (n, T, d) -> (n,)
    if config.score_mode == "reward":
        if not callable(target):
            raise ValueError("reward score_mode needs a callable target")
        return lambda samples: reward_scores(model, samples, target)
    if config.score_mode == "prior-only":
        return lambda samples: trajectory_energies(model, samples)
    goal = np.asarray(target, dtype=float)
    if goal.shape != (model.state_dim,):
        raise ValueError(f"goal shape {goal.shape} != ({model.state_dim},)")
    return lambda samples: goal_scores(model, samples, goal, config.goal_weight)


def plan(
    model: EnergyModel,
    s_start: np.ndarray,
    target: np.ndarray | Callable[[np.ndarray], np.ndarray] | None,
    config: PlannerConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Infer a (horizon, state_dim) trajectory starting at ``s_start``.

    ``mppi_refine`` refines the constant trajectory at the start state, with
    each sample's first state re-clamped and its score taken against
    ``target`` by ``score_mode`` (``plan_target`` builds the target: a goal
    vector, a reward function, or None).

    Samples are scored by a ``SCORING_DTYPE`` copy of the net, made once per
    call; the caller's model is left untouched, and scores and weights stay
    float64.
    Deterministic given the model, inputs and generator state.
    """
    s_start = np.asarray(s_start, dtype=float)
    if s_start.shape != (model.state_dim,):
        raise ValueError(f"start shape {s_start.shape} != ({model.state_dim},)")
    score = _scorer(EnergyModel(model.net.astype(SCORING_DTYPE)), target, config)

    def clamp_start(samples: np.ndarray) -> np.ndarray:
        samples[:, 0, :] = s_start
        return samples

    candidate = mppi_refine(
        np.tile(s_start, (config.horizon, 1)),
        clamp_start,
        score,
        config,
        rng,
    )
    # the refined row 0 is a weighted mean of clamped rows; pin it exactly
    candidate[0] = s_start
    return candidate
