"""Online model training against a live environment.

``run_online`` is the one loop for both model kinds. Each iteration plans a
trajectory with the current model, executes it through ground-truth inverse
dynamics until the real state deviates from the plan by more than a
threshold, and hands the executed trajectory and the matching planned prefix
to the model kind's update rule. For the energy model that rule is
``contrastive_update``: the executed real transitions are positives, the
attempted planned transitions up to the deviation are negatives, each mixed
with samples from its replay buffer. When execution tracks the plan exactly
the fresh positives and negatives coincide and cancel, so only planning
errors drive learning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .energy import (
    EnergyModel,
    collate,
    contrastive_loss_and_grads,
    make_energy_model,
)
from .envs import EnvSpec, occupancy_cells
from .nn import AdamHyper, AdamState, adam_step, check_update, init_adam_state, param_norm
from .planner import PlannerConfig, plan, plan_target


class ReplayBuffer:
    """Bounded FIFO of packed transition-pair rows with uniform resampling.

    Rows live in a preallocated ``(capacity, width)`` ring, allocated on the
    first ``add``; logical index 0 is always the oldest surviving row.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._rows: np.ndarray | None = None
        self._next = 0  # ring slot the next row is written to
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def _slots(self, idx: np.ndarray) -> np.ndarray:
        # logical (oldest-first) indices -> ring slots
        return (self._next - self._size + idx) % self.capacity

    def add(self, rows: np.ndarray) -> None:
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        if self._rows is None:
            self._rows = np.empty((self.capacity, rows.shape[1]))
        elif rows.shape[1] != self._rows.shape[1]:
            raise ValueError(f"row width {rows.shape[1]} != buffer width {self._rows.shape[1]}")
        # rows that this same call would evict are never written
        rows = rows[-self.capacity :]
        n = rows.shape[0]
        self._rows[(self._next + np.arange(n)) % self.capacity] = rows
        self._next = (self._next + n) % self.capacity
        self._size = min(self._size + n, self.capacity)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw n rows uniformly with replacement; requires a non-empty buffer."""
        if self._size == 0:
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.integers(0, self._size, size=n)
        return self._rows[self._slots(idx)]

    def with_replay(
        self, fresh: np.ndarray, n: int | None, rng: np.random.Generator
    ) -> np.ndarray:
        """``fresh`` followed by ``n`` sampled rows, ``len(fresh)`` when ``n`` is None.

        While the buffer is empty, ``fresh`` alone.
        """
        if self._size == 0:
            return fresh
        return np.concatenate([fresh, self.sample(len(fresh) if n is None else n, rng)])

    def as_array(self) -> np.ndarray:
        """The stored rows, oldest first."""
        if self._size == 0:
            return np.empty((0, 0))
        return self._rows[self._slots(np.arange(self._size))]


@dataclass(frozen=True)
class OnlineConfig:
    """Online loop settings; a config's top level sets the planner, net and Adam."""

    planner: PlannerConfig = field(default_factory=PlannerConfig)
    deviation_threshold: float = 0.1
    batch_size: int | None = None
    buffer_capacity: int = 2000
    env_step_budget: int = 5000
    episode_length: int = 50
    goal_tolerance: float = 0.05
    hidden_sizes: tuple[int, ...] = (64, 64)
    adam: AdamHyper = field(default_factory=AdamHyper)
    occupancy_cell: float = 0.1

    def __post_init__(self) -> None:
        if not self.deviation_threshold > 0:
            raise ValueError("deviation_threshold must be positive")
        if self.env_step_budget < 0:
            raise ValueError("env_step_budget must be non-negative")
        if self.episode_length < 1:
            raise ValueError("episode_length must be >= 1")
        if not self.occupancy_cell > 0:
            raise ValueError("occupancy_cell must be positive")
        if self.goal_tolerance < 0:
            raise ValueError("goal_tolerance must be non-negative")
        if self.buffer_capacity < 1:
            raise ValueError("buffer_capacity must be >= 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1 when given")


def execute_plan(
    spec: EnvSpec, state: np.ndarray, planned: np.ndarray, deviation_threshold: float
) -> tuple[np.ndarray, np.ndarray]:
    """Follow a planned trajectory until reality drifts away from it.

    Each step feeds the next planned state through the environment's inverse
    dynamics and executes the resulting action. Execution stops after the
    first transition whose real outcome is farther than ``deviation_threshold``
    from the planned state; that transition is kept, so the returned real
    trajectory and the matching planned prefix always have equal length.
    """
    state = np.asarray(state, dtype=float)
    planned = np.asarray(planned, dtype=float)
    if planned.ndim != 2 or planned.shape[0] < 2:
        raise ValueError("planned trajectory must be (T>=2, state_dim)")
    if not np.array_equal(planned[0], state):
        raise ValueError("planned trajectory must start at the current state")
    real = [state]
    for t in range(planned.shape[0] - 1):
        action = spec.inverse_dynamics(real[-1], planned[t + 1])
        nxt = spec.step(real[-1], action)
        real.append(np.asarray(nxt, dtype=float))
        if np.linalg.norm(real[-1] - planned[t + 1]) > deviation_threshold:
            break
    executed = len(real)
    return np.stack(real), planned[:executed].copy()


def contrastive_update(
    model: EnergyModel,
    adam_state: AdamState,
    real: np.ndarray,
    prefix: np.ndarray,
    rng: np.random.Generator,
    buffers: tuple[ReplayBuffer, ReplayBuffer],
    config: OnlineConfig,
) -> tuple[EnergyModel, AdamState, float]:
    """One contrastive Adam step on an executed trajectory; buffers grow in place.

    Fresh executed pairs join the positive batch and fresh planned pairs the
    negative batch, each padded with an equal number of replay samples (none
    while a buffer is still empty).
    """
    b_pos, b_neg = buffers
    fresh_pos = collate(real)
    fresh_neg = collate(prefix)
    pos_batch = b_pos.with_replay(fresh_pos, config.batch_size, rng)
    neg_batch = b_neg.with_replay(fresh_neg, config.batch_size, rng)
    loss, grads = contrastive_loss_and_grads(model, pos_batch, neg_batch)
    net, new_adam = adam_step(model.net, grads, adam_state, config.adam)
    b_pos.add(fresh_pos)
    b_neg.add(fresh_neg)
    return EnergyModel(net, model.state_dim), new_adam, loss


@dataclass
class OnlineMetricsRow:
    step: int
    episode: int
    score: float
    loss: float
    executed: int
    occupancy: int


@dataclass
class OnlineResult:
    model: object
    episode_scores: list[float]
    metrics: list[OnlineMetricsRow]


def run_online(
    spec: EnvSpec,
    goal: np.ndarray | None,
    config: OnlineConfig,
    rng: np.random.Generator,
    model,
    propose: Callable,
    learn: Callable,
) -> OnlineResult:
    """Plan, execute and learn until the budget is spent; the loop of both model kinds.

    ``propose(model, state, rng)`` returns a planned state trajectory starting
    at ``state``; it is truncated at the episode or budget boundary, executed
    until reality deviates from it, scored by one ``spec.reward`` call, and cut
    at the first goal hit. Then ``learn(model, adam_state, real, prefix, rng)``
    returns the updated model, Adam state and loss. Episodes reset to the start
    state after ``episode_length`` transitions or on reaching the goal; only
    completed episodes enter the score series, and an episode's score sums, in
    order, the reward of every state reached by a kept transition. A diverged
    update (see ``check_update``) raises.
    """
    adam_state = init_adam_state(model.net)
    initial_norm = param_norm(model.net)
    state = spec.start_state.copy()
    steps_total = 0
    episode_idx = 0
    episode_steps = 0
    episode_return = 0.0
    episode_scores: list[float] = []
    metrics: list[OnlineMetricsRow] = []
    # occupancy counts cells entered by executed transitions
    visited: set[tuple[int, int]] = set()
    while steps_total < config.env_step_budget:
        max_h = min(
            config.env_step_budget - steps_total, config.episode_length - episode_steps
        )
        planned = propose(model, state, rng)[: max_h + 1]
        real, prefix = execute_plan(spec, state, planned, config.deviation_threshold)
        # one reward call per executed chunk; the episode ends exactly at the first goal hit
        rewards = spec.reward(real[1:], goal) if goal is not None else np.empty(0)
        hits = np.flatnonzero(rewards >= -config.goal_tolerance)
        reached = hits.size > 0
        if reached:
            end = hits[0] + 1
            real, prefix, rewards = real[: end + 1], prefix[: end + 1], rewards[:end]
        model, adam_state, loss = learn(model, adam_state, real, prefix, rng)
        check_update(f"online update {len(metrics)}", loss, model.net, initial_norm)
        executed = real.shape[0] - 1
        episode_return += sum(rewards.tolist())
        episode_steps += executed
        steps_total += executed
        visited |= occupancy_cells(real[1:], config.occupancy_cell)
        state = real[-1]
        metrics.append(
            OnlineMetricsRow(
                step=steps_total,
                episode=episode_idx,
                score=episode_return,
                loss=loss,
                executed=executed,
                occupancy=len(visited),
            )
        )
        if episode_steps >= config.episode_length or reached:
            episode_scores.append(episode_return)
            episode_idx += 1
            episode_steps = 0
            episode_return = 0.0
            state = spec.start_state.copy()
    return OnlineResult(model=model, episode_scores=episode_scores, metrics=metrics)


def online_train(
    spec: EnvSpec,
    goal: np.ndarray | None,
    config: OnlineConfig,
    rng: np.random.Generator,
) -> OnlineResult:
    """Train an energy model online until the environment step budget is spent.

    ``goal`` may be None for goal-free (prior-only) exploration, in which case
    episode scores are zero and only the occupancy column is informative.
    Returns the trained model plus per-episode scores and per-update metrics.
    """
    model = make_energy_model(spec.state_dim, rng, config.hidden_sizes)
    buffers = (ReplayBuffer(config.buffer_capacity), ReplayBuffer(config.buffer_capacity))
    target = plan_target(spec, goal, config.planner)

    def propose(model, state, rng):
        return plan(model, state, target, config.planner, rng)

    def learn(model, adam_state, real, prefix, rng):
        return contrastive_update(model, adam_state, real, prefix, rng, buffers, config)

    return run_online(spec, goal, config, rng, model, propose, learn)
