"""Online model training against a live environment.

``run_online`` is the one loop for both model kinds; ``experiments.online_train``
runs it with the parts that ``experiments.MODEL_KINDS`` gives the kind. Each
iteration plans a trajectory with the current model, executes it through
ground-truth inverse dynamics until the real state deviates from the plan by
more than a threshold, and takes one training step on the fresh rows that the
model kind derives from the executed chunk, each array padded with samples
from its own replay buffer. For the energy model the rows are the executed
real transitions, as positives, and the attempted planned transitions up to
the deviation, as negatives, and the step is ``energy.contrastive_train_step``.
When execution tracks the plan exactly the fresh positives and negatives
coincide and cancel, so only planning errors drive learning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .envs import EnvSpec, occupancy_cells
from .nn import check_update, init_adam_state, param_norm
from .planner import PlannerConfig


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
        # logical (oldest-first) indices -> ring slots
        return self._rows[(self._next - self._size + idx) % self.capacity]

    def with_replay(
        self, fresh: np.ndarray, n: int | None, rng: np.random.Generator
    ) -> np.ndarray:
        """``fresh`` followed by ``n`` sampled rows, ``len(fresh)`` when ``n`` is None.

        While the buffer is empty, ``fresh`` alone.
        """
        if self._size == 0:
            return fresh
        return np.concatenate([fresh, self.sample(len(fresh) if n is None else n, rng)])


@dataclass(frozen=True)
class OnlineConfig:
    """Online loop settings; a config's top level sets the planner, net and learning rate."""

    planner: PlannerConfig = field(default_factory=PlannerConfig)
    deviation_threshold: float = 0.1
    batch_size: int | None = None
    buffer_capacity: int = 2000
    env_step_budget: int = 5000
    episode_length: int = 50
    goal_tolerance: float = 0.05
    hidden_sizes: tuple[int, ...] = (64, 64)
    learning_rate: float = 1e-3
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
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")


def execute_plan(
    spec: EnvSpec, state: np.ndarray, planned: np.ndarray, deviation_threshold: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Follow a planned trajectory until reality drifts away from it.

    Each step feeds the next planned state through the environment's inverse
    dynamics and executes the resulting action. Execution stops after the
    first transition whose real outcome is farther than ``deviation_threshold``
    from the planned state; that transition is kept, so the returned real
    trajectory and the matching planned prefix always have equal length.
    The third result holds the actions sent to ``spec.step``, one per executed
    transition.
    """
    state = np.asarray(state, dtype=float)
    planned = np.asarray(planned, dtype=float)
    if planned.ndim != 2 or planned.shape[0] < 2:
        raise ValueError("planned trajectory must be (T>=2, state_dim)")
    if not np.array_equal(planned[0], state):
        raise ValueError("planned trajectory must start at the current state")
    real, actions = [state], []
    for t in range(planned.shape[0] - 1):
        actions.append(spec.inverse_dynamics(real[-1], planned[t + 1]))
        nxt = spec.step(real[-1], actions[-1])
        real.append(np.asarray(nxt, dtype=float))
        if np.linalg.norm(real[-1] - planned[t + 1]) > deviation_threshold:
            break
    executed = len(real)
    return np.stack(real), planned[:executed].copy(), np.stack(actions)


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
    fresh_rows: Callable,
    train_step: Callable,
) -> OnlineResult:
    """Plan, execute and learn until the budget is spent; the loop of both model kinds.

    ``propose(model, state, rng)`` returns a planned state trajectory starting
    at ``state``; it is truncated at the episode or budget boundary, executed
    until reality deviates from it, scored by one ``spec.reward`` call, and cut
    at the first goal hit. ``fresh_rows(real, prefix, actions)`` maps the kept
    chunk to a tuple of row arrays, each padded by ``with_replay`` from its own
    buffer; ``train_step(model, batch, config.learning_rate, adam_state)`` takes the
    padded tuple and returns the updated model, Adam state and loss, and then
    the fresh arrays join their buffers. Episodes reset to the start state after
    ``episode_length`` transitions or on reaching the goal; only completed
    episodes enter the score series, and an episode's score sums, in order,
    the reward of every state reached by a kept transition. A diverged update
    (see ``check_update``) raises.
    """
    adam_state = init_adam_state(model.net)
    initial_norm = param_norm(model.net)
    buffers: list[ReplayBuffer] = []
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
        real, prefix, actions = execute_plan(spec, state, planned, config.deviation_threshold)
        # one reward call per executed chunk; the episode ends exactly at the first goal hit
        rewards = spec.reward(real[1:], goal) if goal is not None else np.empty(0)
        hits = np.flatnonzero(rewards >= -config.goal_tolerance)
        reached = hits.size > 0
        if reached:
            end = hits[0] + 1
            real, prefix, actions = real[: end + 1], prefix[: end + 1], actions[:end]
            rewards = rewards[:end]
        fresh = fresh_rows(real, prefix, actions)
        buffers = buffers or [ReplayBuffer(config.buffer_capacity) for _ in fresh]
        batch = tuple(buf.with_replay(rows, config.batch_size, rng)
                      for buf, rows in zip(buffers, fresh))
        model, adam_state, loss = train_step(model, batch, config.learning_rate, adam_state)
        for buf, rows in zip(buffers, fresh):
            buf.add(rows)
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

