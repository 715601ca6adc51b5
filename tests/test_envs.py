import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebmplan.envs import (
    ENV_FACTORIES,
    PARTICLE_STEP_BOUND,
    MazeLayout,
    clip_to_ball,
    default_maze_layout,
    make_env,
    maze_env,
    maze_step,
    occupancy_cells,
    particle_env,
    particle_step,
    reacher_env,
    reacher_step,
    wrap_angle,
)


def test_particle_step_zero_action_is_identity():
    state = np.array([0.3, -0.2])
    assert np.array_equal(particle_step(state, np.zeros(2)), state)


def test_particle_step_clips_to_ball():
    out = particle_step(np.zeros(2), np.array([0.1, 0.0]))
    assert np.allclose(out, [0.05, 0.0], rtol=1e-15)


def test_particle_step_clamps_to_map():
    out = particle_step(np.array([0.99, 0.0]), np.array([0.04, 0.0]))
    assert np.array_equal(out, np.array([1.0, 0.0]))


def test_particle_reward_examples():
    spec = particle_env()
    assert spec.reward(np.array([0.1, 0.2]), np.array([0.1, 0.2])) == 0.0
    assert spec.reward(np.array([1.0, 0.0]), np.array([0.0, 0.0])) == -1.0


def test_maze_open_space_matches_particle_step():
    layout = default_maze_layout()
    state = np.array([0.0, -0.8])
    action = np.array([0.03, 0.02])
    assert np.array_equal(maze_step(state, action, layout), particle_step(state, action))


def test_maze_rejects_endpoint_inside_wall():
    layout = MazeLayout(((-0.1, -0.1, 0.1, 0.1),))
    state = np.array([-0.13, 0.0])
    out = maze_step(state, np.array([0.05, 0.0]), layout)
    assert np.array_equal(out, state)


def test_maze_rejects_segment_through_thin_wall():
    # wall is 0.02 thick; a 0.05 hop crosses it and ends outside
    layout = MazeLayout(((-0.5, -0.01, 0.5, 0.01),))
    state = np.array([0.0, -0.03])
    out = maze_step(state, np.array([0.0, 0.05]), layout)
    assert np.array_equal(out, state)


def test_maze_requires_admissible_state():
    layout = MazeLayout(((-0.1, -0.1, 0.1, 0.1),))
    with pytest.raises(ValueError):
        maze_step(np.array([0.0, 0.0]), np.zeros(2), layout)


def segment_hits_rect_oracle(p, q, rect, samples=20001):
    # dense sampling of the open interior; independent of the clipping code
    x0, y0, x1, y1 = rect
    ts = np.linspace(0.0, 1.0, samples)
    xs = p[0] + ts * (q[0] - p[0])
    ys = p[1] + ts * (q[1] - p[1])
    inside = (xs > x0) & (xs < x1) & (ys > y0) & (ys < y1)
    return bool(inside.any())


def test_segment_intersection_matches_dense_sampling_oracle():
    layout = MazeLayout(((-0.3, -0.2, 0.4, 0.25),))
    rng = np.random.default_rng(99)
    disagreements = 0
    for _ in range(300):
        p = rng.uniform(-1, 1, 2)
        q = p + rng.uniform(-0.6, 0.6, 2)
        q = np.clip(q, -1, 1)
        got = layout.segment_blocked(p, q)
        expected = segment_hits_rect_oracle(p, q, layout.walls[0])
        disagreements += got != expected
    assert disagreements == 0


def test_maze_allows_sliding_along_wall_face():
    layout = MazeLayout(((-0.5, 0.0, 0.5, 0.2),))
    state = np.array([0.0, 0.0])  # on the wall boundary
    out = maze_step(state, np.array([0.05, 0.0]), layout)
    assert np.array_equal(out, np.array([0.05, 0.0]))


def test_reacher_zero_action_from_rest_is_identity():
    state = np.zeros(4)
    assert np.array_equal(reacher_step(state, np.zeros(2)), state)


def test_reacher_constant_torque_hand_iterated_table():
    # dt = 0.05, torque (0.6, -0.3) from rest:
    #   omega after k steps: k * tau * dt, theta accumulates omega * dt
    state = np.zeros(4)
    expected = [
        (0.0015, -0.00075, 0.03, -0.015),
        (0.0045, -0.00225, 0.06, -0.03),
        (0.0090, -0.00450, 0.09, -0.045),
    ]
    for theta1, theta2, omega1, omega2 in expected:
        state = reacher_step(state, np.array([0.6, -0.3]))
        assert np.allclose(state, [theta1, theta2, omega1, omega2], atol=1e-12)


def test_reacher_wraps_angle_across_branch_cut():
    state = np.array([np.pi - 0.01, 0.0, 0.5, 0.0])
    out = reacher_step(state, np.zeros(2))
    assert np.isclose(out[0], -np.pi + 0.015, atol=1e-12)


def test_reacher_clamps_velocity():
    state = np.array([0.0, 0.0, 0.98, -0.98])
    out = reacher_step(state, np.array([1.0, -1.0]))
    assert np.array_equal(out[2:], np.array([1.0, -1.0]))


def test_reacher_clips_torque():
    out = reacher_step(np.zeros(4), np.array([5.0, -5.0]))
    assert np.allclose(out[2:], [0.05, -0.05], atol=1e-15)


def test_reacher_reward_wrap_aware():
    spec = reacher_env()
    state = np.array([np.pi - 0.1, 0.0, 0.0, 0.0])
    goal = np.array([-np.pi + 0.1, 0.0, 0.0, 0.0])
    assert np.isclose(spec.reward(state, goal), -0.2, atol=1e-12)


def test_wrap_angle_half_open_interval():
    assert wrap_angle(np.pi) == np.pi
    assert wrap_angle(-np.pi) == np.pi
    assert np.isclose(wrap_angle(3 * np.pi / 2), -np.pi / 2, atol=1e-12)


def test_inverse_dynamics_particle_examples():
    spec = particle_env()
    s = np.zeros(2)
    assert np.array_equal(spec.inverse_dynamics(s, s), np.zeros(2))
    # the raw displacement is returned unclipped; the env clips at step time
    action = spec.inverse_dynamics(s, np.array([0.2, 0.0]))
    assert np.array_equal(action, np.array([0.2, 0.0]))
    assert np.allclose(spec.step(s, action), [0.05, 0.0], rtol=1e-15)


def test_inverse_dynamics_reacher_inverts_one_step():
    spec = reacher_env()
    state = np.array([0.3, -0.2, 0.4, 0.1])
    torque = np.array([0.7, -0.9])
    nxt = spec.step(state, torque)
    recovered = spec.inverse_dynamics(state, nxt)
    assert np.allclose(recovered, torque, atol=1e-12)


def test_inverse_dynamics_round_trip_all_envs():
    rng = np.random.default_rng(5)
    for kind in ("particle", "maze", "reacher"):
        spec = make_env(kind)
        for _ in range(300):
            if kind == "reacher":
                state = np.concatenate(
                    [rng.uniform(-np.pi, np.pi, 2), rng.uniform(-1, 1, 2)]
                )
                action = rng.uniform(-1, 1, 2)
            else:
                state = rng.uniform(-0.99, 0.99, 2)
                if kind == "maze" and not spec.maze_layout.admissible(state):
                    continue
                action = rng.normal(0, 0.05, 2)
            nxt = spec.step(state, action)
            replayed = spec.step(state, spec.inverse_dynamics(state, nxt))
            if kind == "reacher":
                assert np.allclose(replayed, nxt, atol=1e-10)
            else:
                # exact up to the 1-ulp rounding of s + (s' - s)
                assert np.allclose(replayed, nxt, rtol=0, atol=1e-14)


def test_rewards_non_positive_and_zero_iff_at_goal():
    rng = np.random.default_rng(8)
    for kind in ("particle", "reacher"):
        spec = make_env(kind)
        for _ in range(100):
            state = rng.uniform(-1, 1, spec.state_dim)
            goal = rng.uniform(-1, 1, spec.state_dim)
            r = spec.reward(state, goal)
            assert r <= 0.0
            assert spec.reward(state, state) == 0.0


def test_reward_of_a_batch_equals_per_state_calls_bit_for_bit():
    rng = np.random.default_rng(9)
    for kind in ("particle", "maze", "reacher"):
        spec = make_env(kind)
        states = rng.uniform(-4, 4, (7, 5, spec.state_dim))
        goal = rng.uniform(-1, 1, spec.state_dim)
        batch = spec.reward(states, goal)
        assert batch.shape == (7, 5)
        per_state = np.array([[spec.reward(s, goal) for s in row] for row in states])
        assert np.array_equal(batch, per_state)


def test_occupancy_examples():
    assert len(occupancy_cells(np.array([[0.31, 0.47]]))) == 1
    assert len(occupancy_cells(np.array([[0.31, 0.47], [0.33, 0.41]]))) == 1
    # sweep crossing exactly 4 cell boundaries -> 5 cells
    sweep = np.stack([np.linspace(0.05, 0.45, 9), np.zeros(9)], axis=1)
    assert len(occupancy_cells(sweep)) == 5


def test_maze_layout_validation():
    with pytest.raises(ValueError):
        MazeLayout(((0.5, 0.5, 0.1, 0.6),))
    with pytest.raises(ValueError):
        MazeLayout(((-2.0, 0.0, 0.5, 0.5),))
    with pytest.raises(ValueError):
        maze_env(start=(0.0, 0.5))  # inside the default maze's first wall


def test_random_action_particle_stays_in_ball():
    spec = particle_env()
    rng = np.random.default_rng(9)
    for _ in range(1000):
        assert np.linalg.norm(spec.random_action(rng)) <= 0.05 + 1e-12


def test_random_action_reacher_stays_in_box():
    spec = make_env("reacher")
    rng = np.random.default_rng(10)
    for _ in range(1000):
        action = spec.random_action(rng)
        assert (np.abs(action) <= 1.0).all()


def test_random_action_mean_is_near_zero():
    spec = particle_env()
    rng = np.random.default_rng(11)
    draws = np.stack([spec.random_action(rng) for _ in range(100_000)])
    assert np.all(np.abs(draws.mean(axis=0)) < 0.005)


def test_random_action_deterministic_under_seed():
    spec = particle_env()
    a = [spec.random_action(np.random.default_rng(12)) for _ in range(3)]
    b = [spec.random_action(np.random.default_rng(12)) for _ in range(3)]
    assert np.array_equal(np.stack(a)[:1], np.stack(b)[:1])


@pytest.mark.parametrize("kind", sorted(ENV_FACTORIES))
def test_env_spec_pickles_and_its_functions_give_identical_bytes(kind):
    spec = make_env(kind)
    clone = pickle.loads(pickle.dumps(spec))
    assert clone.maze_layout == spec.maze_layout
    assert clone.start_state.tobytes() == spec.start_state.tobytes()
    rng = np.random.default_rng(21)
    goal = rng.uniform(-1.0, 1.0, spec.state_dim)
    actions = rng.normal(scale=0.5, size=(30, spec.action_dim))
    states, state = [spec.start_state], spec.start_state
    for action in actions:
        nxt = spec.step(state, action)
        assert clone.step(state, action).tobytes() == nxt.tobytes()
        desired = state + rng.normal(scale=0.03, size=spec.state_dim)
        assert (clone.inverse_dynamics(state, desired).tobytes()
                == spec.inverse_dynamics(state, desired).tobytes())
        states.append(state := nxt)
    states = np.stack(states)
    assert clone.reward(states, goal).tobytes() == spec.reward(states, goal).tobytes()
    assert clone.clip_action(actions).tobytes() == spec.clip_action(actions).tobytes()
    draws = [f.random_action(np.random.default_rng(22)) for f in (spec, clone)]
    assert draws[0].tobytes() == draws[1].tobytes()


def test_make_env_rejects_unknown_kind():
    with pytest.raises(ValueError):
        make_env("pendulum")


def test_step_outputs_respect_invariants():
    rng = np.random.default_rng(21)
    particle = particle_env()
    maze = make_env("maze")
    for _ in range(500):
        state = rng.uniform(-1, 1, 2)
        out = particle.step(state, rng.normal(0, 0.2, 2))
        assert (np.abs(out) <= 1.0).all()
        if maze.maze_layout.admissible(state):
            out = maze.step(state, rng.normal(0, 0.2, 2))
            assert maze.maze_layout.admissible(out)


def test_reward_strictly_negative_away_from_goal():
    spec = particle_env()
    assert spec.reward(np.array([0.2, 0.2]), np.array([0.2, 0.21])) < 0.0



@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=4), st.floats(1e-3, 1e3))
def test_clip_to_ball_keeps_inside_and_bounds_norm(vector, radius):
    vector = np.array(vector)
    clipped = clip_to_ball(vector, radius)
    assert np.linalg.norm(clipped) <= radius * (1 + 1e-12)
    if np.linalg.norm(vector) <= radius:
        assert np.array_equal(clipped, vector)


def clip_to_ball_reference(action, radius):
    # the reference: the zero row and the rows inside the ball guarded apart
    action = np.asarray(action, dtype=float)
    norm = np.linalg.norm(action, axis=-1, keepdims=True)
    factor = np.where(norm > radius, np.divide(radius, norm, out=np.ones_like(norm),
                                               where=norm > 0), 1.0)
    return action * factor


@pytest.mark.parametrize("radius", [PARTICLE_STEP_BOUND, 1.0])
def test_clip_to_ball_matches_reference_bit_for_bit(radius):
    rng = np.random.default_rng(0)
    unit = rng.normal(size=(2000, 2))
    unit /= np.linalg.norm(unit, axis=-1, keepdims=True)
    rows = [np.zeros((3, 2)), rng.normal(scale=radius, size=(2000, 2)),
            np.array([[radius, 0.0], [0.0, -radius], [np.nextafter(radius, 0.0), 0.0],
                      [np.nextafter(radius, 2.0), 0.0]])]
    # norms at the radius and 1 ulp either side of it, in every direction
    for scale in (np.nextafter(radius, 0.0), radius, np.nextafter(radius, 2.0)):
        rows.append(unit * scale)
    for batch in [np.concatenate(rows), rng.normal(scale=radius, size=(128, 13, 2))]:
        clipped = clip_to_ball(batch, radius)
        assert clipped.tobytes() == clip_to_ball_reference(batch, radius).tobytes()
    assert clip_to_ball(np.zeros(2), radius).tobytes() == np.zeros(2).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.floats(-1e4, 1e4))
def test_wrap_angle_lands_in_half_open_interval_by_whole_turns(theta):
    wrapped = float(wrap_angle(theta))
    assert -np.pi < wrapped <= np.pi
    turns = (theta - wrapped) / (2 * np.pi)
    assert abs(turns - round(turns)) <= 1e-9 * max(1.0, abs(theta))


# a wall at least 0.05 wide and tall, and fractions that put a point strictly inside it
CORNERS = st.floats(-1.0, 0.95)
SIZES = st.floats(0.05, 1.0)
INSIDE = st.floats(0.01, 0.99)


@settings(max_examples=60, deadline=None)
@given(CORNERS, CORNERS, SIZES, SIZES, INSIDE, INSIDE, INSIDE, INSIDE)
def test_segment_between_points_inside_one_wall_is_blocked(x0, y0, w, h, a, b, c, d):
    x1, y1 = min(x0 + w, 1.0), min(y0 + h, 1.0)
    layout = MazeLayout(((x0, y0, x1, y1),))
    p = np.array([x0 + a * (x1 - x0), y0 + b * (y1 - y0)])
    q = np.array([x0 + c * (x1 - x0), y0 + d * (y1 - y0)])
    assert layout.segment_blocked(p, q)
