"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (scalar loops, central finite
differences, dense solves) and shares no code with the package internals it checks.
"""

import math

import numpy as np

from ebmplan.nn import MlpParams, forward_cached


def naive_mlp_forward(params: MlpParams, x) -> list[float]:
    """Straight-line scalar re-evaluation of an MLP forward pass: tanh on every
    layer but the last, which is linear."""
    values = [float(v) for v in x]
    for layer, (w, b) in enumerate(zip(params.weights, params.biases)):
        hidden = layer < len(params.weights) - 1
        nxt = []
        for i in range(w.shape[0]):
            acc = float(b[i])
            for j in range(w.shape[1]):
                acc += float(w[i, j]) * values[j]
            nxt.append(math.tanh(acc) if hidden else acc)
        values = nxt
    return values


def fd_param_grads(loss_fn, params: MlpParams, h: float = 1e-5) -> MlpParams:
    """Central finite differences of ``loss_fn(params)`` over every entry."""

    def perturbed(kind, layer, index, delta):
        p = params.astype(float)
        if kind == "w":
            p.weights[layer][index] += delta
        else:
            p.biases[layer][index] += delta
        return p

    grads_w, grads_b = [], []
    for layer, w in enumerate(params.weights):
        g = np.zeros_like(w)
        for index in np.ndindex(w.shape):
            up = loss_fn(perturbed("w", layer, index, h))
            down = loss_fn(perturbed("w", layer, index, -h))
            g[index] = (up - down) / (2 * h)
        grads_w.append(g)
    for layer, b in enumerate(params.biases):
        g = np.zeros_like(b)
        for index in np.ndindex(b.shape):
            up = loss_fn(perturbed("b", layer, index, h))
            down = loss_fn(perturbed("b", layer, index, -h))
            g[index] = (up - down) / (2 * h)
        grads_b.append(g)
    return MlpParams.from_layers(grads_w, grads_b)


def max_rel_error(analytic: MlpParams, numeric: MlpParams, floor: float = 1e-6) -> float:
    """Largest per-coordinate relative error between two gradient collections."""
    worst = 0.0
    for a, n in zip(analytic.weights + analytic.biases, numeric.weights + numeric.biases):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def fd_vector_grad(fn, x, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        up = x.copy()
        down = x.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (fn(up) - fn(down)) / (2 * h)
    return grad


def finite_difference_matrix(horizon: int) -> np.ndarray:
    """The second-order finite-difference (acceleration) matrix over the horizon.

    Rows slide the stencil (1, -2, 1) along the diagonal; the first two rows
    pin the start of the trajectory and the two rows that would pin the end
    are dropped. The result is unit-diagonal lower-triangular, so ``A^T A``
    is symmetric positive definite.
    """
    if horizon < 2:
        raise ValueError("horizon must be >= 2")
    a = np.zeros((horizon, horizon))
    a[0, 0] = 1.0
    a[1, 0] = -2.0
    a[1, 1] = 1.0
    for i in range(2, horizon):
        a[i, i - 2 : i + 1] = (1.0, -2.0, 1.0)
    return a


def smooth_noise_covariance(horizon: int) -> np.ndarray:
    """``(A^T A)^-1`` by a dense solve: the covariance of unit-scale smooth noise."""
    inv = np.linalg.solve(finite_difference_matrix(horizon), np.eye(horizon))
    return inv @ inv.T


def packed_rollout_final_states(net: MlpParams, s_start, samples) -> np.ndarray:
    """Final predicted states of (n, H, action_dim) action sequences under a
    forward model ``s' = net(s, a)``, in the net's dtype.

    One packed (n, state_dim + action_dim) buffer: each step writes its actions
    beside the predicted states and overwrites the states with the next
    prediction. It shares only the forward pass with the rollout it checks.
    """
    n, horizon, action_dim = samples.shape
    s_dim = net.out_dim
    packed = np.empty((n, s_dim + action_dim), dtype=net.flat.dtype)
    packed[:, :s_dim] = s_start
    for t in range(horizon):
        packed[:, s_dim:] = samples[:, t, :]
        packed[:, :s_dim] = forward_cached(net, packed)[0]
    return packed[:, :s_dim]
