"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (scalar loops, central finite
differences) and shares no code with the package internals it checks.
"""

import math

import numpy as np

from ebmplan.nn import MlpParams


def naive_mlp_forward(params: MlpParams, x) -> list[float]:
    """Straight-line scalar re-evaluation of an MLP forward pass."""
    values = [float(v) for v in x]
    for w, b, act in zip(params.weights, params.biases, params.activations):
        nxt = []
        for i in range(w.shape[0]):
            acc = float(b[i])
            for j in range(w.shape[1]):
                acc += float(w[i, j]) * values[j]
            nxt.append(math.tanh(acc) if act == "tanh" else acc)
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
    return MlpParams.from_layers(grads_w, grads_b, params.activations)


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
