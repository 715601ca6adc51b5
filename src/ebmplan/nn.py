"""Dense multilayer perceptrons with exact backpropagation and Adam updates.

Training is plain float64 numpy: backward, Adam and checkpoints never leave
float64. The forward pass computes in the dtype of the parameters it is
given, so planning-time scoring runs in float32 on an ``astype`` copy of the
weights while the float64 originals keep every training bit.

Parameters live in small dataclasses and are updated functionally:
forward/backward passes never mutate their inputs, and ``adam_step`` returns
fresh parameter and optimizer-state objects, so shared parameters are safe to
read concurrently.

Layer convention: weight matrices are (out_dim, in_dim), a batch is one row
per sample, and a layer computes ``act(x @ W.T + b)``. Supported activations
are ``"tanh"`` (the smooth nonlinearity used for hidden layers) and
``"identity"``.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ._io import write_atomic

ACTIVATIONS = ("tanh", "identity")


@dataclass
class MlpParams:
    """Weights, biases and per-layer activation names of a dense MLP."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activations: list[str]

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[0]

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    def validate(self) -> None:
        if not (len(self.weights) == len(self.biases) == len(self.activations) >= 1):
            raise ValueError("weights, biases and activations must align and be non-empty")
        for i, (w, b, act) in enumerate(zip(self.weights, self.biases, self.activations)):
            if act not in ACTIVATIONS:
                raise ValueError(f"layer {i}: unknown activation {act!r}")
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ValueError(f"layer {i}: weight {w.shape} and bias {b.shape} do not match")
            if i > 0 and w.shape[1] != self.weights[i - 1].shape[0]:
                raise ValueError(
                    f"layer {i}: in_dim {w.shape[1]} != previous out_dim "
                    f"{self.weights[i - 1].shape[0]}"
                )
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {i}: non-finite parameter entries")

    def astype(self, dtype) -> "MlpParams":
        """A copy with every weight and bias cast to ``dtype``; never aliases."""
        return MlpParams(
            [w.astype(dtype) for w in self.weights],
            [b.astype(dtype) for b in self.biases],
            list(self.activations),
        )


@dataclass
class MlpGrads:
    """Per-parameter values with the same shapes as an MlpParams collection."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]


@dataclass
class AdamState:
    first: MlpGrads
    second: MlpGrads
    step_count: int = 0


@dataclass(frozen=True)
class AdamHyper:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self) -> None:
        if not (self.learning_rate > 0 and self.epsilon > 0):
            raise ValueError("learning_rate and epsilon must be positive")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ValueError("beta1 and beta2 must lie in (0, 1)")


def mlp_init(layer_dims: Sequence[int], rng: np.random.Generator) -> MlpParams:
    """Build an MLP with fan-in-scaled uniform weights and zero biases.

    ``layer_dims`` lists the sizes (input, hidden..., output); hidden layers
    are tanh and the output layer identity. A seeded generator makes
    initialization reproducible.
    """
    if len(layer_dims) < 2:
        raise ValueError("need at least an input and an output dimension")
    weights, biases, acts = [], [], []
    for i in range(len(layer_dims) - 1):
        fan_in, fan_out = layer_dims[i], layer_dims[i + 1]
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
        acts.append("identity" if i == len(layer_dims) - 2 else "tanh")
    params = MlpParams(weights, biases, acts)
    params.validate()
    return params


def zero_grads(params: MlpParams) -> MlpGrads:
    return MlpGrads(
        [np.zeros_like(w) for w in params.weights],
        [np.zeros_like(b) for b in params.biases],
    )


def init_adam_state(params: MlpParams) -> AdamState:
    return AdamState(zero_grads(params), zero_grads(params), 0)


def add_grads(a: MlpGrads, b: MlpGrads) -> MlpGrads:
    return MlpGrads(
        [wa + wb for wa, wb in zip(a.weights, b.weights)],
        [ba + bb for ba, bb in zip(a.biases, b.biases)],
    )


def _check_input(params: MlpParams, x: np.ndarray) -> np.ndarray:
    # the input takes the parameters' dtype, so the pass runs in their precision
    x = np.asarray(x, dtype=params.weights[0].dtype)
    if x.shape[-1] != params.in_dim:
        raise ValueError(f"input dim {x.shape[-1]} != network in_dim {params.in_dim}")
    return x


def forward_cached(params: MlpParams, batch: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Batched forward pass returning the output and per-layer activations.

    Computes in the dtype of ``params``; the batch is cast to it. The cache
    holds the input followed by every layer output and is exactly what
    ``backward`` needs. Each layer adds its bias and applies its activation
    in place on the fresh product ``out @ W.T``, the only array it writes, so
    the batch and earlier cache entries are never modified.
    """
    batch = _check_input(params, batch)
    if batch.ndim != 2:
        raise ValueError("forward_cached expects a (n, in_dim) batch")
    cache = [batch]
    out = batch
    for w, b, act in zip(params.weights, params.biases, params.activations):
        out = out @ w.T
        out += b
        if act == "tanh":
            np.tanh(out, out=out)
        elif act != "identity":
            raise ValueError(f"unknown activation {act!r}")
        cache.append(out)
    return out, cache


def mlp_forward(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Evaluate the network on one input vector or a (n, in_dim) batch."""
    x = _check_input(params, x)
    single = x.ndim == 1
    out, _ = forward_cached(params, x[None, :] if single else x)
    return out[0] if single else out


def backward(
    params: MlpParams, cache: list[np.ndarray], out_cotangent: np.ndarray
) -> tuple[MlpGrads, np.ndarray]:
    """Reverse-mode pass from a batched output cotangent.

    Returns gradients of ``sum_n <output_n, out_cotangent_n>`` with respect to
    every parameter (summed over the batch) plus the cotangent at the input.
    """
    g = np.asarray(out_cotangent, dtype=float)
    if g.shape != cache[-1].shape:
        raise ValueError(f"cotangent shape {g.shape} != output shape {cache[-1].shape}")
    d_weights: list[np.ndarray] = [None] * params.num_layers  # type: ignore[list-item]
    d_biases: list[np.ndarray] = [None] * params.num_layers  # type: ignore[list-item]
    for i in range(params.num_layers - 1, -1, -1):
        act = params.activations[i]
        if act == "tanh":
            # tanh'(z) = 1 - tanh(z)^2, recoverable from the cached layer output
            g = g * (1.0 - cache[i + 1] * cache[i + 1])
        elif act != "identity":
            raise ValueError(f"unknown activation {act!r}")
        d_weights[i] = g.T @ cache[i]
        d_biases[i] = g.sum(axis=0)
        g = g @ params.weights[i]
    return MlpGrads(d_weights, d_biases), g


def adam_step(
    params: MlpParams, grads: MlpGrads, state: AdamState, hyper: AdamHyper
) -> tuple[MlpParams, AdamState]:
    """One bias-corrected Adam update; returns new parameters and state."""
    if state.step_count < 0:
        raise ValueError("step_count must be non-negative")
    t = state.step_count + 1
    b1, b2 = hyper.beta1, hyper.beta2
    new_w, new_b = [], []
    m_w, m_b, v_w, v_b = [], [], [], []

    def _update(p, g, m, v):
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        m_new = b1 * m + (1 - b1) * g
        v_new = b2 * v + (1 - b2) * g * g
        m_hat = m_new / (1 - b1**t)
        v_hat = v_new / (1 - b2**t)
        p_new = p - hyper.learning_rate * m_hat / (np.sqrt(v_hat) + hyper.epsilon)
        return p_new, m_new, v_new

    for i in range(params.num_layers):
        w, mw, vw = _update(
            params.weights[i], grads.weights[i], state.first.weights[i], state.second.weights[i]
        )
        b, mb, vb = _update(
            params.biases[i], grads.biases[i], state.first.biases[i], state.second.biases[i]
        )
        new_w.append(w)
        new_b.append(b)
        m_w.append(mw)
        m_b.append(mb)
        v_w.append(vw)
        v_b.append(vb)
    new_params = MlpParams(new_w, new_b, list(params.activations))
    new_state = AdamState(MlpGrads(m_w, m_b), MlpGrads(v_w, v_b), t)
    return new_params, new_state


def param_norm(params: MlpParams) -> float:
    """Euclidean norm of all weights and biases together."""
    return float(np.sqrt(sum(np.vdot(p, p) for p in (*params.weights, *params.biases))))


def check_update(update: str, loss: float, params: MlpParams, initial_norm: float) -> None:
    """Raise if an update diverged: its loss is non-finite, or the parameter
    norm exceeds 100 times ``initial_norm``, its value before the first update.
    """
    norm = param_norm(params)
    if not (np.isfinite(loss) and norm <= 100.0 * initial_norm):
        raise ValueError(
            f"numerical blow-up: {update}: loss {loss:.4g}, parameter norm {norm:.4g} "
            f"from {initial_norm:.4g} before the first update"
        )


CHECKPOINT_VERSION = 1


def save_mlp(params: MlpParams, path: str | Path) -> None:
    """Write a versioned binary checkpoint; ``load_mlp`` restores it bit-exactly.

    The file is replaced atomically, so a failed save keeps the previous one.
    """
    params.validate()
    arrays: dict[str, np.ndarray] = {
        "version": np.array(CHECKPOINT_VERSION),
        "num_layers": np.array(params.num_layers),
        "activations": np.array(params.activations),
    }
    for i in range(params.num_layers):
        arrays[f"w{i}"] = params.weights[i]
        arrays[f"b{i}"] = params.biases[i]
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    write_atomic(path, buffer.getvalue())


def load_mlp(path: str | Path) -> MlpParams:
    with np.load(path, allow_pickle=False) as data:
        version = int(data["version"])
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        n = int(data["num_layers"])
        params = MlpParams(
            [data[f"w{i}"] for i in range(n)],
            [data[f"b{i}"] for i in range(n)],
            [str(a) for a in data["activations"]],
        )
    params.validate()
    return params
