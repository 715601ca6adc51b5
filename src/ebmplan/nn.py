"""Dense multilayer perceptrons with exact backpropagation and Adam updates.

Training is plain float64 numpy: backward, Adam and checkpoints never leave
float64. The forward pass computes in the dtype of the parameters it is
given, so planning-time scoring runs in float32 on an ``astype`` copy of the
weights while the float64 originals keep every training bit.

All of a network's parameters live in one flat vector (see ``MlpParams``),
and gradients and Adam moments share its layout, so the Adam update, a
gradient sum, a dtype cast and the parameter norm are each one array
operation. Parameters are updated functionally: forward/backward passes
never mutate their inputs, and ``adam_step`` returns fresh parameter and
optimizer-state objects, so shared parameters are safe to read concurrently.

Layer convention: weight matrices are (out_dim, in_dim), a batch is one row
per sample, and a layer computes ``act(x @ W.T + b)``. Supported activations
are ``"tanh"`` (the smooth nonlinearity used for hidden layers) and
``"identity"``.
"""

from __future__ import annotations

import io
import zipfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from ._io import write_atomic

ACTIVATIONS = ("tanh", "identity")
# Adam's moment decay rates and denominator floor (Kingma & Ba, 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class MlpParams:
    """The weights, biases and per-layer activation names of a dense MLP.

    Every parameter lives in one flat vector: per layer, the (out_dim, in_dim)
    weight in row-major order, then the bias. ``shapes`` lists the weight
    shapes. ``weights`` and ``biases`` are views into ``flat``, built once per
    object, so writing through them changes ``flat``. Gradients and Adam
    moments use the same type, so each whole-network operation is one array
    operation on ``flat``.
    """

    flat: np.ndarray
    shapes: tuple[tuple[int, int], ...]
    activations: list[str]
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.weights, self.biases = [], []
        end = 0
        for out_dim, in_dim in self.shapes:
            start, end = end, end + out_dim * in_dim
            self.weights.append(self.flat[start:end].reshape(out_dim, in_dim))
            self.biases.append(self.flat[end:end + out_dim])
            end += out_dim
        if self.flat.shape != (end,):
            raise ValueError(f"flat parameters of shape {self.flat.shape} != ({end},)")

    @classmethod
    def from_layers(cls, weights, biases, activations) -> "MlpParams":
        """Pack per-layer weights and biases into one flat vector (a copy)."""
        if not (len(weights) == len(biases) == len(activations) >= 1):
            raise ValueError("weights, biases and activations must align and be non-empty")
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ValueError(f"layer {i}: weight {w.shape} and bias {b.shape} do not match")
        flat = np.concatenate([a.ravel() for w, b in zip(weights, biases) for a in (w, b)])
        return cls(flat, tuple(w.shape for w in weights), list(activations))

    def like(self, flat: np.ndarray) -> "MlpParams":
        """The same layers over another flat vector, which is not copied."""
        return MlpParams(flat, self.shapes, list(self.activations))

    @property
    def in_dim(self) -> int:
        return self.shapes[0][1]

    @property
    def out_dim(self) -> int:
        return self.shapes[-1][0]

    @property
    def num_layers(self) -> int:
        return len(self.shapes)

    def validate(self) -> None:
        if not (len(self.activations) == self.num_layers >= 1):
            raise ValueError("layer shapes and activations must align and be non-empty")
        for i, act in enumerate(self.activations):
            if act not in ACTIVATIONS:
                raise ValueError(f"layer {i}: unknown activation {act!r}")
            if i > 0 and self.shapes[i][1] != self.shapes[i - 1][0]:
                raise ValueError(
                    f"layer {i}: in_dim {self.shapes[i][1]} != previous out_dim "
                    f"{self.shapes[i - 1][0]}"
                )
        if not np.isfinite(self.flat).all():
            raise ValueError("non-finite parameter entries")

    def astype(self, dtype) -> "MlpParams":
        """A copy with every weight and bias cast to ``dtype``; never aliases."""
        return self.like(self.flat.astype(dtype))


@dataclass
class AdamState:
    first: MlpParams
    second: MlpParams
    step_count: int = 0


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
    params = MlpParams.from_layers(weights, biases, acts)
    params.validate()
    return params


def zero_grads(params: MlpParams) -> MlpParams:
    return params.like(np.zeros_like(params.flat))


def init_adam_state(params: MlpParams) -> AdamState:
    return AdamState(zero_grads(params), zero_grads(params), 0)


def _check_input(params: MlpParams, x: np.ndarray) -> np.ndarray:
    # the input takes the parameters' dtype, so the pass runs in their precision
    x = np.asarray(x, dtype=params.flat.dtype)
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
) -> tuple[MlpParams, np.ndarray]:
    """Reverse-mode pass from a batched output cotangent.

    Returns gradients of ``sum_n <output_n, out_cotangent_n>`` with respect to
    every parameter (summed over the batch), in the layout of ``params``, plus
    the cotangent at the input.
    """
    g = np.asarray(out_cotangent, dtype=float)
    if g.shape != cache[-1].shape:
        raise ValueError(f"cotangent shape {g.shape} != output shape {cache[-1].shape}")
    grads = params.like(np.empty_like(params.flat))
    for i in range(params.num_layers - 1, -1, -1):
        act = params.activations[i]
        if act == "tanh":
            # tanh'(z) = 1 - tanh(z)^2, recoverable from the cached layer output
            g = g * (1.0 - cache[i + 1] * cache[i + 1])
        elif act != "identity":
            raise ValueError(f"unknown activation {act!r}")
        np.matmul(g.T, cache[i], out=grads.weights[i])
        g.sum(axis=0, out=grads.biases[i])
        g = g @ params.weights[i]
    return grads, g


def adam_step(
    params: MlpParams, grads: MlpParams, state: AdamState, learning_rate: float
) -> tuple[MlpParams, AdamState]:
    """One bias-corrected Adam update (Kingma & Ba, 2015) of every parameter at
    once, as one update of ``flat``; returns new parameters and state."""
    if not learning_rate > 0:
        raise ValueError("learning_rate must be positive")
    if state.step_count < 0:
        raise ValueError("step_count must be non-negative")
    if grads.shapes != params.shapes:
        raise ValueError(f"gradient shapes {grads.shapes} != parameter shapes {params.shapes}")
    t = state.step_count + 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    g = grads.flat
    m = b1 * state.first.flat + (1 - b1) * g
    v = b2 * state.second.flat + (1 - b2) * g * g
    m_hat = m / (1 - b1**t)
    v_hat = v / (1 - b2**t)
    flat = params.flat - learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
    return params.like(flat), AdamState(params.like(m), params.like(v), t)


def param_norm(params: MlpParams) -> float:
    """Euclidean norm of all weights and biases together: one norm of ``flat``."""
    return float(np.sqrt(np.vdot(params.flat, params.flat)))


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
    """Restore a ``save_mlp`` checkpoint; a file that is not one raises ValueError."""
    with open(path, "rb") as fh:
        if not zipfile.is_zipfile(fh):
            raise ValueError("not an .npz archive")
        fh.seek(0)
        try:
            with np.load(fh, allow_pickle=False) as data:
                version = int(data["version"])
                if version != CHECKPOINT_VERSION:
                    raise ValueError(f"unsupported checkpoint version {version}")
                n = int(data["num_layers"])
                params = MlpParams.from_layers(
                    [data[f"w{i}"] for i in range(n)],
                    [data[f"b{i}"] for i in range(n)],
                    [str(a) for a in data["activations"]],
                )
        except (KeyError, TypeError, zipfile.BadZipFile, zlib.error) as exc:
            raise ValueError(f"not a checkpoint: {exc.args[0]}") from None
    params.validate()
    return params
