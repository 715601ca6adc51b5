"""Dense multilayer perceptrons with exact backpropagation and Adam updates.

Training is plain float64 numpy: backward, Adam and checkpoints never leave
float64. The forward pass computes in the dtype of the parameters it is
given, so planning-time scoring runs in ``SCORING_DTYPE`` on an ``astype``
copy of the weights while the float64 originals keep every training bit.

All of a network's parameters live in one flat vector (see ``MlpParams``),
and gradients and Adam moments share its layout, so the Adam update, a
gradient sum, a dtype cast and the parameter norm are each one array
operation. Parameters are updated functionally: forward/backward passes
never mutate their inputs, and ``adam_step`` returns fresh parameter and
optimizer-state objects, so shared parameters are safe to read concurrently.

Layer convention: weight matrices are (out_dim, in_dim), a batch is one row
per sample, and every network has one form: each hidden layer computes
``tanh(x @ W.T + b)`` and the output layer is linear, ``x @ W.T + b``.
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

# the dtype that planners and the negative sampler score candidates in
SCORING_DTYPE = np.float32
# Adam's moment decay rates and denominator floor (Kingma & Ba, 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class MlpParams:
    """The weights and biases of a dense MLP: tanh hidden layers, linear output.

    Every parameter lives in one flat vector: per layer, the (out_dim, in_dim)
    weight in row-major order, then the bias. ``shapes`` lists the weight
    shapes. ``weights`` and ``biases`` are views into ``flat``, built once per
    object, so writing through them changes ``flat``. Gradients use the same
    type, so each whole-network operation is one array operation on ``flat``.
    """

    flat: np.ndarray
    shapes: tuple[tuple[int, int], ...]
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

    def __reduce__(self):
        # pickle and deepcopy rebuild the views over the restored ``flat``
        return MlpParams, (self.flat, self.shapes)

    @classmethod
    def from_layers(cls, weights, biases) -> "MlpParams":
        """Pack per-layer weights and biases into one flat vector (a copy)."""
        if not (len(weights) == len(biases) >= 1):
            raise ValueError("weights and biases must align and be non-empty")
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ValueError(f"layer {i}: weight {w.shape} and bias {b.shape} do not match")
        flat = np.concatenate([a.ravel() for w, b in zip(weights, biases) for a in (w, b)])
        return cls(flat, tuple(w.shape for w in weights))

    def like(self, flat: np.ndarray) -> "MlpParams":
        """The same layers over another flat vector, which is not copied."""
        return MlpParams(flat, self.shapes)

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
        for i in range(1, self.num_layers):
            if self.shapes[i][1] != self.shapes[i - 1][0]:
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
    """Adam's first and second moments, flat arrays in ``MlpParams.flat``'s layout."""

    first: np.ndarray
    second: np.ndarray
    step_count: int = 0


def mlp_init(layer_dims: Sequence[int], rng: np.random.Generator) -> MlpParams:
    """Build an MLP with fan-in-scaled uniform weights and zero biases.

    ``layer_dims`` lists the sizes (input, hidden..., output); hidden layers
    are tanh and the output layer identity. A seeded generator makes
    initialization reproducible.
    """
    if len(layer_dims) < 2:
        raise ValueError("need at least an input and an output dimension")
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    params = MlpParams.from_layers(weights, biases)
    params.validate()
    return params


def init_adam_state(params: MlpParams) -> AdamState:
    return AdamState(np.zeros_like(params.flat), np.zeros_like(params.flat), 0)


def forward_cached(params: MlpParams, batch: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """The forward pass of a (n, in_dim) batch: the output and per-layer activations.

    Computes in the dtype of ``params``; the batch is cast to it. The cache
    holds the input followed by every layer output and is exactly what
    ``backward`` needs. Each layer adds its bias, and each hidden layer its
    tanh, in place on the fresh product ``out @ W.T``, the only array it
    writes, so the batch and earlier cache entries are never modified.
    """
    # the batch takes the parameters' dtype, so the pass runs in their precision
    batch = np.asarray(batch, dtype=params.flat.dtype)
    if batch.ndim != 2:
        raise ValueError("forward_cached expects a (n, in_dim) batch")
    if batch.shape[1] != params.in_dim:
        raise ValueError(f"input dim {batch.shape[1]} != network in_dim {params.in_dim}")
    cache = [batch]
    out = batch
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        out = out @ w.T
        out += b
        if i < params.num_layers - 1:
            np.tanh(out, out=out)
        cache.append(out)
    return out, cache


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
        if i < params.num_layers - 1:
            # tanh'(z) = 1 - tanh(z)^2, recoverable from the cached layer output
            g = g * (1.0 - cache[i + 1] * cache[i + 1])
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
    m = b1 * state.first + (1 - b1) * g
    v = b2 * state.second + (1 - b2) * g * g
    m_hat = m / (1 - b1**t)
    v_hat = v / (1 - b2**t)
    flat = params.flat - learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
    return params.like(flat), AdamState(m, v, t)


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


def _layer_forms(num_layers: int) -> list[str]:
    # the checkpoint's ``activations`` entry: tanh hidden layers, identity output
    return ["tanh"] * (num_layers - 1) + ["identity"]


def save_mlp(params: MlpParams, path: str | Path) -> None:
    """Write a versioned binary checkpoint; ``load_mlp`` restores it bit-exactly.

    The file is replaced atomically, so a failed save keeps the previous one.
    """
    params.validate()
    arrays: dict[str, np.ndarray] = {
        "version": np.array(CHECKPOINT_VERSION),
        "num_layers": np.array(params.num_layers),
        "activations": np.array(_layer_forms(params.num_layers)),
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
                forms = [str(a) for a in data["activations"]]
                if forms != _layer_forms(n):
                    raise ValueError(f"activations {forms} are not {_layer_forms(n)}")
                params = MlpParams.from_layers(
                    [data[f"w{i}"] for i in range(n)], [data[f"b{i}"] for i in range(n)]
                )
        except (KeyError, TypeError, zipfile.BadZipFile, zlib.error) as exc:
            raise ValueError(f"not a checkpoint: {exc.args[0]}") from None
    params.validate()
    return params
