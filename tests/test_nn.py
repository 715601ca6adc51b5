import copy
import pickle

import numpy as np
import pytest

from ebmplan.nn import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    MlpParams,
    adam_step,
    backward,
    check_update,
    forward_cached,
    init_adam_state,
    load_mlp,
    mlp_init,
    param_norm,
    save_mlp,
)
from oracles import fd_param_grads, fd_vector_grad, max_rel_error, naive_mlp_forward


def small_net(seed, dims=(3, 5, 2)):
    return mlp_init(dims, np.random.default_rng(seed))


def test_forward_zero_parameters_is_zero_map():
    net = small_net(0)
    for w in net.weights:
        w[:] = 0.0
    out = forward_cached(net, np.array([0.7, -1.2, 3.0])[None])[0][0]
    assert np.array_equal(out, np.zeros(2))


def test_forward_single_identity_layer():
    net = MlpParams.from_layers([np.array([[1.0, 1.0]])], [np.array([0.0])])
    assert forward_cached(net, np.array([2.0, 3.0])[None])[0][0, 0] == 5.0


def test_forward_matches_naive_reference():
    net = small_net(42, dims=(4, 6, 3))
    x = np.random.default_rng(7).normal(size=4)
    expected = naive_mlp_forward(net, x)
    got = forward_cached(net, x[None])[0][0]
    assert np.allclose(got, expected, rtol=1e-12, atol=1e-14)


def test_forward_is_pure_and_batch_consistent():
    net = small_net(3)
    x = np.array([0.1, 0.2, -0.3])
    a = forward_cached(net, x[None])[0][0]
    b = forward_cached(net, x[None])[0][0]
    assert np.array_equal(a, b)
    batch = forward_cached(net, np.stack([x, x, 2 * x]))[0]
    assert np.array_equal(batch[0], batch[1])
    assert np.allclose(batch[0], a, rtol=1e-15)


def test_float32_forward_matches_float64_forward():
    net = small_net(11, dims=(4, 64, 64, 1))
    x = np.random.default_rng(12).normal(size=(50, 4))
    out64, _ = forward_cached(net, x)
    out32, cache32 = forward_cached(net.astype(np.float32), x)
    assert out64.dtype == np.float64
    assert out32.dtype == np.float32
    assert all(layer.dtype == np.float32 for layer in cache32)
    assert np.allclose(out32, out64, rtol=1e-5, atol=1e-6)


def test_forward_cached_is_bit_identical_to_out_of_place_reference():
    # the in-place bias add and tanh must give exactly the out-of-place values
    # at the shapes the shipped configs score: reacher pairs, FF rollout steps,
    # pretraining negatives, and a few-row evaluation batch
    shapes = ((1440, 8, 1), (128, 4, 2), (768, 4, 1), (768, 4, 2), (12, 8, 1))
    for rows, in_dim, out_dim in shapes:
        rng = np.random.default_rng(rows + out_dim)
        net = mlp_init((in_dim, 64, 64, out_dim), rng)
        for b in net.biases:
            b[:] = rng.normal(scale=0.3, size=b.shape)
        x64 = rng.normal(size=(rows, in_dim))
        for dtype in (np.float32, np.float64):
            params = net.astype(dtype)
            x = x64.astype(dtype)
            snapshot = x.copy()
            out, cache = forward_cached(params, x)
            assert np.array_equal(x, snapshot)
            assert cache[0] is x
            expected = [x]
            for i, (w, b) in enumerate(zip(params.weights, params.biases)):
                z = expected[-1] @ w.T + b
                expected.append(np.tanh(z) if i < params.num_layers - 1 else z)
            assert out is cache[-1]
            assert len(cache) == len(expected)
            for got, want in zip(cache, expected):
                assert got.dtype == dtype
                assert np.array_equal(got, want)


def test_astype_returns_fresh_arrays():
    net = small_net(13)
    for dtype in (np.float32, np.float64):
        cast = net.astype(dtype)
        cast.validate()
        for src, dst in zip(net.weights + net.biases, cast.weights + cast.biases):
            assert dst.dtype == dtype
            assert not np.shares_memory(src, dst)
            assert np.array_equal(dst, src.astype(dtype))
        assert cast.shapes == net.shapes


def test_forward_dimension_mismatch_raises():
    net = small_net(1)
    with pytest.raises(ValueError, match="input dim 4 != network in_dim 3"):
        forward_cached(net, np.zeros(4)[None])
    with pytest.raises(ValueError, match="expects a \\(n, in_dim\\) batch"):
        forward_cached(net, np.zeros(3))


def test_params_validation_catches_broken_chain():
    with pytest.raises(ValueError):
        MlpParams.from_layers(
            [np.zeros((4, 3)), np.zeros((2, 5))],
            [np.zeros(4), np.zeros(2)],
        ).validate()


def test_gradients_zero_cotangent_are_zero():
    net = small_net(5)
    x = np.array([0.5, -0.5, 1.0])
    grads, x_cot = backward(net, forward_cached(net, x[None])[1], np.zeros(2)[None])
    for g in grads.weights + grads.biases:
        assert np.array_equal(g, np.zeros_like(g))
    assert np.array_equal(x_cot[0], np.zeros(3))


def test_gradients_identity_layer_outer_product():
    net = MlpParams.from_layers([np.array([[0.3, -0.2], [1.0, 0.5]])], [np.zeros(2)])
    x = np.array([2.0, -1.0])
    cot = np.array([0.7, -0.4])
    grads, x_cot = backward(net, forward_cached(net, x[None])[1], cot[None])
    assert np.allclose(grads.weights[0], np.outer(cot, x), rtol=1e-15)
    assert np.allclose(grads.biases[0], cot, rtol=1e-15)
    assert np.allclose(x_cot[0], net.weights[0].T @ cot, rtol=1e-15)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    for seed in range(5):
        dims = (3, rng.integers(2, 8), rng.integers(2, 8), 2)
        net = small_net(seed, dims=tuple(int(d) for d in dims))
        x = np.random.default_rng(seed + 100).normal(size=3)
        cot = np.random.default_rng(seed + 200).normal(size=2)
        analytic, x_cot = backward(net, forward_cached(net, x[None])[1], cot[None])
        numeric = fd_param_grads(lambda p: float(forward_cached(p, x[None])[0][0] @ cot), net)
        assert max_rel_error(analytic, numeric) < 1e-4
        fd_x = fd_vector_grad(lambda v: float(forward_cached(net, v[None])[0][0] @ cot), x)
        assert np.allclose(x_cot[0], fd_x, rtol=1e-4, atol=1e-8)


def test_gradient_check_random_nets_within_spec_tolerance():
    # nets of <= 3 layers and widths <= 16, h = 1e-5, rel err < 1e-4
    for seed in range(8):
        rng = np.random.default_rng(seed)
        widths = [int(rng.integers(1, 17)) for _ in range(int(rng.integers(2, 4)))]
        net = mlp_init(widths + [1], rng)
        x = rng.normal(size=widths[0])
        analytic, _ = backward(net, forward_cached(net, x[None])[1], np.ones(1)[None])
        numeric = fd_param_grads(lambda p: float(forward_cached(p, x[None])[0][0, 0]), net,
                                 h=1e-5)
        assert max_rel_error(analytic, numeric) < 1e-4


def test_adam_zero_gradients_zero_moments_is_identity():
    net = small_net(9)
    state = init_adam_state(net)
    new_net, new_state = adam_step(net, net.like(np.zeros_like(net.flat)), state, 1e-3)
    for a, b in zip(new_net.weights, net.weights):
        assert np.array_equal(a, b)
    for a, b in zip(new_net.biases, net.biases):
        assert np.array_equal(a, b)
    assert new_state.step_count == 1


def test_adam_single_step_hand_computed():
    # theta = 0, g = 1, fresh state, lr = 0.1:
    # m_hat = 1, v_hat = 1, theta' = -0.1 / (1 + eps)
    net = MlpParams.from_layers([np.array([[0.0]])], [np.array([0.0])])
    grads = MlpParams.from_layers([np.array([[1.0]])], [np.array([0.0])])
    new_net, state = adam_step(net, grads, init_adam_state(net), 0.1)
    expected = -0.1 / (1.0 + ADAM_EPSILON)
    assert abs(new_net.weights[0][0, 0] - expected) < 1e-15
    assert state.step_count == 1


def test_adam_two_identical_steps_accumulate_first_moments():
    # m_t = (1 - beta1^t) * g for constant gradient g
    g = 0.37
    net = MlpParams.from_layers([np.array([[0.0]])], [np.array([0.0])])
    grads = MlpParams.from_layers([np.array([[g]])], [np.array([0.0])])
    state = init_adam_state(net)
    net, state = adam_step(net, grads, state, 1e-3)
    assert np.isclose(state.first[0], (1 - 0.9) * g, rtol=1e-12)
    net, state = adam_step(net, grads, state, 1e-3)
    assert np.isclose(state.first[0], (1 - 0.9**2) * g, rtol=1e-12)


def test_adam_shape_mismatch_raises():
    # gradients of another layout, with the same parameter count (32) and not
    net = small_net(2)
    for dims in ((2, 6, 2), (3, 4, 2)):
        other = small_net(2, dims=dims)
        grads = other.like(np.zeros_like(other.flat))
        with pytest.raises(ValueError, match="shapes"):
            adam_step(net, grads, init_adam_state(net), 1e-3)


def test_adam_hyper_validation():
    # the learning rate is Adam's one settable hyperparameter; beta1, beta2 and
    # epsilon are the module constants of the paper's optimizer
    net = small_net(2)
    for learning_rate in (-1.0, 0.0, float("nan")):
        with pytest.raises(ValueError, match="learning_rate"):
            adam_step(net, net.like(np.zeros_like(net.flat)), init_adam_state(net), learning_rate)
    assert (ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON) == (0.9, 0.999, 1e-8)


def test_failed_checkpoint_save_keeps_previous_file(tmp_path, monkeypatch):
    first = small_net(123, dims=(4, 8, 1))
    path = tmp_path / "net.npz"
    save_mlp(first, path)

    def broken_savez(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", broken_savez)
    with pytest.raises(OSError):
        save_mlp(small_net(7, dims=(4, 8, 1)), path)
    monkeypatch.undo()
    loaded = load_mlp(path)
    for a, b in zip(loaded.weights + loaded.biases, first.weights + first.biases):
        assert np.array_equal(a, b)


def test_checkpoint_roundtrip_is_bit_exact(tmp_path):
    net = small_net(123, dims=(4, 16, 16, 1))
    path = tmp_path / "net.npz"
    save_mlp(net, path)
    loaded = load_mlp(path)
    assert loaded.shapes == net.shapes
    # the file names each layer's form: tanh hidden layers, identity output
    with np.load(path) as data:
        assert data["activations"].tolist() == ["tanh", "tanh", "identity"]
    for a, b in zip(loaded.weights, net.weights):
        assert np.array_equal(a, b)
    for a, b in zip(loaded.biases, net.biases):
        assert np.array_equal(a, b)


def reference_adam(params, grads, first, second, t, learning_rate):
    """Adam applied to each per-layer array on its own, as a reference."""
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    new_p, new_m, new_v = [], [], []
    for p, g, m, v in zip(params, grads, first, second):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        new_p.append(p - learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON))
        new_m.append(m)
        new_v.append(v)
    return new_p, new_m, new_v


def test_adam_step_is_the_per_layer_update_bit_for_bit():
    learning_rate = 3e-3
    for dims in ((8, 64, 64, 1), (4, 64, 64, 2)):
        rng = np.random.default_rng(sum(dims))
        net = mlp_init(dims, rng)
        state = init_adam_state(net)
        params = net.weights + net.biases
        first = [np.zeros_like(p) for p in params]
        second = [np.zeros_like(p) for p in params]
        for t in (1, 2, 3):
            grads = net.like(rng.normal(size=net.flat.size))
            net, state = adam_step(net, grads, state, learning_rate)
            params, first, second = reference_adam(
                params, grads.weights + grads.biases, first, second, t, learning_rate
            )
            assert state.step_count == t
            # the moments are plain arrays in the layout of ``flat``
            assert state.first.shape == state.second.shape == net.flat.shape
            moments = (net.like(state.first), net.like(state.second))
            for got, want in ((net, params), (moments[0], first), (moments[1], second)):
                for a, b in zip(got.weights + got.biases, want):
                    assert np.array_equal(a, b), (dims, t)


def test_backward_gradients_are_the_per_layer_products_bit_for_bit():
    for dims in ((8, 64, 64, 1), (4, 64, 64, 2), (3, 5, 2)):
        rng = np.random.default_rng(sum(dims))
        net = mlp_init(dims, rng)
        for b in net.biases:
            b[:] = rng.normal(scale=0.3, size=b.shape)
        for rows in (1, 48):
            _, cache = forward_cached(net, rng.normal(size=(rows, dims[0])))
            cot = rng.normal(size=(rows, dims[-1]))
            grads, x_cot = backward(net, cache, cot)
            g = cot
            for i in range(net.num_layers - 1, -1, -1):
                if i < net.num_layers - 1:
                    g = g * (1.0 - cache[i + 1] * cache[i + 1])
                assert np.array_equal(grads.weights[i], g.T @ cache[i])
                assert np.array_equal(grads.biases[i], g.sum(axis=0))
                g = g @ net.weights[i]
            assert np.array_equal(x_cot, g)


def test_layer_views_share_the_flat_vector():
    net = small_net(21, dims=(3, 5, 2))
    assert net.flat.shape == (3 * 5 + 5 + 5 * 2 + 2,)
    net.weights[1][1, 2] = 7.0
    net.biases[0][4] = -3.0
    assert net.flat[3 * 5 + 5 + 1 * 5 + 2] == 7.0
    assert net.flat[3 * 5 + 4] == -3.0
    assert net.weights is net.weights and net.biases is net.biases
    for dtype in (np.float32, np.float64):
        cast = net.astype(dtype)
        assert not np.shares_memory(cast.flat, net.flat)
        cast.weights[0][0, 0] = 99.0
        assert net.weights[0][0, 0] != 99.0
    assert np.shares_memory(net.like(net.flat).flat, net.flat)
    for size in (net.flat.size - 1, net.flat.size + 1):
        with pytest.raises(ValueError):
            net.like(np.zeros(size))
    with pytest.raises(ValueError):
        MlpParams.from_layers([np.zeros((4, 3))], [np.zeros(3)])


def test_pickle_and_deepcopy_keep_the_layer_views_on_flat():
    net = small_net(22, dims=(3, 5, 2))
    for q in (pickle.loads(pickle.dumps(net)), copy.deepcopy(net)):
        assert not np.shares_memory(q.flat, net.flat)
        assert np.array_equal(q.flat, net.flat) and q.shapes == net.shapes
        for view in q.weights + q.biases:
            assert np.shares_memory(view, q.flat)
        q.weights[0][1, 2] = 7.0
        q.biases[1][0] = -3.0
        assert q.flat[1 * 3 + 2] == 7.0
        assert q.flat[3 * 5 + 5 + 5 * 2] == -3.0
        assert net.flat[1 * 3 + 2] != 7.0

def test_check_update_allows_exactly_100_times_the_initial_norm():
    # the factor is written out here, so a moved guard fails this test
    initial = 2.5

    def one_weight(value):
        params = MlpParams.from_layers([np.array([[value]])], [np.zeros(1)])
        assert param_norm(params) == value
        return params

    check_update("online update 3", 0.25, one_weight(100.0 * initial), initial)
    above = np.nextafter(100.0 * initial, np.inf)
    with pytest.raises(ValueError, match="numerical blow-up: online update 3: loss 0.25, "
                                         "parameter norm 250 from 2.5 before the first update"):
        check_update("online update 3", 0.25, one_weight(above), initial)
    for loss in (np.nan, np.inf):
        with pytest.raises(ValueError, match="numerical blow-up: pretrain step 0: loss"):
            check_update("pretrain step 0", loss, one_weight(1.0), initial)
