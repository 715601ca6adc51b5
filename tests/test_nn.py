import numpy as np
import pytest

from ebmplan.nn import (
    AdamHyper,
    MlpParams,
    adam_step,
    backward,
    forward_cached,
    init_adam_state,
    load_mlp,
    mlp_forward,
    mlp_init,
    save_mlp,
    zero_grads,
)
from oracles import fd_param_grads, fd_vector_grad, max_rel_error, naive_mlp_forward


def small_net(seed, dims=(3, 5, 2)):
    return mlp_init(dims, np.random.default_rng(seed))


def test_forward_zero_parameters_is_zero_map():
    net = small_net(0)
    for w in net.weights:
        w[:] = 0.0
    out = mlp_forward(net, np.array([0.7, -1.2, 3.0]))
    assert np.array_equal(out, np.zeros(2))


def test_forward_single_identity_layer():
    net = MlpParams.from_layers([np.array([[1.0, 1.0]])], [np.array([0.0])], ["identity"])
    assert mlp_forward(net, np.array([2.0, 3.0]))[0] == 5.0


def test_forward_matches_naive_reference():
    net = small_net(42, dims=(4, 6, 3))
    x = np.random.default_rng(7).normal(size=4)
    expected = naive_mlp_forward(net, x)
    got = mlp_forward(net, x)
    assert np.allclose(got, expected, rtol=1e-12, atol=1e-14)


def test_forward_is_pure_and_batch_consistent():
    net = small_net(3)
    x = np.array([0.1, 0.2, -0.3])
    a = mlp_forward(net, x)
    b = mlp_forward(net, x)
    assert np.array_equal(a, b)
    batch = mlp_forward(net, np.stack([x, x, 2 * x]))
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
            for w, b, act in zip(params.weights, params.biases, params.activations):
                z = expected[-1] @ w.T + b
                expected.append(np.tanh(z) if act == "tanh" else z)
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
        assert cast.activations == net.activations
        assert cast.activations is not net.activations


def test_forward_dimension_mismatch_raises():
    net = small_net(1)
    with pytest.raises(ValueError):
        mlp_forward(net, np.zeros(4))


def test_params_validation_catches_broken_chain():
    with pytest.raises(ValueError):
        MlpParams.from_layers(
            [np.zeros((4, 3)), np.zeros((2, 5))],
            [np.zeros(4), np.zeros(2)],
            ["tanh", "identity"],
        ).validate()


def test_gradients_zero_cotangent_are_zero():
    net = small_net(5)
    x = np.array([0.5, -0.5, 1.0])
    grads, x_cot = backward(net, forward_cached(net, x[None])[1], np.zeros(2)[None])
    for g in grads.weights + grads.biases:
        assert np.array_equal(g, np.zeros_like(g))
    assert np.array_equal(x_cot[0], np.zeros(3))


def test_gradients_identity_layer_outer_product():
    net = MlpParams.from_layers(
        [np.array([[0.3, -0.2], [1.0, 0.5]])], [np.zeros(2)], ["identity"]
    )
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
        numeric = fd_param_grads(lambda p: float(mlp_forward(p, x) @ cot), net)
        assert max_rel_error(analytic, numeric) < 1e-4
        fd_x = fd_vector_grad(lambda v: float(mlp_forward(net, v) @ cot), x)
        assert np.allclose(x_cot[0], fd_x, rtol=1e-4, atol=1e-8)


def test_gradient_check_random_nets_within_spec_tolerance():
    # nets of <= 3 layers and widths <= 16, h = 1e-5, rel err < 1e-4
    for seed in range(8):
        rng = np.random.default_rng(seed)
        widths = [int(rng.integers(1, 17)) for _ in range(int(rng.integers(2, 4)))]
        net = mlp_init(widths + [1], rng)
        x = rng.normal(size=widths[0])
        analytic, _ = backward(net, forward_cached(net, x[None])[1], np.ones(1)[None])
        numeric = fd_param_grads(lambda p: float(mlp_forward(p, x)[0]), net, h=1e-5)
        assert max_rel_error(analytic, numeric) < 1e-4


def test_adam_zero_gradients_zero_moments_is_identity():
    net = small_net(9)
    state = init_adam_state(net)
    new_net, new_state = adam_step(net, zero_grads(net), state, AdamHyper())
    for a, b in zip(new_net.weights, net.weights):
        assert np.array_equal(a, b)
    for a, b in zip(new_net.biases, net.biases):
        assert np.array_equal(a, b)
    assert new_state.step_count == 1


def test_adam_single_step_hand_computed():
    # theta = 0, g = 1, fresh state, lr = 0.1:
    # m_hat = 1, v_hat = 1, theta' = -0.1 / (1 + eps)
    net = MlpParams.from_layers([np.array([[0.0]])], [np.array([0.0])], ["identity"])
    grads = MlpParams.from_layers([np.array([[1.0]])], [np.array([0.0])], ["identity"])
    hyper = AdamHyper(learning_rate=0.1)
    new_net, state = adam_step(net, grads, init_adam_state(net), hyper)
    expected = -0.1 / (1.0 + hyper.epsilon)
    assert abs(new_net.weights[0][0, 0] - expected) < 1e-15
    assert state.step_count == 1


def test_adam_two_identical_steps_accumulate_first_moments():
    # m_t = (1 - beta1^t) * g for constant gradient g
    g = 0.37
    net = MlpParams.from_layers([np.array([[0.0]])], [np.array([0.0])], ["identity"])
    grads = MlpParams.from_layers([np.array([[g]])], [np.array([0.0])], ["identity"])
    hyper = AdamHyper()
    state = init_adam_state(net)
    net, state = adam_step(net, grads, state, hyper)
    assert np.isclose(state.first.weights[0][0, 0], (1 - 0.9) * g, rtol=1e-12)
    net, state = adam_step(net, grads, state, hyper)
    assert np.isclose(state.first.weights[0][0, 0], (1 - 0.9**2) * g, rtol=1e-12)


def test_adam_shape_mismatch_raises():
    # gradients of another layout, with the same parameter count (32) and not
    net = small_net(2)
    for dims in ((2, 6, 2), (3, 4, 2)):
        grads = zero_grads(small_net(2, dims=dims))
        with pytest.raises(ValueError, match="shapes"):
            adam_step(net, grads, init_adam_state(net), AdamHyper())


def test_adam_hyper_validation():
    with pytest.raises(ValueError):
        AdamHyper(learning_rate=-1.0)
    with pytest.raises(ValueError):
        AdamHyper(beta1=1.0)


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
    assert loaded.activations == net.activations
    for a, b in zip(loaded.weights, net.weights):
        assert np.array_equal(a, b)
    for a, b in zip(loaded.biases, net.biases):
        assert np.array_equal(a, b)


def reference_adam(params, grads, first, second, t, hyper):
    """Adam applied to each per-layer array on its own, as a reference."""
    b1, b2 = hyper.beta1, hyper.beta2
    new_p, new_m, new_v = [], [], []
    for p, g, m, v in zip(params, grads, first, second):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        new_p.append(p - hyper.learning_rate * m_hat / (np.sqrt(v_hat) + hyper.epsilon))
        new_m.append(m)
        new_v.append(v)
    return new_p, new_m, new_v


def test_adam_step_is_the_per_layer_update_bit_for_bit():
    hyper = AdamHyper(learning_rate=3e-3)
    for dims in ((8, 64, 64, 1), (4, 64, 64, 2)):
        rng = np.random.default_rng(sum(dims))
        net = mlp_init(dims, rng)
        state = init_adam_state(net)
        params = net.weights + net.biases
        first = [np.zeros_like(p) for p in params]
        second = [np.zeros_like(p) for p in params]
        for t in (1, 2, 3):
            grads = net.like(rng.normal(size=net.flat.size))
            net, state = adam_step(net, grads, state, hyper)
            params, first, second = reference_adam(
                params, grads.weights + grads.biases, first, second, t, hyper
            )
            assert state.step_count == t
            for got, want in ((net, params), (state.first, first), (state.second, second)):
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
                if net.activations[i] == "tanh":
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
        MlpParams.from_layers([np.zeros((4, 3))], [np.zeros(3)], ["identity"])
