import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetcast.data import Standardizer, WindowSet
from fleetcast.forecast import MixtureForecaster
from fleetcast.mdn import gmm_nll, mdn_transform
from fleetcast.recurrent import (
    CellWeights,
    DenseLayer,
    HeadSpec,
    RecurrentModel,
    Scratch,
    TrainConfig,
    TrainingDivergedError,
    backward,
    forward_pass,
    gru_cell_forward,
    head_loss_and_grad,
    init_model,
    load_model,
    lstm_cell_forward,
    save_model,
    sigmoid,
    train,
)

FD_STEP = 1e-5


def fused(ws, us, bs):
    """CellWeights from per-gate arrays listed in GATES order."""
    return CellWeights(np.hstack(ws), np.hstack(us), np.hstack(bs))


def zero_gru(input_size=2, hidden=3):
    z = lambda *s: np.zeros(s)
    return fused([z(input_size, hidden)] * 3, [z(hidden, hidden)] * 3, [z(hidden)] * 3)


def zero_lstm(input_size=2, hidden=3):
    z = lambda *s: np.zeros(s)
    return fused([z(input_size, hidden)] * 4, [z(hidden, hidden)] * 4, [z(hidden)] * 4)


def loss_and_grads(model, inputs, targets):
    """Forward, head loss, and full backward in one call."""
    raw, cache = forward_pass(model, inputs)
    value, d_raw = head_loss_and_grad(model, raw, targets)
    return value, backward(model, cache, d_raw)


def compute_loss(model, inputs, targets) -> float:
    """Forward-only loss; the quantity finite differences differentiate."""
    raw, _ = forward_pass(model, inputs)
    value, _ = head_loss_and_grad(model, raw, targets)
    return value


def fd_gradients(model, inputs, targets):
    """Oracle: central finite differences of the forward-only loss."""
    grads = {}
    for name, arr in model.parameters().items():
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for idx in range(flat.size):
            keep = flat[idx]
            flat[idx] = keep + FD_STEP
            up = compute_loss(model, inputs, targets)
            flat[idx] = keep - FD_STEP
            dn = compute_loss(model, inputs, targets)
            flat[idx] = keep
            gflat[idx] = (up - dn) / (2 * FD_STEP)
        grads[name] = g
    return grads


def max_rel_error(analytic, numeric):
    worst = 0.0
    for name in analytic:
        a, b = analytic[name], numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
        worst = max(worst, float((np.abs(a - b) / denom).max()))
    return worst


def sigmoid_reference(x):
    """The boolean-mask form: 1/(1+exp(-x)) for x >= 0, e/(1+e) with e = exp(x) below."""
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


class TestSigmoid:
    def test_bitwise_equal_to_boolean_mask_form_without_warnings(self):
        edges = np.array([0.0, 1e-300, 5e-324, 1e-8, 0.5, 1.0, 36.0, 37.0, 709.0,
                          710.0, 745.0, 746.0, 800.0, 1e300, np.inf])
        rng = np.random.default_rng(0)
        grid = np.concatenate([edges, -edges, rng.normal(scale=20.0, size=2000),
                               np.linspace(-50.0, 50.0, 2001)])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = sigmoid(grid.reshape(-1, 1))
            want = sigmoid_reference(grid.reshape(-1, 1))
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        assert got[0, 0] == 0.5 and got[len(edges), 0] == 0.5  # +0.0 and -0.0
        assert got[len(edges) - 1, 0] == 1.0 and got[2 * len(edges) - 1, 0] == 0.0


class TestGruCell:
    def test_zero_weights_halve_previous_state(self):
        w = zero_gru()
        v = np.array([0.4, -1.2, 2.0])
        h, gates = gru_cell_forward(np.array([1.0, -1.0]), v, w)
        np.testing.assert_allclose(gates[:, :3], 0.5)  # z
        np.testing.assert_allclose(gates[:, 3:6], 0.5)  # r
        np.testing.assert_allclose(h.ravel(), 0.5 * v)

    def test_zero_state_zero_weights_stay_zero(self):
        w = zero_gru()
        h, _ = gru_cell_forward(np.array([3.0, 7.0]), np.zeros(3), w)
        np.testing.assert_allclose(h, 0.0)

    def test_hand_case_matches_scalar_recomputation(self):
        # H = 2, input size 1; independent scalar-by-scalar oracle
        w_z, w_r, w_h = [[0.1, -0.2]], [[0.3, 0.05]], [[-0.4, 0.25]]
        u_z = [[0.2, 0.1], [-0.1, 0.3]]
        u_r = [[0.0, 0.2], [0.1, -0.3]]
        u_h = [[0.5, -0.1], [0.2, 0.2]]
        b_z, b_r, b_h = [0.01, -0.02], [0.03, 0.0], [-0.01, 0.02]
        x = 0.7
        hp = [0.3, -0.5]

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        want = []
        for j in range(2):
            az = w_z[0][j] * x + u_z[0][j] * hp[0] + u_z[1][j] * hp[1] + b_z[j]
            ar = w_r[0][j] * x + u_r[0][j] * hp[0] + u_r[1][j] * hp[1] + b_r[j]
            want.append((sig(az), sig(ar)))
        cand = []
        for j in range(2):
            ah = (w_h[0][j] * x
                  + u_h[0][j] * (want[0][1] * hp[0])
                  + u_h[1][j] * (want[1][1] * hp[1]) + b_h[j])
            cand.append(np.tanh(ah))
        expect = [want[j][0] * hp[j] + (1 - want[j][0]) * cand[j] for j in range(2)]
        w = fused([w_z, w_r, w_h], [u_z, u_r, u_h], [b_z, b_r, b_h])
        h, _ = gru_cell_forward(np.array([x]), np.array(hp), w)
        np.testing.assert_allclose(h.ravel(), expect, rtol=1e-12)

    def test_shape_mismatch_is_fatal(self):
        with pytest.raises(ValueError):
            gru_cell_forward(np.zeros(3), np.zeros(3), zero_gru(input_size=2))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_gates_open_and_state_bounded(self, seed):
        rng = np.random.default_rng(seed)
        model = init_model("gru", 2, 4, dense_sizes=(3,), seed=seed,
                           head=HeadSpec("point", 2))
        x = rng.normal(scale=3.0, size=2)
        h_prev = rng.normal(scale=2.0, size=4)
        h, gates = gru_cell_forward(x, h_prev, model.cell)
        z, r = gates[:, :4], gates[:, 4:8]
        assert ((z > 0) & (z < 1)).all()
        assert ((r > 0) & (r < 1)).all()
        # each component is a convex mix of h_prev and a tanh value
        bound = np.maximum(np.abs(h_prev).max(), 1.0)
        assert np.abs(h).max() <= bound + 1e-12


class TestLstmCell:
    def test_zero_weights_zero_cell(self):
        h, c, _ = lstm_cell_forward(np.array([1.0, 2.0]), np.zeros(3), np.zeros(3),
                                    zero_lstm())
        np.testing.assert_allclose(c, 0.0)
        np.testing.assert_allclose(h, 0.0)

    def test_zero_weights_carry_half_cell(self):
        v = np.array([1.0, -2.0, 0.5])
        h, c, _ = lstm_cell_forward(np.array([1.0, 2.0]), np.zeros(3), v, zero_lstm())
        np.testing.assert_allclose(c.ravel(), 0.5 * v)
        np.testing.assert_allclose(h.ravel(), 0.5 * np.tanh(0.5 * v))

    def test_hand_case_matches_scalar_recomputation(self):
        rng = np.random.default_rng(4)
        w_i, w_f, w_o, w_g = (rng.normal(scale=0.4, size=(1, 2)) for _ in range(4))
        u_i, u_f, u_o, u_g = (rng.normal(scale=0.4, size=(2, 2)) for _ in range(4))
        b_i, b_f, b_o, b_g = (rng.normal(scale=0.1, size=2) for _ in range(4))
        x, hp, cp = 0.9, np.array([0.2, -0.4]), np.array([0.6, 0.1])

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        expect_c, expect_h = [], []
        for j in range(2):
            ai = w_i[0, j] * x + u_i[0, j] * hp[0] + u_i[1, j] * hp[1] + b_i[j]
            af = w_f[0, j] * x + u_f[0, j] * hp[0] + u_f[1, j] * hp[1] + b_f[j]
            ao = w_o[0, j] * x + u_o[0, j] * hp[0] + u_o[1, j] * hp[1] + b_o[j]
            ag = w_g[0, j] * x + u_g[0, j] * hp[0] + u_g[1, j] * hp[1] + b_g[j]
            c = sig(af) * cp[j] + sig(ai) * np.tanh(ag)
            expect_c.append(c)
            expect_h.append(sig(ao) * np.tanh(c))
        w = fused([w_i, w_f, w_o, w_g], [u_i, u_f, u_o, u_g], [b_i, b_f, b_o, b_g])
        h, c, _ = lstm_cell_forward(np.array([x]), hp, cp, w)
        np.testing.assert_allclose(c.ravel(), expect_c, rtol=1e-12)
        np.testing.assert_allclose(h.ravel(), expect_h, rtol=1e-12)


class TestSequenceForward:
    def test_single_step_reduces_to_cell_plus_dense(self):
        model = init_model("gru", 2, 3, dense_sizes=(4,), seed=1,
                           head=HeadSpec("point", 2))
        x = np.array([[0.5, -0.5]])
        h, _ = gru_cell_forward(x[0], np.zeros(3), model.cell)
        manual = h
        for layer in model.dense:
            manual = manual @ layer.weight + layer.bias
            if layer.activation == "relu":
                manual = np.maximum(manual, 0.0)
        np.testing.assert_allclose(forward_pass(model, x)[0], manual.ravel(), rtol=1e-12)

    def test_zero_weights_propagate_biases_only(self):
        model = init_model("gru", 2, 3, dense_sizes=(4,), seed=0,
                           head=HeadSpec("point", 2))
        for name, arr in model.parameters().items():
            arr[:] = 0.0
        model.dense[-1].bias[:] = [1.5, -2.5]
        out = forward_pass(model, np.zeros((6, 2)))[0]
        np.testing.assert_allclose(out, [1.5, -2.5])

    def test_three_step_window_matches_unrolled_oracle(self):
        model = init_model("gru", 1, 2, dense_sizes=(3,), seed=3,
                           head=HeadSpec("point", 1))
        window = np.array([[0.2], [-0.7], [1.1]])
        h = np.zeros(2)
        for t in range(3):  # unrolled scalar recomputation
            h, _ = gru_cell_forward(window[t], h, model.cell)
            h = h.ravel()
        out = h
        for layer in model.dense:
            out = out @ layer.weight + layer.bias
            if layer.activation == "relu":
                out = np.maximum(out, 0.0)
        np.testing.assert_allclose(forward_pass(model, window)[0], out, rtol=1e-12)

    def test_window_length_enforced_when_fixed(self):
        model = init_model("gru", 2, 3, dense_sizes=(3,), seed=0,
                           head=HeadSpec("point", 2), window_size=5)
        with pytest.raises(ValueError):
            forward_pass(model, np.zeros((4, 2)))

    def test_feature_size_enforced(self):
        model = init_model("gru", 2, 3, dense_sizes=(3,), seed=0,
                           head=HeadSpec("point", 2))
        with pytest.raises(ValueError):
            forward_pass(model, np.zeros((4, 3)))


class TestBackward:
    def test_zero_output_gradient_gives_zero_parameter_gradients(self):
        model = init_model("gru", 2, 3, dense_sizes=(4,), seed=2,
                           head=HeadSpec("mdn", 2, k=2))
        raw, cache = forward_pass(model, np.random.default_rng(0).normal(size=(3, 4, 2)))
        grads = backward(model, cache, np.zeros_like(np.atleast_2d(raw)))
        for g in grads.values():
            np.testing.assert_allclose(g, 0.0)

    @pytest.mark.parametrize("seed,cell_kind,head", [
        (101, "gru", HeadSpec("mdn", 1, k=3)),
        (102, "gru", HeadSpec("mdn", 2, k=2)),
        (103, "gru", HeadSpec("point", 2)),
        (104, "lstm", HeadSpec("point", 1)),
        (105, "lstm", HeadSpec("mdn", 1, k=2)),
    ])
    def test_gradients_match_finite_differences(self, seed, cell_kind, head):
        rng = np.random.default_rng(seed)
        model = init_model(cell_kind, head.n_series, 3, dense_sizes=(4, 3),
                           seed=int(rng.integers(1e6)), head=head)
        inputs = rng.normal(size=(2, 4, head.n_series))
        targets = rng.normal(size=(2, head.n_series))
        _, analytic = loss_and_grads(model, inputs, targets)
        numeric = fd_gradients(model, inputs, targets)
        assert max_rel_error(analytic, numeric) <= 1e-4

    def test_end_to_end_nll_gradient_single_sample(self):
        model = init_model("gru", 1, 4, dense_sizes=(5,), seed=11,
                           head=HeadSpec("mdn", 1, k=3))
        rng = np.random.default_rng(1)
        inputs = rng.normal(size=(1, 5, 1))
        targets = rng.normal(size=(1, 1))
        _, analytic = loss_and_grads(model, inputs, targets)
        numeric = fd_gradients(model, inputs, targets)
        assert max_rel_error(analytic, numeric) <= 1e-4


class TestHeadLoss:
    def test_mdn_head_averages_the_mixture_nll(self):
        model = init_model("gru", 2, 3, dense_sizes=(4,), seed=7,
                           head=HeadSpec("mdn", 2, k=3))
        rng = np.random.default_rng(7)
        raw = rng.normal(size=(4, 2 * 9))
        targets = rng.normal(size=(4, 2))
        value, _ = head_loss_and_grad(model, raw, targets)
        params = [mdn_transform(raw[b, 9 * s:9 * (s + 1)], model.sigma_floor)
                  for b in range(4) for s in range(2)]
        assert value == pytest.approx(gmm_nll(targets.ravel(), params), rel=1e-12)

    def test_point_head_averages_squared_error(self):
        model = init_model("lstm", 3, 3, dense_sizes=(4,), seed=8,
                           head=HeadSpec("point", 3))
        rng = np.random.default_rng(8)
        raw = rng.normal(size=(5, 3))
        targets = rng.normal(size=(5, 3))
        value, grad = head_loss_and_grad(model, raw, targets)
        assert value == pytest.approx(((raw - targets) ** 2).sum() / 15, rel=1e-12)
        np.testing.assert_allclose(grad, 2 * (raw - targets) / 15, rtol=1e-12)


def oracle_steps(model, x):
    """The states and gates of a step-by-step run of the cell functions
    over windows x (B, T, I): lists of T+1 hidden states, T gate arrays
    and, for an LSTM, T+1 cell states (empty for a GRU)."""
    b, t, _ = x.shape
    hs, gates, cs = [np.zeros((b, model.cell.hidden_size))], [], []
    if model.cell_kind == "lstm":
        cs.append(np.zeros_like(hs[0]))
    for s in range(t):
        if model.cell_kind == "gru":
            h_t, g_t = gru_cell_forward(x[:, s], hs[-1], model.cell)
        else:
            h_t, c_t, g_t = lstm_cell_forward(x[:, s], hs[-1], cs[-1], model.cell)
            cs.append(c_t)
        hs.append(h_t)
        gates.append(g_t)
    return hs, gates, cs


def oracle_backward(model, cache, d_raw):
    """Reference BPTT from the inputs cache["x"] alone: states, gates and
    dense activations recomputed step by step, gate derivatives recomputed
    at every step and the cell gradients accumulated one step (B rows) at
    a time."""
    x = cache["x"]
    hs, steps, cs = oracle_steps(model, x)
    post, pre = [hs[-1]], []
    for layer in model.dense:
        pre.append(post[-1] @ layer.weight + layer.bias)
        post.append(np.maximum(pre[-1], 0.0) if layer.activation == "relu" else pre[-1])
    grads = {name: np.zeros_like(arr) for name, arr in model.parameters().items()}
    d = np.atleast_2d(d_raw)
    for idx in range(len(model.dense) - 1, -1, -1):
        layer = model.dense[idx]
        da = d * (pre[idx] > 0) if layer.activation == "relu" else d
        grads[f"dense{idx}.weight"] += post[idx].T @ da
        grads[f"dense{idx}.bias"] += da.sum(axis=0)
        d = da @ layer.weight.T
    dh = d
    u = model.cell.u
    h = model.cell.hidden_size
    gw, gu, gb = grads["cell.w"], grads["cell.u"], grads["cell.b"]
    if model.cell_kind == "gru":
        for s in range(len(steps) - 1, -1, -1):
            z, r, cand = (steps[s][:, k * h:(k + 1) * h] for k in range(3))
            h_prev = hs[s]
            da_h = dh * (1.0 - z) * (1.0 - cand**2)
            dh_cand = da_h @ u[:, 2 * h:].T
            da = np.hstack([dh * (h_prev - cand) * z * (1.0 - z),
                            dh_cand * h_prev * r * (1.0 - r), da_h])
            gw += x[:, s].T @ da
            gu[:, :2 * h] += h_prev.T @ da[:, :2 * h]
            gu[:, 2 * h:] += (r * h_prev).T @ da_h
            gb += da.sum(axis=0)
            dh = dh * z + da[:, :2 * h] @ u[:, :2 * h].T + dh_cand * r
    else:
        dc = np.zeros_like(dh)
        for s in range(len(steps) - 1, -1, -1):
            i, f, o, g = (steps[s][:, k * h:(k + 1) * h] for k in range(4))
            c_prev, c_t = cs[s], cs[s + 1]
            h_prev = hs[s]
            tc = np.tanh(c_t)
            dc = dc + dh * o * (1.0 - tc**2)
            da = np.hstack([dc * g * i * (1.0 - i), dc * c_prev * f * (1.0 - f),
                            dh * tc * o * (1.0 - o), dc * i * (1.0 - g**2)])
            gw += x[:, s].T @ da
            gu += h_prev.T @ da
            gb += da.sum(axis=0)
            dh = da @ u.T
            dc = dc * f
    return grads


PRODUCTION_HEADS = {"mdn": HeadSpec("mdn", 2, k=3),
                    "point": HeadSpec("point", 2)}


def production_model(cell_kind, head, seed=0, window_size=None):
    """The pipeline's default sizes: H=32, dense (256, 128), two zones."""
    return init_model(cell_kind, 2, 32, dense_sizes=(256, 128), seed=seed,
                      head=PRODUCTION_HEADS[head], window_size=window_size)


def assert_same_bits(got, want, name):
    assert got.shape == want.shape, name
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64), err_msg=name)


class TestForwardCache:
    @pytest.mark.parametrize("cell_kind", ["gru", "lstm"])
    @pytest.mark.parametrize("b", [32, 14, 1])
    def test_arrays_equal_a_step_by_step_run_of_the_cells(self, cell_kind, b):
        model = production_model(cell_kind, "point", seed=b)
        inputs = np.random.default_rng(b).normal(size=(b, 10, 2))
        _, cache = forward_pass(model, inputs)
        hs, gates, cs = oracle_steps(model, inputs)
        assert set(cache) == {"x", "hs", "gates", "cs", "dense"}
        assert_same_bits(cache["hs"], np.stack(hs), "hs")
        assert_same_bits(cache["gates"], np.stack(gates), "gates")
        if cell_kind == "lstm":
            assert_same_bits(cache["cs"], np.stack(cs), "cs")
        else:
            assert cache["cs"] is None


class TestBackwardAtProductionShapes:
    @pytest.mark.parametrize("cell_kind", ["gru", "lstm"])
    @pytest.mark.parametrize("head", ["mdn", "point"])
    @pytest.mark.parametrize("t", [1, 10])
    def test_matches_per_step_oracle(self, cell_kind, head, t):
        model = production_model(cell_kind, head, seed=t)
        rng = np.random.default_rng(t)
        scratch = Scratch()
        for b in (32, 14, 1):  # the short batches reuse the front of the scratch arrays
            inputs = rng.normal(size=(b, t, 2))
            targets = rng.normal(size=(b, 2))
            raw, cache = forward_pass(model, inputs)
            _, d_raw = head_loss_and_grad(model, raw, targets)
            want = oracle_backward(model, cache, d_raw)
            fresh = backward(model, cache, d_raw)
            reused = backward(model, cache, d_raw, scratch)
            assert list(fresh) == list(want)
            for name in want:
                # summation order differs, so an entry that cancels to far
                # below its array's scale is held to that scale
                scale = np.abs(want[name]).max()
                np.testing.assert_allclose(fresh[name], want[name], rtol=1e-12,
                                           atol=1e-12 * scale, err_msg=f"{name} at B={b}")
                np.testing.assert_array_equal(reused[name], fresh[name])


def reference_train(model, windows, cfg, backward_fn):
    """Training loop with out-of-place updates and a (g*g).sum() clip norm."""
    inputs, targets = windows.inputs, windows.targets
    rng = np.random.default_rng(cfg.seed)
    params = model.parameters()
    vel = {k: np.zeros_like(p) for k, p in params.items()}
    history = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(inputs))
        losses = []
        for b0 in range(0, len(inputs), cfg.batch_size):
            sel = order[b0:b0 + cfg.batch_size]
            raw, cache = forward_pass(model, inputs[sel])
            value, d_raw = head_loss_and_grad(model, raw, targets[sel])
            grads = backward_fn(model, cache, d_raw)
            norm = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
            if norm > cfg.clip_norm:
                for g in grads.values():
                    g *= cfg.clip_norm / norm
            for k, p in params.items():
                vel[k] = cfg.momentum * vel[k] + grads[k]
                p -= cfg.learning_rate * vel[k]
            losses.append(value)
        history.append(float(np.mean(losses)))
    return history


def production_windows(n=46, t=10, seed=0):
    """n windows of a two-zone random walk: batches of 32 and n - 32."""
    walk = np.random.default_rng(seed).normal(scale=0.3, size=(n + t, 2)).cumsum(axis=0)
    inputs = np.stack([walk[i:i + t] for i in range(n)])
    return WindowSet(inputs=inputs, targets=walk[t:])


class TestTrainAgainstReference:
    @pytest.mark.parametrize("cell_kind,head", [("gru", "mdn"), ("gru", "point"),
                                                ("lstm", "point")])
    def test_updates_match_out_of_place_formulas_bit_for_bit(self, cell_kind, head):
        # no clipping, same backward: only the in-place updates differ
        cfg = TrainConfig(learning_rate=0.05, epochs=2, seed=4, clip_norm=1e300)
        ws = production_windows()
        model = production_model(cell_kind, head, seed=2)
        ref = model.copy()
        _, history = train(model, ws, cfg)
        want = reference_train(ref, ws, cfg, backward)
        assert history == want
        for name, arr in ref.parameters().items():
            np.testing.assert_array_equal(model.parameters()[name], arr, err_msg=name)

    @pytest.mark.parametrize("cell_kind,head", [("gru", "mdn"), ("lstm", "point")])
    def test_three_epochs_match_the_per_step_oracle(self, cell_kind, head):
        cfg = TrainConfig(learning_rate=0.05, epochs=3, seed=5, clip_norm=1.0)
        ws = production_windows(seed=1)
        model = production_model(cell_kind, head, seed=3)
        ref = model.copy()
        _, history = train(model, ws, cfg)
        want = reference_train(ref, ws, cfg, oracle_backward)
        np.testing.assert_allclose(history, want, rtol=1e-9)
        for name, arr in ref.parameters().items():
            np.testing.assert_allclose(model.parameters()[name], arr, rtol=1e-9,
                                       err_msg=name)


def toy_windows(n=20, ws=5, z=1, seed=0):
    rng = np.random.default_rng(seed)
    inputs = rng.normal(size=(n, ws, z))
    targets = inputs[:, -1, :] * 0.5 + 0.1
    return WindowSet(inputs=inputs, targets=targets)


class TestTrain:
    def test_zero_learning_rate_is_a_no_op(self):
        model = init_model("gru", 1, 3, dense_sizes=(4,), seed=5,
                           head=HeadSpec("point", 1))
        before = {k: v.copy() for k, v in model.parameters().items()}
        _, history = train(model, toy_windows(), TrainConfig(learning_rate=0.0, epochs=1))
        assert len(history) == 1
        for name, arr in model.parameters().items():
            np.testing.assert_array_equal(arr, before[name])

    def test_same_seed_bit_identical(self):
        histories = []
        finals = []
        for _ in range(2):
            model = init_model("gru", 1, 3, dense_sizes=(4,), seed=5,
                               head=HeadSpec("point", 1))
            _, history = train(model, toy_windows(),
                               TrainConfig(learning_rate=0.05, epochs=5, seed=3))
            histories.append(history)
            finals.append({k: v.copy() for k, v in model.parameters().items()})
        assert histories[0] == histories[1]
        for name in finals[0]:
            np.testing.assert_array_equal(finals[0][name], finals[1][name])

    def test_overfits_small_set(self):
        # regression baseline: loss collapses well below 10% of its start
        model = init_model("gru", 1, 8, dense_sizes=(16,), seed=7,
                           head=HeadSpec("point", 1))
        _, history = train(model, toy_windows(n=20),
                           TrainConfig(learning_rate=0.02, epochs=200, seed=0))
        assert history[-1] < 0.1 * history[0]

    def test_mdn_training_reduces_nll(self):
        rng = np.random.default_rng(2)
        inputs = rng.normal(size=(30, 4, 1))
        targets = np.where(rng.random((30, 1)) < 0.5, -2.0, 2.0)
        ws = WindowSet(inputs=inputs, targets=targets)
        model = init_model("gru", 1, 4, dense_sizes=(8,), seed=1,
                           head=HeadSpec("mdn", 1, k=2))
        _, history = train(model, ws, TrainConfig(learning_rate=0.05, epochs=100, seed=0))
        assert history[-1] < history[0] - 0.3

    def test_divergence_aborts_with_location(self):
        model = init_model("gru", 1, 3, dense_sizes=(4,), seed=5,
                           head=HeadSpec("point", 1))
        model.dense[-1].bias[:] = 1e308  # loss overflows immediately
        with pytest.raises(TrainingDivergedError, match="epoch 0, batch 0"):
            train(model, toy_windows(),
                  TrainConfig(learning_rate=0.1, epochs=1, seed=0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1.0).validate()
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0).validate()


class TestCheckpoint:
    def test_round_trip_preserves_parameters(self, tmp_path):
        model = init_model("lstm", 2, 4, dense_sizes=(5, 3), seed=9,
                           head=HeadSpec("point", 2), window_size=6)
        prefix = str(tmp_path / "ckpt")
        save_model(model, prefix, extra={"note": "test"})
        loaded, extra = load_model(prefix)
        assert extra == {"note": "test"}
        assert loaded.cell_kind == "lstm"
        assert loaded.window_size == 6
        for name, arr in model.parameters().items():
            np.testing.assert_array_equal(arr, loaded.parameters()[name])
        x = np.random.default_rng(0).normal(size=(6, 2))
        np.testing.assert_array_equal(forward_pass(model, x)[0],
                                      forward_pass(loaded, x)[0])

    def test_sidecar_is_little_endian_float64(self, tmp_path):
        model = init_model("gru", 1, 2, dense_sizes=(2,), seed=0,
                           head=HeadSpec("point", 1))
        prefix = str(tmp_path / "m")
        save_model(model, prefix)
        import json as _json

        manifest = _json.loads((tmp_path / "m.json").read_text())
        n_floats = sum(int(np.prod(e["shape"])) for e in manifest["arrays"])
        assert (tmp_path / "m.bin").stat().st_size == 8 * n_floats
        first = manifest["arrays"][0]
        raw = np.fromfile(tmp_path / "m.bin", dtype="<f8", count=int(np.prod(first["shape"])))
        assert first["name"] == "cell.w"
        np.testing.assert_array_equal(raw.reshape(first["shape"]), model.cell.w)

    @pytest.mark.parametrize("cell_kind", ["gru", "lstm"])
    def test_manifest_lists_the_fused_parameters_in_order(self, tmp_path, cell_kind):
        model = init_model(cell_kind, 2, 3, dense_sizes=(4,), seed=1,
                           head=HeadSpec("point", 2))
        save_model(model, str(tmp_path / "m"))
        manifest = json.loads((tmp_path / "m.json").read_text())
        assert manifest["format"] == "fleetcast-checkpoint-v2"
        entries = manifest["arrays"]
        params = model.parameters()
        assert [e["name"] for e in entries] == list(params) == [
            "cell.w", "cell.u", "cell.b",
            "dense0.weight", "dense0.bias", "dense1.weight", "dense1.bias"]
        raw = np.fromfile(tmp_path / "m.bin", dtype="<f8")
        offset = 0
        for e in entries:
            want = params[e["name"]]
            assert (e["shape"], e["offset"]) == (list(want.shape), offset)
            np.testing.assert_array_equal(
                raw[offset:offset + want.size].reshape(want.shape), want)
            offset += want.size
        assert offset == raw.size

    def test_truncated_sidecar_names_the_file(self, tmp_path):
        model = init_model("gru", 1, 2, dense_sizes=(2,), seed=0,
                           head=HeadSpec("point", 1))
        prefix = str(tmp_path / "m")
        save_model(model, prefix)
        data = (tmp_path / "m.bin").read_bytes()
        (tmp_path / "m.bin").write_bytes(data[:-12])
        with pytest.raises(ValueError, match=re.escape(f"{prefix}.bin")):
            load_model(prefix)

    @pytest.mark.parametrize("head_extra", [{"aux_point": False}, {}])
    def test_mdn_manifest_without_an_auxiliary_output_loads(self, tmp_path, head_extra):
        # the loader reads only kind, n_series and k from "head"; a stray
        # "aux_point": false there changes nothing
        model = init_model("gru", 2, 3, dense_sizes=(4,), seed=3,
                           head=HeadSpec("mdn", 2, k=3), window_size=5)
        prefix = str(tmp_path / "m")
        save_model(model, prefix)
        path = tmp_path / "m.json"
        manifest = json.loads(path.read_text())
        assert "aux_point" not in manifest["head"]
        manifest["head"].update(head_extra)
        path.write_text(json.dumps(manifest))
        loaded, _ = load_model(prefix)
        windows = np.random.default_rng(1).normal(size=(4, 5, 2))
        scaler = Standardizer(np.zeros(2), np.ones(2))
        want = MixtureForecaster(model, scaler).predict_distribution(windows)
        got = MixtureForecaster(loaded, scaler).predict_distribution(windows)
        for name in ("weights", "means", "stds"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))

    def test_v1_manifest_is_a_named_error(self, tmp_path):
        model = init_model("gru", 2, 3, dense_sizes=(4,), seed=3,
                           head=HeadSpec("mdn", 2, k=3))
        prefix = str(tmp_path / "m")
        save_model(model, prefix)
        path = tmp_path / "m.json"
        manifest = json.loads(path.read_text())
        manifest["format"] = "fleetcast-checkpoint-v1"
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=re.escape(f"{prefix}.json is a v1 "
                                                       "checkpoint") + ".*retrain"):
            load_model(prefix)
        manifest["format"] = "something-else"
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="unrecognized checkpoint format"):
            load_model(prefix)


def test_gate_count_must_match_cell_kind():
    model = init_model("lstm", 2, 3, dense_sizes=(4,), seed=0,
                       head=HeadSpec("point", 2))
    h = model.cell.hidden_size
    model.cell = CellWeights(model.cell.w[:, :3 * h], model.cell.u[:, :3 * h],
                             model.cell.b[:3 * h])
    with pytest.raises(ValueError, match="cell.w shape"):
        model.validate()
