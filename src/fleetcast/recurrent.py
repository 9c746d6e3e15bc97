"""From-scratch recurrent sequence models with exact analytic gradients.

A GRU (or baseline LSTM) consumes a window of demand vectors; the final
hidden state runs through a small dense stack whose last layer emits the
raw head vector, either mixture parameters (3K per series) or a point
forecast (1 per series). Backpropagation through time is hand-derived
and float64 throughout; training is plain minibatch descent with
momentum, a global gradient-norm clip, and seeded shuffling so runs are
bit-reproducible. The loss follows from the head: mixture NLL for an MDN
head, squared error for a point head.

Update gate z and reset gate r use the logistic sigmoid, the candidate
state uses tanh, and the new state is the convex combination
h_t = z * h_prev + (1 - z) * candidate. The sigmoid is computed as
where(x >= 0, 1, e) / (1 + e) with e = exp(-|x|): no overflow, and the
same bits as evaluating 1/(1+exp(-x)) for x >= 0 and exp(x)/(1+exp(x))
below, so it never cancels for large negative x.

One training step is forward_pass (one cell call per step), the head
loss, backward, the global-norm clip and an in-place update. Step t's
cell call writes its gates into row t of one time-major (T, B, G*H)
array and its state into row t+1 of a (T+1, B, H) array (two for the
LSTM: h and c); backward reads all of them as views. It computes each
gate-derivative factor once per batch as a (T, B, H) array, runs the
reverse loop only for the dh (and dc) recurrence and its matmuls, and
stores every step's gate gradient in one (T, B, G*H) array, so each cell
weight gradient is one matmul over T*B rows. Its work arrays persist
across the batches of a training run (Scratch).

Each cell stores its gates fused: input weights w (I, G*H), recurrent
weights u (H, G*H) and bias b (G*H,), with the G gate blocks of width H
side by side in the order GATES gives (GRU z, r, h; LSTM i, f, o, g).
Checkpoints (format v2) store these arrays as they are, in parameters()
order; a v1 checkpoint, written one gate block at a time, is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import read_arrays, write_arrays
from .mdn import SIGMA_FLOOR, nll_and_grad_raw


class TrainingDivergedError(RuntimeError):
    pass


def sigmoid(x):
    """Logistic function. exp(-|x|) never overflows, and each sign takes
    the form that is exact for it: 1/(1+e) for x >= 0, e/(1+e) below."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


GATES = {"gru": "zrh", "lstm": "ifog"}
CHECKPOINT_FORMAT = "fleetcast-checkpoint-v2"


@dataclass
class CellWeights:
    """Fused gate weights; block j of the last axis belongs to gate j."""

    w: np.ndarray  # (I, G*H)
    u: np.ndarray  # (H, G*H)
    b: np.ndarray  # (G*H,)

    @property
    def input_size(self) -> int:
        return self.w.shape[0]

    @property
    def hidden_size(self) -> int:
        return self.u.shape[0]

    def validate(self, n_gates: int) -> None:
        i, h = self.input_size, self.hidden_size
        wants = {"w": (i, n_gates * h), "u": (h, n_gates * h), "b": (n_gates * h,)}
        for name, arr in self.arrays().items():
            if arr.shape != wants[name]:
                raise ValueError(f"cell.{name} shape {arr.shape} != {wants[name]}")
            if not np.isfinite(arr).all():
                raise ValueError(f"non-finite entries in cell.{name}")

    def arrays(self) -> dict:
        return {"w": self.w, "u": self.u, "b": self.b}


@dataclass
class DenseLayer:
    weight: np.ndarray  # (fan_in, fan_out)
    bias: np.ndarray
    activation: str = "relu"  # relu | identity

    def validate(self) -> None:
        if self.activation not in ("relu", "identity"):
            raise ValueError(f"unknown activation {self.activation}")
        if self.weight.shape[1] != self.bias.shape[0]:
            raise ValueError("dense bias shape mismatch")


@dataclass
class HeadSpec:
    """What the last dense layer's output means: per series, either the
    3K raw mixture parameters an MDN head emits (K weight logits, K
    means, K pre-softplus scales) or one point forecast."""

    kind: str  # "mdn" | "point"
    n_series: int
    k: int = 0

    @property
    def per_series(self) -> int:
        return 3 * self.k if self.kind == "mdn" else 1

    @property
    def out_dim(self) -> int:
        return self.n_series * self.per_series

    def validate(self) -> None:
        if self.kind not in ("mdn", "point"):
            raise ValueError(f"unknown head kind {self.kind}")
        if self.kind == "mdn" and self.k < 1:
            raise ValueError("mixture head needs k >= 1")
        if self.n_series < 1:
            raise ValueError("need at least one series")


@dataclass
class RecurrentModel:
    cell_kind: str  # "gru" | "lstm"
    cell: CellWeights
    dense: list[DenseLayer]
    head: HeadSpec
    window_size: int | None = None
    sigma_floor: float = SIGMA_FLOOR

    def validate(self) -> None:
        if self.cell_kind not in GATES:
            raise ValueError(f"unknown cell kind {self.cell_kind}")
        self.cell.validate(len(GATES[self.cell_kind]))
        self.head.validate()
        size = self.cell.hidden_size
        for layer in self.dense:
            layer.validate()
            if layer.weight.shape[0] != size:
                raise ValueError("dense stack dimensions do not chain")
            size = layer.weight.shape[1]
        if size != self.head.out_dim:
            raise ValueError(f"dense stack ends at {size}, head needs {self.head.out_dim}")

    def parameters(self) -> dict:
        out = {f"cell.{k}": v for k, v in self.cell.arrays().items()}
        for i, layer in enumerate(self.dense):
            out[f"dense{i}.weight"] = layer.weight
            out[f"dense{i}.bias"] = layer.bias
        return out

    def copy(self) -> "RecurrentModel":
        cell = CellWeights(**{k: v.copy() for k, v in self.cell.arrays().items()})
        dense = [DenseLayer(l.weight.copy(), l.bias.copy(), l.activation)
                 for l in self.dense]
        return RecurrentModel(self.cell_kind, cell, dense, replace(self.head),
                              self.window_size, self.sigma_floor)


@dataclass
class TrainConfig:
    learning_rate: float = 0.05
    batch_size: int = 32
    epochs: int = 100
    clip_norm: float = 5.0
    seed: int = 0
    momentum: float = 0.9

    def validate(self) -> None:
        # zero learning rate / zero epochs are legal no-ops
        if self.learning_rate < 0:
            raise ValueError("learning rate must be nonnegative")
        if self.epochs < 0:
            raise ValueError("epoch count must be nonnegative")
        if self.batch_size < 1:
            raise ValueError("batch size must be positive")
        if self.clip_norm <= 0:
            raise ValueError("clip norm must be positive")


def gru_cell_forward(x_t, h_prev, w: CellWeights, out=None):
    """One GRU step. Returns (h_t, gates): gates is one (B, 3H) array of
    the update gate z, the reset gate r and the tanh candidate, in the
    block order of w. It is `out` when the caller passes one."""
    x_t = np.atleast_2d(np.asarray(x_t, dtype=float))
    h_prev = np.atleast_2d(np.asarray(h_prev, dtype=float))
    if x_t.shape[1] != w.input_size or h_prev.shape[1] != w.hidden_size:
        raise ValueError("input/hidden sizes do not match the weights")
    h = w.hidden_size
    gates = np.empty((x_t.shape[0], 3 * h)) if out is None else out
    a = x_t @ w.w + w.b
    z, r, cand = (gates[:, k * h : (k + 1) * h] for k in range(3))
    gates[:, : 2 * h] = sigmoid(a[:, : 2 * h] + h_prev @ w.u[:, : 2 * h])
    cand[:] = np.tanh(a[:, 2 * h :] + (r * h_prev) @ w.u[:, 2 * h :])
    return z * h_prev + (1.0 - z) * cand, gates


def lstm_cell_forward(x_t, h_prev, c_prev, w: CellWeights, out=None):
    """One LSTM step with the standard gate equations. Returns (h_t, c_t,
    gates): gates is one (B, 4H) array of the i, f, o and g gates, in the
    block order of w. It is `out` when the caller passes one."""
    x_t = np.atleast_2d(np.asarray(x_t, dtype=float))
    h_prev = np.atleast_2d(np.asarray(h_prev, dtype=float))
    c_prev = np.atleast_2d(np.asarray(c_prev, dtype=float))
    if x_t.shape[1] != w.input_size or h_prev.shape[1] != w.hidden_size:
        raise ValueError("input/hidden sizes do not match the weights")
    h = w.hidden_size
    gates = np.empty((x_t.shape[0], 4 * h)) if out is None else out
    a = x_t @ w.w + h_prev @ w.u + w.b
    gates[:, : 3 * h] = sigmoid(a[:, : 3 * h])
    gates[:, 3 * h :] = np.tanh(a[:, 3 * h :])
    i, f, o, g = (gates[:, k * h : (k + 1) * h] for k in range(4))
    c_t = f * c_prev + i * g
    return o * np.tanh(c_t), c_t, gates


def _dense_forward(h, layers):
    pre = []
    post = [h]
    for layer in layers:
        a = post[-1] @ layer.weight + layer.bias
        pre.append(a)
        post.append(np.maximum(a, 0.0) if layer.activation == "relu" else a)
    return post[-1], {"pre": pre, "post": post}


def forward_pass(model: RecurrentModel, windows):
    """Run batched windows (B, T, I) through cell and dense stack.

    Returns (raw head outputs (B, out_dim), cache for backward): the
    states hs (T+1, B, H), the gates (T, B, G*H), the LSTM's cell states
    cs (T+1, B, H) or None, and the dense activations.
    """
    x = np.asarray(windows, dtype=float)
    single = x.ndim == 2
    if single:
        x = x[None]
    b, t, i = x.shape
    if i != model.cell.input_size:
        raise ValueError(f"window feature size {i} != model input {model.cell.input_size}")
    if model.window_size is not None and t != model.window_size:
        raise ValueError(f"window length {t} != model window size {model.window_size}")
    hs = np.zeros((t + 1, b, model.cell.hidden_size))
    gates = np.empty((t, b, model.cell.u.shape[1]))
    cs = None
    if model.cell_kind == "gru":
        for s in range(t):
            hs[s + 1], _ = gru_cell_forward(x[:, s], hs[s], model.cell, out=gates[s])
    else:
        cs = np.zeros_like(hs)
        for s in range(t):
            hs[s + 1], cs[s + 1], _ = lstm_cell_forward(x[:, s], hs[s], cs[s], model.cell,
                                                         out=gates[s])
    raw, dense_cache = _dense_forward(hs[t], model.dense)
    cache = {"x": x, "hs": hs, "gates": gates, "cs": cs, "dense": dense_cache}
    return (raw[0] if single else raw), cache


def head_loss_and_grad(model: RecurrentModel, raw, targets):
    """Scalar loss and its gradient with respect to the raw head outputs,
    both of shape (B, out_dim).

    An MDN head's loss averages the per-scalar mixture NLL over the B*S
    (batch, series) pairs, so its gradient is nll_and_grad_raw's divided
    by B*S; a point head's loss averages squared error.
    """
    raw = np.atleast_2d(raw)
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    b = raw.shape[0]
    s = model.head.n_series
    if targets.shape != (b, s):
        raise ValueError(f"targets shape {targets.shape} != ({b}, {s})")
    if model.head.kind == "point":
        diff = raw - targets
        return float(np.mean(diff**2)), 2.0 * diff / diff.size
    shaped = raw.reshape(b, s, model.head.per_series)
    nll, g = nll_and_grad_raw(shaped, targets, sigma_floor=model.sigma_floor)
    return float(nll.mean()), (g / (b * s)).reshape(raw.shape)


class Scratch:
    """Named work arrays kept across the batches of one training run.

    backward takes its work arrays here, about a megabyte: the (T, B, H)
    gate-derivative factors, the (T, B, G*H) gate gradient and the dense
    weight gradients. It reads the forward cache in place. Allocated
    fresh, the allocator hands those pages back to the system after
    every batch and faults them in again on the next; held here, they
    are touched once. A request smaller than the held array (the short
    last batch) gets a view of its front.
    """

    def __init__(self):
        self._flat = {}

    def __call__(self, key: str, shape) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(key)
        if flat is None or flat.size < size:
            flat = self._flat[key] = np.empty(size)
        return flat[:size].reshape(shape)


def _fresh(key, shape):
    return np.empty(shape)


def _sigmoid_factor(a, s, out, tmp):
    """out = a * s * (1 - s): a times the derivative of a sigmoid gate s."""
    np.multiply(a, s, out=out)
    np.subtract(1.0, s, out=tmp)
    out *= tmp
    return out


def _tanh_factor(a, t, out, tmp):
    """out = a * (1 - t**2): a times the derivative of a tanh output t."""
    np.square(t, out=tmp)
    np.subtract(1.0, tmp, out=tmp)
    return np.multiply(a, tmp, out=out)


def backward(model: RecurrentModel, cache, d_raw, scratch=_fresh):
    """Exact gradients of a scalar loss given d(loss)/d(raw head outputs).

    Every gate-derivative factor that depends only on the forward pass is
    computed once for all T steps as a (T, B, H) array; the reverse loop
    keeps only the recurrence on dh (and dc) and writes each step's gate
    pre-activation gradient into one (T, B, G*H) array, from which each
    cell gradient is one matmul or sum over T*B rows. Work arrays come
    from `scratch` (a Scratch during training), so the returned dense
    weight gradients may be views into it.
    """
    grads = dict.fromkeys(model.parameters())  # parameter order, for the clip norm
    d = np.atleast_2d(d_raw)
    dense_cache = cache["dense"]
    for idx in range(len(model.dense) - 1, -1, -1):
        layer = model.dense[idx]
        pre = dense_cache["pre"][idx]
        inp = dense_cache["post"][idx]
        da = d * (pre > 0) if layer.activation == "relu" else d
        grads[f"dense{idx}.weight"] = np.matmul(
            inp.T, da, out=scratch(f"dense{idx}.weight", layer.weight.shape))
        grads[f"dense{idx}.bias"] = da.sum(axis=0)
        d = da @ layer.weight.T
    dh = d

    x, hs, gates = cache["x"], cache["hs"], cache["gates"]
    t, n = gates.shape[:2]
    u = model.cell.u
    h = model.cell.hidden_size
    shape = (t, n, h)
    h_prev = hs[:-1]
    tmp = scratch("tmp", shape)
    da = scratch("da", gates.shape)
    if model.cell_kind == "gru":
        z, r, cand = (gates[..., k * h : (k + 1) * h] for k in range(3))
        f_h, f_z = scratch("f_h", shape), scratch("f_z", shape)
        _tanh_factor(np.subtract(1.0, z, out=f_h), cand, f_h, tmp)
        _sigmoid_factor(np.subtract(h_prev, cand, out=f_z), z, f_z, tmp)
        f_r = _sigmoid_factor(h_prev, r, scratch("f_r", shape), tmp)
        u_zr, u_h = u[:, : 2 * h].T, u[:, 2 * h :].T
        for s in range(t - 1, -1, -1):
            np.multiply(dh, f_h[s], out=da[s, :, 2 * h :])
            dh_cand = da[s, :, 2 * h :] @ u_h  # d(loss)/d(r * h_prev)
            np.multiply(dh, f_z[s], out=da[s, :, :h])
            np.multiply(dh_cand, f_r[s], out=da[s, :, h : 2 * h])
            dh = dh * z[s] + da[s, :, : 2 * h] @ u_zr + dh_cand * r[s]
        rows = da.reshape(t * n, -1)
        # the candidate's recurrent input is r * h_prev, not h_prev
        rh = np.multiply(r, h_prev, out=tmp).reshape(-1, h)
        gu = np.hstack([h_prev.reshape(-1, h).T @ rows[:, : 2 * h],
                        rh.T @ rows[:, 2 * h :]])
    else:
        i, f, o, g = (gates[..., k * h : (k + 1) * h] for k in range(4))
        c_prev, c = cache["cs"][:-1], cache["cs"][1:]
        tc = np.tanh(c, out=scratch("tc", shape))
        f_c = _tanh_factor(o, tc, scratch("f_c", shape), tmp)
        f_i = _sigmoid_factor(g, i, scratch("f_i", shape), tmp)
        f_f = _sigmoid_factor(c_prev, f, scratch("f_f", shape), tmp)
        f_o = _sigmoid_factor(tc, o, scratch("f_o", shape), tmp)
        f_g = _tanh_factor(i, g, scratch("f_g", shape), tmp)
        ut = u.T
        dc = np.zeros_like(dh)
        for s in range(t - 1, -1, -1):
            dc = dc + dh * f_c[s]
            np.multiply(dc, f_i[s], out=da[s, :, :h])
            np.multiply(dc, f_f[s], out=da[s, :, h : 2 * h])
            np.multiply(dh, f_o[s], out=da[s, :, 2 * h : 3 * h])
            np.multiply(dc, f_g[s], out=da[s, :, 3 * h :])
            dh = da[s] @ ut
            dc = dc * f[s]
        rows = da.reshape(t * n, -1)
        gu = h_prev.reshape(-1, h).T @ rows
    grads["cell.w"] = x.swapaxes(0, 1).reshape(t * n, -1).T @ rows
    grads["cell.u"] = gu
    grads["cell.b"] = rows.sum(axis=0)
    return grads


def _clip_global_norm(grads, clip):
    norm = np.sqrt(sum(float(np.vdot(g, g)) for g in grads.values()))
    if norm > clip:
        scale = clip / norm
        for g in grads.values():
            g *= scale
    return norm


def _momentum_step(p, g, v, lr, momentum):
    """v = momentum*v + g; p -= lr*v, in place; g is overwritten."""
    v *= momentum
    v += g
    np.multiply(v, lr, out=g)
    p -= g


def train(model: RecurrentModel, windows, cfg: TrainConfig):
    """Minibatch training over a window set; mutates and returns the model.

    History has one mean-loss entry per epoch. Identical (model init,
    windows, cfg) produce bit-identical histories and parameters. A
    non-finite batch loss aborts with the epoch and batch named.
    """
    cfg.validate()
    model.validate()
    inputs = np.asarray(windows.inputs, dtype=float)
    targets = np.asarray(windows.targets, dtype=float)
    if inputs.shape[0] == 0:
        raise ValueError("empty window set")

    rng = np.random.default_rng(cfg.seed)
    params = model.parameters()
    velocity = {name: np.zeros_like(p) for name, p in params.items()}
    scratch = Scratch()
    history = []
    n = inputs.shape[0]
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_losses = []
        # A diverging run overflows on its way to a non-finite loss; the checks
        # below report it as TrainingDivergedError, so numpy need not warn.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for b0 in range(0, n, cfg.batch_size):
                sel = order[b0 : b0 + cfg.batch_size]
                raw, fwd_cache = forward_pass(model, inputs[sel])
                value, d_raw = head_loss_and_grad(model, raw, targets[sel])
                if not np.isfinite(value):
                    raise TrainingDivergedError(
                        f"non-finite loss at epoch {epoch}, batch {b0 // cfg.batch_size}")
                grads = backward(model, fwd_cache, d_raw, scratch)
                _clip_global_norm(grads, cfg.clip_norm)
                for name, p in params.items():
                    _momentum_step(p, grads[name], velocity[name], cfg.learning_rate,
                                   cfg.momentum)
                epoch_losses.append(value)
        history.append(float(np.mean(epoch_losses)))
        for p in params.values():
            if not np.isfinite(p).all():
                raise TrainingDivergedError(
                    f"non-finite parameters after epoch {epoch}")
    return model, history


def _uniform(rng, fan_in, shape):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def init_model(cell_kind: str, input_size: int, hidden_size: int,
               dense_sizes=(256, 128), head: HeadSpec | None = None,
               seed: int = 0, window_size: int | None = None,
               sigma_floor: float = SIGMA_FLOOR) -> RecurrentModel:
    """Seeded initialization: recurrent matrices uniform(-1/sqrt(H), 1/sqrt(H)),
    input and dense weights uniform over 1/sqrt(fan_in), biases zero."""
    if head is None:
        head = HeadSpec("mdn", n_series=input_size, k=3)
    head.validate()
    rng = np.random.default_rng(seed)
    h = hidden_size
    if cell_kind not in GATES:
        raise ValueError(f"unknown cell kind {cell_kind}")
    gates = GATES[cell_kind]
    # one block per gate, drawn in gate order so a seed keeps its weights
    cell = CellWeights(
        w=np.hstack([_uniform(rng, input_size, (input_size, h)) for _ in gates]),
        u=np.hstack([_uniform(rng, h, (h, h)) for _ in gates]),
        b=np.zeros(len(gates) * h),
    )
    dense = []
    fan_in = h
    for size in dense_sizes:
        dense.append(DenseLayer(_uniform(rng, fan_in, (fan_in, size)),
                                np.zeros(size), "relu"))
        fan_in = size
    dense.append(DenseLayer(_uniform(rng, fan_in, (fan_in, head.out_dim)),
                            np.zeros(head.out_dim), "identity"))
    model = RecurrentModel(cell_kind, cell, dense, head, window_size, sigma_floor)
    model.validate()
    return model


def save_model(model: RecurrentModel, prefix: str, extra: dict | None = None) -> None:
    """Checkpoint = JSON manifest plus little-endian float64 sidecar holding
    model.parameters() in order, written by `data.write_arrays`."""
    write_arrays(prefix, {
        "format": CHECKPOINT_FORMAT,
        "cell_kind": model.cell_kind,
        "head": {"kind": model.head.kind, "n_series": model.head.n_series,
                 "k": model.head.k},
        "dense_activations": [l.activation for l in model.dense],
        "window_size": model.window_size,
        "sigma_floor": model.sigma_floor,
        "extra": extra or {},
    }, model.parameters())


def load_model(prefix: str) -> tuple[RecurrentModel, dict]:
    def check(manifest):
        if manifest.get("format") == "fleetcast-checkpoint-v1":
            raise ValueError(f"{prefix}.json is a v1 checkpoint (one array per gate), "
                             "which fleetcast no longer reads; retrain the model")
        if manifest.get("format") != CHECKPOINT_FORMAT:
            raise ValueError("unrecognized checkpoint format")

    manifest, arrays = read_arrays(prefix, "checkpoint manifest", check)
    window_size = manifest.get("window_size")
    if window_size is not None and (type(window_size) is not int or window_size < 1):
        raise ValueError(f"checkpoint manifest {prefix}.json has window_size "
                         f"{window_size!r}; it must be null or a positive integer")
    try:
        cell = CellWeights(arrays["cell.w"], arrays["cell.u"], arrays["cell.b"])
        acts = manifest["dense_activations"]
        dense = [DenseLayer(arrays[f"dense{i}.weight"], arrays[f"dense{i}.bias"], acts[i])
                 for i in range(len(acts))]
        hd = manifest["head"]
        head = HeadSpec(hd["kind"], hd["n_series"], hd["k"])
        model = RecurrentModel(manifest["cell_kind"], cell, dense, head, window_size,
                               manifest.get("sigma_floor", SIGMA_FLOOR))
    except (KeyError, TypeError) as exc:
        what = (f"no {exc.args[0]!r} entry" if isinstance(exc, KeyError)
                else f"an entry of the wrong kind ({exc})")
        raise ValueError(f"checkpoint manifest {prefix}.json has {what}") from None
    model.validate()
    return model, manifest.get("extra", {})
