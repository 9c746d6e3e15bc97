"""From-scratch recurrent sequence models with exact analytic gradients.

A GRU (or baseline LSTM) consumes a window of demand vectors; the final
hidden state runs through a small dense stack whose last layer emits the
raw head vector, either mixture parameters (3K per series) or a point
forecast (1 per series). Backpropagation through time is hand-derived
and float64 throughout; training is plain minibatch descent with
momentum or adaptive moments, a global gradient-norm clip, and seeded
shuffling so runs are bit-reproducible.

Update gate z and reset gate r use the logistic sigmoid, the candidate
state uses tanh, and the new state is the convex combination
h_t = z * h_prev + (1 - z) * candidate.

Each cell stores its gates fused: input weights w (I, G*H), recurrent
weights u (H, G*H) and bias b (G*H,), with the G gate blocks of width H
side by side in the order GATES gives (GRU z, r, h; LSTM i, f, o, g).
Checkpoints keep the per-gate v1 layout: save_model splits the blocks
into cell.w_z ... cell.b_g and load_model stacks them again.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace

import numpy as np

from .mdn import SIGMA_FLOOR, nll_and_grad_raw


class TrainingDivergedError(RuntimeError):
    pass


def sigmoid(x):
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


GATES = {"gru": "zrh", "lstm": "ifog"}


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
    """What the last dense layer's output means."""

    kind: str  # "mdn" | "point"
    n_series: int
    k: int = 0
    aux_point: bool = False  # extra per-series scalar alongside the mixture

    @property
    def per_series(self) -> int:
        if self.kind == "mdn":
            return 3 * self.k + (1 if self.aux_point else 0)
        return 1

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

    def set_parameter(self, name: str, value: np.ndarray) -> None:
        scope, attr = name.split(".")
        if scope == "cell":
            setattr(self.cell, attr, value)
        else:
            setattr(self.dense[int(scope[5:])], attr, value)

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
    optimizer: str = "momentum"  # momentum | adam
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
        if self.optimizer not in ("momentum", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer}")


def gru_cell_forward(x_t, h_prev, w: CellWeights):
    """One GRU step. Returns (h_t, cache) where cache holds the update
    gate z, reset gate r, and the tanh candidate."""
    x_t = np.atleast_2d(np.asarray(x_t, dtype=float))
    h_prev = np.atleast_2d(np.asarray(h_prev, dtype=float))
    if x_t.shape[1] != w.input_size or h_prev.shape[1] != w.hidden_size:
        raise ValueError("input/hidden sizes do not match the weights")
    h = w.hidden_size
    a = x_t @ w.w + w.b
    zr = sigmoid(a[:, : 2 * h] + h_prev @ w.u[:, : 2 * h])
    z, r = zr[:, :h], zr[:, h:]
    cand = np.tanh(a[:, 2 * h :] + (r * h_prev) @ w.u[:, 2 * h :])
    h_t = z * h_prev + (1.0 - z) * cand
    return h_t, {"z": z, "r": r, "cand": cand}


def lstm_cell_forward(x_t, h_prev, c_prev, w: CellWeights):
    """One LSTM step with the standard gate equations."""
    x_t = np.atleast_2d(np.asarray(x_t, dtype=float))
    h_prev = np.atleast_2d(np.asarray(h_prev, dtype=float))
    c_prev = np.atleast_2d(np.asarray(c_prev, dtype=float))
    if x_t.shape[1] != w.input_size or h_prev.shape[1] != w.hidden_size:
        raise ValueError("input/hidden sizes do not match the weights")
    h = w.hidden_size
    a = x_t @ w.w + h_prev @ w.u + w.b
    ifo = sigmoid(a[:, : 3 * h])
    i, f, o = ifo[:, :h], ifo[:, h : 2 * h], ifo[:, 2 * h :]
    g = np.tanh(a[:, 3 * h :])
    c_t = f * c_prev + i * g
    h_t = o * np.tanh(c_t)
    return h_t, c_t, {"i": i, "f": f, "o": o, "g": g, "c_t": c_t}


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

    Returns (raw head outputs (B, out_dim), cache for backward).
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
    hsize = model.cell.hidden_size
    h = np.zeros((b, hsize))
    hs = [h]
    steps = []
    if model.cell_kind == "gru":
        for s in range(t):
            h, cache = gru_cell_forward(x[:, s], h, model.cell)
            hs.append(h)
            steps.append(cache)
    else:
        c = np.zeros((b, hsize))
        for s in range(t):
            h, c, cache = lstm_cell_forward(x[:, s], h, c, model.cell)
            hs.append(h)
            steps.append(cache)
    raw, dense_cache = _dense_forward(h, model.dense)
    cache = {"x": x, "hs": hs, "steps": steps, "dense": dense_cache,
             "single": single}
    return (raw[0] if single else raw), cache


def sequence_forward(window, model: RecurrentModel):
    """Raw head vector for one window (or a batch of windows)."""
    raw, _ = forward_pass(model, window)
    return raw


def head_loss_and_grad(model: RecurrentModel, raw, targets, loss: str):
    """Scalar loss and its gradient with respect to the raw head outputs.

    gmm_nll averages the per-scalar mixture NLL over batch and series
    (plus a squared-error term for the optional auxiliary point output);
    mse averages squared error.
    """
    raw = np.atleast_2d(raw)
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    b = raw.shape[0]
    s = model.head.n_series
    if targets.shape != (b, s):
        raise ValueError(f"targets shape {targets.shape} != ({b}, {s})")
    grad = np.zeros_like(raw)
    if loss == "mse":
        diff = raw - targets
        grad[:] = 2.0 * diff / diff.size
        return float(np.mean(diff**2)), grad
    if loss != "gmm_nll":
        raise ValueError(f"unknown loss {loss}")
    per = model.head.per_series
    k3 = 3 * model.head.k
    shaped = raw.reshape(b, s, per)
    nll, g = nll_and_grad_raw(shaped[..., :k3], targets, sigma_floor=model.sigma_floor)
    gshaped = grad.reshape(b, s, per)
    gshaped[..., :k3] = g / (b * s)
    total = float(nll.mean())
    if model.head.aux_point:
        diff = shaped[..., k3] - targets
        total += float(np.mean(diff**2))
        gshaped[..., k3] = 2.0 * diff / diff.size
    return total, grad


def _zero_grads(model):
    return {name: np.zeros_like(arr) for name, arr in model.parameters().items()}


def backward(model: RecurrentModel, cache, d_raw):
    """Exact gradients of a scalar loss given d(loss)/d(raw head outputs)."""
    grads = _zero_grads(model)
    d = np.atleast_2d(d_raw)
    dense_cache = cache["dense"]
    for idx in range(len(model.dense) - 1, -1, -1):
        layer = model.dense[idx]
        pre = dense_cache["pre"][idx]
        inp = dense_cache["post"][idx]
        da = d * (pre > 0) if layer.activation == "relu" else d
        grads[f"dense{idx}.weight"] += inp.T @ da
        grads[f"dense{idx}.bias"] += da.sum(axis=0)
        d = da @ layer.weight.T
    dh = d

    x = cache["x"]
    hs = cache["hs"]
    steps = cache["steps"]
    u = model.cell.u
    h = model.cell.hidden_size
    gw, gu, gb = grads["cell.w"], grads["cell.u"], grads["cell.b"]
    if model.cell_kind == "gru":
        for s in range(len(steps) - 1, -1, -1):
            st = steps[s]
            z, r, cand = st["z"], st["r"], st["cand"]
            h_prev = hs[s]
            da_h = dh * (1.0 - z) * (1.0 - cand**2)
            dh_cand = da_h @ u[:, 2 * h :].T  # d(loss)/d(r * h_prev)
            da = np.hstack([dh * (h_prev - cand) * z * (1.0 - z),
                            dh_cand * h_prev * r * (1.0 - r), da_h])
            gw += x[:, s].T @ da
            # the candidate's recurrent input is r * h_prev, not h_prev
            gu[:, : 2 * h] += h_prev.T @ da[:, : 2 * h]
            gu[:, 2 * h :] += (r * h_prev).T @ da_h
            gb += da.sum(axis=0)
            dh = dh * z + da[:, : 2 * h] @ u[:, : 2 * h].T + dh_cand * r
    else:
        dc = np.zeros_like(dh)
        for s in range(len(steps) - 1, -1, -1):
            st = steps[s]
            i, f, o, g, c_t = st["i"], st["f"], st["o"], st["g"], st["c_t"]
            c_prev = steps[s - 1]["c_t"] if s > 0 else np.zeros_like(c_t)
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


def loss_and_grads(model: RecurrentModel, inputs, targets, loss: str):
    """Forward, head loss, and full backward in one call."""
    raw, cache = forward_pass(model, inputs)
    value, d_raw = head_loss_and_grad(model, raw, targets, loss)
    return value, backward(model, cache, d_raw)


def compute_loss(model: RecurrentModel, inputs, targets, loss: str) -> float:
    """Forward-only loss; the quantity finite differences differentiate."""
    raw, _ = forward_pass(model, inputs)
    value, _ = head_loss_and_grad(model, raw, targets, loss)
    return value


def _clip_global_norm(grads, clip):
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    norm = np.sqrt(total)
    if norm > clip:
        scale = clip / norm
        for g in grads.values():
            g *= scale
    return norm


def train(model: RecurrentModel, windows, cfg: TrainConfig, loss: str | None = None):
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
    if loss is None:
        loss = "gmm_nll" if model.head.kind == "mdn" else "mse"

    rng = np.random.default_rng(cfg.seed)
    params = model.parameters()
    state = {name: {"v": np.zeros_like(p), "m": np.zeros_like(p)}
             for name, p in params.items()}
    adam_t = 0
    history = []
    n = inputs.shape[0]
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for b0 in range(0, n, cfg.batch_size):
            sel = order[b0 : b0 + cfg.batch_size]
            raw, fwd_cache = forward_pass(model, inputs[sel])
            value, d_raw = head_loss_and_grad(model, raw, targets[sel], loss)
            if not np.isfinite(value):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch {b0 // cfg.batch_size}")
            grads = backward(model, fwd_cache, d_raw)
            _clip_global_norm(grads, cfg.clip_norm)
            if cfg.optimizer == "momentum":
                for name, p in params.items():
                    st = state[name]
                    st["v"] = cfg.momentum * st["v"] + grads[name]
                    p -= cfg.learning_rate * st["v"]
            else:
                adam_t += 1
                b1, b2, eps = 0.9, 0.999, 1e-8
                for name, p in params.items():
                    st = state[name]
                    st["m"] = b1 * st["m"] + (1 - b1) * grads[name]
                    st["v"] = b2 * st["v"] + (1 - b2) * grads[name] ** 2
                    mhat = st["m"] / (1 - b1**adam_t)
                    vhat = st["v"] / (1 - b2**adam_t)
                    p -= cfg.learning_rate * mhat / (np.sqrt(vhat) + eps)
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
    """Checkpoint = JSON manifest plus a flat little-endian float64 sidecar.

    The fused cell arrays are written one gate block at a time under the
    v1 names (cell.w_z, cell.w_r, ... cell.b_h for a GRU).
    """
    params = model.parameters()
    h = model.cell.hidden_size
    arrays = {}
    for name in ("w", "u", "b"):
        fused = params.pop(f"cell.{name}")
        for j, gate in enumerate(GATES[model.cell_kind]):
            arrays[f"cell.{name}_{gate}"] = fused[..., j * h : (j + 1) * h]
    arrays.update(params)
    manifest = {
        "format": "fleetcast-checkpoint-v1",
        "cell_kind": model.cell_kind,
        "head": {"kind": model.head.kind, "n_series": model.head.n_series,
                 "k": model.head.k, "aux_point": model.head.aux_point},
        "dense_activations": [l.activation for l in model.dense],
        "window_size": model.window_size,
        "sigma_floor": model.sigma_floor,
        "arrays": [],
        "extra": extra or {},
    }
    offset = 0
    payload = bytearray()
    for name, arr in arrays.items():
        flat = np.ascontiguousarray(arr, dtype="<f8")
        manifest["arrays"].append({"name": name, "shape": list(arr.shape),
                                   "offset": offset})
        payload.extend(flat.tobytes())
        offset += flat.size
    with open(f"{prefix}.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(f"{prefix}.bin", "wb") as fh:
        fh.write(bytes(payload))


def load_model(prefix: str) -> tuple[RecurrentModel, dict]:
    with open(f"{prefix}.json") as fh:
        manifest = json.load(fh)
    if manifest.get("format") != "fleetcast-checkpoint-v1":
        raise ValueError("unrecognized checkpoint format")
    gates = GATES.get(manifest["cell_kind"])
    if gates is None:
        raise ValueError(f"unknown cell kind {manifest['cell_kind']}")
    sizes = [int(np.prod(entry["shape"])) for entry in manifest["arrays"]]
    need = 8 * max((e["offset"] + n for e, n in zip(manifest["arrays"], sizes)), default=0)
    have = os.path.getsize(f"{prefix}.bin")
    if have != need:
        raise ValueError(f"{prefix}.bin holds {have} bytes, its manifest implies {need}")
    raw = np.fromfile(f"{prefix}.bin", dtype="<f8")
    arrays = {}
    for entry, size in zip(manifest["arrays"], sizes):
        arrays[entry["name"]] = raw[entry["offset"] : entry["offset"] + size] \
            .reshape(entry["shape"]).astype(float)
    cell = CellWeights(*(np.hstack([arrays[f"cell.{name}_{gate}"] for gate in gates])
                         for name in ("w", "u", "b")))
    acts = manifest["dense_activations"]
    dense = [DenseLayer(arrays[f"dense{i}.weight"], arrays[f"dense{i}.bias"], acts[i])
             for i in range(len(acts))]
    hd = manifest["head"]
    head = HeadSpec(hd["kind"], hd["n_series"], hd["k"], hd["aux_point"])
    model = RecurrentModel(manifest["cell_kind"], cell, dense, head,
                           manifest.get("window_size"),
                           manifest.get("sigma_floor", SIGMA_FLOOR))
    model.validate()
    return model, manifest.get("extra", {})
