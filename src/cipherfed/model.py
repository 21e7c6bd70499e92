"""Hybrid classifier: dense front-end, variational quantum layer, dense
read-out head, softmax cross-entropy.

The front-end activation is pi * tanh, which maps the dense output into
the embedding range [-pi, pi]. Dense gradients come from ordinary
backpropagation. The quantum layer's come from the adjoint method: the
forward pass keeps the circuit's final states, and the backward pass
hands them with the downstream readout gradient to qsim's adjoint
sweep, one per mini-batch for the angle and embedding gradients.

There is one forward and one backward implementation, `_forward` and
`_gradients`, and it runs K clients' mini-batches at once: every
parameter carries a leading client axis, each dense product runs each
client's slice as that client alone would, and the circuit takes one
angle set per client. `forward` and `loss_and_grads` are its K = 1
case. Training is plain mini-batch SGD, and `train_epochs` runs all of
a round's clients through it together, each client's weights bitwise
those it would reach alone; `evaluate_clients` scores them the same
way, and `evaluate` is its K = 1 case.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, FormatError, ShapeError
from .qsim import PqcArchitecture, _final_states, _readout_vjp, expectations
# perfbench --trace wraps these three by these names; training calls none
from .qsim import grad_angles_batch, grad_features_batch, run_pqc_batch

CHECKPOINT_MAGIC = b"CKM1"


@dataclass(frozen=True)
class TrainingConfig:
    learning_rate: float
    batch_size: int = 32
    epochs_per_round: int = 1
    rng_seed: int = 0

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ShapeError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ShapeError("batch_size must be >= 1")
        if self.epochs_per_round < 0:
            raise ShapeError("epochs_per_round must be >= 0")


@dataclass(frozen=True)
class HybridModel:
    w_in: np.ndarray    # (features, qubits)
    b_in: np.ndarray    # (qubits,)
    arch: PqcArchitecture
    angles: np.ndarray  # (depth, qubits)
    w_out: np.ndarray   # (readouts, classes)
    b_out: np.ndarray   # (classes,)

    def __post_init__(self):
        n = self.arch.qubit_count
        if self.w_in.ndim != 2 or self.w_in.shape[1] != n:
            raise ShapeError("w_in must be (features, qubit_count)")
        if self.b_in.shape != (n,):
            raise ShapeError("b_in must be (qubit_count,)")
        if self.angles.shape != (self.arch.depth, n):
            raise ShapeError("angles must be (depth, qubit_count)")
        r = len(self.arch.readout)
        if self.w_out.ndim != 2 or self.w_out.shape[0] != r:
            raise ShapeError("w_out must be (readouts, classes)")
        if self.b_out.shape != (self.w_out.shape[1],):
            raise ShapeError("b_out must be (classes,)")
        for arr in (self.w_in, self.b_in, self.angles, self.w_out, self.b_out):
            if not np.all(np.isfinite(arr)):
                raise ShapeError("model parameters must be finite")

    @property
    def feature_count(self) -> int:
        return self.w_in.shape[0]

    @property
    def class_count(self) -> int:
        return self.w_out.shape[1]

    @property
    def param_count(self) -> int:
        return (self.w_in.size + self.b_in.size + self.angles.size
                + self.w_out.size + self.b_out.size)


def init_model(feature_count: int, arch: PqcArchitecture, class_count: int,
               rng_seed: int = 0) -> HybridModel:
    """Random initialization: dense weights uniform in [-0.5, 0.5],
    angles uniform in [-pi, pi]."""
    rng = np.random.default_rng(np.random.SeedSequence([rng_seed, 0x30D]))
    n = arch.qubit_count
    r = len(arch.readout)
    return HybridModel(
        w_in=rng.uniform(-0.5, 0.5, (feature_count, n)),
        b_in=rng.uniform(-0.5, 0.5, n),
        arch=arch,
        angles=rng.uniform(-np.pi, np.pi, (arch.depth, n)),
        w_out=rng.uniform(-0.5, 0.5, (r, class_count)),
        b_out=rng.uniform(-0.5, 0.5, class_count),
    )


PARAMS = ("w_in", "b_in", "angles", "w_out", "b_out")


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def _as_features(model: HybridModel, features, min_rows: int = 0):
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or len(x) < min_rows or x.shape[1] != model.feature_count:
        raise ShapeError(f"features must be (rows >= {min_rows}, "
                         f"{model.feature_count}), got {x.shape}")
    return x


def _check_labels(model: HybridModel, labels, count: int) -> np.ndarray:
    """`count` labels as a flat int64 array of `model`'s class indices."""
    y = np.asarray(labels, dtype=np.int64).ravel()
    if y.size != count:
        raise ShapeError(f"{y.size} labels for {count} samples")
    if np.any(y < 0) or np.any(y >= model.class_count):
        raise DomainError(f"labels must lie in [0, {model.class_count})")
    return y


def check_data(model: HybridModel, features, labels):
    """A training set for `model` as (float64 (rows, features), int64
    labels), or ShapeError / DomainError."""
    x = _as_features(model, features)
    return x, _check_labels(model, labels, len(x))


def _stacked(models) -> dict:
    """The parameters of `models` stacked on a leading client axis."""
    return {name: np.array([getattr(m, name) for m in models])
            for name in PARAMS}


def _forward(p: dict, arch: PqcArchitecture, x: list):
    """Logits (K, B, classes) for K batches x, a list of (B, features)
    arrays, batch k through weights p[name][k], plus the intermediates
    `_gradients` needs. Every product runs each client's slice as the
    same BLAS call as that client alone."""
    k, b = len(x), len(x[0])
    z1 = np.array([np.matmul(xk, w) for xk, w in zip(x, p["w_in"])])
    z1 += p["b_in"][:, None]
    act = np.pi * np.tanh(z1)
    states = _final_states(act.reshape(k * b, -1), arch, p["angles"])
    readouts = expectations(states, arch).reshape(k, b, -1)
    logits = np.matmul(readouts, p["w_out"]) + p["b_out"][:, None]
    cache = {"x": x, "z1": z1, "act": act,
             "states": states.reshape(k, b, -1), "readouts": readouts}
    return logits, cache


def _gradients(p: dict, arch: PqcArchitecture, x: list, y: np.ndarray):
    """The forward and backward pass of K clients at once: batches x, a
    list of (B, features) arrays, with labels y (K, B) through weights p.
    Returns the softmax probabilities (K, B, classes) and, per parameter,
    the gradients (K, ...) of each client's mean cross-entropy over its
    own batch."""
    logits, cache = _forward(p, arch, x)
    k, b = y.shape
    probs = _softmax(logits)
    dlogits = probs.copy()
    dlogits[np.arange(k)[:, None], np.arange(b), y] -= 1.0
    dlogits /= b

    readouts = cache["readouts"]
    g_w_out = np.matmul(readouts.transpose(0, 2, 1), dlogits)
    g_b_out = np.add.reduce(dlogits, axis=1)
    d_read = np.matmul(dlogits, p["w_out"].transpose(0, 2, 1))

    g_angles, d_act = _readout_vjp(
        cache["states"].reshape(k * b, -1), cache["act"].reshape(k * b, -1),
        arch, p["angles"], d_read.reshape(k * b, -1))

    dz1 = d_act.reshape(k, b, -1) * np.pi * (1.0 - np.tanh(cache["z1"]) ** 2)
    g_w_in = np.array([np.matmul(xk.T, d) for xk, d in zip(x, dz1)])
    g_b_in = np.add.reduce(dz1, axis=1)

    grads = {"w_in": g_w_in, "b_in": g_b_in, "angles": g_angles,
             "w_out": g_w_out, "b_out": g_b_out}
    return probs, grads


def forward(model: HybridModel, batch: np.ndarray):
    """Logits for a (batch, features) matrix, plus the intermediates the
    backward pass needs: `_forward` for one client."""
    x = _as_features(model, batch, min_rows=1)
    logits, cache = _forward(_stacked([model]), model.arch, [x])
    return logits[0], {name: v[0] for name, v in cache.items()}


def loss_and_grads(model: HybridModel, batch: np.ndarray, labels):
    """Mean cross-entropy over the batch and the full gradient structure:
    `_gradients` for one client."""
    x = _as_features(model, batch, min_rows=1)
    y = _check_labels(model, labels, len(x))
    probs, grads = _gradients(_stacked([model]), model.arch, [x], y[None])
    loss = float(-np.mean(np.log(probs[0, np.arange(len(y)), y] + 1e-300)))
    return loss, {name: g[0] for name, g in grads.items()}


def flatten_weights(model: HybridModel) -> np.ndarray:
    """Fixed ordering: w_in row-major, b_in, angles layer-major, w_out
    row-major, b_out."""
    return np.concatenate([model.w_in.ravel(), model.b_in.ravel(),
                           model.angles.ravel(), model.w_out.ravel(),
                           model.b_out.ravel()])


def unflatten_weights(template: HybridModel, values) -> HybridModel:
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size != template.param_count:
        raise ShapeError(f"expected {template.param_count} values, "
                         f"got {v.size}")
    pos = 0
    parts = {}
    for name in PARAMS:
        shape = getattr(template, name).shape
        size = int(np.prod(shape))
        parts[name] = v[pos:pos + size].reshape(shape).copy()
        pos += size
    return replace(template, **parts)


def evaluate(model: HybridModel, features: np.ndarray, labels: np.ndarray,
             batch_size: int = 256):
    """(accuracy, mean loss) over a dataset: `evaluate_clients`, K = 1."""
    return evaluate_clients([model], [check_data(model, features, labels)],
                            batch_size)[0]


def evaluate_clients(models, data, batch_size: int = 256) -> list:
    """[(accuracy, mean loss)] of K models of one architecture, each over
    its own (features, labels) as `check_data` returns them. The models
    whose datasets hold as many rows run each batch as one stacked
    `_forward`, each one's numbers bitwise those of its own `evaluate`.
    Argmax ties resolve to the lowest class index."""
    groups, scores = {}, [None] * len(data)
    for k, (_, y) in enumerate(data):
        groups.setdefault(len(y), []).append(k)
    for count, ks in groups.items():
        if not count:
            raise DomainError("cannot evaluate on an empty dataset")
        p = _stacked([models[k] for k in ks])
        x, y = [data[k][0] for k in ks], np.array([data[k][1] for k in ks])
        correct, loss_sum = np.zeros((2, len(ks)))
        for start in range(0, count, batch_size):
            yb = y[:, start:start + batch_size]
            logits, _ = _forward(p, models[0].arch,
                                 [xk[start:start + batch_size] for xk in x])
            probs = _softmax(logits)
            picked = np.take_along_axis(probs, yb[..., None], -1)[..., 0]
            loss_sum -= np.add.reduce(np.log(picked + 1e-300), axis=1)
            correct += np.add.reduce(logits.argmax(axis=-1) == yb, axis=1)
        for k, right, loss in zip(ks, correct, loss_sum):
            scores[k] = (int(right) / count, float(loss) / count)
    return scores


def _batch_rows(count: int, config: TrainingConfig) -> list:
    """A client's mini-batches over config.epochs_per_round epochs, as
    row indices: each epoch a fresh permutation drawn from
    config.rng_seed, cut into batches of config.batch_size rows."""
    rng = np.random.default_rng(np.random.SeedSequence([config.rng_seed, 0x7A1]))
    batches = []
    for _ in range(config.epochs_per_round):
        order = rng.permutation(count)
        batches += [order[start:start + config.batch_size]
                    for start in range(0, count, config.batch_size)]
    return batches


def train_epochs(model: HybridModel, clients) -> list[HybridModel]:
    """Mini-batch SGD from `model` for K clients, each given as a
    (features, labels, TrainingConfig) triple; returns the K trained
    models, deterministic in each config's rng_seed.

    The clients train together: step t takes every client's t-th
    mini-batch, and the clients whose t-th batches hold the same number
    of rows run it as one stacked `_gradients` call and one update. A
    client's arithmetic is the same as alone, so its weights are bitwise
    those of a one-client call. Every client's data is checked before
    any step runs."""
    data = [check_data(model, x, y) for x, y, _ in clients]
    if not data:
        return []
    configs = [config for *_, config in clients]
    batches = [_batch_rows(len(y), config)
               for (_, y), config in zip(data, configs)]
    k_all = len(data)
    params = _stacked([model] * k_all)
    lrs = np.array([config.learning_rate for config in configs])
    rates = {name: lrs.reshape((-1,) + (1,) * (v.ndim - 1))
             for name, v in params.items()}
    for t in range(max(map(len, batches))):
        groups = {}
        for k, client_batches in enumerate(batches):
            if t < len(client_batches):
                groups.setdefault(len(client_batches[t]), []).append(k)
        for ks in groups.values():
            sel = slice(None) if len(ks) == k_all else ks
            p = {name: v[sel] for name, v in params.items()}
            x = [data[k][0][batches[k][t]] for k in ks]
            y = np.array([data[k][1][batches[k][t]] for k in ks])
            _, grads = _gradients(p, model.arch, x, y)
            for name, g in grads.items():
                params[name][sel] = p[name] - rates[name][sel] * g
    return [replace(model, **{name: v[k] for name, v in params.items()})
            for k in range(k_all)]


# --- checkpoint format ------------------------------------------------------

def save_checkpoint(model: HybridModel) -> bytes:
    """Architecture header + the flattened weight vector."""
    arch = model.arch
    axes_blob = "".join("".join(row) for row in arch.axes).encode("ascii")
    head = struct.pack("<4sHBBHB", CHECKPOINT_MAGIC, model.feature_count,
                       arch.qubit_count, arch.depth, model.class_count,
                       len(arch.readout))
    head += struct.pack(f"<{len(arch.readout)}B", *arch.readout)
    head += axes_blob
    vec = flatten_weights(model)
    return head + struct.pack("<I", vec.size) + vec.astype("<f8").tobytes()


def load_checkpoint(data: bytes) -> HybridModel:
    """Inverse of `save_checkpoint`; any malformed layout, including a
    truncated blob or trailing bytes, raises FormatError."""
    from .fhe.serial import Reader  # the model needs no FHE code otherwise
    r = Reader(data, "checkpoint")
    if r.take(4) != CHECKPOINT_MAGIC:
        raise FormatError("not a model checkpoint artifact")
    feat, nq, depth, classes, n_read = r.unpack("HBBHB")
    readout = tuple(r.take(n_read))
    try:
        axes_blob = r.take(depth * nq).decode("ascii")
    except UnicodeDecodeError as exc:
        raise FormatError("checkpoint axes are not ASCII") from exc
    axes = tuple(tuple(axes_blob[l * nq:(l + 1) * nq]) for l in range(depth))
    (count,) = r.unpack("I")
    weights = np.frombuffer(r.take(count * 8), dtype="<f8")
    r.end()
    try:
        arch = PqcArchitecture(qubit_count=nq, depth=depth, axes=axes,
                               readout=readout)
        template = HybridModel(
            w_in=np.zeros((feat, nq)), b_in=np.zeros(nq), arch=arch,
            angles=np.zeros((depth, nq)),
            w_out=np.zeros((n_read, classes)), b_out=np.zeros(classes))
        if count != template.param_count:
            raise FormatError(f"checkpoint holds {count} values, its "
                              f"architecture needs {template.param_count}")
        return unflatten_weights(template, weights)
    except ShapeError as exc:
        raise FormatError(f"invalid checkpoint: {exc}") from exc
