"""Hybrid classifier: dense front-end, variational quantum layer, dense
read-out head, softmax cross-entropy.

The front-end activation is pi * tanh, which maps the dense output into
the embedding range [-pi, pi]. Dense gradients come from ordinary
backpropagation. The quantum layer's come from the adjoint method:
`forward` keeps the circuit's final states, and `loss_and_grads` hands
them with the downstream readout gradient to `qsim.readout_vjp`, one
backward sweep per mini-batch for the angle and embedding gradients.
Training is plain mini-batch SGD.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, FormatError, ShapeError
from .qsim import PqcArchitecture, expectations, final_states, readout_vjp
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


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def forward(model: HybridModel, batch: np.ndarray):
    """Logits for a (batch, features) matrix, plus the intermediates the
    backward pass needs."""
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0 or x.shape[1] != model.feature_count:
        raise ShapeError(f"batch must be (B >= 1, {model.feature_count})")
    z1 = x @ model.w_in + model.b_in
    act = np.pi * np.tanh(z1)
    states = final_states(act, model.arch, model.angles)
    readouts = expectations(states, model.arch)
    logits = readouts @ model.w_out + model.b_out
    cache = {"x": x, "z1": z1, "act": act, "states": states,
             "readouts": readouts}
    return logits, cache


def _check_labels(model: HybridModel, labels, count: int) -> np.ndarray:
    """`count` labels as a flat int64 array of `model`'s class indices."""
    y = np.asarray(labels, dtype=np.int64).ravel()
    if y.size != count:
        raise ShapeError(f"{y.size} labels for {count} samples")
    if np.any(y < 0) or np.any(y >= model.class_count):
        raise DomainError(f"labels must lie in [0, {model.class_count})")
    return y


def loss_and_grads(model: HybridModel, batch: np.ndarray, labels):
    """Mean cross-entropy over the batch and the full gradient structure."""
    logits, cache = forward(model, batch)
    b = logits.shape[0]
    y = _check_labels(model, labels, b)
    probs = _softmax(logits)
    loss = float(-np.mean(np.log(probs[np.arange(b), y] + 1e-300)))

    dlogits = probs.copy()
    dlogits[np.arange(b), y] -= 1.0
    dlogits /= b

    readouts = cache["readouts"]
    g_w_out = readouts.T @ dlogits
    g_b_out = dlogits.sum(axis=0)
    d_read = dlogits @ model.w_out.T  # (B, readouts)

    g_angles, d_act = readout_vjp(cache["states"], cache["act"], model.arch,
                                  model.angles, d_read)

    dz1 = d_act * np.pi * (1.0 - np.tanh(cache["z1"]) ** 2)
    g_w_in = cache["x"].T @ dz1
    g_b_in = dz1.sum(axis=0)

    grads = {"w_in": g_w_in, "b_in": g_b_in, "angles": g_angles,
             "w_out": g_w_out, "b_out": g_b_out}
    return loss, grads


def sgd_step(model: HybridModel, grads: dict, learning_rate: float) -> HybridModel:
    """One gradient-descent update: every parameter moves by -lr * grad."""
    for name in ("w_in", "b_in", "angles", "w_out", "b_out"):
        if grads[name].shape != getattr(model, name).shape:
            raise ShapeError(f"gradient shape mismatch on {name}")
    lr = float(learning_rate)
    return replace(
        model,
        w_in=model.w_in - lr * grads["w_in"],
        b_in=model.b_in - lr * grads["b_in"],
        angles=model.angles - lr * grads["angles"],
        w_out=model.w_out - lr * grads["w_out"],
        b_out=model.b_out - lr * grads["b_out"],
    )


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
    for name in ("w_in", "b_in", "angles", "w_out", "b_out"):
        shape = getattr(template, name).shape
        size = int(np.prod(shape))
        parts[name] = v[pos:pos + size].reshape(shape).copy()
        pos += size
    return replace(template, **parts)


def evaluate(model: HybridModel, features: np.ndarray, labels: np.ndarray,
             batch_size: int = 256):
    """(accuracy, mean loss) over a dataset; argmax ties resolve to the
    lowest class index."""
    x = np.asarray(features, dtype=np.float64)
    y = _check_labels(model, labels, x.shape[0])
    if x.shape[0] == 0:
        raise DomainError("cannot evaluate on an empty dataset")
    correct = 0
    loss_sum = 0.0
    for start in range(0, x.shape[0], batch_size):
        xb = x[start:start + batch_size]
        yb = y[start:start + batch_size]
        logits, _ = forward(model, xb)
        probs = _softmax(logits)
        loss_sum += float(-np.sum(np.log(probs[np.arange(len(yb)), yb] + 1e-300)))
        correct += int(np.sum(np.argmax(logits, axis=1) == yb))
    return correct / x.shape[0], loss_sum / x.shape[0]


def train_epochs(model: HybridModel, features: np.ndarray, labels: np.ndarray,
                 config: TrainingConfig) -> HybridModel:
    """Mini-batch SGD for config.epochs_per_round epochs; deterministic
    in config.rng_seed."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64).ravel()
    rng = np.random.default_rng(np.random.SeedSequence([config.rng_seed, 0x7A1]))
    for _ in range(config.epochs_per_round):
        order = rng.permutation(x.shape[0])
        for start in range(0, x.shape[0], config.batch_size):
            sel = order[start:start + config.batch_size]
            _, grads = loss_and_grads(model, x[sel], y[sel])
            model = sgd_step(model, grads, config.learning_rate)
    return model


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
