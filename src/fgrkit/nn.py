"""Linear autoencoder with focal reconstruction and decorrelation losses.

Forward maps (all float64, batches row-wise):

    Z    = X W_e^T + b_e                      (encoder, no activation)
    Xhat = sigmoid(Z W_d^T + b_d)             (decoder; tied => W_d = W_e^T)
    Yhat = act(H W_f^T + b_f),  H = [Z | D]   (head; sigmoid iff classification)

Losses: masked BCE / smooth-L1 supervised term, focal-weighted per-row
reconstruction BCE with p_t = exp(-BCE), and the squared off-diagonal
covariance penalty. Total = L_e + alpha * L_r + beta * L_ubc.

Gradients are exact analytic derivatives of the total loss, including the
tied-weight case (encoder and decoder contributions accumulate into W_e)
and the focal chain through p_t. The sigmoid-BCE path is differentiated
through the logits, so the probability clamp (eps=1e-7, applied when
losses are evaluated from probabilities) never enters the gradient math;
the two views agree unless a probability actually hits the clamp.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import (
    AllMasked,
    BatchTooSmall,
    CheckpointError,
    NonFiniteGradient,
    ShapeMismatch,
    VocabMismatch,
)

EPS = 1e-7
SMOOTH_L1_DELTA = 1.0

CLASSIFICATION = "classification"
REGRESSION = "regression"


@dataclass(frozen=True)
class ModelHyper:
    """Architecture and loss hyperparameters (defaults are ours, not the
    upstream-reported values, and everything is config-exposed)."""

    l: int = 512
    tied: bool = True
    alpha_t: float = 0.25
    gamma: float = 2.0
    alpha: float = 0.1
    beta: float = 0.01
    task: str = CLASSIFICATION
    use_descriptors: bool = False
    descriptor_dim: int = 0

    @property
    def head_width(self) -> int:
        return self.l + (self.descriptor_dim if self.use_descriptors else 0)


@dataclass
class ModelState:
    """Checkpointable parameter set; treat as immutable between steps."""

    hyper: ModelHyper
    p: int
    k: int
    W_e: np.ndarray
    b_e: np.ndarray
    b_d: np.ndarray
    W_f: np.ndarray
    b_f: np.ndarray
    W_d: np.ndarray | None = None  # absent when tied
    fingerprints: dict = field(default_factory=dict)

    def decoder_weight(self) -> np.ndarray:
        return self.W_e.T if self.hyper.tied else self.W_d

    def param_names(self) -> list[str]:
        names = ["W_e", "b_e"]
        if not self.hyper.tied:
            names.append("W_d")
        names += ["b_d", "W_f", "b_f"]
        return names

    def params(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self.param_names()}

    def with_params(self, new: dict[str, np.ndarray]) -> "ModelState":
        return replace(self, **new)


@dataclass
class Batch:
    X: np.ndarray                 # (n, p) multi-hot
    Y: np.ndarray                 # (n, k) targets
    M: np.ndarray                 # (n, k) mask, 1 = label present
    D: np.ndarray | None = None   # (n, d) normalized descriptors


def init_model(p: int, k: int, hyper: ModelHyper, seed: int,
               fingerprints: dict | None = None) -> ModelState:
    """Glorot-uniform weights, zero biases, deterministic given the seed."""
    rng = np.random.default_rng(seed)

    def glorot(fan_out, fan_in):
        s = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-s, s, size=(fan_out, fan_in))

    W_e = glorot(hyper.l, p)
    W_d = None if hyper.tied else glorot(p, hyper.l)
    W_f = glorot(k, hyper.head_width)
    return ModelState(hyper=hyper, p=p, k=k,
                      W_e=W_e, b_e=np.zeros(hyper.l),
                      W_d=W_d, b_d=np.zeros(p),
                      W_f=W_f, b_f=np.zeros(k),
                      fingerprints=dict(fingerprints or {}))


def sigmoid(a: np.ndarray) -> np.ndarray:
    out = np.empty_like(a, dtype=np.float64)
    pos = a >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    ea = np.exp(a[~pos])
    out[~pos] = ea / (1.0 + ea)
    return out


def _softplus(a: np.ndarray) -> np.ndarray:
    return np.maximum(a, 0.0) + np.log1p(np.exp(-np.abs(a)))


def forward_encoder(X: np.ndarray, state: ModelState) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != state.p:
        raise ShapeMismatch(f"X must be (n, {state.p}), got {X.shape}")
    return X @ state.W_e.T + state.b_e


def forward_decoder(Z: np.ndarray, state: ModelState) -> np.ndarray:
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[1] != state.hyper.l:
        raise ShapeMismatch(f"Z must be (n, {state.hyper.l}), got {Z.shape}")
    return sigmoid(Z @ state.decoder_weight().T + state.b_d)


def predict_head(Z: np.ndarray, D: np.ndarray | None, state: ModelState) -> np.ndarray:
    H = _head_input(Z, D, state)
    Ylin = H @ state.W_f.T + state.b_f
    return sigmoid(Ylin) if state.hyper.task == CLASSIFICATION else Ylin


def _head_input(Z: np.ndarray, D: np.ndarray | None, state: ModelState) -> np.ndarray:
    if state.hyper.use_descriptors:
        if D is None:
            raise ShapeMismatch("model expects descriptors but batch has none")
        if D.shape != (Z.shape[0], state.hyper.descriptor_dim):
            raise ShapeMismatch(
                f"D must be (n, {state.hyper.descriptor_dim}), got {D.shape}")
        return np.concatenate([Z, np.asarray(D, dtype=np.float64)], axis=1)
    return Z


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def _row_bce(X: np.ndarray, Xhat: np.ndarray) -> np.ndarray:
    """Per-row sum of binary cross entropies, probabilities clamped at EPS."""
    Xc = np.clip(Xhat, EPS, 1.0 - EPS)
    return -np.sum(X * np.log(Xc) + (1.0 - X) * np.log1p(-Xc), axis=1)


def focal_reconstruction_loss(X: np.ndarray, Xhat: np.ndarray,
                              alpha_t: float, gamma: float) -> float:
    """Batch mean of alpha_t * (1 - p_t)^gamma * BCE with p_t = exp(-BCE)."""
    X = np.asarray(X, dtype=np.float64)
    Xhat = np.asarray(Xhat, dtype=np.float64)
    if X.shape != Xhat.shape:
        raise ShapeMismatch(f"X {X.shape} vs Xhat {Xhat.shape}")
    bce = _row_bce(X, Xhat)
    p_t = np.exp(-bce)
    return float(np.mean(alpha_t * (1.0 - p_t) ** gamma * bce))


def ubc_loss(Z: np.ndarray) -> float:
    """Sum of squared off-diagonal entries of the sample covariance of Z."""
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[0] < 2:
        raise BatchTooSmall("covariance needs a batch of >= 2 rows")
    C = np.cov(Z, rowvar=False, ddof=1).reshape(Z.shape[1], Z.shape[1])
    off = C - np.diag(np.diag(C))
    return float(np.sum(off * off))


def supervised_loss(Yhat: np.ndarray, Y: np.ndarray, M: np.ndarray,
                    kind: str) -> float:
    """Masked mean BCE (classification) or smooth-L1 (regression)."""
    Yhat = np.asarray(Yhat, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    M = np.asarray(M, dtype=np.float64)
    if Yhat.shape != Y.shape or Y.shape != M.shape:
        raise ShapeMismatch("Yhat, Y, M must share a shape")
    total = M.sum()
    if total == 0:
        raise AllMasked("no labels present in batch")
    if kind == CLASSIFICATION:
        Yc = np.clip(Yhat, EPS, 1.0 - EPS)
        cell = -(Y * np.log(Yc) + (1.0 - Y) * np.log1p(-Yc))
    elif kind == REGRESSION:
        e = np.abs(Yhat - Y)
        cell = np.where(e < SMOOTH_L1_DELTA,
                        0.5 * e * e / SMOOTH_L1_DELTA,
                        e - 0.5 * SMOOTH_L1_DELTA)
    else:
        raise ValueError(f"unknown task kind {kind!r}")
    return float((cell * M).sum() / total)


def total_loss(batch: Batch, state: ModelState) -> tuple[float, dict[str, float]]:
    """L_t = L_e + alpha * L_r + beta * L_ubc, components reported separately.

    A fully masked batch contributes L_e = 0 (the unsupervised pre-training
    hook); supervised_loss alone still raises AllMasked.
    """
    hyper = state.hyper
    Z = forward_encoder(batch.X, state)
    Xhat = forward_decoder(Z, state)
    Yhat = predict_head(Z, batch.D, state)
    if batch.M.sum() == 0:
        l_e = 0.0
    else:
        l_e = supervised_loss(Yhat, batch.Y, batch.M, hyper.task)
    l_r = focal_reconstruction_loss(batch.X, Xhat, hyper.alpha_t, hyper.gamma)
    l_u = ubc_loss(Z) if batch.X.shape[0] >= 2 else 0.0
    l_t = l_e + hyper.alpha * l_r + hyper.beta * l_u
    return l_t, {"L_e": l_e, "L_r": l_r, "L_ubc": l_u, "L_t": l_t}


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def compute_gradients(batch: Batch, state: ModelState) -> dict[str, np.ndarray]:
    """Exact analytic gradients of total_loss w.r.t. every parameter."""
    hyper = state.hyper
    X = np.asarray(batch.X, dtype=np.float64)
    n = X.shape[0]
    W_d = state.decoder_weight()

    Z = forward_encoder(X, state)
    A = Z @ W_d.T + state.b_d
    Xhat = sigmoid(A)
    H = _head_input(Z, batch.D, state)
    Ylin = H @ state.W_f.T + state.b_f

    # supervised path
    total_mask = batch.M.sum()
    if total_mask == 0:
        G_y = np.zeros_like(Ylin)
    elif hyper.task == CLASSIFICATION:
        G_y = batch.M * (sigmoid(Ylin) - batch.Y) / total_mask
    else:
        e = np.clip(Ylin - batch.Y, -SMOOTH_L1_DELTA, SMOOTH_L1_DELTA)
        G_y = batch.M * e / total_mask
    dW_f = G_y.T @ H
    db_f = G_y.sum(axis=0)
    dH = G_y @ state.W_f
    dZ = dH[:, :hyper.l].copy()

    # reconstruction path: w = dL_r/dB per row, through p_t = exp(-B)
    B = np.sum(_softplus(A) - X * A, axis=1)
    p_t = np.exp(-B)
    one_minus = 1.0 - p_t
    if hyper.gamma == 0.0:
        w = np.full(n, hyper.alpha_t / n)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            term1 = hyper.gamma * p_t * B * np.power(one_minus, hyper.gamma - 1.0)
        term1 = np.where(one_minus <= 0.0, 0.0, term1)
        w = hyper.alpha_t * (term1 + one_minus ** hyper.gamma) / n
    dA = (hyper.alpha * w)[:, None] * (Xhat - X)
    dW_d = dA.T @ Z
    db_d = dA.sum(axis=0)
    dZ += dA @ W_d

    # decorrelation path
    if hyper.beta != 0.0 and n >= 2:
        Zc = Z - Z.mean(axis=0, keepdims=True)
        C = (Zc.T @ Zc) / (n - 1)
        C_off = C - np.diag(np.diag(C))
        dZ += hyper.beta * (4.0 / (n - 1)) * (Zc @ C_off)

    dW_e = dZ.T @ X
    db_e = dZ.sum(axis=0)

    grads = {"W_e": dW_e, "b_e": db_e, "b_d": db_d, "W_f": dW_f, "b_f": db_f}
    if hyper.tied:
        grads["W_e"] = dW_e + dW_d.T
    else:
        grads["W_d"] = dW_d
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradient(f"non-finite gradient in {name}")
    return grads


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

def sgd_step(state: ModelState, grads: dict[str, np.ndarray], lr: float,
             momentum: float = 0.0,
             velocities: dict[str, np.ndarray] | None = None) -> ModelState:
    """Classical momentum: v <- mu v + g; theta <- theta - lr v.

    ``velocities`` is the optimizer state, updated in place when given;
    omitted velocities behave as zeros (plain SGD when momentum == 0).
    """
    if lr <= 0:
        raise ValueError("lr must be positive")
    if not 0.0 <= momentum < 1.0:
        raise ValueError("momentum must be in [0, 1)")
    new = {}
    for name, theta in state.params().items():
        g = grads[name]
        if velocities is not None:
            v = velocities.get(name)
            v = g.copy() if v is None else momentum * v + g
            velocities[name] = v
        else:
            v = g
        new[name] = theta - lr * v
    return state.with_params(new)


def gradient_global_norm(grads: dict[str, np.ndarray]) -> float:
    return float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))


def sam_step(state: ModelState, batch: Batch, lr: float, rho: float,
             momentum: float = 0.0,
             velocities: dict[str, np.ndarray] | None = None) -> ModelState:
    """Sharpness-aware step: perturb by rho * g/||g||, re-evaluate gradients
    at the perturbed point, apply the SGD update at the original point.

    rho = 0 skips the perturbation entirely (bitwise identical to sgd_step);
    a zero gradient norm falls back to the plain SGD step.
    """
    if rho < 0:
        raise ValueError("rho must be >= 0")
    grads = compute_gradients(batch, state)
    if rho == 0.0:
        return sgd_step(state, grads, lr, momentum, velocities)
    norm = gradient_global_norm(grads)
    if norm == 0.0:
        return sgd_step(state, grads, lr, momentum, velocities)
    scale = rho / norm
    perturbed = state.with_params(
        {name: theta + scale * grads[name]
         for name, theta in state.params().items()})
    grads2 = compute_gradients(batch, perturbed)
    return sgd_step(state, grads2, lr, momentum, velocities)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

_CKPT_MAGIC = b"fgr-ckpt v2\n"


def save_checkpoint(state: ModelState, path, seed: int = 0, epoch: int = 0,
                    config_echo: dict | None = None, split: str = "") -> None:
    """Versioned binary: magic, JSON header, float64 row-major blocks; the
    split trained on is one character per data row, "0"/"1"/"2" train/valid/test."""
    params = state.params()
    header = {
        "hyper": asdict(state.hyper),
        "p": state.p,
        "k": state.k,
        "fingerprints": dict(sorted(state.fingerprints.items())),
        "seed": seed,
        "epoch": epoch,
        "split": split,
        "params": [{"name": n, "shape": list(params[n].shape)} for n in state.param_names()],
        "config_echo": config_echo or {},
    }
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode())
        for name in state.param_names():
            fh.write(np.ascontiguousarray(params[name], dtype=np.float64).tobytes())


def _header_problem(header: dict, hyper: ModelHyper) -> str | None:
    """What is wrong with the values of a checkpoint header, or None."""
    def int_at_least(value, low):
        return type(value) is int and value >= low

    if not (int_at_least(hyper.l, 1) and int_at_least(hyper.descriptor_dim, 0)
            and int_at_least(header["p"], 1) and int_at_least(header["k"], 1)):
        return "hyper.l, hyper.descriptor_dim, p and k must be integers"
    if type(hyper.tied) is not bool or type(hyper.use_descriptors) is not bool:
        return "hyper.tied and hyper.use_descriptors must be booleans"
    if not all(type(v) in (int, float) and math.isfinite(v)
               for v in (hyper.alpha_t, hyper.gamma, hyper.alpha, hyper.beta)):
        return "hyper.alpha_t, gamma, alpha and beta must be finite numbers"
    if hyper.task not in (CLASSIFICATION, REGRESSION):
        return f"unknown task kind {hyper.task!r}"
    if type(header["seed"]) is not int or not isinstance(header["config_echo"], dict):
        return "seed must be an integer and config_echo an object"
    if not isinstance(header["split"], str) or not set(header["split"]) <= set("012"):
        return "split must be a string of 0, 1 and 2"
    return None


def check_fingerprints(stored: dict, expected: dict) -> None:
    """Refuse a stored fingerprint that differs from the expected one."""
    for key, want in expected.items():
        if stored.get(key) not in (None, want):
            raise VocabMismatch(f"{key!r} fingerprint mismatch: trained on other {key}")


def load_checkpoint(path, expected_fingerprints: dict | None = None
                    ) -> tuple[ModelState, dict]:
    """Load a checkpoint; refuses vocab fingerprint mismatches. Another version,
    a malformed header, a short or over-long payload raises CheckpointError."""
    with open(path, "rb") as fh:
        magic = fh.read(len(_CKPT_MAGIC))
        if magic != _CKPT_MAGIC:
            if magic.startswith(_CKPT_MAGIC[:-3]):
                raise CheckpointError(f"{magic.decode(errors='replace').strip()} checkpoints "
                                      f"are no longer read; retrain to write "
                                      f"{_CKPT_MAGIC.decode().strip()}")
            raise CheckpointError(f"not an fgr-ckpt file: {magic[:20]!r}")
        try:
            header = json.loads(fh.readline().decode())
            hyper = ModelHyper(**header["hyper"])
            specs = [(s["name"], tuple(s["shape"])) for s in header["params"]]
            stored = dict(header["fingerprints"])
            problem = _header_problem(header, hyper)
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise CheckpointError(f"malformed checkpoint header: {exc!r}") from None
        if problem:
            raise CheckpointError(f"malformed checkpoint header: {problem}")
        check_fingerprints(stored, expected_fingerprints or {})
        payload = fh.read()
    p, k, l = header["p"], header["k"], hyper.l
    want = ([("W_e", (l, p)), ("b_e", (l,))] + ([] if hyper.tied else [("W_d", (p, l))])
            + [("b_d", (p,)), ("W_f", (k, hyper.head_width)), ("b_f", (k,))])
    if specs != want:
        raise CheckpointError(f"parameter blocks {specs} disagree with p, k and hyper, "
                              f"which give {want}")
    sizes = [math.prod(shape) for _, shape in want]
    if 8 * sum(sizes) != len(payload):
        raise CheckpointError(f"header declares {8 * sum(sizes)} parameter bytes, "
                              f"the file holds {len(payload)}")
    arrays, offset = {}, 0
    for (name, shape), size in zip(want, sizes):
        arrays[name] = np.frombuffer(payload, np.float64, size, offset).reshape(shape).copy()
        offset += 8 * size
    state = ModelState(hyper=hyper, p=p, k=k, W_e=arrays["W_e"], b_e=arrays["b_e"],
                       W_d=arrays.get("W_d"), b_d=arrays["b_d"],
                       W_f=arrays["W_f"], b_f=arrays["b_f"], fingerprints=stored)
    return state, header
