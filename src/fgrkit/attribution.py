"""Feature attribution over trained models.

All methods attribute the pre-sigmoid logit (classification) or the raw
prediction (regression) with respect to the model's full input feature
vector [FG bits | MFG bits | descriptor slots]; multi-hot inputs are
relaxed to the continuous cube along attribution paths. Baselines default
to the all-zeros vector (absence of every feature).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateTask, ShapeMismatch
from .metrics import rmse, roc_auc
from .nn import CLASSIFICATION, ModelState


class LogitModel:
    """Pre-activation scalar view of a trained model, differentiable in the
    input features. The architecture is affine in its inputs, so the input
    gradient is one constant vector per task, computed once here; the
    attribution methods still ask for it per point, so they stay generic."""

    def __init__(self, state: ModelState):
        self.state = state
        self.p = state.p
        self.d = state.hyper.descriptor_dim if state.hyper.use_descriptors else 0
        l = state.hyper.l
        # [W_f[:l] W_e, W_f[l:]] per task; the descriptor part is empty when
        # the model has no descriptors
        self._grads = [np.concatenate([w_head[:l] @ state.W_e, w_head[l:]])
                       for w_head in state.W_f]

    @property
    def input_width(self) -> int:
        return self.p + self.d

    def _split(self, U: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        if U.shape[-1] != self.input_width:
            raise ShapeMismatch(f"expected input width {self.input_width}, "
                                f"got {U.shape[-1]}")
        X = U[..., :self.p]
        D = U[..., self.p:] if self.d else None
        return X, D

    def batch_value(self, U: np.ndarray, task: int) -> np.ndarray:
        X, D = self._split(np.atleast_2d(np.asarray(U, dtype=np.float64)))
        state = self.state
        Z = X @ state.W_e.T + state.b_e
        H = np.concatenate([Z, D], axis=1) if D is not None else Z
        return H @ state.W_f[task] + state.b_f[task]

    def value(self, u: np.ndarray, task: int) -> float:
        return float(self.batch_value(u, task)[0])

    def grad(self, u: np.ndarray, task: int) -> np.ndarray:
        """d(logit)/d(input) at u: a copy of the task's constant gradient."""
        return self._grads[task].copy()


@dataclass
class AttributionReport:
    method: str
    task: int
    scores: np.ndarray
    std: np.ndarray
    labels: list[str]
    kinds: list[str]
    folds: int = 1
    meta: dict = field(default_factory=dict)

    def top_k(self, k: int) -> list[dict]:
        order = np.argsort(-np.abs(self.scores), kind="mergesort")
        rows = []
        for rank, idx in enumerate(order[:k], start=1):
            rows.append({"rank": rank, "label": self.labels[idx],
                         "kind": self.kinds[idx],
                         "mean": float(self.scores[idx]),
                         "std": float(self.std[idx])})
        return rows


# ---------------------------------------------------------------------------
# single-input methods
# ---------------------------------------------------------------------------

def integrated_gradients(model: LogitModel, x: np.ndarray,
                         baseline: np.ndarray | None = None, steps: int = 128,
                         task: int = 0) -> np.ndarray:
    """Right-Riemann path integral of gradients from baseline to x:
    (x_i - b_i) * mean_s grad_i(b + (s/steps)(x - b)), s = 1..steps."""
    if steps < 2:
        raise ValueError("steps must be >= 2")
    x = np.asarray(x, dtype=np.float64)
    b = np.zeros_like(x) if baseline is None else np.asarray(baseline, dtype=np.float64)
    if b.shape != x.shape:
        raise ShapeMismatch("baseline shape differs from input")
    accum = np.zeros_like(x)
    diff = x - b
    for s in range(1, steps + 1):
        point = b + (s / steps) * diff
        accum += model.grad(point, task)
    return diff * accum / steps


def gradient_shap(model: LogitModel, x: np.ndarray,
                  baseline_samples: np.ndarray, noise_scale: float,
                  n_samples: int, task: int = 0, seed: int = 0) -> np.ndarray:
    """Monte-Carlo expected gradients: sample a baseline b and u~U(0,1),
    evaluate grad at b + u (x - b) + Gaussian noise, average (x - b) * grad."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    x = np.asarray(x, dtype=np.float64)
    baselines = np.atleast_2d(np.asarray(baseline_samples, dtype=np.float64))
    rng = np.random.default_rng(seed)
    total = np.zeros_like(x)
    for _ in range(n_samples):
        b = baselines[rng.integers(0, baselines.shape[0])]
        u = rng.uniform(0.0, 1.0)
        point = b + u * (x - b)
        if noise_scale > 0:
            point = point + rng.normal(0.0, noise_scale, size=x.shape)
        total += (x - b) * model.grad(point, task)
    return total / n_samples


def feature_ablation(model: LogitModel, x: np.ndarray,
                     baseline: np.ndarray | None = None,
                     task: int = 0) -> np.ndarray:
    """score_i = f(x) - f(x with feature i replaced by its baseline value)."""
    x = np.asarray(x, dtype=np.float64)
    b = np.zeros_like(x) if baseline is None else np.asarray(baseline, dtype=np.float64)
    if b.shape != x.shape:
        raise ShapeMismatch("baseline shape differs from input")
    fx = model.value(x, task)
    scores = np.zeros_like(x)
    for i in range(x.shape[0]):
        if x[i] == b[i]:
            continue
        ablated = x.copy()
        ablated[i] = b[i]
        scores[i] = fx - model.value(ablated, task)
    return scores


def feature_permutation(model: LogitModel, U: np.ndarray, Y: np.ndarray,
                        M: np.ndarray, task: int = 0, seed: int = 0,
                        kind: str = CLASSIFICATION) -> np.ndarray:
    """score_i = metric(original) - metric(column i shuffled across rows);
    metric is ROC-AUC for classification, negative RMSE for regression.
    Shuffles are seeded per (feature, task) so feature order is irrelevant."""
    U = np.asarray(U, dtype=np.float64)
    if U.shape[0] < 2:
        raise DegenerateTask("permutation needs at least two rows")
    mask = M[:, task] == 1.0
    if mask.sum() < 2:
        raise DegenerateTask("not enough labeled rows for permutation")
    y = Y[mask, task]

    def metric(inputs: np.ndarray) -> float:
        preds = model.batch_value(inputs, task)[mask]
        if kind == CLASSIFICATION:
            return roc_auc(preds, y)
        return -rmse(preds, y)

    base = metric(U)
    scores = np.zeros(U.shape[1])
    for i in range(U.shape[1]):
        column = U[:, i]
        if np.all(column == column[0]):
            continue  # constant column: any shuffle is the identity
        rng = np.random.default_rng([seed, i, task])
        shuffled = U.copy()
        shuffled[:, i] = column[rng.permutation(U.shape[0])]
        scores[i] = base - metric(shuffled)
    return scores


# ---------------------------------------------------------------------------
# dataset-level runs and fold aggregation
# ---------------------------------------------------------------------------

METHODS = ("integrated_gradients", "gradient_shap", "feature_ablation",
           "feature_permutation")


def model_inputs(state: ModelState, X: np.ndarray,
                 D: np.ndarray | None) -> np.ndarray:
    if state.hyper.use_descriptors:
        if D is None:
            raise ShapeMismatch("model expects descriptors")
        return np.concatenate([X, D], axis=1)
    return X


def attribute_dataset(state: ModelState, U: np.ndarray, Y: np.ndarray,
                      M: np.ndarray, method: str, labels: list[str],
                      kinds: list[str], task: int = 0, seed: int = 0,
                      ig_steps: int = 128, shap_samples: int = 200,
                      shap_noise: float = 0.1) -> AttributionReport:
    """One method over one evaluation split: per-record attributions are
    averaged across records (permutation is inherently dataset-level)."""
    if method not in METHODS:
        raise ValueError(f"unknown attribution method {method!r}")
    model = LogitModel(state)
    kind = state.hyper.task
    if method == "feature_permutation":
        scores = feature_permutation(model, U, Y, M, task=task, seed=seed, kind=kind)
    else:
        zeros = np.zeros(U.shape[1])
        per_record = []
        for row in U:
            if method == "integrated_gradients":
                per_record.append(integrated_gradients(model, row, zeros,
                                                       steps=ig_steps, task=task))
            elif method == "gradient_shap":
                per_record.append(gradient_shap(model, row, zeros[None, :],
                                                noise_scale=shap_noise,
                                                n_samples=shap_samples,
                                                task=task, seed=seed))
            else:
                per_record.append(feature_ablation(model, row, zeros, task=task))
        scores = np.mean(per_record, axis=0)
    return AttributionReport(method=method, task=task, scores=scores,
                             std=np.zeros_like(scores), labels=list(labels),
                             kinds=list(kinds), folds=1,
                             meta={"seed": seed, "records": int(U.shape[0])})


def aggregate_attributions(reports: list[AttributionReport]) -> AttributionReport:
    """Element-wise mean and std across folds of one method."""
    if not reports:
        raise ValueError("no reports to aggregate")
    first = reports[0]
    for rep in reports[1:]:
        if rep.labels != first.labels or rep.method != first.method \
                or rep.scores.shape != first.scores.shape:
            raise ShapeMismatch("attribution reports are not homogeneous")
    stack = np.stack([rep.scores for rep in reports])
    return AttributionReport(method=first.method, task=first.task,
                             scores=stack.mean(axis=0), std=stack.std(axis=0),
                             labels=first.labels, kinds=first.kinds,
                             folds=len(reports),
                             meta={"aggregated_from": len(reports)})
