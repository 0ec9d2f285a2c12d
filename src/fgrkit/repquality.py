"""Representation-quality diagnostics: cluster alignment (Davies-Bouldin)
and angular uniformity on the unit circle.

The 2-D view uses deterministic PCA (sign fixed by making the largest-
magnitude loading positive); the uniformity profile normalizes projected
points to the unit circle and runs a wrapped Gaussian KDE over angles.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AllZeroRows, CoincidentCentroids, TooFewScaffolds
from .nn import ModelState, forward_encoder
from .pipeline import Dataset, EncodedDataset


@dataclass
class ClusteredEmbedding:
    points: np.ndarray          # (n, m)
    labels: list                # cluster id per point

    def cluster_ids(self) -> list:
        return sorted(set(self.labels), key=str)


@dataclass
class UniformityProfile:
    angles: np.ndarray          # (n,) in (-pi, pi]
    grid: np.ndarray            # sample angles, uniform over [-pi, pi)
    density: np.ndarray         # KDE values on the grid
    bandwidth: float
    dropped_rows: int = 0

    def circular_integral(self) -> float:
        # periodic trapezoid = mean * circumference
        return float(self.density.mean() * 2.0 * np.pi)

    def flatness(self) -> float:
        """max/min density ratio; 1 means perfectly uniform."""
        lo = float(self.density.min())
        return float(self.density.max()) / lo if lo > 0 else float("inf")


def davies_bouldin(embedding: ClusteredEmbedding) -> float:
    """DBI = mean over clusters of the worst (S_i + S_j) / M_ij ratio,
    S = mean Euclidean distance to the centroid, M = centroid distance."""
    points = np.asarray(embedding.points, dtype=np.float64)
    ids = embedding.cluster_ids()
    if len(ids) < 2:
        raise ValueError("need >= 2 clusters")
    labels = np.asarray(embedding.labels, dtype=object)
    centroids = {}
    scatter = {}
    for cid in ids:
        members = points[labels == cid]
        centroids[cid] = members.mean(axis=0)
        scatter[cid] = float(np.mean(np.linalg.norm(members - centroids[cid], axis=1)))
    total = 0.0
    for ci in ids:
        worst = 0.0
        for cj in ids:
            if ci == cj:
                continue
            m = float(np.linalg.norm(centroids[ci] - centroids[cj]))
            if m == 0.0:
                raise CoincidentCentroids(f"clusters {ci!r} and {cj!r} share a centroid")
            worst = max(worst, (scatter[ci] + scatter[cj]) / m)
        total += worst
    return total / len(ids)


def project_2d(points: np.ndarray) -> np.ndarray:
    """PCA onto the top-2 principal components of the mean-centered data.

    Sign convention: each component's largest-|loading| coordinate is made
    positive. Rank-deficient inputs keep a zero second axis and warn.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 3 or points.shape[1] < 2:
        raise ValueError("need an (n >= 3, m >= 2) matrix")
    centered = points - points.mean(axis=0, keepdims=True)
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    tol = max(points.shape) * np.finfo(np.float64).eps * (svals[0] if svals.size else 0.0)
    components = []
    for row in range(2):
        if row >= len(svals) or svals[row] <= tol:
            components.append(np.zeros(points.shape[1]))
            warnings.warn("input rank < 2; second projection axis is zero",
                          category=UserWarning)
            continue
        comp = vt[row]
        pivot = int(np.argmax(np.abs(comp)))
        if comp[pivot] < 0:
            comp = -comp
        components.append(comp)
    W = np.stack(components)  # (2, m)
    return centered @ W.T


def uniformity_profile(points2d: np.ndarray, bandwidth: float = 0.2,
                       grid_size: int = 360) -> UniformityProfile:
    """Row-normalize to the unit circle, take arctan2 angles, and estimate
    their density with a wrapped Gaussian KDE on a uniform angular grid."""
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    points2d = np.asarray(points2d, dtype=np.float64)
    if points2d.ndim != 2 or points2d.shape[1] != 2:
        raise ValueError("need an (n, 2) matrix")
    norms = np.linalg.norm(points2d, axis=1)
    keep = norms > 0
    dropped = int((~keep).sum())
    if not np.any(keep):
        raise AllZeroRows("every row has zero norm")
    unit = points2d[keep] / norms[keep, None]
    angles = np.arctan2(unit[:, 1], unit[:, 0])
    grid = -np.pi + 2.0 * np.pi * np.arange(grid_size) / grid_size
    wraps = np.arange(-4, 5) * 2.0 * np.pi
    diffs = grid[:, None, None] - angles[None, :, None] + wraps[None, None, :]
    kernel = np.exp(-0.5 * (diffs / bandwidth) ** 2) / (bandwidth * np.sqrt(2.0 * np.pi))
    density = kernel.sum(axis=2).mean(axis=1)
    return UniformityProfile(angles=angles, grid=grid, density=density,
                             bandwidth=bandwidth, dropped_rows=dropped)


# ---------------------------------------------------------------------------
# model-level reports
# ---------------------------------------------------------------------------

def top_scaffold_clusters(ds: Dataset, top_s: int) -> list[tuple[str, list[int]]]:
    groups = ds.scaffold_groups
    if len(groups) < top_s:
        raise TooFewScaffolds(f"dataset has {len(groups)} scaffolds, need {top_s}")
    return groups[:top_s]


def alignment_report(state: ModelState, ds: Dataset, enc: EncodedDataset,
                     top_s: int = 5) -> dict:
    """DBI over the `top_s` most populous scaffolds, on latent vectors and
    on their deterministic 2-D projection."""
    clusters = top_scaffold_clusters(ds, top_s)
    indices = [i for _, members in clusters for i in members]
    labels = [key for key, members in clusters for _ in members]
    Z = forward_encoder(enc.X[indices], state)
    latent = ClusteredEmbedding(points=Z, labels=labels)
    dbi_latent = davies_bouldin(latent)
    result = {
        "scaffolds": [{"key": key, "size": len(members)} for key, members in clusters],
        "dbi_latent": dbi_latent,
    }
    if Z.shape[0] >= 3 and Z.shape[1] >= 2:
        proj = project_2d(Z)
        result["dbi_2d"] = davies_bouldin(ClusteredEmbedding(points=proj, labels=labels))
    return result


def uniformity_report(state: ModelState, enc: EncodedDataset,
                      indices: list[int] | None = None,
                      bandwidth: float = 0.2) -> dict:
    """Project latents to 2-D, normalize onto the circle, profile angles."""
    X = enc.X if indices is None else enc.X[indices]
    Z = forward_encoder(X, state)
    proj = project_2d(Z)
    profile = uniformity_profile(proj, bandwidth=bandwidth)
    return {
        "bandwidth": bandwidth,
        "dropped_rows": profile.dropped_rows,
        "circular_integral": profile.circular_integral(),
        "flatness": profile.flatness(),
        "grid": profile.grid.tolist(),
        "density": profile.density.tolist(),
    }
