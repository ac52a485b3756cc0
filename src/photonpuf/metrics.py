"""Distance and similarity measures between responses and keys."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateImageError
from .hashing import _as_bits

__all__ = [
    "euclidean",
    "hamming",
    "fractional_hamming",
    "cross_correlation",
    "DistanceReport",
]


def _as_values(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).ravel()


def euclidean(a, b) -> float:
    """Plain L2 distance between two equal-size images or vectors."""
    va, vb = _as_values(a), _as_values(b)
    if va.size != vb.size:
        raise ValueError("size mismatch")
    return float(np.linalg.norm(va - vb))


def hamming(a, b) -> int:
    """Number of differing bits."""
    ba, bb = _as_bits(a), _as_bits(b)
    if ba.size != bb.size:
        raise ValueError("length mismatch")
    return int(np.count_nonzero(ba != bb))


def fractional_hamming(a, b) -> float:
    ba = _as_bits(a)
    return hamming(a, b) / ba.size


def cross_correlation(a, b) -> float:
    """Pearson correlation coefficient over paired samples."""
    va, vb = _as_values(a), _as_values(b)
    if va.size != vb.size:
        raise ValueError("size mismatch")
    va = va - va.mean()
    vb = vb - vb.mean()
    denom = np.sqrt((va * va).sum() * (vb * vb).sum())
    if denom == 0:
        raise DegenerateImageError("zero variance input, correlation undefined")
    return float((va * vb).sum() / denom)


@dataclass(frozen=True, eq=False)
class DistanceReport:
    """A sample of pairwise distances with its histogram."""

    kind: str
    metric: str
    values: np.ndarray
    bin_edges: np.ndarray
    counts: np.ndarray

    @classmethod
    def from_values(cls, values, kind="", metric="") -> "DistanceReport":
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size == 0:
            raise ValueError("empty sample")
        counts, edges = np.histogram(values, bins=_edges(values, _fd_bin_width(values)))
        return cls(kind, metric, values, edges, counts)

    @property
    def mean(self) -> float:
        return float(self.values.mean())

    @property
    def std(self) -> float:
        return float(self.values.std())

    @property
    def count(self) -> int:
        return int(self.values.size)

    def save_tsv(self, path):
        with open(path, "w") as out:
            out.write(f"# kind={self.kind} metric={self.metric}\n")
            out.write(f"# count={self.count} mean={self.mean:.6g} std={self.std:.6g}\n")
            out.write("bin_lo\tbin_hi\tcount\n")
            for lo, hi, c in zip(self.bin_edges[:-1], self.bin_edges[1:], self.counts):
                out.write(f"{lo:.6g}\t{hi:.6g}\t{int(c)}\n")


# 4096 bins resolve any distance data we emit; the cap keeps a near-zero
# spread next to a wide range from asking for an astronomical grid
_MAX_BINS = 4096


def _fd_bin_width(values: np.ndarray) -> float:
    """Freedman-Diaconis width 2 IQR / n^(1/3), or the whole range if the IQR is 0."""
    q25, q75 = np.percentile(values, [25, 75])
    width = 2.0 * float(q75 - q25) / np.cbrt(values.size)
    return width if width > 0 else float(np.ptp(values))


def _edges(values: np.ndarray, width: float) -> np.ndarray:
    """Equal-width edges spanning the sample, one bin if width is 0, at most ``_MAX_BINS``."""
    nbins = int(np.ceil(min(np.ptp(values) / width, _MAX_BINS))) if width > 0 else 1
    return np.histogram_bin_edges(values, bins=nbins)

