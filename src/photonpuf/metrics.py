"""Distance and similarity measures between responses and keys.

``histogram`` bins a sample of such distances for the evaluation reports.
"""

from __future__ import annotations

import numpy as np

from ._binio import as_bits
from .errors import DegenerateImageError

__all__ = [
    "euclidean",
    "hamming",
    "cross_correlation",
    "histogram",
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
    ba, bb = as_bits(a), as_bits(b)
    if ba.size != bb.size:
        raise ValueError("length mismatch")
    return int(np.count_nonzero(ba != bb))


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


# 4096 bins resolve any distance data we emit; the cap keeps a near-zero
# spread next to a wide range from asking for an astronomical grid
_MAX_BINS = 4096


def histogram(values) -> tuple[np.ndarray, np.ndarray]:
    """Counts and edges of equal-width bins spanning a non-empty sample.

    The width is Freedman-Diaconis, 2 IQR / n^(1/3); a zero IQR gives one
    bin, and the count is capped at ``_MAX_BINS``.
    """
    values = _as_values(values)
    if values.size == 0:
        raise ValueError("empty sample")
    q25, q75 = np.percentile(values, [25, 75])
    width = 2.0 * float(q75 - q25) / np.cbrt(values.size)
    nbins = int(np.ceil(min(np.ptp(values) / width, _MAX_BINS))) if width > 0 else 1
    return np.histogram(values, bins=nbins)
