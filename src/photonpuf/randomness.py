"""Random bit extraction from speckle and a frequentist test battery.

``extract_bits`` applies the keyed hash's random binary mapping, drawn from
one fixed public seed, to a sequence of speckle images and concatenates the
per-image outputs in order, giving device-derived bitstreams. The battery
is the classic subset of eight NIST SP 800-22 tests used for desk-scale PRNG
qualification: frequency, block frequency, cumulative sums, runs, longest
run of ones, spectral, approximate entropy, and serial. Each test returns a
plain mapping from sub-test label to p-value, for example
``{"serial_1": p1, "serial_2": p2}``; a stream passes a test when every
p-value is at least alpha. ``battery`` runs all eight and maps each test
name to its mapping. ``suite_report`` aggregates many streams into pass
proportions plus a p-value uniformity check, in a row per test name.

The randomness comes from the captures: ``service.random_bits``, behind both
``OP_RANDOM`` and ``photonpuf rng extract``, lights a fresh random pattern
with fresh capture noise for every image, so each run draws fresh bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, gammaincc, ndtr

from .hashing import BitKey, _as_bits, rbm_helper, rbm_project

__all__ = [
    "battery",
    "extract_bits",
    "pvalue_uniformity",
    "suite_report",
    "SuiteReport",
]

ALPHA = 0.01
UNIFORMITY_FLOOR = 1e-4


# the extraction mapping's seed is public: its output is only as random as the captures
_EXTRACT_SEED = 0xEB17


def extract_bits(images, bits_per_image: int) -> BitKey:
    """Sign-quantize random Fourier projections of each image and concatenate.

    The mapping is the keyed hash's, ``rbm_helper(shape, bits_per_image,
    _EXTRACT_SEED)``, shared by every image, so the output is reproducible
    and order-stable; its bins lie in 1..N/2-1 and ``bits_per_image`` is at
    most N/2-1. Unlike the keyed hash, each bit is the raw sign of its
    ``rbm_project`` value: a mean threshold couples all bits of an image,
    which biases the downstream statistics this stream feeds.
    """
    images = list(images)
    if not images:
        raise ValueError("need at least one image")
    helper = rbm_helper(images[0].shape, bits_per_image, _EXTRACT_SEED)
    return BitKey(np.concatenate([rbm_project(img, helper) > 0.0 for img in images]))


# ----------------------------------------------------------------------
# individual tests: each maps its sub-test labels to p-values


def frequency(stream) -> dict[str, float]:
    """Monobit test: the +-1 sum should be near zero."""
    b = _as_bits(stream)
    n = b.size
    if n < 100:
        raise ValueError("frequency test needs at least 100 bits")
    s = 2.0 * int(b.sum()) - n
    p = erfc(abs(s) / math.sqrt(n) / math.sqrt(2.0))
    return {"frequency": float(p)}


def block_frequency(stream, block_len: int | None = None) -> dict[str, float]:
    b = _as_bits(stream)
    n = b.size
    if block_len is None:
        block_len = max(20, n // 64)
    n_blocks = n // block_len
    if n_blocks < 1:
        raise ValueError("stream shorter than one block")
    blocks = b[: n_blocks * block_len].reshape(n_blocks, block_len)
    pi = blocks.mean(axis=1)
    chi2 = 4.0 * block_len * float(((pi - 0.5) ** 2).sum())
    p = gammaincc(n_blocks / 2.0, chi2 / 2.0)
    return {"block_frequency": float(p)}


def _cusum_p(z: int, n: int) -> float:
    # z >= 1: a +-1 walk of n >= 100 steps leaves zero
    sn = math.sqrt(n)
    k1 = np.arange(math.floor((-n / z + 1) / 4), math.floor((n / z - 1) / 4) + 1)
    k2 = np.arange(math.floor((-n / z - 3) / 4), math.floor((n / z - 1) / 4) + 1)
    t1 = (ndtr((4 * k1 + 1) * z / sn) - ndtr((4 * k1 - 1) * z / sn)).sum()
    t2 = (ndtr((4 * k2 + 3) * z / sn) - ndtr((4 * k2 + 1) * z / sn)).sum()
    return float(np.clip(1.0 - t1 + t2, 0.0, 1.0))


def cumulative_sums(stream) -> dict[str, float]:
    """Random-walk excursions, scanned forward and backward."""
    b = _as_bits(stream)
    n = b.size
    if n < 100:
        raise ValueError("cumulative sums test needs at least 100 bits")
    x = 2.0 * b - 1.0
    z_fwd = int(np.abs(np.cumsum(x)).max())
    z_bwd = int(np.abs(np.cumsum(x[::-1])).max())
    return {
        "cumulative_sums_forward": _cusum_p(z_fwd, n),
        "cumulative_sums_backward": _cusum_p(z_bwd, n),
    }


def runs(stream) -> dict[str, float]:
    b = _as_bits(stream)
    n = b.size
    if n < 100:
        raise ValueError("runs test needs at least 100 bits")
    pi = float(b.mean())
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        return {"runs": 0.0}
    v = 1 + int(np.count_nonzero(np.diff(b)))
    num = abs(v - 2.0 * n * pi * (1.0 - pi))
    den = 2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)
    return {"runs": float(erfc(num / den))}


_LONGEST_RUN_TIERS = (
    # (min_n, block_len, categories, reference probabilities)
    (750000, 10000, (10, 11, 12, 13, 14, 15, 16),
     (0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727)),
    (6272, 128, (4, 5, 6, 7, 8, 9),
     (0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124)),
    (128, 8, (1, 2, 3, 4),
     (0.2148, 0.3672, 0.2305, 0.1875)),
)


def _longest_one_run(row: np.ndarray) -> int:
    padded = np.concatenate([[0], row, [0]]).astype(np.int8)
    change = np.diff(padded)
    starts = np.nonzero(change == 1)[0]
    if starts.size == 0:
        return 0
    ends = np.nonzero(change == -1)[0]
    return int((ends - starts).max())


def longest_run(stream) -> dict[str, float]:
    b = _as_bits(stream)
    n = b.size
    if n < 128:
        raise ValueError("longest run test needs at least 128 bits")
    for min_n, block_len, cats, ref in _LONGEST_RUN_TIERS:
        if n >= min_n:
            break
    n_blocks = n // block_len
    blocks = b[: n_blocks * block_len].reshape(n_blocks, block_len)
    longest = np.array([_longest_one_run(row) for row in blocks])
    counts = np.zeros(len(cats), dtype=np.int64)
    counts[0] = int((longest <= cats[0]).sum())
    for i in range(1, len(cats) - 1):
        counts[i] = int((longest == cats[i]).sum())
    counts[-1] = int((longest >= cats[-1]).sum())
    expected = n_blocks * np.asarray(ref)
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    p = gammaincc((len(cats) - 1) / 2.0, chi2 / 2.0)
    return {"longest_run": float(p)}


def fft_spectral(stream) -> dict[str, float]:
    """Peak density below the 95% threshold of the half spectrum."""
    b = _as_bits(stream)
    n = b.size
    if n < 1000:
        raise ValueError("spectral test needs at least 1000 bits")
    x = 2.0 * b - 1.0
    mods = np.abs(np.fft.fft(x))[: n // 2]
    threshold = math.sqrt(math.log(1.0 / 0.05) * n)
    n0 = 0.95 * n / 2.0
    n1 = int((mods < threshold).sum())
    d = (n1 - n0) / math.sqrt(n * 0.95 * 0.05 / 4.0)
    p = erfc(abs(d) / math.sqrt(2.0))
    return {"fft": float(p)}


def _pattern_counts(b: np.ndarray, m: int) -> np.ndarray:
    """Counts of the 2^m overlapping m-bit patterns, cyclic wraparound."""
    n = b.size
    aug = np.concatenate([b, b[: m - 1]]) if m > 1 else b
    idx = np.zeros(n, dtype=np.int64)
    for j in range(m):
        idx |= aug[j : j + n].astype(np.int64) << j
    return np.bincount(idx, minlength=1 << m)


def approximate_entropy(stream, m: int | None = None) -> dict[str, float]:
    """Pattern entropy test; m defaults to 4, or the largest m below it that n allows."""
    b = _as_bits(stream)
    n = b.size
    if n < 100:
        raise ValueError("approximate entropy test needs at least 100 bits")
    if m is None:
        m = min(4, n.bit_length() - 7)
    # SP 800-22 section 2.12.7: m < floor(log2 n) - 5
    if not 1 <= m < n.bit_length() - 6:
        raise ValueError(f"block length m={m} too large for n={n}")

    def phi(mm: int) -> float:
        c = _pattern_counts(b, mm) / n
        c = c[c > 0]
        return float((c * np.log(c)).sum())

    apen = phi(m) - phi(m + 1)
    chi2 = 2.0 * n * (math.log(2.0) - apen)
    p = gammaincc(1 << (m - 1), chi2 / 2.0)
    return {"approximate_entropy": float(p)}


def serial(stream, m: int = 5) -> dict[str, float]:
    b = _as_bits(stream)
    n = b.size
    if n < 100:
        raise ValueError("serial test needs at least 100 bits")
    # SP 800-22 section 2.11.7: m < floor(log2 n) - 2
    if not 3 <= m < n.bit_length() - 3:
        raise ValueError(f"serial test needs 3 <= m < floor(log2 n) - 2, got m={m} for n={n}")

    def psi2(mm: int) -> float:
        c = _pattern_counts(b, mm).astype(np.float64)
        return float((1 << mm) / n * (c * c).sum() - n)

    d1 = psi2(m) - psi2(m - 1)
    d2 = psi2(m) - 2.0 * psi2(m - 1) + psi2(m - 2)
    p1 = gammaincc(1 << (m - 2), d1 / 2.0)
    p2 = gammaincc(1 << (m - 3), d2 / 2.0)
    return {"serial_1": float(p1), "serial_2": float(p2)}


_TESTS = {
    "frequency": frequency,
    "block_frequency": block_frequency,
    "cumulative_sums": cumulative_sums,
    "runs": runs,
    "longest_run": longest_run,
    "fft": fft_spectral,
    "approximate_entropy": approximate_entropy,
    "serial": serial,
}


def battery(stream) -> dict[str, dict[str, float]]:
    """Every test at its default parameters: test name -> {sub-test label: p-value}."""
    return {name: test(stream) for name, test in _TESTS.items()}


# ----------------------------------------------------------------------
# suite aggregation

def pvalue_uniformity(p_values) -> float:
    """Chi-square goodness of fit of p-values against uniform in 10 bins."""
    p_values = np.asarray(p_values, dtype=np.float64)
    s = p_values.size
    if s == 0:
        raise ValueError("no p-values")
    counts, _ = np.histogram(p_values, bins=10, range=(0.0, 1.0))
    expected = s / 10.0
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    return float(gammaincc(4.5, chi2 / 2.0))


@dataclass(frozen=True)
class SuiteRow:
    proportion: float
    proportion_ok: bool
    uniformity_p: float
    uniformity_ok: bool


@dataclass(frozen=True)
class SuiteReport:
    rows: dict  # test name -> SuiteRow, in battery order
    n_streams: int
    proportion_band: tuple

    @property
    def passed(self) -> bool:
        return all(r.proportion_ok and r.uniformity_ok for r in self.rows.values())


def suite_report(streams, alpha: float = ALPHA) -> SuiteReport:
    """Aggregate the battery over many streams.

    For every test the worst sub-test is reported: its pass proportion,
    checked against the three-sigma acceptance band, and its p-value
    uniformity statistic.
    """
    streams = list(streams)
    s = len(streams)
    if s < 2:
        raise ValueError("need at least two streams")
    results = [battery(stream) for stream in streams]
    p_hat = 1.0 - alpha
    margin = 3.0 * math.sqrt(p_hat * alpha / s)
    band = (p_hat - margin, min(1.0, p_hat + margin))
    rows = {}
    for name, labels in results[0].items():
        per_label = [np.array([r[name][label] for r in results]) for label in labels]
        proportion = min(float((ps >= alpha).mean()) for ps in per_label)
        uniformity = min(pvalue_uniformity(ps) for ps in per_label)
        rows[name] = SuiteRow(
            proportion=proportion,
            proportion_ok=band[0] <= proportion <= band[1],
            uniformity_p=uniformity,
            uniformity_ok=uniformity >= UNIFORMITY_FLOOR,
        )
    return SuiteReport(rows, s, band)
