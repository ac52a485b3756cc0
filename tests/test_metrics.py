"""Metric checks against closed-form values.

The overlap oracle: two unit-variance Gaussians whose means differ by d have
population overlap 2*Phi(-d/2); for d = 2 sigma that is 2*Phi(-1) = 0.3173.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from photonpuf import errors
from photonpuf.hashing import BitKey
from photonpuf.metrics import (
    DistanceReport,
    cross_correlation,
    euclidean,
    fractional_hamming,
    hamming,
    overlap,
)

RNG = np.random.default_rng(20260814)


# ---------------------------------------------------------------- distances

def test_euclidean_known_value():
    assert euclidean([0.0, 0.0], [3.0, 4.0]) == pytest.approx(5.0)
    assert euclidean(np.zeros((2, 2)), np.ones((2, 2))) == pytest.approx(2.0)


def test_euclidean_size_guard():
    with pytest.raises(ValueError):
        euclidean([1.0], [1.0, 2.0])


def test_hamming_counts_differing_bits():
    a = BitKey([1, 0, 1, 1])
    b = BitKey([0, 0, 1, 0])
    assert hamming(a, b) == 2
    assert fractional_hamming(a, b) == pytest.approx(0.5)
    assert hamming(a, a) == 0


def test_hamming_rejects_non_binary_and_mismatch():
    with pytest.raises(ValueError):
        hamming([0, 1, 2], [0, 1, 1])
    with pytest.raises(ValueError):
        hamming([0, 1], [0, 1, 1])


def test_cross_correlation_exact_affine():
    x = RNG.normal(size=500)
    assert cross_correlation(x, 2.5 * x + 3.0) == pytest.approx(1.0)
    assert cross_correlation(x, -x) == pytest.approx(-1.0)
    assert abs(cross_correlation(x, RNG.normal(size=500))) < 0.15


def test_cross_correlation_degenerate():
    with pytest.raises(errors.DegenerateImageError):
        cross_correlation(np.ones(10), RNG.normal(size=10))


# ---------------------------------------------------------------- reports

def test_report_moments_and_count():
    vals = np.array([1.0, 2.0, 3.0, 4.0])
    rep = DistanceReport.from_values(vals, kind="demo", metric="euclidean")
    assert rep.mean == pytest.approx(2.5)
    assert rep.std == pytest.approx(np.sqrt(1.25))
    assert rep.count == 4
    assert rep.counts.sum() == 4


def test_report_rejects_empty():
    with pytest.raises(ValueError):
        DistanceReport.from_values([])


def test_report_tsv_roundtrip(tmp_path):
    rep = DistanceReport.from_values(RNG.normal(size=200), kind="x", metric="euclidean")
    path = tmp_path / "hist.tsv"
    rep.save_tsv(path)
    text = path.read_text()
    lines = text.strip().split("\n")
    assert lines[0].startswith("# kind=x")
    assert lines[2] == "bin_lo\tbin_hi\tcount"
    total = sum(int(line.split("\t")[2]) for line in lines[3:])
    assert total == 200


# ---------------------------------------------------------------- overlap

def test_overlap_of_identical_samples_is_one():
    vals = RNG.normal(size=2000)
    a = DistanceReport.from_values(vals)
    b = DistanceReport.from_values(vals.copy())
    assert overlap(a, b) == pytest.approx(1.0)


def test_overlap_of_disjoint_samples_is_zero():
    a = DistanceReport.from_values(RNG.normal(0.0, 1.0, size=2000))
    b = DistanceReport.from_values(RNG.normal(100.0, 1.0, size=2000))
    assert overlap(a, b) == 0.0


def test_overlap_two_sigma_gaussians_matches_analytic():
    # population overlap of N(0,1) and N(2,1) is 2*Phi(-1)
    expected = 2 * 0.5 * math.erfc(1.0 / math.sqrt(2.0))
    rng = np.random.default_rng(5150)
    got = [
        overlap(
            DistanceReport.from_values(rng.normal(0.0, 1.0, size=20000)),
            DistanceReport.from_values(rng.normal(2.0, 1.0, size=20000)),
        )
        for _ in range(3)
    ]
    assert np.mean(got) == pytest.approx(expected, abs=0.02)


def test_overlap_symmetric():
    a = DistanceReport.from_values(RNG.normal(0.0, 1.0, size=3000))
    b = DistanceReport.from_values(RNG.normal(1.0, 2.0, size=3000))
    assert overlap(a, b) == pytest.approx(overlap(b, a), abs=1e-12)


def test_overlap_requires_samples():
    a = DistanceReport.from_values([1.0, 2.0])
    bad = DistanceReport(kind="", metric="", values=np.array([]),
                         bin_edges=np.array([0.0, 1.0]), counts=np.array([0]))
    with pytest.raises(ValueError):
        overlap(a, bad)


@settings(deadline=None, max_examples=30)
@given(
    st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=2, max_size=50),
    st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=2, max_size=50),
)
# a near-zero IQR next to a unit range once asked numpy for ~2e16 bins
@example(xs=[0.0, 0.0], ys=[0.0, 0.0, 0.0, 1.0, 2.160207176664871e-193])
def test_overlap_bounded_unit_interval(xs, ys):
    a = DistanceReport.from_values(xs)
    b = DistanceReport.from_values(ys)
    val = overlap(a, b)
    assert -1e-9 <= val <= 1.0 + 1e-9
