"""Metric checks against closed-form values."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from photonpuf import errors, metrics
from photonpuf.metrics import (
    DistanceReport,
    cross_correlation,
    euclidean,
    fractional_hamming,
    hamming,
)

RNG = np.random.default_rng(20260814)


# ---------------------------------------------------------------- distances

def test_euclidean_known_value():
    assert euclidean([0.0, 0.0], [3.0, 4.0]) == pytest.approx(5.0)
    assert euclidean(np.zeros((2, 2)), np.ones((2, 2))) == pytest.approx(2.0)


def test_euclidean_size_guard():
    with pytest.raises(ValueError):
        euclidean([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        cross_correlation([1.0, 2.0], [1.0, 2.0, 3.0])


def test_hamming_counts_differing_bits():
    a = np.array([1, 0, 1, 1], np.uint8)
    b = np.array([0, 0, 1, 0], np.uint8)
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


@settings(deadline=None, max_examples=30)
@given(st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=50))
# a near-zero IQR next to a unit range once asked numpy for ~2e16 bins
@example(values=[0.0, 0.0, 0.0, 1.0, 2.160207176664871e-193])
def test_report_bins_hold_every_value_and_are_capped(values):
    rep = DistanceReport.from_values(values)
    assert rep.counts.sum() == len(values)
    assert 1 <= rep.counts.size <= metrics._MAX_BINS
