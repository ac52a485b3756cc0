"""Campaign plumbing and the expected ordering of the three distance regimes.

Same token + same challenge under mild noise must sit closer than different
challenges on one token, which in turn cannot beat different tokens; the
campaign code only orchestrates captures, so the ordering check doubles as an
end-to-end wiring test.
"""

import numpy as np
import pytest

import photonpuf.campaign as campaign_mod
from photonpuf.campaign import (
    robustness,
    score,
    success_curve,
    unclonability,
    unpredictability,
)
from photonpuf.hashing import rbm_helper
from photonpuf.token import NoiseParams, new_token, random_pattern, respond


def small_token(seed):
    return new_token(seed, grid_dims=(8, 8), out_dims=(48, 48), speckle_grain=0.0)


def mild_noise():
    return NoiseParams(intensity_sigma=0.01, phase_drift_sigma=0.05)


# ---------------------------------------------------------------- validation

def test_campaign_requires_enough_material():
    chal = random_pattern((8, 8), 0)
    token = small_token(1)
    with pytest.raises(ValueError):
        robustness(token, chal, mild_noise(), 1)
    with pytest.raises(ValueError):
        unpredictability(token, (chal,), mild_noise())
    with pytest.raises(ValueError):
        unclonability(token, chal, (), mild_noise())


def test_unclonability_rejects_the_reference_seed():
    token = small_token(1)
    with pytest.raises(ValueError, match="reference seed"):
        unclonability(token, random_pattern((8, 8), 0), (2, 1), mild_noise())


# ---------------------------------------------------------------- campaigns

def test_robustness_counts_and_determinism():
    chal = random_pattern((8, 8), 1)
    token = small_token(3)
    noise = mild_noise().with_seed(40)
    images = robustness(token, chal, noise, 5)
    # capture i is seeded noise_seed + i
    assert np.array_equal(images[2], respond(token, chal, noise.with_seed(42)))
    res1 = score("robustness", images)
    res2 = score("robustness", robustness(token, chal, noise, 5))
    assert list(res1) == ["euclidean", "correlation"]    # no helper, no hamming report
    assert all(report.kind == "robustness" for report in res1.values())
    assert res1["euclidean"].count == 4         # reference vs the other four
    assert np.array_equal(res1["euclidean"].values, res2["euclidean"].values)


def test_unpredictability_counts():
    chals = tuple(random_pattern((8, 8), s) for s in range(7))
    res = score("unpredictability", unpredictability(small_token(3), chals, mild_noise()))
    assert res["euclidean"].count == 6          # reference vs the other six


def test_unclonability_counts():
    chal = random_pattern((8, 8), 1)
    res = score("unclonability", unclonability(small_token(0), chal, range(1, 6), mild_noise()))
    assert res["correlation"].count == 5


def test_hash_report_attached_when_configured():
    chal = random_pattern((8, 8), 1)
    images = robustness(small_token(3), chal, mild_noise(), 4)
    res = score("robustness", images, rbm_helper((48, 48), 128, 0))
    # the report files' headers keep the metric names
    assert {name: report.metric for name, report in res.items()} == {
        "euclidean": "euclidean",
        "correlation": "cross_correlation",
        "hamming": "fractional_hamming",
    }
    assert res["hamming"].count == 3
    assert 0.0 <= res["hamming"].mean <= 1.0


def test_regime_ordering():
    # same stimulus repeats < different challenges <= different tokens
    token = small_token(1)
    noise = mild_noise()
    chals = tuple(random_pattern((8, 8), s, on_fraction=0.5) for s in range(9))
    rob = score("robustness", robustness(token, chals[0], noise, 8))
    unp = score("unpredictability", unpredictability(token, chals, noise))
    unc = score("unclonability", unclonability(small_token(2), chals[0], range(3, 11), noise))
    assert rob["euclidean"].mean < unp["euclidean"].mean
    assert rob["correlation"].mean > 0.9
    assert abs(unc["correlation"].mean) < 0.2
    assert unp["correlation"].mean < rob["correlation"].mean


# ---------------------------------------------------------------- success curve

def first_reaching(curve, probability):
    return int(np.searchsorted(curve, probability))


def test_success_curve_exact_step_positions():
    curve = success_curve([0, 2, 2, 5], 16)
    assert curve[0] == pytest.approx(0.25)     # only the d=0 pair
    assert curve[1] == pytest.approx(0.25)
    assert curve[2] == pytest.approx(0.75)
    assert curve[5] == pytest.approx(1.0)
    assert first_reaching(curve, 0.5) == 2
    assert first_reaching(curve, 1.0) == 5
    assert first_reaching(curve, 0.2) == 0


def test_success_curve_monotone_and_complete():
    rng = np.random.default_rng(8)
    curve = success_curve(rng.integers(0, 17, size=50), 16)
    assert np.all(np.diff(curve) >= 0)
    assert curve[-1] == 1.0
    assert len(curve) == 17


def test_success_curve_validates_inputs():
    with pytest.raises(ValueError):
        success_curve([], 16)


def test_unclonability_other_tokens_share_reference_geometry(monkeypatch):
    reference = new_token(9, kind="pof", grid_dims=(4, 4), out_dims=(32, 32),
                          wl_decorrelation_length=123.0, speckle_grain=0.0)
    captured = []

    def recording_respond(token, challenge, noise=None):
        captured.append(token)
        return respond(token, challenge, noise)

    monkeypatch.setattr(campaign_mod, "respond", recording_respond)
    unclonability(reference, random_pattern((4, 4), 1), (20, 21), NoiseParams())
    assert captured[0] is reference
    assert [t.token_seed for t in captured] == [9, 20, 21]
    for other in captured[1:]:
        assert other.kind == "pof"
        assert other.grid_dims == (4, 4)
        assert other.out_dims == (32, 32)
        assert other.speckle_grain == 0.0
        assert other.wl_decorrelation_length == 123.0
        assert other.field_tensor.shape == (16, 32 * 32)
        fresh = new_token(other.token_seed, kind="pof", grid_dims=(4, 4), out_dims=(32, 32),
                          wl_decorrelation_length=123.0, speckle_grain=0.0)
        assert other == fresh and hash(other) == hash(fresh)
        assert np.array_equal(other.field_tensor, fresh.field_tensor)
