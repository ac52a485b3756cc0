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
    Campaign,
    SuccessCurve,
    run_campaign,
    success_curve,
    _pairs,
)
from photonpuf.hashing import BitKey, draw_helper
from photonpuf.token import NoiseParams, new_token, random_pattern, respond


def small_token(seed):
    return new_token(seed, grid_dims=(8, 8), out_dims=(48, 48), speckle_grain=0.0)


def mild_noise():
    return NoiseParams(intensity_sigma=0.01, phase_drift_sigma=0.05)


# ---------------------------------------------------------------- validation

def test_campaign_kind_validated():
    chal = random_pattern((8, 8), 0)
    with pytest.raises(ValueError):
        Campaign("durability", small_token(1), (chal,))


def test_campaign_requires_enough_material():
    chal = random_pattern((8, 8), 0)
    token = small_token(1)
    with pytest.raises(ValueError):
        Campaign("robustness", token, (chal,), repeats=1)
    with pytest.raises(ValueError):
        Campaign("unpredictability", token, (chal,))
    with pytest.raises(ValueError):
        Campaign("unclonability", token, (chal,))
    with pytest.raises(ValueError):
        Campaign("robustness", token, ())
    with pytest.raises(ValueError):
        Campaign("robustness", token, (chal,), other_token_seeds=(2,))


def test_pairs_reference_vs_rest():
    assert _pairs(4) == [(0, 1), (0, 2), (0, 3)]
    assert _pairs(1) == []


# ---------------------------------------------------------------- campaigns

def test_robustness_counts_and_determinism():
    chal = random_pattern((8, 8), 1)
    camp = Campaign("robustness", small_token(3), (chal,),
                    noise=mild_noise(), repeats=5)
    res1 = run_campaign(camp)
    res2 = run_campaign(camp)
    assert res1.kind == "robustness"
    assert res1.euclidean.count == 4           # reference vs the other four
    assert np.array_equal(res1.euclidean.values, res2.euclidean.values)
    assert res1.hash_hamming is None


def test_unpredictability_counts():
    chals = tuple(random_pattern((8, 8), s) for s in range(7))
    camp = Campaign("unpredictability", small_token(3), chals, noise=mild_noise())
    res = run_campaign(camp)
    assert res.euclidean.count == 6            # reference vs the other six


def test_unclonability_counts():
    chal = random_pattern((8, 8), 1)
    camp = Campaign("unclonability", small_token(0), (chal,), other_token_seeds=range(1, 6),
                    noise=mild_noise())
    res = run_campaign(camp)
    assert res.correlation.count == 5


def test_hash_report_attached_when_configured():
    chal = random_pattern((8, 8), 1)
    camp = Campaign("robustness", small_token(3), (chal,),
                    noise=mild_noise(), repeats=4)
    res = run_campaign(camp, draw_helper("rbm", (48, 48), 128, 0))
    assert res.hash_hamming is not None
    assert res.hash_hamming.count == 3
    assert 0.0 <= res.hash_hamming.mean <= 1.0


def test_reference_noise_applies_to_first_capture_only():
    chal = random_pattern((8, 8), 1)
    token = small_token(3)
    noisy = NoiseParams(intensity_sigma=0.08, phase_drift_sigma=0.2, noise_seed=11)
    camp = Campaign("robustness", token, (chal,), noise=noisy, repeats=3,
                    reference_noise=NoiseParams.none())
    images = campaign_mod._campaign_images(camp)
    clean = respond(token, chal, NoiseParams.none())
    assert np.array_equal(images[0].pixels, clean.pixels)
    # later captures still carry the field noise
    assert not np.array_equal(images[1].pixels, clean.pixels)
    assert not np.array_equal(images[2].pixels, images[1].pixels)


def test_regime_ordering():
    # same stimulus repeats < different challenges <= different tokens
    token = small_token(1)
    noise = mild_noise()
    chals = tuple(random_pattern((8, 8), s, on_fraction=0.5) for s in range(9))
    rob = run_campaign(Campaign("robustness", token, chals[:1],
                                noise=noise, repeats=8))
    unp = run_campaign(Campaign("unpredictability", token, chals, noise=noise))
    unc = run_campaign(Campaign("unclonability", small_token(2), chals[:1],
                                other_token_seeds=range(3, 11), noise=noise))
    assert rob.euclidean.mean < unp.euclidean.mean
    assert rob.correlation.mean > 0.9
    assert abs(unc.correlation.mean) < 0.2
    assert unp.correlation.mean < rob.correlation.mean


# ---------------------------------------------------------------- success curve

def key_pairs_with_distances(dists, key_len=16):
    enroll, auth = [], []
    for d in dists:
        bits = np.zeros(key_len, dtype=np.uint8)
        flipped = bits.copy()
        flipped[:d] ^= 1
        enroll.append(BitKey(bits))
        auth.append(BitKey(flipped))
    return enroll, auth


def test_success_curve_exact_step_positions():
    enroll, auth = key_pairs_with_distances([0, 2, 2, 5])
    curve = success_curve(enroll, auth)
    assert curve.probabilities[0] == pytest.approx(0.25)   # only the d=0 pair
    assert curve.probabilities[1] == pytest.approx(0.25)
    assert curve.probabilities[2] == pytest.approx(0.75)
    assert curve.probabilities[5] == pytest.approx(1.0)
    assert curve.threshold_for(0.5) == 2
    assert curve.threshold_for(1.0) == 5
    assert curve.threshold_for(0.2) == 0


def test_success_curve_monotone_and_complete():
    rng = np.random.default_rng(8)
    dists = rng.integers(0, 17, size=50)
    enroll, auth = key_pairs_with_distances(dists)
    curve = success_curve(enroll, auth)
    assert np.all(np.diff(curve.probabilities) >= 0)
    assert curve.probabilities[-1] == 1.0
    assert len(curve.rows()) == 17


def test_success_curve_unreachable_target():
    enroll, auth = key_pairs_with_distances([3])
    curve = success_curve(enroll, auth, thresholds=[0, 1, 2])
    assert curve.threshold_for(1.0) is None


def test_success_curve_validates_inputs():
    enroll, auth = key_pairs_with_distances([1, 2])
    with pytest.raises(ValueError):
        success_curve(enroll, auth[:1])
    with pytest.raises(ValueError):
        success_curve([], [])


def test_unclonability_other_tokens_share_reference_geometry(monkeypatch):
    reference = new_token(9, kind="pof", grid_dims=(4, 4), out_dims=(32, 32),
                          wl_decorrelation_length=123.0, speckle_grain=0.0)
    captured = []

    def recording_respond(token, challenge, noise=None):
        captured.append(token)
        return respond(token, challenge, noise)

    monkeypatch.setattr(campaign_mod, "respond", recording_respond)
    camp = Campaign("unclonability", reference, (random_pattern((4, 4), 1),),
                    other_token_seeds=(20, 21))
    campaign_mod._campaign_images(camp)
    assert captured[0] is reference
    assert [t.token_seed for t in captured] == [9, 20, 21]
    for other in captured[1:]:
        assert other.kind == "pof"
        assert other.grid_dims == (4, 4)
        assert other.out_dims == (32, 32)
        assert other.speckle_grain == 0.0
        assert other.wl_decorrelation_length == 123.0
        assert other.field_tensor.shape == (16, 32 * 32)
