"""Batch evaluation campaigns: robustness, unpredictability, unclonability.

A campaign drives the simulator through one of the three canonical dataset
shapes and reduces the responses to distance reports:

* robustness: one token, one challenge, repeated noisy captures; distances
  are taken between the first (reference) capture and every later one,
  mirroring how authentication compares field captures to the enrolled key.
* unpredictability: one token, many challenges; same reference scheme.
* unclonability: many tokens, one challenge; same reference scheme. The
  other tokens are built from their seeds with the reference token's
  geometry (kind, grid, camera, decorrelation length and grain).

When a hash helper is supplied (one drawn for the token's camera geometry,
for example with ``hashing.draw_helper``), every capture is hashed with it
and the same pairing yields a Hamming report next to the Euclidean and
correlation ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .hashing import hash_apply
from .token import NoiseParams, TokenModel, respond

__all__ = ["Campaign", "CampaignResult", "run_campaign", "success_curve", "SuccessCurve"]

KINDS = ("robustness", "unpredictability", "unclonability")


@dataclass(frozen=True)
class Campaign:
    kind: str
    token: TokenModel                   # the reference token
    challenges: tuple
    other_token_seeds: tuple = ()       # unclonability only
    noise: NoiseParams = field(default_factory=NoiseParams)
    repeats: int = 2
    # noise for the reference capture only (think: enrollment on a quiet
    # bench, later captures in the field); None means same as `noise`
    reference_noise: NoiseParams | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"campaign kind must be one of {KINDS}")
        object.__setattr__(self, "challenges", tuple(self.challenges))
        object.__setattr__(self, "other_token_seeds", tuple(self.other_token_seeds))
        if not self.challenges:
            raise ValueError("need at least one challenge")
        if self.other_token_seeds and self.kind != "unclonability":
            raise ValueError("only an unclonability campaign takes other token seeds")
        if self.kind == "robustness" and self.repeats < 2:
            raise ValueError("robustness needs at least two captures")
        if self.kind == "unpredictability" and len(self.challenges) < 2:
            raise ValueError("unpredictability needs at least two challenges")
        if self.kind == "unclonability" and not self.other_token_seeds:
            raise ValueError("unclonability needs at least one other token seed")


@dataclass
class CampaignResult:
    kind: str
    euclidean: metrics.DistanceReport
    correlation: metrics.DistanceReport
    hash_hamming: metrics.DistanceReport | None = None


def _campaign_images(campaign: Campaign):
    """Captures for the campaign, reference first."""
    token = campaign.token
    noise = campaign.noise

    def _noise_for(i: int) -> NoiseParams:
        if i == 0 and campaign.reference_noise is not None:
            ref = campaign.reference_noise
            return ref.with_seed(ref.noise_seed + noise.noise_seed)
        return noise.with_seed(noise.noise_seed + i)

    if campaign.kind == "robustness":
        challenge = campaign.challenges[0]
        return [respond(token, challenge, _noise_for(i)) for i in range(campaign.repeats)]
    if campaign.kind == "unpredictability":
        return [respond(token, c, _noise_for(i)) for i, c in enumerate(campaign.challenges)]
    challenge = campaign.challenges[0]
    images = [respond(token, challenge, _noise_for(0))]
    for i, seed in enumerate(campaign.other_token_seeds, start=1):
        # one other token alive at a time: a default token holds ~96 MB
        other = TokenModel(seed, *token.descriptor()[1:])
        images.append(respond(other, challenge, _noise_for(i)))
    return images


def _pairs(n: int):
    """Index pairs to score: the reference capture against every later one."""
    return [(0, i) for i in range(1, n)]


def run_campaign(campaign: Campaign, helper=None) -> CampaignResult:
    images = _campaign_images(campaign)
    pairs = _pairs(len(images))

    floats = [img.as_float() for img in images]
    ed = [metrics.euclidean(floats[i], floats[j]) for i, j in pairs]
    cc = [metrics.cross_correlation(floats[i], floats[j]) for i, j in pairs]

    hd_report = None
    if helper is not None:
        keys = [hash_apply(img, helper) for img in images]
        hd = [metrics.fractional_hamming(keys[i], keys[j]) for i, j in pairs]
        hd_report = metrics.DistanceReport.from_values(
            hd, kind=campaign.kind, metric="fractional_hamming"
        )

    return CampaignResult(
        kind=campaign.kind,
        euclidean=metrics.DistanceReport.from_values(ed, kind=campaign.kind, metric="euclidean"),
        correlation=metrics.DistanceReport.from_values(
            cc, kind=campaign.kind, metric="cross_correlation"
        ),
        hash_hamming=hd_report,
    )


# ----------------------------------------------------------------------
# authentication success curve

@dataclass(frozen=True)
class SuccessCurve:
    thresholds: np.ndarray
    probabilities: np.ndarray

    def threshold_for(self, probability: float) -> int | None:
        """Smallest correction capability reaching the target probability."""
        hit = np.nonzero(self.probabilities >= probability)[0]
        return int(self.thresholds[hit[0]]) if hit.size else None

    def rows(self):
        return list(zip(self.thresholds.tolist(), self.probabilities.tolist()))


def success_curve(enroll_keys, auth_keys, thresholds=None) -> SuccessCurve:
    """Empirical probability that decoding with capability t would succeed.

    Pairs enrollment and authentication keys elementwise; a pair succeeds at
    threshold t when its Hamming distance is at most t. The curve is
    non-decreasing in t by construction.
    """
    enroll_keys = list(enroll_keys)
    auth_keys = list(auth_keys)
    if len(enroll_keys) != len(auth_keys) or not enroll_keys:
        raise ValueError("need equal, nonzero numbers of enrollment and authentication keys")
    distances = np.array(
        [metrics.hamming(a, b) for a, b in zip(enroll_keys, auth_keys)], dtype=np.int64
    )
    key_len = len(enroll_keys[0])
    if thresholds is None:
        thresholds = np.arange(key_len + 1)
    thresholds = np.asarray(thresholds, dtype=np.int64)
    probs = np.array([(distances <= t).mean() for t in thresholds])
    return SuccessCurve(thresholds, probs)
