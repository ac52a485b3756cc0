"""Batch evaluation: capture functions, one scorer, and the success curve.

Each capture function drives the simulator through one of the three
canonical dataset shapes and returns its captures, reference first:

* ``robustness``: one token, one challenge, repeated noisy captures.
* ``unpredictability``: one token, many challenges.
* ``unclonability``: one challenge on the reference token, then on other
  tokens built from their seeds with the reference token's geometry (kind,
  grid, camera, decorrelation length and grain).

Capture i uses noise seed ``noise.noise_seed + i``. ``score`` compares the
reference with every later capture, mirroring how authentication compares
field captures to the enrolled key, and returns a plain mapping from metric
name to ``metrics.DistanceReport``: ``"euclidean"`` and ``"correlation"``
always, and ``"hamming"`` when a key length is supplied. The reference then
enrolls with ``hashing.hash_enroll`` at mapping seed 0, so every evaluation
of one geometry hashes with the same mapping, and every later capture is
hashed with the reference's helper.

``success_curve`` turns the Hamming distances between enrollment and
authentication keys into the probability that a code correcting t errors
accepts, for every t.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import metrics
from .hashing import hash_apply, hash_enroll
from .token import NoiseParams, TokenModel, respond

__all__ = [
    "robustness",
    "score",
    "success_curve",
    "unclonability",
    "unpredictability",
]


def robustness(token: TokenModel, challenge, noise: NoiseParams, repeats: int) -> list:
    """``repeats`` noisy captures of one challenge on one token."""
    if repeats < 2:
        raise ValueError("robustness needs at least two captures")
    return [respond(token, challenge, noise.with_seed(noise.noise_seed + i)) for i in range(repeats)]


def unpredictability(token: TokenModel, challenges, noise: NoiseParams) -> list:
    """One capture of each challenge on one token."""
    if len(challenges) < 2:
        raise ValueError("unpredictability needs at least two challenges")
    return [
        respond(token, c, noise.with_seed(noise.noise_seed + i)) for i, c in enumerate(challenges)
    ]


def unclonability(token: TokenModel, challenge, other_token_seeds, noise: NoiseParams) -> list:
    """One challenge on the reference token, then on each other token."""
    other_token_seeds = tuple(other_token_seeds)
    if not other_token_seeds:
        raise ValueError("unclonability needs at least one other token seed")
    if token.token_seed in other_token_seeds:
        raise ValueError(f"other token seeds include the reference seed {token.token_seed}")
    images = [respond(token, challenge, noise)]
    for i, seed in enumerate(other_token_seeds, start=1):
        # one other token alive at a time: a default token holds 15.7 MiB, 32 MiB while built
        other = replace(token, token_seed=seed)
        images.append(respond(other, challenge, noise.with_seed(noise.noise_seed + i)))
    return images


def score(kind: str, images, key_len: int | None = None) -> dict[str, metrics.DistanceReport]:
    """Distances from ``images[0]`` to every later capture by metric; ``kind`` labels the reports."""
    ref, *rest = images

    def report(metric, values):
        return metrics.DistanceReport.from_values(values, kind=kind, metric=metric)

    reports = {
        "euclidean": report("euclidean", [metrics.euclidean(ref, img) for img in rest]),
        "correlation": report("cross_correlation",
                              [metrics.cross_correlation(ref, img) for img in rest]),
    }
    if key_len is not None:
        ref_key, helper = hash_enroll(ref, key_len, 0)
        keys = [hash_apply(img, helper) for img in rest]
        reports["hamming"] = report("fractional_hamming",
                                    [metrics.fractional_hamming(ref_key, key) for key in keys])
    return reports


def success_curve(distances, key_len: int) -> np.ndarray:
    """Empirical probability that decoding with capability t succeeds, for t = 0..key_len.

    A key pair at Hamming distance d succeeds at threshold t when d <= t, so
    the curve is non-decreasing and reaches 1 at ``key_len``.
    """
    distances = np.asarray(distances, dtype=np.int64)
    if distances.size == 0:
        raise ValueError("need at least one key distance")
    return (distances[:, None] <= np.arange(key_len + 1)).mean(axis=0)
