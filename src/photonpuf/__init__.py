"""photonpuf: physically unclonable functions from simulated laser speckle.

The package models the full chain of an optical PUF deployment in software:
a seeded speckle simulator stands in for the physical token and readout
optics, robust hashing condenses speckle images into binary keys, a BCH-based
fuzzy commitment turns noisy keys into exact authentication, and evaluation
helpers quantify robustness, unpredictability, unclonability and randomness.
"""

from .bch import BchParams, bch_new, decode, encode
from .hashing import (
    BitKey,
    RbmHelper,
    SvdHelper,
    hash_apply,
    hash_enroll,
    rbm_hash,
    standardize,
    svd_hash,
)
from .metrics import DistanceReport, cross_correlation, euclidean, fractional_hamming, hamming, overlap
from .campaign import Campaign, CampaignResult, run_campaign, success_curve
from .protocol import (
    EnrollmentRecord,
    authenticate,
    enroll,
    key_digest,
    load_record,
    recover_key,
    save_record,
    verify,
)
from .randomness import extract_bits, nist_test, suite_report
from .token import (
    Challenge,
    NoiseParams,
    PixelPattern,
    SpeckleImage,
    TokenModel,
    Wavelength,
    load_pgm,
    load_token,
    new_token,
    pattern_field,
    random_pattern,
    respond,
    save_pgm,
    save_token,
    token_id,
    wavelength_field,
)

__version__ = "0.1.0"
