"""Seeded speckle simulator standing in for a physical photonic token.

A token is a random complex transmission tensor: one complex field per
(challenge pixel, camera pixel) pair, drawn i.i.d. circular Gaussian from the
token seed. Illuminating a subset of challenge pixels superimposes the
corresponding rows coherently; the camera sees the squared magnitude. That
minimal model already produces fully developed speckle (exponential intensity
statistics) and exact field superposition between challenges.

The speckle grain is a Gaussian low-pass on each row, and a field passed
through it is band-limited by its aperture (Goodman, *Speckle Phenomena in
Optics*, ch. 4). So the tensor is stored in the pupil domain: each drawn row
is transformed once, multiplied by the grain's transfer function, and only
the bins holding all but ``_BAND_LOSS`` of that function's power are kept,
about half of them at the default grain. One read-only complex64 table per
token (15.7 MiB at the default geometry) holds one contiguous row of band
bins per challenge pixel. A capture adds up its lit rows in the band,
scatters the sum into an otherwise empty spectrum and takes one inverse
transform to the camera, in single precision from the sum to quantization.
A grainless token keeps every bin with a unit transfer function, so the same
path serves it.

Wavelength is a second challenge axis: the per-pixel field evolves with
wavelength as a stationary Gauss-Markov (Ornstein-Uhlenbeck) process,
realized exactly on a dyadic grid over the whole tuning window by seeded
bridge bisection from the two window ends. Any two responses along the axis
then have field correlation exactly exponential in their separation, and a
query costs one seeded draw per level with no state kept between queries.

Both axes share one capture pipeline. A challenge lights source rows (one
per on pixel of a mask, or one full field for a wavelength), and drift of
width ``sigma``, growing linearly with the thermal offset, partly
decorrelates the medium: each capture sees ``T' = c T + sqrt(1 - c^2) W``,
``c = exp(-sigma^2 / 2)``, with ``W`` a fresh i.i.d. unit circular Gaussian
matrix (Goodman, *Speckle Phenomena in Optics*). Summed over ``R`` lit rows
that is exactly ``c * sum_r a_r + sqrt((1 - c^2) R) w``, one unit complex
normal ``w`` per camera pixel. The unnormalized DFT of white CN(0, 1) over
``N`` pixels is white CN(0, N), so after the grain filter ``w`` is one
complex normal per band bin scaled by ``sqrt(N)`` times the transfer
function there: a capture adds up only the lit rows of the table and draws
one complex normal per kept bin. The field correlation with the noiseless
capture is ``c``, the intensity correlation ``exp(-sigma^2)``. Additive
camera noise on the scaled intensity and quantization follow.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.fft

from ._binio import Reader, frozen_array, le, pack_bits, packed_size, unpack_bits
from .errors import BadMagicError, FormatError, TruncatedError

__all__ = [
    "KINDS",
    "TUNING_RANGE_NM",
    "MAX_FIELD_ELEMENTS",
    "TokenModel",
    "PixelPattern",
    "Wavelength",
    "Challenge",
    "NoiseParams",
    "new_token",
    "token_id",
    "respond",
    "pattern_field",
    "wavelength_field",
    "random_pattern",
    "challenge_to_bytes",
    "challenge_from_bytes",
    "token_to_bytes",
    "token_from_bytes",
    "save_token",
    "load_token",
    "save_pgm",
    "load_pgm",
]

KINDS = ("diffuser", "pof")
_KIND_CODE = {"diffuser": 0, "pof": 1}
_KIND_NAME = {v: k for k, v in _KIND_CODE.items()}

# wavelength tuning window of the simulated source, nanometers
TUNING_RANGE_NM = (1540.0, 1570.0)

# default field decorrelation lengths along wavelength, picometers
DEFAULT_DECORRELATION_PM = {"diffuser": 2000.0, "pof": 120.0}

# default speckle grain radius (gaussian sigma, camera pixels)
DEFAULT_GRAIN_PX = 1.5

# intensity headroom: mean intensity maps to 1/4 of full scale
_HEADROOM = 4.0

# extra phase spread per degree C of thermal offset, radians
_DRIFT_COEFF = 0.2

# largest share of the grain filter's power a token's band may leave out
_BAND_LOSS = 1e-6

# most field tensor elements (grid x camera pixels) a token may have: about
# 4x the default 256 x 16384, so a hostile token file cannot demand
# gigabytes. A build holds the complex64 band table (8 bytes per kept bin)
# and, until each row's imaginary draw, its float32 real parts (4 bytes per
# element); when the band is at least half the bins, as on a grainless
# token, those wait in the table's own tail. So a build peaks below 8 bytes
# per element, 128 MiB at the limit
MAX_FIELD_ELEMENTS = 2 ** 24

_TAG_FIELD = 0x1A57
_TAG_WL_BRIDGE = 0x5B1D6E
_TAG_NOISE = 0x401E

# wavelength queries snap to a dyadic grid over the tuning window that is at
# least this many times finer than the decorrelation length
_BRIDGE_RESOLUTION = 4096
# deepest bisection a token may ask for; finer decorrelation lengths are rejected
_MAX_BRIDGE_LEVELS = 64
_MIN_DECORRELATION_PM = (
    (TUNING_RANGE_NM[1] - TUNING_RANGE_NM[0]) * 1000.0 * _BRIDGE_RESOLUTION
    / 2.0 ** _MAX_BRIDGE_LEVELS)

_MAGIC_TOKEN = b"PUFT"
_TOKEN_VERSION = 1


# ----------------------------------------------------------------------
# data types

@dataclass(frozen=True, eq=False)
class PixelPattern:
    """Spatial challenge: binary on/off mask over the modulator grid."""

    mask: np.ndarray

    def __post_init__(self):
        mask = frozen_array(self.mask, np.uint8)
        if mask.ndim != 2:
            raise ValueError("challenge mask must be 2-D")
        if np.any(mask > 1):
            raise ValueError("challenge mask must be binary")
        object.__setattr__(self, "mask", mask)

    @property
    def on_count(self) -> int:
        return int(self.mask.sum())


@dataclass(frozen=True)
class Wavelength:
    """Spectral challenge: source wavelength in nanometers."""

    lambda_nm: float

    def __post_init__(self):
        lo, hi = TUNING_RANGE_NM
        if not lo <= self.lambda_nm <= hi:
            raise ValueError(
                f"wavelength {self.lambda_nm} nm outside tuning range {lo}..{hi} nm"
            )


Challenge = PixelPattern | Wavelength


@dataclass(frozen=True)
class NoiseParams:
    """Readout noise configuration for a single capture.

    intensity_sigma is a fraction of full scale; phase_drift_sigma (radians)
    is the width sigma of the medium's decorrelation: a capture's field keeps
    correlation ``exp(-sigma^2 / 2)`` with the noiseless one. delta_T
    (degrees C) adds ``_DRIFT_COEFF * |delta_T|`` (0.2 rad/degC) to sigma.
    noise_seed makes the capture reproducible; all-zero magnitudes give
    bit-exact deterministic output. Magnitudes must be finite and
    non-negative and delta_T finite (either sign); anything else raises
    ValueError.
    """

    intensity_sigma: float = 0.01
    phase_drift_sigma: float = 0.085
    delta_T: float = 0.0
    noise_seed: int = 0

    def __post_init__(self):
        # the capture tests each magnitude with "> 0", so a negative or NaN one
        # would silently read as no noise at all
        for name in ("intensity_sigma", "phase_drift_sigma"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
        if not math.isfinite(self.delta_T):
            raise ValueError(f"delta_T must be finite, got {self.delta_T}")

    @classmethod
    def none(cls) -> "NoiseParams":
        return cls(intensity_sigma=0.0, phase_drift_sigma=0.0)

    def with_seed(self, noise_seed: int) -> "NoiseParams":
        return replace(self, noise_seed=noise_seed)

    @property
    def phase_sigma_total(self) -> float:
        return self.phase_drift_sigma + _DRIFT_COEFF * abs(self.delta_T)


@dataclass(frozen=True)
class TokenModel:
    """An instantiated token: seed, geometry and the realized field tensor.

    The field tensor is held in the pupil domain. ``band`` holds the
    ascending flat indices of the ``out_dims`` spectrum bins that keep all
    but ``_BAND_LOSS`` of the grain filter's power (every bin on a grainless
    token), and ``band_kernel`` the filter's float32 transfer function there,
    of unit mean power over all bins. ``field_tensor`` is a read-only,
    C-contiguous complex64 table of shape ``(n_grid, band.size)``: row ``r``
    is the unnormalized ``fft2`` of modulator pixel ``r``'s field at the
    camera, taken at the band and multiplied by ``band_kernel / sqrt(2)``.
    That field's real and imaginary parts are float64 standard normal draws,
    real parts of every row first, each cast once to float32.
    Everything is fully determined by the descriptor; two constructions from
    the same parameters are identical. Instances are frozen (every query is
    a pure function of the descriptor) and safe to share across threads;
    equality and hashing are by the six descriptor fields, and
    ``dataclasses.replace`` realizes a new token.
    """

    token_seed: int
    kind: str
    grid_dims: tuple
    out_dims: tuple
    wl_decorrelation_length: float
    speckle_grain: float
    field_tensor: np.ndarray = field(init=False, repr=False, compare=False)
    band: np.ndarray = field(init=False, repr=False, compare=False)
    band_kernel: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # the descriptor in canonical types: equality, hashing and token_id read it
        def dims(d):
            return (int(d[0]), int(d[1]))

        for name, cast in (("token_seed", int), ("grid_dims", dims), ("out_dims", dims),
                           ("wl_decorrelation_length", float), ("speckle_grain", float)):
            object.__setattr__(self, name, cast(getattr(self, name)))
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not (0 <= self.token_seed < 2 ** 64):
            raise ValueError("token_seed must fit in 64 bits")
        if min(self.grid_dims) < 1 or min(self.out_dims) < 1:
            raise ValueError("dimensions must be positive")
        n_grid = self.grid_dims[0] * self.grid_dims[1]
        n_out = self.out_dims[0] * self.out_dims[1]
        if n_grid * n_out > MAX_FIELD_ELEMENTS:
            raise ValueError(
                f"field tensor of {n_grid} x {n_out} exceeds {MAX_FIELD_ELEMENTS} elements")
        if not _MIN_DECORRELATION_PM <= self.wl_decorrelation_length < math.inf:
            raise ValueError(f"decorrelation length must be finite and at least "
                             f"{_MIN_DECORRELATION_PM:.3g} pm")
        if not 0 <= self.speckle_grain <= max(self.out_dims):
            # a wider grain leaves one speckle on the camera (and overflows its kernel)
            raise ValueError(f"speckle grain must be in 0..{max(self.out_dims)} pixels")

        # gaussian transfer function of the speckle grain, unit mean power; the
        # weakest bins whose summed power is at most _BAND_LOSS of the total go,
        # equal ones together, so a flat (grainless) kernel keeps every bin
        fy = scipy.fft.fftfreq(self.out_dims[0])
        fx = scipy.fft.fftfreq(self.out_dims[1])
        h = np.exp(-2.0 * np.pi ** 2 * self.speckle_grain ** 2
                   * (fy[:, None] ** 2 + fx[None, :] ** 2)).ravel()
        h /= np.sqrt(np.mean(h ** 2))
        power = np.sort(h ** 2)
        weakest_kept = power[np.searchsorted(np.cumsum(power), _BAND_LOSS * power.sum(),
                                             side="right")]
        band = np.flatnonzero(h ** 2 >= weakest_kept)
        object.__setattr__(self, "band", frozen_array(band, np.intp))
        object.__setattr__(self, "band_kernel", frozen_array(h[band], np.float32))

        rng = np.random.default_rng(
            np.random.SeedSequence(
                [self.token_seed, _KIND_CODE[self.kind], *self.grid_dims, *self.out_dims,
                 _TAG_FIELD]
            )
        )
        field_tensor = np.empty((n_grid, band.size), dtype=np.complex64)
        # every row's real part is drawn before any imaginary part. Where the
        # band is at least half the bins the float32 real parts wait in the
        # table's tail: row r's band ends before row r + 1's real part begins
        if 2 * band.size >= n_out:
            real = field_tensor.view(np.float32).reshape(-1)[-n_grid * n_out:]
        else:
            real = np.empty(n_grid * n_out, dtype=np.float32)
        real = real.reshape(n_grid, n_out)
        for row in real:
            row[...] = rng.standard_normal(n_out)
        scale = (h[band] / np.sqrt(2.0)).astype(np.float32)
        pixels = np.empty(self.out_dims, dtype=np.complex64)
        for r in range(n_grid):
            pixels.real = real[r].reshape(self.out_dims)
            pixels.imag = rng.standard_normal(self.out_dims)
            spectrum = scipy.fft.fft2(pixels, overwrite_x=True).reshape(-1)
            np.multiply(spectrum[band], scale, out=field_tensor[r])
        field_tensor.flags.writeable = False
        object.__setattr__(self, "field_tensor", field_tensor)


def new_token(token_seed, kind="diffuser", grid_dims=(16, 16), out_dims=(128, 128),
              wl_decorrelation_length=None, speckle_grain=DEFAULT_GRAIN_PX) -> TokenModel:
    """Instantiate a fresh token from a 64-bit seed.

    ``kind`` selects the wavelength sensitivity profile: "pof" (a few hundred
    picometers of decorrelation) or "diffuser" (a few nanometers). An explicit
    ``wl_decorrelation_length`` (picometers) overrides the kind default.
    """
    if wl_decorrelation_length is None:
        wl_decorrelation_length = DEFAULT_DECORRELATION_PM[kind] if kind in KINDS else 0
    return TokenModel(token_seed, kind, grid_dims, out_dims,
                      wl_decorrelation_length, speckle_grain)


def token_id(token: TokenModel) -> bytes:
    """Stable 16-byte identifier derived from the token descriptor."""
    return hashlib.sha256(token_to_bytes(token)).digest()[:16]


# ----------------------------------------------------------------------
# responses

def _lit_rows(token: TokenModel, challenge: PixelPattern) -> np.ndarray:
    """Indices of the modulator pixels, hence table rows, a pixel mask lights."""
    if not isinstance(challenge, PixelPattern):
        raise TypeError(f"not a pixel challenge: {challenge!r}")
    if challenge.mask.shape != token.grid_dims:
        raise ValueError(f"mask shape {challenge.mask.shape} does not match grid {token.grid_dims}")
    return np.flatnonzero(challenge.mask)


def _lit_sum(token: TokenModel, lit: np.ndarray) -> np.ndarray:
    """Complex64 band spectrum of the lit rows: their sum in ``token.field_tensor``.

    Each add is one single-threaded ufunc call that releases the GIL and
    reads one contiguous lit row of band bins; the sum equals
    ``field_tensor[lit].sum(axis=0)`` and is returned as it is, for the rest
    of the capture to stay in single precision.
    """
    table = token.field_tensor
    acc = np.zeros(table.shape[1], dtype=table.dtype)
    for r in lit:
        acc += table[r]
    return acc


def _camera_field(token: TokenModel, band_spectrum: np.ndarray) -> np.ndarray:
    """Complex64 camera field of a band spectrum: scattered into an empty spectrum, one ifft2."""
    spectrum = np.zeros(token.out_dims, dtype=np.complex64)
    spectrum.reshape(-1)[token.band] = band_spectrum
    return scipy.fft.ifft2(spectrum, overwrite_x=True)


def pattern_field(token: TokenModel, challenge: PixelPattern) -> np.ndarray:
    """Noise-free complex64 field at the camera for a spatial challenge.

    The sum of the lit rows' band spectra, taken to the camera: the field a
    noiseless capture squares. Linear in the mask up to single-precision
    rounding, so disjoint masks add: field(a | b) ~= field(a) + field(b).
    """
    return _camera_field(token, _lit_sum(token, _lit_rows(token, challenge)))


def _bridge_levels(decorrelation_pm: float) -> int:
    """Bisection depth whose grid step over the window is at most L/4096."""
    width_pm = (TUNING_RANGE_NM[1] - TUNING_RANGE_NM[0]) * 1000.0
    return max(0, math.ceil(math.log2(width_pm * _BRIDGE_RESOLUTION / decorrelation_pm)))


def _bridge_innovation(token: TokenModel, depth: int, index: int) -> np.ndarray:
    n_out = token.out_dims[0] * token.out_dims[1]
    rng = np.random.default_rng(
        np.random.SeedSequence(
            [token.token_seed, _KIND_CODE[token.kind], *token.out_dims,
             _TAG_WL_BRIDGE, depth, index]
        )
    )
    # interleaved (real, imag) pairs: one draw, no complex temporaries
    return rng.standard_normal(2 * n_out).view(np.complex128) * np.sqrt(0.5)


def wavelength_field(token: TokenModel, challenge: Wavelength) -> np.ndarray:
    """Noise-free complex field for a spectral challenge.

    The correlation between fields at two wavelengths decays as
    ``exp(-delta / wl_decorrelation_length)`` with delta in picometers.
    Wavelengths snap to a dyadic grid over the tuning window whose step is
    at most 1/4096 of the decorrelation length.

    The two window ends, T = 30 nm apart, are drawn jointly with correlation
    ``exp(-T / L)``; bisection toward the target then samples each midpoint from its segment
    ends with a seeded residual. The Markov property makes the refinement
    exact: every finite set of grid points carries exactly the exponential
    covariance, and revisiting a point reproduces the same field.
    """
    if not isinstance(challenge, Wavelength):
        raise TypeError(f"not a wavelength challenge: {challenge!r}")
    lo_nm, hi_nm = TUNING_RANGE_NM
    length = token.wl_decorrelation_length
    steps = 1 << _bridge_levels(length)
    step_pm = (hi_nm - lo_nm) * 1000.0 / steps
    target = int(round((challenge.lambda_nm - lo_nm) * 1000.0 / step_pm))
    rho = np.exp(-steps * step_pm / length)
    lo, hi = 0, steps
    e_lo = _bridge_innovation(token, 0, 0)
    e_hi = rho * e_lo + np.sqrt(1.0 - rho * rho) * _bridge_innovation(token, 0, 1)
    depth = 1
    while target not in (lo, hi):
        mid = (lo + hi) // 2
        rho = np.exp(-(mid - lo) * step_pm / length)  # half-segment correlation
        coef = rho / (1.0 + rho * rho)
        sigma = np.sqrt((1.0 - rho * rho) / (1.0 + rho * rho))
        e_mid = coef * (e_lo + e_hi) + sigma * _bridge_innovation(token, depth, mid)
        if target < mid:
            hi, e_hi = mid, e_mid
        else:
            lo, e_lo = mid, e_mid
        depth += 1
    field = e_lo if target == lo else e_hi
    return field.reshape(token.out_dims)


def _capture(token: TokenModel, field: np.ndarray, mean_intensity: float,
             noise: NoiseParams, bit_depth: int, rng) -> np.ndarray:
    """Capture tail of ``respond``: intensity, additive noise, quantization.

    ``field`` is the complex64 camera field of ``token``, grain included.
    Returns the quantized 2-D pixel array: uint8 up to 8 bits, uint16 above.
    Every step runs in single precision.
    """
    qmax = (1 << bit_depth) - 1
    img = np.square(field.real)
    img += np.square(field.imag)
    img *= np.float32(qmax / (_HEADROOM * mean_intensity))
    if noise.intensity_sigma > 0:
        img += np.float32(noise.intensity_sigma * qmax) * rng.standard_normal(
            token.out_dims, dtype=np.float32)
    px = np.clip(np.floor(img + np.float32(0.5)), 0, qmax)
    return px.astype(np.uint8 if bit_depth <= 8 else np.uint16)


def _noise_rng(noise: NoiseParams):
    return np.random.default_rng(np.random.SeedSequence([_TAG_NOISE, noise.noise_seed]))


def respond(token: TokenModel, challenge: Challenge, noise: NoiseParams | None = None,
            bit_depth: int = 8) -> np.ndarray:
    """Capture the speckle image for a pixel-mask or wavelength challenge.

    Everything up to the camera runs on the token's band. A mask sums its lit
    rows of ``token.field_tensor`` and reads no unlit row; a wavelength is
    one row, its field transformed into the band. Drift then keeps
    ``c = exp(-sigma^2 / 2)`` of that spectrum and adds one circular Gaussian
    per band bin of power ``(1 - c^2) R N`` for ``R`` rows and ``N`` camera
    pixels, times the grain's transfer function: the decorrelated part of
    every lit row, filtered. The spectrum is scattered into the full one for
    one inverse transform, and ``_capture`` then scales by the row count (at
    least 1) and quantizes to ``bit_depth`` bits (1..16). The result is a
    fresh 2-D pixel array of shape ``token.out_dims``, uint8 up to 8 bits and
    uint16 above, held by the caller alone.
    Identical inputs (including noise_seed) give bit-identical images, and
    with all noise magnitudes zero the capture is a pure function of token
    and challenge.
    """
    if noise is None:
        noise = NoiseParams.none()
    if not 1 <= bit_depth <= 16:
        raise ValueError("bit_depth must be in 1..16")
    rng = _noise_rng(noise)
    sigma_phi = noise.phase_sigma_total
    if isinstance(challenge, Wavelength):
        pixels = wavelength_field(token, challenge).astype(np.complex64)
        full = scipy.fft.fft2(pixels, overwrite_x=True).reshape(-1)
        n_rows, spectrum = 1, full[token.band] * token.band_kernel
    else:
        lit = _lit_rows(token, challenge)
        n_rows, spectrum = lit.size, _lit_sum(token, lit)
    if sigma_phi > 0:
        c = math.exp(-0.5 * sigma_phi * sigma_phi)
        # per complex component of a bin: half of (1 - c^2) * R * N, times the kernel
        n_out = token.out_dims[0] * token.out_dims[1]
        spread = np.float32(math.sqrt(0.5 * (1.0 - c * c) * n_rows * n_out))
        drift = rng.standard_normal(2 * spectrum.size, dtype=np.float32).view(np.complex64)
        spectrum = np.float32(c) * spectrum + (spread * token.band_kernel) * drift
    return _capture(token, _camera_field(token, spectrum), max(n_rows, 1), noise, bit_depth, rng)


def random_pattern(grid_dims, rng_seed, on_fraction=0.5) -> PixelPattern:
    """Pseudo-random spatial challenge with the given expected on fraction."""
    if not 0.0 <= on_fraction <= 1.0:
        raise ValueError("on_fraction must be in [0, 1]")
    rng = np.random.default_rng(np.random.SeedSequence([rng_seed, 0xC4A1]))
    mask = (rng.random(tuple(grid_dims)) < on_fraction).astype(np.uint8)
    return PixelPattern(mask)


# ----------------------------------------------------------------------
# serialization

def token_to_bytes(token: TokenModel) -> bytes:
    return b"".join(
        [
            _MAGIC_TOKEN,
            le("H", _TOKEN_VERSION),
            le("B", _KIND_CODE[token.kind]),
            le("Q", token.token_seed),
            le("IIII", *token.grid_dims, *token.out_dims),
            le("d", token.wl_decorrelation_length),
            le("d", token.speckle_grain),
        ]
    )


def token_from_bytes(data: bytes) -> TokenModel:
    r = Reader(data)
    r.expect_magic(_MAGIC_TOKEN, "token")
    r.expect_version(_TOKEN_VERSION, "token")
    kind_code = r.unpack("B")
    if kind_code not in _KIND_NAME:
        raise FormatError(f"unknown token kind code {kind_code}")
    seed = r.unpack("Q")
    gr, gc, n1, n2 = r.unpack("IIII")
    decorr = r.unpack("d")
    grain = r.unpack("d")
    r.expect_end("token")
    return TokenModel(seed, _KIND_NAME[kind_code], (gr, gc), (n1, n2), decorr, grain)


def save_token(token: TokenModel, path):
    with open(path, "wb") as fh:
        fh.write(token_to_bytes(token))


def load_token(path) -> TokenModel:
    with open(path, "rb") as fh:
        return token_from_bytes(fh.read())


_CHALLENGE_PIXEL = 0
_CHALLENGE_WAVELENGTH = 1
_CHALLENGE_NONE = 2


def challenge_to_bytes(challenge: Challenge | None) -> bytes:
    if challenge is None:
        return le("B", _CHALLENGE_NONE)
    if isinstance(challenge, PixelPattern):
        rows, cols = challenge.mask.shape
        return b"".join(
            [le("B", _CHALLENGE_PIXEL), le("II", rows, cols), pack_bits(challenge.mask)]
        )
    if isinstance(challenge, Wavelength):
        return le("B", _CHALLENGE_WAVELENGTH) + le("d", challenge.lambda_nm)
    raise TypeError(f"not a challenge: {challenge!r}")


def challenge_from_bytes(data: bytes) -> Challenge | None:
    r = Reader(data)
    tag = r.unpack("B")
    if tag == _CHALLENGE_PIXEL:
        rows, cols = r.unpack("II")
        bits = unpack_bits(r.take(packed_size(rows * cols)), rows * cols)
        challenge = PixelPattern(bits.reshape(rows, cols))
    elif tag == _CHALLENGE_WAVELENGTH:
        challenge = Wavelength(r.unpack("d"))
    elif tag == _CHALLENGE_NONE:
        challenge = None
    else:
        raise FormatError(f"unknown challenge tag {tag}")
    r.expect_end("challenge")
    return challenge


# ----------------------------------------------------------------------
# PGM import/export (binary P5, single byte samples)

def save_pgm(image: np.ndarray, path):
    px = np.asarray(image)
    if px.ndim != 2 or px.dtype != np.uint8:
        raise ValueError("PGM export needs a 2-D uint8 image")
    rows, cols = px.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{cols} {rows}\n255\n".encode("ascii"))
        fh.write(px.tobytes())


def _pgm_tokens(data: bytes):
    """Header tokenizer: whitespace separated, # starts a comment line."""
    i = 0
    while True:
        while i < len(data) and data[i : i + 1].isspace():
            i += 1
        if i < len(data) and data[i : i + 1] == b"#":
            while i < len(data) and data[i] != 0x0A:
                i += 1
            continue
        start = i
        while i < len(data) and not data[i : i + 1].isspace():
            i += 1
        if start == i:
            raise TruncatedError("PGM header ended early")
        yield data[start:i], i


def load_pgm(path) -> np.ndarray:
    """Read a binary PGM as a read-only 2-D uint8 pixel array."""
    with open(path, "rb") as fh:
        data = fh.read()
    toks = _pgm_tokens(data)
    magic, _ = next(toks)
    if magic != b"P5":
        raise BadMagicError(f"not a binary PGM file (magic {magic!r})")
    (cols, _), (rows, _), (maxval, end) = (next(toks) for _ in range(3))
    for number in (cols, rows, maxval):
        if not number.isdigit():
            raise FormatError(f"PGM header number {number!r} is not ASCII decimal")
    cols, rows, maxval = int(cols), int(rows), int(maxval)
    if cols < 1 or rows < 1:
        raise FormatError(f"PGM dimensions {cols}x{rows} must be positive")
    if not 0 < maxval <= 255:
        raise FormatError(f"unsupported PGM maxval {maxval}")
    start = end + 1  # single whitespace byte after maxval
    raw = data[start : start + rows * cols]
    if len(raw) < rows * cols:
        raise TruncatedError("PGM pixel data truncated")
    px = np.frombuffer(raw, dtype=np.uint8).reshape(rows, cols)
    if px.max() > maxval:
        raise FormatError(f"PGM sample {px.max()} exceeds maxval {maxval}")
    return px
