"""Simulator checks: determinism, field statistics, noise models, file formats.

The oracles here are analytic speckle properties: fully developed speckle has
exponential intensity statistics, the intensity correlation between two
captures equals the squared magnitude of their field correlation, and pixel
superposition is exact linearity in the transmission rows.
"""

import copy
import io
import math
import struct
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.fft

from photonpuf import errors, metrics
from photonpuf import token as tok

RNG = np.random.default_rng(20260814)


def make_token(seed=1, kind="diffuser", grid=(8, 8), out=(64, 64), grain=0.0, **kw):
    return tok.new_token(seed, kind=kind, grid_dims=grid, out_dims=out,
                         speckle_grain=grain, **kw)


def mask_from_indices(grid, indices):
    mask = np.zeros(grid, dtype=np.uint8)
    mask.ravel()[list(indices)] = 1
    return tok.PixelPattern(mask)


# ---------------------------------------------------------------- determinism

def test_same_seed_same_tensor():
    a = make_token(seed=5)
    b = make_token(seed=5)
    assert np.array_equal(a.field_tensor, b.field_tensor)
    assert tok.token_id(a) == tok.token_id(b)


def test_different_seed_different_tensor():
    a = make_token(seed=5)
    b = make_token(seed=6)
    assert not np.array_equal(a.field_tensor, b.field_tensor)
    assert tok.token_id(a) != tok.token_id(b)


def test_token_is_frozen():
    # a token shared across threads refuses every change, so its id always names its field
    t = make_token(seed=5, grain=1.5)
    tid, field = tok.token_id(t), t.field_tensor.copy()
    for name in ("token_seed", "kind", "out_dims", "grain_kernel", "field_tensor"):
        with pytest.raises(AttributeError):
            setattr(t, name, 99)
        with pytest.raises(AttributeError):
            delattr(t, name)
    assert t.token_seed == 5 and tok.token_id(t) == tid
    assert np.array_equal(t.field_tensor, field)
    assert not t.grain_kernel.flags.writeable


def test_kind_changes_realization():
    a = make_token(seed=5, kind="diffuser")
    b = make_token(seed=5, kind="pof")
    assert not np.array_equal(a.field_tensor, b.field_tensor)


def test_capture_reproducible_per_noise_seed():
    t = make_token()
    chal = tok.random_pattern(t.grid_dims, 3)
    noise = tok.NoiseParams().with_seed(11)
    img1 = tok.respond(t, chal, noise)
    img2 = tok.respond(t, chal, noise)
    img3 = tok.respond(t, chal, tok.NoiseParams().with_seed(12))
    assert np.array_equal(img1, img2)
    assert not np.array_equal(img1, img3)


# ---------------------------------------------------------------- field physics

def test_single_pixel_field_is_tensor_row():
    t = make_token()
    idx = 13
    field = tok.pattern_field(t, mask_from_indices(t.grid_dims, [idx]))
    assert np.allclose(field.ravel(), t.field_tensor[idx])


def test_superposition_is_exact():
    # the response to a multi-pixel pattern is the coherent sum of the rows
    t = make_token()
    on = RNG.choice(64, size=17, replace=False)
    field = tok.pattern_field(t, mask_from_indices(t.grid_dims, on))
    oracle = t.field_tensor[np.sort(on)].sum(axis=0)
    assert np.array_equal(field.ravel(), oracle)


def test_field_tensor_is_one_read_only_contiguous_complex64_table():
    # one complex64 table per token, one contiguous row per modulator pixel
    t = make_token()
    assert t.field_tensor.shape == (64, 64 * 64) and t.field_tensor.dtype == np.complex64
    assert t.field_tensor.flags.c_contiguous and not t.field_tensor.flags.writeable


def test_rows_are_the_float64_draw_rounded_once():
    # the same realization as a float64 table: the field is draw / sqrt(2) in
    # float64, real parts first, then imaginary, each rounded once to float32
    t = make_token(seed=9)
    n_grid, n_out = t.field_tensor.shape
    rng = np.random.default_rng(np.random.SeedSequence(
        [9, tok._KIND_CODE["diffuser"], *t.grid_dims, *t.out_dims, tok._TAG_FIELD]))
    real = rng.standard_normal((n_grid, n_out)) / np.sqrt(2.0)
    imag = rng.standard_normal((n_grid, n_out)) / np.sqrt(2.0)
    assert np.array_equal(t.field_tensor.real, real.astype(np.float32))
    assert np.array_equal(t.field_tensor.imag, imag.astype(np.float32))


def test_default_token_table_is_32_mib():
    assert tok.new_token(1).field_tensor.nbytes == 32 * 2 ** 20


def test_token_build_holds_no_second_copy_of_the_table():
    # the float64 draws come one row at a time, so building a default token
    # peaks near its table's bytes, not at twice them
    tracemalloc.start()
    try:
        t = tok.new_token(1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * t.field_tensor.nbytes


@pytest.mark.parametrize("args, match", [
    ((1, "prism", (2, 2), (4, 4)), "kind"),
    ((2 ** 64, "diffuser", (2, 2), (4, 4)), "64 bits"),
    ((-1, "diffuser", (2, 2), (4, 4)), "64 bits"),
    ((1, "diffuser", (0, 2), (4, 4)), "positive"),
    ((1, "diffuser", (2, 2), (4, 0)), "positive"),
])
def test_token_descriptor_rejected(args, match):
    with pytest.raises(ValueError, match=match):
        tok.TokenModel(*args, 2000.0, 0.0)


def test_single_precision_field_sum_is_close_to_double():
    t = make_token(seed=3)
    for on in (RNG.choice(64, size=40, replace=False), np.arange(64)):
        field = tok.pattern_field(t, mask_from_indices(t.grid_dims, on))
        exact = t.field_tensor[np.sort(on)].astype(np.complex128).sum(axis=0)
        assert field.dtype == np.complex128
        assert np.max(np.abs(field.ravel() - exact)) <= 1e-5 * np.max(np.abs(exact))


def grain_kernel(t):
    fy = np.fft.fftfreq(t.out_dims[0])
    fx = np.fft.fftfreq(t.out_dims[1])
    h = np.exp(-2.0 * np.pi**2 * t.speckle_grain**2 * (fy[:, None] ** 2 + fx[None, :] ** 2))
    return h / np.sqrt((h**2).mean())


def manual_tail(t, field, n_rows, bit_depth, dtype=np.complex64, camera_noise=None):
    """Low-pass with the grain kernel, square, scale to quarter range, add
    camera noise, round: every step in the precision of ``dtype``."""
    real = np.float32 if dtype == np.complex64 else np.float64
    field = field.astype(dtype).reshape(t.out_dims)
    if t.speckle_grain > 0:
        field = scipy.fft.ifft2(scipy.fft.fft2(field) * grain_kernel(t).astype(real))
    qmax = 2**bit_depth - 1
    img = (field.real**2 + field.imag**2) * real(qmax / (4.0 * n_rows))
    if camera_noise is not None:
        img = img + camera_noise
    return np.clip(np.floor(img + real(0.5)), 0, qmax)


def test_capture_after_the_sum_stays_single_precision():
    # rows on a 1/16 grid add up exactly in float32, in any order, so a
    # reconstruction that holds every array in complex64 or float32 pins
    # drift, grain filter, camera noise and quantization to single precision
    # on any numpy version: one promotion to double moves 16-bit pixels
    t = copy.copy(make_token(seed=8, grain=1.5))
    grid = np.round(np.clip(t.field_tensor.view(np.float32), -4, 4) * 16) / 16
    object.__setattr__(t, "field_tensor", grid.astype(np.float32).view(np.complex64))
    qmax = 2**16 - 1
    for on in ([5], [3, 17, 40], list(range(0, 64, 2))):  # ascending, as lit rows are
        chal = mask_from_indices(t.grid_dims, on)
        for noise in (tok.NoiseParams.none(), tok.NoiseParams().with_seed(4)):
            rng = tok._noise_rng(noise)
            sigma = noise.phase_sigma_total
            field = t.field_tensor[on].sum(axis=0)
            if sigma > 0:
                c = math.exp(-0.5 * sigma * sigma)
                spread = np.float32(math.sqrt(0.5 * (1.0 - c * c) * len(on)))
                drift = rng.standard_normal(field.size * 2, dtype=np.float32).view(np.complex64)
                field = np.float32(c) * field + spread * drift
            camera = None
            if noise.intensity_sigma > 0:
                camera = np.float32(noise.intensity_sigma * qmax) * rng.standard_normal(
                    t.out_dims, dtype=np.float32)
            assert field.dtype == np.complex64
            expected = manual_tail(t, field, len(on), 16, camera_noise=camera)
            assert np.array_equal(tok.respond(t, chal, noise, bit_depth=16), expected)


@pytest.mark.parametrize("bit_depth", [8, 16])
@pytest.mark.parametrize("grain", [0.0, 1.5])
@pytest.mark.parametrize("on", [[3, 40, 17], list(range(0, 64, 2))], ids=["3-rows", "half"])
def test_capture_pipeline_matches_manual_recomputation(on, grain, bit_depth):
    # independent reconstruction of the noiseless capture: superpose rows,
    # low-pass with the grain kernel, square, scale to quarter range, round
    t = make_token(seed=6, grain=grain)
    img = tok.respond(t, mask_from_indices(t.grid_dims, on), noise=tok.NoiseParams.none(),
                      bit_depth=bit_depth)
    # rows add up in the table's single precision, and the rest stays there
    field = t.field_tensor[np.sort(on)].sum(axis=0)
    assert np.array_equal(img, manual_tail(t, field, len(on), bit_depth))
    # against the same capture in double precision, rounding moves a pixel by at most 1
    double = manual_tail(t, field, len(on), bit_depth, dtype=np.complex128)
    assert np.abs(img - double).max() <= 1


def test_empty_pattern_gives_dark_frame():
    t = make_token()
    img = tok.respond(t, tok.PixelPattern(np.zeros(t.grid_dims, dtype=np.uint8)),
                      noise=tok.NoiseParams.none())
    assert img.max() == 0


def test_intensity_statistics_are_exponential():
    # fully developed speckle: std == mean, P(I < mean) == 1 - 1/e
    t = make_token(seed=9, out=(128, 128))
    field = tok.pattern_field(t, tok.random_pattern(t.grid_dims, 1))
    intensity = np.abs(field.ravel()) ** 2
    ratio = intensity.std() / intensity.mean()
    assert abs(ratio - 1.0) < 0.05
    below = (intensity < intensity.mean()).mean()
    assert abs(below - (1.0 - math.e ** -1)) < 0.02


def test_siegert_relation_for_partial_challenge_overlap():
    # two patterns sharing s of their n on-pixels have field correlation
    # s/n, hence intensity correlation (s/n)^2
    t = make_token(seed=3, grid=(16, 16), out=(128, 128))
    n_on, shared = 64, 40
    perm = RNG.permutation(256)
    a = mask_from_indices(t.grid_dims, perm[:n_on])
    b = mask_from_indices(t.grid_dims, np.concatenate([perm[:shared], perm[n_on : 2 * n_on - shared]]))
    ia = np.abs(tok.pattern_field(t, a)) ** 2
    ib = np.abs(tok.pattern_field(t, b)) ** 2
    expected = (shared / n_on) ** 2
    assert abs(metrics.cross_correlation(ia, ib) - expected) < 0.05


def test_speckle_grain_sets_neighbor_correlation():
    # Gaussian field smoothing of width sigma gives field autocorrelation
    # exp(-d^2 / (4 sigma^2)) at pixel lag d, squared for intensity
    sigma = 1.5
    t = make_token(seed=21, out=(128, 128), grain=sigma)
    img = tok.respond(t, tok.random_pattern(t.grid_dims, 2),
                      noise=tok.NoiseParams.none(), bit_depth=16)
    intensity = img.astype(np.float64)
    expected = math.exp(-1.0 / (4 * sigma**2)) ** 2
    got = metrics.cross_correlation(intensity[:, 1:], intensity[:, :-1])
    assert abs(got - expected) < 0.05
    got_v = metrics.cross_correlation(intensity[1:, :], intensity[:-1, :])
    assert abs(got_v - expected) < 0.05


def test_grainless_pixels_are_uncorrelated():
    t = make_token(seed=22, out=(128, 128), grain=0.0)
    img = tok.respond(t, tok.random_pattern(t.grid_dims, 2),
                      noise=tok.NoiseParams.none(), bit_depth=16)
    intensity = img.astype(np.float64)
    assert abs(metrics.cross_correlation(intensity[:, 1:], intensity[:, :-1])) < 0.05


# ---------------------------------------------------------------- capture model

def test_capture_scaling_leaves_headroom():
    t = make_token(seed=4, out=(128, 128))
    img = tok.respond(t, tok.random_pattern(t.grid_dims, 5), noise=tok.NoiseParams.none())
    arr = img.astype(np.float64)
    # mean pinned to a quarter of full scale; exponential tail clips ~e^-4
    assert abs(arr.mean() - 255.0 / 4.0) < 3.0
    assert (arr == 255).mean() < 0.03


def test_bit_depth_controls_range(tmp_path):
    t = make_token(seed=4)
    img = tok.respond(t, tok.random_pattern(t.grid_dims, 5),
                      noise=tok.NoiseParams.none(), bit_depth=12)
    assert img.dtype == np.uint16
    assert img.max() <= 4095
    with pytest.raises(ValueError, match="uint8"):
        tok.save_pgm(img, tmp_path / "deep.pgm")      # PGM export holds one byte per sample
    with pytest.raises(ValueError):
        tok.respond(t, tok.random_pattern(t.grid_dims, 5), bit_depth=0)
    with pytest.raises(ValueError):
        tok.respond(t, tok.random_pattern(t.grid_dims, 5), bit_depth=17)


def test_phase_noise_decorrelates_as_predicted():
    # clean vs noisy intensity correlation is exp(-sigma^2) for phase jitter
    # of width sigma applied per contributing field component
    t = make_token(seed=8, grid=(16, 16), out=(128, 128))
    chal = tok.random_pattern(t.grid_dims, 1)
    clean = tok.respond(t, chal, noise=tok.NoiseParams.none())
    last = 1.0
    for sigma in (0.1, 0.3, 0.6):
        noise = tok.NoiseParams(intensity_sigma=0.0, phase_drift_sigma=sigma, noise_seed=5)
        noisy = tok.respond(t, chal, noise=noise)
        cc = metrics.cross_correlation(clean, noisy)
        assert abs(cc - math.exp(-sigma * sigma)) < 0.04
        assert cc < last
        last = cc


def test_temperature_drift_adds_phase_noise():
    t = make_token(seed=8, out=(128, 128))
    chal = tok.random_pattern(t.grid_dims, 1)
    clean = tok.respond(t, chal, noise=tok.NoiseParams.none())

    def cc_at(delta):
        noise = tok.NoiseParams(intensity_sigma=0.0, phase_drift_sigma=0.0,
                                delta_T=delta, noise_seed=6)
        return metrics.cross_correlation(
            clean, tok.respond(t, chal, noise=noise))

    assert cc_at(0.0) > 0.999  # compensation on: no residual drift term
    assert cc_at(3.0) < cc_at(1.0) < cc_at(0.0)
    # 0.2 rad of extra spread per degree C of offset, either sign
    assert tok.NoiseParams(phase_drift_sigma=0.1, delta_T=-2.5).phase_sigma_total == 0.1 + 0.2 * 2.5


# field: values that must raise, values that must be kept
NOISE_FIELD_VALUES = {
    "intensity_sigma": ([-0.1, math.nan, math.inf], [0.0, 0.5]),
    "phase_drift_sigma": ([-0.5, math.nan, math.inf], [0.0, 3.0]),
    "vibration_amp": ([-1.0, math.nan, math.inf], [0.0, 2.5]),
    "delta_T": ([math.nan, math.inf, -math.inf], [-3.0, 0.0, 5.0]),
    "vibration_prob": ([-0.01, 1.01, math.nan], [0.0, 0.3, 1.0]),
}


@pytest.mark.parametrize("field", NOISE_FIELD_VALUES)
def test_noise_params_reject_out_of_range_values(field):
    # unchecked, a negative or NaN magnitude would capture as if it were zero
    bad, good = NOISE_FIELD_VALUES[field]
    for value in bad:
        with pytest.raises(ValueError, match=field):
            tok.NoiseParams(**{field: value})
    for value in good:
        assert getattr(tok.NoiseParams(**{field: value}), field) == value


# drift statistics: with the medium partly decorrelated, T' = c T + sqrt(1 - c^2) W,
# the field a capture sums is circular Gaussian around c S, S the noiseless sum
# of its R rows, with variance v = (1 - c^2) R; its intensity then has mean
# c^2 |S|^2 + v and variance v^2 + 2 c^2 |S|^2 v at every camera pixel

@pytest.mark.parametrize("n_rows", [1, 3, 100, "wavelength"])
def test_phase_drift_moments_match_per_element_monte_carlo(n_rows, monkeypatch):
    sigma, n_trials = 0.085, 400
    t = make_token(seed=40, grid=(16, 16), out=(32, 32))
    if n_rows == "wavelength":
        n_rows, chal = 1, tok.Wavelength(1555.5)
        clean = tok.wavelength_field(t, chal).ravel()
    else:
        on = np.sort(np.random.default_rng(n_rows).choice(256, size=n_rows, replace=False))
        chal = mask_from_indices(t.grid_dims, on)
        clean = t.field_tensor[on].sum(axis=0)
    # the pre-scale intensity: the drifted field as the capture tail receives it
    fields = []
    capture = tok._capture

    def spy(token, field, mean_intensity, *rest):
        assert mean_intensity == n_rows
        fields.append(field.ravel())
        return capture(token, field, mean_intensity, *rest)

    monkeypatch.setattr(tok, "_capture", spy)
    for seed in range(n_trials):
        tok.respond(t, chal, tok.NoiseParams(intensity_sigma=0.0, phase_drift_sigma=sigma,
                                             noise_seed=seed))
    intensity = np.abs(np.stack(fields).astype(np.complex128)) ** 2
    c2 = math.exp(-sigma * sigma)
    v = (1.0 - c2) * n_rows
    mean = c2 * np.abs(clean) ** 2 + v
    var = v * v + 2.0 * (mean - v) * v
    got_mean = intensity.mean(axis=0)
    d = intensity - got_mean
    got_var, m4 = (d**2).mean(axis=0), (d**4).mean(axis=0)
    assert np.all(np.abs(got_mean - mean) <= 6 * np.sqrt(var / n_trials))
    assert np.all(np.abs(got_var - var) <= 6 * np.sqrt((m4 - got_var**2) / n_trials))
    # summed over the 1024 pixels the estimate is good to about 0.2%
    assert abs(got_var.sum() / var.sum() - 1.0) < 0.02


def test_translate_mechanics():
    rng = np.random.default_rng(4)
    img = rng.exponential(100.0, size=(32, 48))
    # integer offsets reduce to an exact cyclic shift
    assert np.allclose(tok._translate(img, 3, -5), np.roll(img, (3, -5), axis=(0, 1)),
                       atol=1e-9)
    # the mean (DC mode) is never touched
    shifted = tok._translate(img, 0.6, -1.3)
    assert np.isclose(shifted.mean(), img.mean())
    assert not np.allclose(shifted, img, atol=1.0)
    # each sub-Nyquist Fourier mode is transported analytically: a pure tone
    # comes out as the same tone evaluated at the displaced coordinates
    rr, cc = np.meshgrid(np.arange(32), np.arange(48), indexing="ij")
    for kr, kc, phase in ((3, 5, 0.3), (1, 0, 1.1), (11, 17, 2.0)):
        tone = lambda r, c: np.cos(2 * np.pi * (kr * r / 32 + kc * c / 48) + phase)
        moved = tok._translate(tone(rr, cc), 0.4, -0.85)
        assert np.allclose(moved, tone(rr - 0.4, cc + 0.85), atol=1e-9)


def test_vibration_translates_the_frame(monkeypatch):
    # a jittered capture is the still capture cyclically shifted by roughly
    # one resonant amplitude and then re-quantized: recover that offset by
    # registration and reproduce the frame. Headroom is widened so no pixel
    # saturates (saturation is lossy and would blur the comparison).
    from scipy import optimize

    monkeypatch.setattr(tok, "_HEADROOM", 40.0)
    amp = 0.8
    t = make_token(seed=8)
    chal = tok.random_pattern(t.grid_dims, 1)
    base = tok.NoiseParams(intensity_sigma=0.0, phase_drift_sigma=0.0, noise_seed=7)
    still = tok.respond(t, chal, noise=base, bit_depth=16)
    shaken = tok.respond(t, chal, noise=base.__class__(
        intensity_sigma=0.0, phase_drift_sigma=0.0,
        vibration_amp=amp, vibration_prob=1.0, noise_seed=7), bit_depth=16)
    assert still.max() < 65535  # nothing saturates under the wide headroom
    assert not np.array_equal(still, shaken)

    sf, vf = still.astype(np.float64), shaken.astype(np.float64)

    def misfit(d):
        cand = np.clip(tok._translate(sf, d[0], d[1]), 0, 65535)
        return float(((cand - vf) ** 2).mean())

    # integer-resolution seed from the circular cross-correlation peak
    xc = np.fft.ifft2(np.fft.fft2(vf) * np.conj(np.fft.fft2(sf))).real
    r0, c0 = np.unravel_index(xc.argmax(), xc.shape)
    nr, nc = sf.shape
    seed = ((r0 + nr // 2) % nr - nr // 2, (c0 + nc // 2) % nc - nc // 2)
    fit = optimize.minimize(misfit, seed, method="Nelder-Mead",
                            options={"xatol": 1e-4, "fatol": 1e-9})
    dr, dc = fit.x

    # the excursion magnitude concentrates at the amplitude, within +-20%
    assert 0.8 * amp - 0.02 <= np.hypot(dr, dc) <= 1.2 * amp + 0.02
    rebuilt = np.clip(np.floor(np.clip(tok._translate(sf, dr, dc), 0, 65535) + 0.5),
                      0, 65535)
    # residual budget: source-frame quantization (+-0.5) carried through the
    # interpolation kernel plus the registration's own sub-0.001 px error
    assert np.abs(rebuilt - vf).max() <= 0.001 * 65535


def test_vibration_path_stays_single_precision(monkeypatch):
    # a shaken capture translates the float32 frame and gets a float32 frame
    # back, and the same noise_seed reproduces it bit for bit
    seen = []
    translate = tok._translate

    def spy(img, dr, dc):
        out = translate(img, dr, dc)
        seen.append((img.dtype, out.dtype))
        return out

    monkeypatch.setattr(tok, "_translate", spy)
    t = make_token(seed=8, grain=1.5)
    chal = tok.random_pattern(t.grid_dims, 1)
    noise = tok.NoiseParams(vibration_amp=1.5, vibration_prob=1.0, noise_seed=3)
    a, b = (tok.respond(t, chal, noise) for _ in range(2))
    assert seen == [(np.float32, np.float32)] * 2
    assert a.dtype == np.uint8 and a.shape == t.out_dims
    assert abs(a.mean() - 255.0 / 4.0) < 8.0
    assert np.array_equal(a, b)
    assert not np.array_equal(a, tok.respond(t, chal, noise.with_seed(4)))


def test_vibration_probability_zero_is_identity():
    t = make_token(seed=8)
    chal = tok.random_pattern(t.grid_dims, 1)
    still = tok.respond(t, chal, noise=tok.NoiseParams(
        intensity_sigma=0.0, phase_drift_sigma=0.0, noise_seed=7))
    unshaken = tok.respond(t, chal, noise=tok.NoiseParams(
        intensity_sigma=0.0, phase_drift_sigma=0.0,
        vibration_amp=2.0, vibration_prob=0.0, noise_seed=7))
    assert np.array_equal(still, unshaken)


def test_mask_shape_must_match_grid():
    t = make_token()
    with pytest.raises(ValueError):
        tok.respond(t, tok.PixelPattern(np.ones((4, 4), dtype=np.uint8)))


@pytest.mark.parametrize("mask, match", [
    (np.ones((2, 4, 4), dtype=np.uint8), "2-D"),
    (np.full((8, 8), 2, dtype=np.uint8), "binary"),
])
def test_pixel_pattern_rejects_malformed_masks(mask, match):
    with pytest.raises(ValueError, match=match):
        tok.PixelPattern(mask)


@pytest.mark.parametrize("query", [tok.respond, tok.pattern_field, tok.wavelength_field])
@pytest.mark.parametrize("challenge", [np.ones((8, 8), dtype=np.uint8), 1550.0],
                         ids=["raw-mask", "bare-float"])
def test_queries_take_only_challenge_objects(query, challenge):
    # a raw mask or a bare wavelength is refused, not wrapped
    with pytest.raises(TypeError, match="not a"):
        query(make_token(), challenge)


def test_dense_capture_reads_only_lit_rows():
    # poison every unlit row with NaN: a product over the whole table would
    # spread 0 * NaN into every pixel, a sum of the lit rows never sees it
    t = make_token(seed=4)
    on = RNG.choice(64, size=40, replace=False)
    chal = mask_from_indices(t.grid_dims, on)
    poisoned = copy.copy(t)
    object.__setattr__(poisoned, "field_tensor", t.field_tensor.copy())
    poisoned.field_tensor[np.setdiff1d(np.arange(64), on)] = np.nan
    field = tok.pattern_field(poisoned, chal)
    assert np.all(np.isfinite(field))
    assert np.array_equal(field, tok.pattern_field(t, chal))
    noise = tok.NoiseParams().with_seed(3)
    assert np.array_equal(tok.respond(poisoned, chal, noise),
                          tok.respond(t, chal, noise))


def test_shared_token_captures_match_serial():
    # captures from one token in two threads at once equal the serial ones
    t = make_token(seed=2)
    chal = tok.random_pattern(t.grid_dims, 5)
    noises = [tok.NoiseParams().with_seed(s) for s in range(40)]
    serial = [tok.respond(t, chal, n) for n in noises]
    got = [None] * len(noises)

    def worker(half):
        for i in range(half, len(noises), 2):
            got[i] = tok.respond(t, chal, noises[i])

    threads = [threading.Thread(target=worker, args=(h,)) for h in (0, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the two captures as finely as possible
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert all(np.array_equal(a, b) for a, b in zip(got, serial))


# ---------------------------------------------------------------- wavelength axis

def test_wavelength_decorrelation_matches_exponential():
    # intensity correlation between wavelengths Dl apart is exp(-2 Dl / L)
    L = 500.0
    t = tok.new_token(31, kind="pof", grid_dims=(8, 8), out_dims=(128, 128),
                      wl_decorrelation_length=L, speckle_grain=0.0)
    base = tok.respond(t, tok.Wavelength(1540.0), noise=tok.NoiseParams.none())
    for delta_pm in (50.0, 125.0, 400.0):
        img = tok.respond(
            t, tok.Wavelength(1540.0 + delta_pm / 1000.0),
            noise=tok.NoiseParams.none())
        expected = math.exp(-2.0 * delta_pm / L)
        assert abs(metrics.cross_correlation(base, img) - expected) < 0.05


def test_wavelength_correlation_monotone_in_separation():
    t = tok.new_token(32, kind="pof", grid_dims=(8, 8), out_dims=(64, 64),
                      wl_decorrelation_length=300.0, speckle_grain=0.0)
    base = tok.respond(t, tok.Wavelength(1541.0), noise=tok.NoiseParams.none())
    ccs = []
    for delta_pm in (0.0, 40.0, 90.0, 200.0, 500.0):
        img = tok.respond(
            t, tok.Wavelength(1541.0 + delta_pm / 1000.0),
            noise=tok.NoiseParams.none())
        ccs.append(metrics.cross_correlation(base, img))
    assert ccs[0] > 0.999
    assert all(a > b for a, b in zip(ccs, ccs[1:]))


def test_wavelength_capture_independent_of_query_order():
    t = tok.new_token(33, kind="pof", grid_dims=(8, 8), out_dims=(32, 32))
    wl = tok.Wavelength(1555.123)
    a = tok.respond(t, wl, noise=tok.NoiseParams.none())
    # a far query in between must not change the answer
    tok.respond(t, tok.Wavelength(1569.9), noise=tok.NoiseParams.none())
    b = tok.respond(t, wl, noise=tok.NoiseParams.none())
    assert np.array_equal(a, b)


def test_wavelength_range_enforced():
    with pytest.raises(ValueError):
        tok.Wavelength(1400.0)
    with pytest.raises(ValueError):
        tok.Wavelength(1571.0)
    tok.Wavelength(1540.0)
    tok.Wavelength(1570.0)


@pytest.mark.parametrize("lo_nm, hi_nm", [(1540.0, 1570.0), (1545.0, 1565.0)])
def test_wavelength_decorrelation_spans_the_window(lo_nm, hi_nm):
    # the two window ends are drawn jointly, so even 30 nm apart the
    # intensity correlation stays exp(-2 Dl / L)
    L = 30000.0
    t = tok.new_token(35, kind="diffuser", grid_dims=(8, 8), out_dims=(128, 128),
                      wl_decorrelation_length=L, speckle_grain=0.0)
    a, b = (tok.respond(t, tok.Wavelength(wl), noise=tok.NoiseParams.none())
            for wl in (lo_nm, hi_nm))
    expected = math.exp(-2.0 * (hi_nm - lo_nm) * 1000.0 / L)
    assert abs(metrics.cross_correlation(a, b) - expected) < 0.05


@pytest.mark.parametrize("kind, levels", [("pof", 20), ("diffuser", 16)])
def test_wavelength_grid_at_least_as_fine_as_l_over_4096(kind, levels):
    L = tok.DEFAULT_DECORRELATION_PM[kind]
    width_pm = (tok.TUNING_RANGE_NM[1] - tok.TUNING_RANGE_NM[0]) * 1000.0
    assert tok._bridge_levels(L) == levels
    assert width_pm / 2 ** levels <= L / 4096


def test_token_queries_leave_no_state():
    # fields are a pure function of the descriptor: query order, and which of
    # two equal instances answers, make no difference
    t1, t2 = (tok.new_token(36, kind="pof", grid_dims=(8, 8), out_dims=(32, 32),
                            speckle_grain=1.5) for _ in range(2))
    before = dict(vars(t1))
    wls = [tok.Wavelength(x) for x in (1540.0, 1569.9, 1555.123, 1555.124, 1570.0)]
    first = [tok.wavelength_field(t1, wl) for wl in wls]
    second = [tok.wavelength_field(t2, wl) for wl in reversed(wls)][::-1]
    for a, b in zip(first, second):
        assert np.array_equal(a, b)
    tok.respond(t1, tok.random_pattern(t1.grid_dims, 1), noise=tok.NoiseParams())
    tok.respond(t1, wls[1], noise=tok.NoiseParams())
    assert vars(t1).keys() == before.keys()
    assert all(vars(t1)[k] is v for k, v in before.items())


# ---------------------------------------------------------------- serialization

def test_token_file_roundtrip(tmp_path):
    t = make_token(seed=77, kind="pof", grid=(4, 8), out=(16, 32), grain=2.25)
    path = tmp_path / "t.puft"
    tok.save_token(t, path)
    loaded = tok.load_token(path)
    assert loaded == t and hash(loaded) == hash(t)
    assert tok.token_id(loaded) == tok.token_id(t)
    assert np.array_equal(loaded.field_tensor, t.field_tensor)


def test_token_bytes_errors():
    t = make_token()
    blob = bytearray(tok.token_to_bytes(t))
    with pytest.raises(errors.BadMagicError):
        tok.token_from_bytes(b"XXXX" + bytes(blob[4:]))
    bad_version = bytes(blob[:4]) + b"\xff\x00" + bytes(blob[6:])
    with pytest.raises(errors.UnsupportedVersionError):
        tok.token_from_bytes(bad_version)
    with pytest.raises(errors.TruncatedError):
        tok.token_from_bytes(bytes(blob[:-3]))
    blob[6] = 9                                  # the kind code, after magic and version
    with pytest.raises(errors.FormatError, match="kind code 9"):
        tok.token_from_bytes(bytes(blob))


def test_hostile_token_sizes_rejected_before_drawing():
    # a token file asking for a 1000x1000 grid and camera (7.28 TiB of field)
    blob = bytearray(tok.token_to_bytes(make_token()))
    blob[15:31] = struct.pack("<IIII", 1000, 1000, 1000, 1000)  # after magic, version, kind, seed
    with pytest.raises(ValueError, match="exceeds"):
        tok.token_from_bytes(bytes(blob))
    # room above the default 256 x 16384 tensor, none just past the cap
    assert 256 * 128 * 128 * 4 <= tok.MAX_FIELD_ELEMENTS
    with pytest.raises(ValueError, match="exceeds"):
        tok.TokenModel(1, "diffuser", (1, 1), (1, tok.MAX_FIELD_ELEMENTS + 1), 2000.0, 0.0)
    # a decorrelation length below ~7e-12 pm needs more than 64 bisection levels
    for decorr, grain in ((math.nan, 1.5), (math.inf, 1.5), (5e-324, 1.5), (1e-300, 1.5),
                          (2000.0, math.nan), (2000.0, 4.5), (2000.0, 1e160)):
        with pytest.raises(ValueError):
            tok.TokenModel(1, "diffuser", (2, 2), (4, 4), decorr, grain)
    tok.TokenModel(1, "diffuser", (2, 2), (4, 4), 2000.0, 4.0)   # grain up to the camera size


def test_challenge_roundtrip():
    pattern = tok.random_pattern((8, 8), 5)
    back = tok.challenge_from_bytes(tok.challenge_to_bytes(pattern))
    assert isinstance(back, tok.PixelPattern)
    assert np.array_equal(back.mask, pattern.mask)

    wl = tok.Wavelength(1552.75)
    back = tok.challenge_from_bytes(tok.challenge_to_bytes(wl))
    assert isinstance(back, tok.Wavelength)
    assert back.lambda_nm == wl.lambda_nm

    assert tok.challenge_from_bytes(tok.challenge_to_bytes(None)) is None
    with pytest.raises(TypeError, match="not a challenge"):
        tok.challenge_to_bytes(1552.75)


def test_pgm_roundtrip(tmp_path):
    t = make_token(seed=2)
    img = tok.respond(t, tok.random_pattern(t.grid_dims, 9),
                      noise=tok.NoiseParams().with_seed(1))
    path = tmp_path / "img.pgm"
    tok.save_pgm(img, path)
    loaded = tok.load_pgm(path)
    assert np.array_equal(loaded, img)


def test_pgm_accepts_comments_and_whitespace(tmp_path):
    raw = b"P5 # magic\n# a comment line\n 3 \t2\n# another\n255\n" + bytes(range(6))
    path = tmp_path / "c.pgm"
    path.write_bytes(raw)
    img = tok.load_pgm(path)
    assert img.shape == (2, 3)
    assert img.ravel().tolist() == list(range(6))


def test_pgm_errors(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P6 3 2 255\n" + bytes(6))
    with pytest.raises(errors.BadMagicError):
        tok.load_pgm(path)
    path.write_bytes(b"P5 3 2 255\n" + bytes(4))
    with pytest.raises(errors.TruncatedError):
        tok.load_pgm(path)
    for maxval in (0, 256):
        path.write_bytes(b"P5 3 2 %d\n" % maxval + bytes(6))
        with pytest.raises(errors.FormatError, match="maxval"):
            tok.load_pgm(path)
    path.write_bytes(b"P5 3 2")                   # no maxval
    with pytest.raises(errors.TruncatedError, match="header"):
        tok.load_pgm(path)
    # header numbers are ASCII decimal, and an image has at least one pixel
    for header, match in ((b"-3 4 255", "decimal"), (b"ab 4 255", "decimal"),
                          (b"+3 4 255", "decimal"), (b"3 4 +255", "decimal"),
                          (b"0 4 255", "positive"), (b"3 0 255", "positive")):
        path.write_bytes(b"P5 " + header + b"\n" + bytes(12))
        with pytest.raises(errors.FormatError, match=match):
            tok.load_pgm(path)


def test_random_pattern_is_seeded_and_spread():
    a = tok.random_pattern((16, 16), 9)
    b = tok.random_pattern((16, 16), 9)
    c = tok.random_pattern((16, 16), 10)
    assert np.array_equal(a.mask, b.mask)
    assert not np.array_equal(a.mask, c.mask)
    assert 0.3 < a.mask.mean() < 0.7
    dense = tok.random_pattern((16, 16), 9, on_fraction=0.9)
    assert dense.mask.mean() > 0.8
