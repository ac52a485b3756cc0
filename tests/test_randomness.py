"""Extraction and test-battery checks.

Two oracle layers: the worked examples from the public statistical test suite
documentation (the binary expansion of pi, recomputed here from exact rational
arithmetic, and the documented 128-bit longest-run vector), and clean-room
scalar reimplementations of each statistic compared on random streams.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc, gammaincc

from photonpuf import randomness as rnd
from photonpuf.hashing import BitKey
from photonpuf.randomness import battery, extract_bits, pvalue_uniformity, suite_report

RNG = np.random.default_rng(20260814)


def _atan_inv(q: int, terms: int) -> Fraction:
    return sum(Fraction((-1) ** k, (2 * k + 1) * q ** (2 * k + 1)) for k in range(terms))


def _binary_expansion(x: Fraction, n: int) -> np.ndarray:
    ip = int(x)
    frac = x - ip
    out = [int(c) for c in bin(ip)[2:]]
    while len(out) < n:
        frac *= 2
        out.append(int(frac))
        frac -= int(frac)
    return np.array(out[:n], dtype=np.uint8)


def pi_bits(n: int) -> np.ndarray:
    pi = 16 * _atan_inv(5, 60) - 4 * _atan_inv(239, 30)
    return _binary_expansion(pi, n)


PI100 = pi_bits(100)

# documented 128-bit longest-run example vector
LONGEST_RUN_128 = np.array(
    [int(c) for c in
     "11001100000101010110110001001100111000000000001001"
     "00110101010001000100111101011010000000110101111100"
     "1100111001101101100010110010"],
    dtype=np.uint8,
)


# the battery's test names, in the order the command line prints them
BATTERY = ("frequency", "block_frequency", "cumulative_sums", "runs", "longest_run", "fft",
           "approximate_entropy", "serial")


def random_bits(n, seed=0):
    return np.random.default_rng(seed).integers(0, 2, size=n, dtype=np.uint8)


# ---------------------------------------------------------------- documented examples

def test_pi_expansion_self_check():
    # first documented digits: 11.001001000011111101101010001...
    assert "".join(map(str, PI100[:20])) == "11001001000011111101"


def test_frequency_documented_example():
    assert rnd.frequency(PI100)["frequency"] == pytest.approx(0.109599, abs=1e-6)


def test_runs_documented_example():
    assert rnd.runs(PI100)["runs"] == pytest.approx(0.500798, abs=1e-6)


def test_block_frequency_documented_example():
    res = rnd.block_frequency(PI100, block_len=10)
    assert res["block_frequency"] == pytest.approx(0.706438, abs=1e-6)


def test_cumulative_sums_documented_example():
    parts = rnd.cumulative_sums(PI100)
    assert parts["cumulative_sums_forward"] == pytest.approx(0.219194, abs=1e-6)
    assert parts["cumulative_sums_backward"] == pytest.approx(0.114866, abs=1e-6)


def test_longest_run_documented_example():
    # the reference tabulates category probabilities to four decimals, which
    # moves the fifth decimal of the p-value relative to the worked example
    assert rnd.longest_run(LONGEST_RUN_128)["longest_run"] == pytest.approx(0.180609, abs=2e-5)


# ---------------------------------------------------------------- clean-room oracles

def scalar_frequency(b):
    s = sum(2 * int(x) - 1 for x in b)
    return math.erfc(abs(s) / math.sqrt(len(b)) / math.sqrt(2))


def scalar_runs(b):
    n = len(b)
    pi = sum(int(x) for x in b) / n
    if abs(pi - 0.5) >= 2 / math.sqrt(n):
        return 0.0
    v = 1 + sum(1 for i in range(n - 1) if b[i] != b[i + 1])
    return math.erfc(abs(v - 2 * n * pi * (1 - pi)) / (2 * math.sqrt(2 * n) * pi * (1 - pi)))


def scalar_block_frequency(b, m):
    n_blocks = len(b) // m
    chi2 = 0.0
    for i in range(n_blocks):
        pi = sum(int(x) for x in b[i * m : (i + 1) * m]) / m
        chi2 += (pi - 0.5) ** 2
    chi2 *= 4 * m
    return float(gammaincc(n_blocks / 2, chi2 / 2))


def scalar_cusum(b, reverse=False):
    n = len(b)
    seq = list(b)[::-1] if reverse else list(b)
    s = 0
    z = 0
    for x in seq:
        s += 2 * int(x) - 1
        z = max(z, abs(s))
    phi = lambda v: 0.5 * math.erfc(-v / math.sqrt(2))
    total = 1.0
    for k in range(math.floor((-n / z + 1) / 4), math.floor((n / z - 1) / 4) + 1):
        total -= phi((4 * k + 1) * z / math.sqrt(n)) - phi((4 * k - 1) * z / math.sqrt(n))
    for k in range(math.floor((-n / z - 3) / 4), math.floor((n / z - 1) / 4) + 1):
        total += phi((4 * k + 3) * z / math.sqrt(n)) - phi((4 * k + 1) * z / math.sqrt(n))
    return total


def scalar_fft(b):
    n = len(b)
    x = [2 * int(v) - 1 for v in b]
    j = np.arange(n)
    mods = []
    for k in range(n // 2):
        ang = 2 * math.pi * k * j / n
        re = float(np.sum(np.asarray(x) * np.cos(ang)))
        im = float(np.sum(np.asarray(x) * np.sin(ang)))
        mods.append(math.hypot(re, im))
    threshold = math.sqrt(math.log(1 / 0.05) * n)
    n1 = sum(1 for m in mods if m < threshold)
    d = (n1 - 0.95 * n / 2) / math.sqrt(n * 0.95 * 0.05 / 4)
    return math.erfc(abs(d) / math.sqrt(2))


def scalar_pattern_counts(b, m):
    n = len(b)
    ext = list(b) + list(b[: m - 1])
    counts = {}
    for i in range(n):
        pat = tuple(ext[i : i + m])
        counts[pat] = counts.get(pat, 0) + 1
    return counts


def scalar_apen(b, m):
    n = len(b)

    def phi(mm):
        counts = scalar_pattern_counts(b, mm)
        return sum((c / n) * math.log(c / n) for c in counts.values())

    apen = phi(m) - phi(m + 1)
    chi2 = 2 * n * (math.log(2) - apen)
    return float(gammaincc(2 ** (m - 1), chi2 / 2))


def scalar_serial(b, m):
    n = len(b)

    def psi2(mm):
        if mm <= 0:
            return 0.0
        counts = scalar_pattern_counts(b, mm)
        return (2 ** mm) / n * sum(c * c for c in counts.values()) - n

    d1 = psi2(m) - psi2(m - 1)
    d2 = psi2(m) - 2 * psi2(m - 1) + psi2(m - 2)
    return (
        float(gammaincc(2 ** (m - 2), d1 / 2)),
        float(gammaincc(2 ** (m - 3), d2 / 2)),
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_frequency_matches_scalar(seed):
    b = random_bits(1024, seed)
    assert rnd.frequency(b)["frequency"] == pytest.approx(scalar_frequency(b), abs=1e-12)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_runs_matches_scalar(seed):
    b = random_bits(1024, seed)
    assert rnd.runs(b)["runs"] == pytest.approx(scalar_runs(b), abs=1e-12)


@pytest.mark.parametrize("seed", [1, 2])
def test_block_frequency_matches_scalar(seed):
    b = random_bits(2048, seed)
    got = rnd.block_frequency(b, block_len=64)["block_frequency"]
    assert got == pytest.approx(scalar_block_frequency(b, 64), abs=1e-12)


@pytest.mark.parametrize("seed", [1, 2])
def test_cumulative_sums_matches_scalar(seed):
    b = random_bits(1024, seed)
    parts = rnd.cumulative_sums(b)
    assert parts["cumulative_sums_forward"] == pytest.approx(scalar_cusum(b), abs=1e-10)
    assert parts["cumulative_sums_backward"] == pytest.approx(
        scalar_cusum(b, reverse=True), abs=1e-10)


@pytest.mark.parametrize("seed", [1, 2])
def test_fft_matches_scalar(seed):
    b = random_bits(1024, seed)
    assert rnd.fft_spectral(b)["fft"] == pytest.approx(scalar_fft(b), abs=1e-9)


@pytest.mark.parametrize("seed", [1, 2])
def test_approximate_entropy_matches_scalar(seed):
    b = random_bits(4096, seed)
    got = rnd.approximate_entropy(b, m=4)["approximate_entropy"]
    assert got == pytest.approx(scalar_apen(b, 4), abs=1e-10)


@pytest.mark.parametrize("seed", [1, 2])
def test_serial_matches_scalar(seed):
    b = random_bits(4096, seed)
    parts = rnd.serial(b, m=5)
    exp1, exp2 = scalar_serial(b, 5)
    assert parts["serial_1"] == pytest.approx(exp1, abs=1e-10)
    assert parts["serial_2"] == pytest.approx(exp2, abs=1e-10)


def test_longest_run_matches_scalar_on_long_stream():
    b = random_bits(8192, 7)   # middle tier, 128-bit blocks
    n_blocks = 8192 // 128
    cats = (4, 5, 6, 7, 8, 9)
    ref = (0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124)

    def longest(row):
        best = cur = 0
        for v in row:
            cur = cur + 1 if v else 0
            best = max(best, cur)
        return best

    ls = [longest(b[i * 128 : (i + 1) * 128]) for i in range(n_blocks)]
    counts = [sum(1 for x in ls if x <= cats[0])]
    counts += [sum(1 for x in ls if x == c) for c in cats[1:-1]]
    counts += [sum(1 for x in ls if x >= cats[-1])]
    chi2 = sum((c - n_blocks * r) ** 2 / (n_blocks * r) for c, r in zip(counts, ref))
    expected = float(gammaincc((len(cats) - 1) / 2, chi2 / 2))
    assert rnd.longest_run(b)["longest_run"] == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------- known failures

def test_constant_stream_fails_frequency():
    assert rnd.frequency(np.ones(1000, dtype=np.uint8))["frequency"] < 1e-10


def test_biased_stream_short_circuits_runs():
    b = np.concatenate([np.ones(75, dtype=np.uint8), np.zeros(25, dtype=np.uint8)])
    assert rnd.runs(b) == {"runs": 0.0}


def test_periodic_stream_fails_spectral_and_serial():
    b = np.tile([0, 1], 512).astype(np.uint8)
    assert rnd.fft_spectral(b)["fft"] < 1e-6
    assert min(rnd.serial(b).values()) < 1e-6
    # but its frequency statistic is perfect
    assert rnd.frequency(b)["frequency"] == pytest.approx(1.0)


def test_zero_stream_fails_entropy():
    assert rnd.approximate_entropy(np.zeros(4096, dtype=np.uint8))["approximate_entropy"] < 1e-10


# ---------------------------------------------------------------- guards

def test_minimum_lengths_enforced():
    too_short = [
        (rnd.frequency, 64, {}),
        (rnd.cumulative_sums, 64, {}),
        (rnd.runs, 64, {}),
        (rnd.block_frequency, 64, {"block_len": 65}),     # shorter than one block
        (rnd.longest_run, 100, {}),
        (rnd.fft_spectral, 500, {}),
        (rnd.approximate_entropy, 64, {"m": 1}),
        (rnd.approximate_entropy, 128, {"m": 4}),
        (rnd.approximate_entropy, 1000, {"m": 4}),         # needs m < floor(log2 n) - 5 = 4
        (rnd.serial, 64, {"m": 3}),
        (rnd.serial, 200, {"m": 2}),
        (rnd.serial, 200, {"m": 5}),                       # needs m < floor(log2 n) - 2 = 5
    ]
    for test, n, params in too_short:
        with pytest.raises(ValueError):
            test(random_bits(n), **params)
    # the largest legal block lengths
    rnd.approximate_entropy(random_bits(1024), m=4)
    rnd.serial(random_bits(200), m=4)


def test_battery_dispatch():
    b = random_bits(2048, 5)
    results = battery(b)
    assert tuple(results) == BATTERY
    assert {name: tuple(parts) for name, parts in results.items() if len(parts) > 1} == {
        "cumulative_sums": ("cumulative_sums_forward", "cumulative_sums_backward"),
        "serial": ("serial_1", "serial_2"),
    }
    for parts in results.values():
        assert all(0.0 <= p <= 1.0 for p in parts.values())
    # each test runs at its default parameters
    assert results["block_frequency"] == rnd.block_frequency(b, block_len=32)
    assert results["approximate_entropy"] == rnd.approximate_entropy(b, m=4)
    assert results["serial"] == rnd.serial(b, m=5)


def test_battery_of_a_short_stream_lowers_the_entropy_block_length():
    # 1000 bits allow m < floor(log2 n) - 5 = 4: the default m steps down to 3
    b = random_bits(1000, 6)
    results = battery(b)
    assert results["approximate_entropy"] == rnd.approximate_entropy(b, m=3)
    assert sum(len(parts) for parts in results.values()) == 10
    # from 1024 bits on the default is m = 4, as before
    b = random_bits(1024, 6)
    assert rnd.approximate_entropy(b) == rnd.approximate_entropy(b, m=4)


def test_non_binary_stream_rejected():
    with pytest.raises(ValueError):
        rnd.frequency(np.full(200, 2, dtype=np.uint8))


# ---------------------------------------------------------------- uniformity

def test_uniformity_perfect_grid():
    ps = (np.arange(1000) + 0.5) / 1000.0
    assert pvalue_uniformity(ps) == pytest.approx(1.0)


def test_uniformity_degenerate_pile():
    assert pvalue_uniformity(np.full(100, 0.35)) < 1e-10


def test_uniformity_matches_hand_chi2():
    # 30 values in bin 0 and 70 spread evenly over the other nine
    ps = np.concatenate([np.full(30, 0.05), (np.arange(70) % 9 + 1) / 10.0 + 0.05])
    counts = np.histogram(ps, bins=10, range=(0, 1))[0]
    chi2 = ((counts - 10.0) ** 2 / 10.0).sum()
    assert pvalue_uniformity(ps) == pytest.approx(float(gammaincc(4.5, chi2 / 2)), abs=1e-12)


def test_uniformity_rejects_empty():
    with pytest.raises(ValueError):
        pvalue_uniformity([])


# ---------------------------------------------------------------- suite report

def test_suite_report_good_ensemble():
    streams = [BitKey(random_bits(8192, 100 + seed)) for seed in range(40)]
    report = suite_report(streams)
    assert report.n_streams == 40
    assert tuple(report.rows) == BATTERY
    lo, hi = report.proportion_band
    assert lo == pytest.approx(0.99 - 3 * math.sqrt(0.99 * 0.01 / 40)) and hi == 1.0
    assert report.passed


def test_suite_report_flags_bias():
    rng = np.random.default_rng(3)
    streams = [BitKey((rng.random(4096) < 0.58).astype(np.uint8)) for _ in range(20)]
    report = suite_report(streams)
    assert not report.passed
    assert not report.rows["frequency"].proportion_ok


def test_suite_report_flags_identical_streams():
    # copies of one good stream pass individually but flunk uniformity
    stream = BitKey(random_bits(4096, 11))
    report = suite_report([stream] * 25)
    assert report.rows["frequency"].proportion_ok
    assert not report.rows["frequency"].uniformity_ok
    assert not report.passed


def test_suite_report_needs_two_streams():
    with pytest.raises(ValueError):
        suite_report([BitKey(random_bits(4096))])


# ---------------------------------------------------------------- stream files

def test_bitstream_roundtrip_and_wire_format():
    bits = random_bits(77, 9)
    stream = BitKey(bits)
    blob = stream.to_bytes()
    assert blob[:4] == (77).to_bytes(4, "little")
    assert len(blob) == 4 + 10
    back = BitKey.from_bytes(blob)
    assert np.array_equal(back.bits, bits)
    assert len(back) == 77


def test_stream_file_of_the_removed_bitstream_class_loads():
    # written by BitStream([1, 0, 1, 1, 0, 0, 0, 0, 1, 1, 1, 0, 1]).to_bytes()
    # before extract_bits returned a BitKey: u32 count, then bits LSB-first
    blob = bytes.fromhex("0d000000" "0d17")
    back = BitKey.from_bytes(blob)
    assert back.bits.tolist() == [1, 0, 1, 1, 0, 0, 0, 0, 1, 1, 1, 0, 1]
    assert back.to_bytes() == blob


def test_bitstream_validation_and_immutability():
    with pytest.raises(ValueError):
        BitKey([0, 1, 3])
    s = BitKey([1, 0])
    with pytest.raises(ValueError):
        s.bits[0] = 0


@settings(deadline=None, max_examples=40)
@given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=200))
def test_bitstream_roundtrip_property(bits):
    back = BitKey.from_bytes(BitKey(bits).to_bytes())
    assert back.bits.tolist() == bits


# ---------------------------------------------------------------- extraction

def exp_images(count, shape=(48, 48), seed=0):
    rng = np.random.default_rng(seed)
    return [rng.exponential(size=shape) for _ in range(count)]


def test_extract_deterministic_and_seeded():
    imgs = exp_images(3)
    a = extract_bits(imgs, 500)
    b = extract_bits(imgs, 500)
    assert isinstance(a, BitKey)
    assert np.array_equal(a.bits, b.bits)
    assert len(a) == 3 * 500


def test_extract_concatenates_in_order():
    imgs = exp_images(3, seed=4)
    whole = extract_bits(imgs, 500)
    parts = [extract_bits([img], 500) for img in imgs]
    assert np.array_equal(whole.bits, np.concatenate([p.bits for p in parts]))


def test_extract_validations():
    imgs = exp_images(2)
    with pytest.raises(ValueError):
        extract_bits([], 500)
    with pytest.raises(ValueError):
        extract_bits([imgs[0], np.ones((8, 8))], 500)
    half = 48 * 48 // 2 - 1
    with pytest.raises(ValueError):
        extract_bits(imgs, 0)
    with pytest.raises(ValueError):
        extract_bits(imgs, half + 1)
    extract_bits(imgs, half)   # boundary is legal


def test_extracted_bits_look_fair():
    imgs = exp_images(10, seed=6)
    stream = extract_bits(imgs, 1000)
    assert abs(stream.bits.mean() - 0.5) < 0.02
    assert rnd.frequency(stream)["frequency"] > 0.001
    assert rnd.runs(stream)["runs"] > 0.001
