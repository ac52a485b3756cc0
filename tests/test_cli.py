"""End-to-end command line coverage, driving main() in process.

Each command's contract: line-oriented key=value output, exit 0 on success,
1 on a negative outcome or operational error, 2 on usage errors.
"""

import pathlib
import socket
import subprocess
import sys
import time

import numpy as np
import pytest

from photonpuf.cli import _build_parser, _noise_from_args, main
from photonpuf.hashing import helper_to_bytes
from photonpuf.protocol import load_record
from photonpuf.service import MAX_RANDOM_BITS, ServiceClient
from photonpuf.token import (
    NoiseParams,
    TokenModel,
    challenge_to_bytes,
    load_pgm,
    random_pattern,
    save_pgm,
)

DATA = pathlib.Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    kv = {}
    for line in out.out.splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            kv[key] = value
    return code, kv, out.err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli")
    assert main(["token", "new", "--seed", "7", "--grid", "8x8", "--out", "32x32",
                 "--grain", "0", "--output", str(path / "tok.puft")]) == 0
    assert main(["token", "new", "--seed", "8", "--grid", "8x8", "--out", "32x32",
                 "--grain", "0", "--output", str(path / "other.puft")]) == 0
    assert main(["challenge", "gen", "--grid", "8x8", "--seed", "3",
                 "--output", str(path / "c.chal")]) == 0
    return path


# ---------------------------------------------------------------- token, challenge

def test_token_new_and_show(tmp_path, capsys):
    out_file = tmp_path / "t.puft"
    code, kv, _ = run_cli(capsys, "token", "new", "--seed", "42", "--kind", "pof",
                          "--grid", "4x4", "--out", "16x16", "--output", str(out_file))
    assert code == 0
    assert out_file.exists()
    assert kv["kind"] == "pof"
    assert kv["seed"] == "42"
    tid = kv["token_id"]

    code, kv, _ = run_cli(capsys, "token", "show", "--token", str(out_file))
    assert code == 0
    assert kv["token_id"] == tid
    assert kv["grid"] == "4x4"
    assert kv["out"] == "16x16"


def test_token_new_default_filename(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, kv, _ = run_cli(capsys, "token", "new", "--seed", "1", "--grid", "4x4",
                          "--out", "16x16")
    assert code == 0
    assert kv["file"] == f"token-{kv['token_id'][:8]}.puft"
    assert (tmp_path / kv["file"]).exists()


def test_challenge_gen_pattern(tmp_path, capsys):
    out_file = tmp_path / "p.chal"
    code, kv, _ = run_cli(capsys, "challenge", "gen", "--grid", "8x8", "--seed", "5",
                          "--on-fraction", "0.25", "--output", str(out_file))
    assert code == 0
    assert kv["challenge"] == "pixel_pattern"
    expected = random_pattern((8, 8), 5, on_fraction=0.25)
    assert kv["on_count"] == str(expected.on_count)   # Bernoulli draw, expectation 16
    assert out_file.read_bytes() == challenge_to_bytes(expected)


def test_challenge_gen_wavelength(tmp_path, capsys):
    out_file = tmp_path / "w.chal"
    code, kv, _ = run_cli(capsys, "challenge", "gen", "--wavelength", "1552.5",
                          "--output", str(out_file))
    assert code == 0
    assert kv["challenge"] == "wavelength"
    assert kv["wavelength_nm"] == "1552.5"


def test_challenge_gen_needs_grid_or_wavelength(capsys):
    code, _, err = run_cli(capsys, "challenge", "gen")
    assert code == 1
    assert err.startswith("error=")


def test_bad_dims_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["token", "new", "--seed", "1", "--grid", "8by8"])
    assert exc.value.code == 2


def test_missing_subcommand_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# ---------------------------------------------------------------- capture

def test_capture_writes_pgm(workdir, tmp_path, capsys):
    out_file = tmp_path / "shot.pgm"
    code, kv, _ = run_cli(capsys, "capture", "--token", str(workdir / "tok.puft"),
                          "--challenge", str(workdir / "c.chal"),
                          "--output", str(out_file), "--noise-seed", "9")
    assert code == 0
    assert kv["dims"] == "32x32"
    image = load_pgm(out_file)
    assert image.shape == (32, 32)
    assert float(kv["mean"]) == pytest.approx(image.mean(), rel=1e-4)


def test_capture_draws_fresh_noise_without_seed(workdir, tmp_path, capsys):
    shots = [tmp_path / "a.pgm", tmp_path / "b.pgm"]
    for shot in shots:
        code, _, _ = run_cli(capsys, "capture", "--token", str(workdir / "tok.puft"),
                             "--challenge", str(workdir / "c.chal"), "--output", str(shot))
        assert code == 0
    assert shots[0].read_bytes() != shots[1].read_bytes()


@pytest.mark.parametrize("flags, expected", [
    ((), NoiseParams(noise_seed=5)),
    (("--intensity-sigma", "0.05"), NoiseParams(intensity_sigma=0.05, noise_seed=5)),
    (("--phase-sigma", "0.3"), NoiseParams(phase_drift_sigma=0.3, noise_seed=5)),
    (("--delta-t", "2.5"), NoiseParams(delta_T=2.5, noise_seed=5)),
    (("--no-noise",), NoiseParams.none()),
], ids=["defaults", "intensity", "phase", "delta-t", "none"])
def test_each_noise_flag_sets_its_own_field(flags, expected):
    args = _build_parser().parse_args(["capture", "--token", "t.puft", "--challenge", "c.chal",
                                       "--output", "o.pgm", "--noise-seed", "5", *flags])
    assert _noise_from_args(args) == expected


def test_capture_missing_token_file(workdir, tmp_path, capsys):
    code, _, err = run_cli(capsys, "capture", "--token", str(tmp_path / "nope.puft"),
                           "--challenge", str(workdir / "c.chal"),
                           "--output", str(tmp_path / "x.pgm"))
    assert code == 1
    assert err.startswith("error=")


# ---------------------------------------------------------------- enroll, auth

def test_enroll_auth_accepts_same_token(workdir, tmp_path, capsys):
    record = tmp_path / "rec.pufr"
    code, kv, _ = run_cli(capsys, "enroll", "--token", str(workdir / "tok.puft"),
                          "--challenge", str(workdir / "c.chal"),
                          "--record", str(record), "--bch-m", "8", "--bch-t", "31")
    assert code == 0
    assert kv["code"] == "n=255,k=55,t=31"
    assert len(kv["digest"]) == 64

    code, kv, _ = run_cli(capsys, "auth", "--record", str(record),
                          "--token", str(workdir / "tok.puft"), "--noise-seed", "77")
    assert code == 0
    assert kv["accepted"] == "true"
    assert int(kv["corrected"]) <= 31


def test_enroll_of_a_dark_challenge_fails_and_writes_no_record(workdir, tmp_path, capsys):
    dark = tmp_path / "dark.chal"
    code, kv, _ = run_cli(capsys, "challenge", "gen", "--grid", "8x8", "--on-fraction", "0",
                          "--output", str(dark))
    assert code == 0 and kv["on_count"] == "0"
    record = tmp_path / "r.pufr"
    # the same refusal with and without capture noise
    for noise_flags in ((), ("--no-noise",)):
        code, _, err = run_cli(capsys, "enroll", "--token", str(workdir / "tok.puft"),
                               "--challenge", str(dark), "--record", str(record), *noise_flags)
        assert code == 1
        assert err.strip() == "error=challenge lights no pixel"
        assert not record.exists()


def test_enroll_without_seed_draws_fresh_records(workdir, tmp_path, capsys):
    ids, helpers = [], []
    for name in ("a.pufr", "b.pufr"):
        code, kv, _ = run_cli(capsys, "enroll", "--token", str(workdir / "tok.puft"),
                              "--challenge", str(workdir / "c.chal"),
                              "--record", str(tmp_path / name), "--no-noise")
        assert code == 0
        ids.append(kv["record_id"])
        helpers.append(helper_to_bytes(load_record(tmp_path / name).hash_helper))
    assert ids[0] != ids[1]
    assert helpers[0] != helpers[1]


def test_enroll_seed_flag_is_a_usage_error(workdir, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["enroll", "--token", str(workdir / "tok.puft"), "--challenge", str(workdir / "c.chal"),
              "--record", str(tmp_path / "r.pufr"), "--seed", "3"])
    assert exc.value.code == 2
    assert not (tmp_path / "r.pufr").exists()


def test_auth_rejects_record_with_bad_svd_helper(tmp_path, capsys):
    # a record enrolled with the removed block-SVD hash fails to load, naming the hash
    image = np.random.default_rng(3).integers(0, 256, size=(64, 64), dtype=np.uint8)
    save_pgm(image, tmp_path / "x.pgm")
    code, _, err = run_cli(capsys, "auth", "--record", str(DATA / "svd_8x8_64x64_seed5.pufr"),
                           "--image", str(tmp_path / "x.pgm"))
    assert code == 1
    assert err.startswith("error=") and "svd" in err


@pytest.mark.parametrize("argv", [
    ("enroll", "--image", "x.pgm", "--record", "r.pufr"),
    ("eval", "robustness", "--token", "t.puft", "--challenge", "c.chal"),
    ("eval", "success-curve", "--token", "t.puft"),
], ids=["enroll", "eval-robustness", "eval-success-curve"])
@pytest.mark.parametrize("flag", [
    ("--algo", "rbm"),
    ("--algo", "svd"),
    ("--vibration-amp", "1"),
    ("--vibration-prob", "0.5"),
], ids=["rbm", "svd", "vibration-amp", "vibration-prob"])
def test_algo_flag_is_a_usage_error(argv, flag):
    # one hash is left and captures are never shifted, so neither flag selects anything
    with pytest.raises(SystemExit) as exc:
        main([*argv, *flag])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag, value", [
    ("--intensity-sigma", "-0.1"),
    ("--phase-sigma", "nan"),
    ("--delta-t", "inf"),
])
def test_out_of_range_noise_flag_is_an_error(workdir, tmp_path, capsys, flag, value):
    code, _, err = run_cli(capsys, "capture", "--token", str(workdir / "tok.puft"),
                           "--challenge", str(workdir / "c.chal"),
                           "--output", str(tmp_path / "x.pgm"), flag, value)
    assert code == 1
    assert err.startswith("error=")
    assert not (tmp_path / "x.pgm").exists()


def test_auth_rejects_different_token(workdir, tmp_path, capsys):
    record = tmp_path / "rec.pufr"
    assert main(["enroll", "--token", str(workdir / "tok.puft"),
                 "--challenge", str(workdir / "c.chal"), "--record", str(record)]) == 0
    capsys.readouterr()
    code, kv, _ = run_cli(capsys, "auth", "--record", str(record),
                          "--token", str(workdir / "other.puft"))
    assert code == 1
    assert kv["accepted"] == "false"


def test_enroll_auth_from_pgm_files(workdir, tmp_path, capsys):
    shot = tmp_path / "shot.pgm"
    other = tmp_path / "other.pgm"
    assert main(["capture", "--token", str(workdir / "tok.puft"),
                 "--challenge", str(workdir / "c.chal"), "--output", str(shot),
                 "--noise-seed", "1"]) == 0
    assert main(["capture", "--token", str(workdir / "other.puft"),
                 "--challenge", str(workdir / "c.chal"), "--output", str(other),
                 "--noise-seed", "2"]) == 0
    capsys.readouterr()
    record = tmp_path / "rec.pufr"
    code, kv, _ = run_cli(capsys, "enroll", "--image", str(shot), "--record", str(record))
    assert code == 0
    # the very same frame re-derives the key exactly
    code, kv, _ = run_cli(capsys, "auth", "--record", str(record), "--image", str(shot))
    assert code == 0 and kv["corrected"] == "0"
    code, kv, _ = run_cli(capsys, "auth", "--record", str(record), "--image", str(other))
    assert code == 1 and kv["accepted"] == "false"


def test_enroll_needs_source(capsys, tmp_path):
    code, _, err = run_cli(capsys, "enroll", "--record", str(tmp_path / "r.pufr"))
    assert code == 1
    assert "error=" in err


@pytest.mark.parametrize("argv, message", [
    (("capture", "--token", "{tok}", "--challenge", "{empty}", "--output", "{tmp}/out.pgm"),
     "holds an empty challenge descriptor"),
    (("auth", "--record", "{record}"), "auth needs --image or --token"),
    (("auth", "--record", "{record}", "--token", "{tok}"), "record carries no challenge"),
], ids=["empty-challenge-file", "auth-without-source", "auth-token-on-image-record"])
def test_capture_source_errors(workdir, tmp_path, capsys, argv, message):
    (tmp_path / "empty.chal").write_bytes(challenge_to_bytes(None))
    save_pgm(np.random.default_rng(4).integers(0, 256, size=(32, 32), dtype=np.uint8),
             tmp_path / "x.pgm")
    assert main(["enroll", "--image", str(tmp_path / "x.pgm"),
                 "--record", str(tmp_path / "i.pufr")]) == 0
    capsys.readouterr()
    paths = {"tok": workdir / "tok.puft", "empty": tmp_path / "empty.chal", "tmp": tmp_path,
             "record": tmp_path / "i.pufr"}
    code, _, err = run_cli(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 1
    assert err.startswith("error=") and message in err


# ---------------------------------------------------------------- eval

def test_eval_robustness_report(workdir, tmp_path, capsys):
    prefix = str(tmp_path / "rob")
    code, kv, _ = run_cli(capsys, "eval", "robustness", "--token", str(workdir / "tok.puft"),
                          "--challenge", str(workdir / "c.chal"), "--repeats", "6",
                          "--report", prefix)
    assert code == 0
    assert kv["pairs"] == "5"                   # reference vs the other five
    assert float(kv["cc_mean"]) > 0.9
    assert float(kv["hd_mean"]) < 0.2
    headers = {name: (tmp_path / f"rob.{name}.tsv").read_text().splitlines()[0]
               for name in ("euclidean", "correlation", "hamming")}
    assert headers == {
        "euclidean": "# kind=robustness metric=euclidean",
        "correlation": "# kind=robustness metric=cross_correlation",
        "hamming": "# kind=robustness metric=fractional_hamming",
    }


def test_eval_unpredictability(workdir, capsys):
    code, kv, _ = run_cli(capsys, "eval", "unpredictability",
                          "--token", str(workdir / "tok.puft"),
                          "--challenges", "6", "--no-hash")
    assert code == 0
    assert kv["pairs"] == "5"
    assert float(kv["cc_mean"]) < 0.6
    assert "hd_mean" not in kv


def test_eval_unclonability(workdir, capsys):
    code, kv, _ = run_cli(capsys, "eval", "unclonability",
                          "--token", str(workdir / "tok.puft"),
                          "--challenge", str(workdir / "c.chal"), "--tokens", "4")
    assert code == 0
    assert kv["pairs"] == "3"
    assert abs(float(kv["cc_mean"])) < 0.3
    assert 0.3 < float(kv["hd_mean"]) < 0.7


def test_eval_unclonability_skips_the_reference_seed(workdir, capsys):
    # numbering the other tokens from the reference token's own seed must not pair it with itself
    code, kv, _ = run_cli(capsys, "eval", "unclonability",
                          "--token", str(workdir / "tok.puft"),
                          "--challenge", str(workdir / "c.chal"), "--seed", "7", "--tokens", "2")
    assert code == 0
    assert kv["pairs"] == "1"
    assert abs(float(kv["cc_mean"])) < 0.3
    assert 0.3 < float(kv["hd_mean"]) < 0.7


def test_eval_robustness_seed_flag_is_a_usage_error(workdir):
    # robustness repeats one challenge on one token, so it has nothing to number
    with pytest.raises(SystemExit) as exc:
        main(["eval", "robustness", "--token", str(workdir / "tok.puft"),
              "--challenge", str(workdir / "c.chal"), "--seed", "1"])
    assert exc.value.code == 2


def test_eval_svd_geometry_flag_is_a_usage_error(workdir):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "robustness", "--token", str(workdir / "tok.puft"),
              "--challenge", str(workdir / "c.chal"), "--svd-block1", "8"])
    assert exc.value.code == 2


def test_eval_rejects_zero_key_length(workdir, capsys):
    code, _, err = run_cli(capsys, "eval", "robustness", "--token", str(workdir / "tok.puft"),
                           "--challenge", str(workdir / "c.chal"), "--repeats", "2",
                           "--key-len", "0")
    assert code == 1
    assert err.startswith("error=")


@pytest.mark.parametrize("argv, built", [
    (("robustness", "--repeats", "2"), 1),
    (("unclonability", "--tokens", "3"), 3),
])
def test_eval_builds_each_token_once(workdir, capsys, monkeypatch, argv, built):
    count = []
    init = TokenModel.__init__

    def counting_init(self, *args, **kwargs):
        count.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TokenModel, "__init__", counting_init)
    code, _, _ = run_cli(capsys, "eval", argv[0], "--token", str(workdir / "tok.puft"),
                         "--challenge", str(workdir / "c.chal"), *argv[1:])
    assert code == 0
    assert len(count) == built


def test_eval_success_curve(workdir, tmp_path, capsys):
    report = tmp_path / "curve.tsv"
    code, kv, _ = run_cli(capsys, "eval", "success-curve", "--token", str(workdir / "tok.puft"),
                          "--enrollments", "4", "--auths", "2",
                          "--bch-m", "4", "--bch-t", "3", "--report", str(report))
    assert code == 0
    assert kv["pairs"] == "8"
    assert kv["key_len"] == "15"
    assert kv["correctable_t"] == "3"
    lines = report.read_text().strip().split("\n")
    assert lines[0] == "threshold\tprobability"
    assert len(lines) == 1 + 16                 # thresholds 0..15
    assert lines[-1].endswith("1.000000")


def test_eval_success_curve_key_len_flag_is_a_usage_error(workdir):
    # the curve is read against the code's t, so its key length is the code length
    with pytest.raises(SystemExit) as exc:
        main(["eval", "success-curve", "--token", str(workdir / "tok.puft"),
              "--bch-m", "4", "--bch-t", "3", "--key-len", "15"])
    assert exc.value.code == 2


# ---------------------------------------------------------------- rng

def test_rng_extract_and_single_stream_test(workdir, tmp_path, capsys):
    stream_file = tmp_path / "bits.puf"
    code, kv, _ = run_cli(capsys, "rng", "extract", "--token", str(workdir / "tok.puft"),
                          "--bits", "4096", "--output", str(stream_file))
    assert code == 0
    assert kv["bits"] == "4096"
    assert 0.4 < float(kv["ones_fraction"]) < 0.6

    code, kv, _ = run_cli(capsys, "rng", "test", "--input", str(stream_file))
    assert list(kv) == [
        "p_frequency", "p_block_frequency", "p_cumulative_sums_forward",
        "p_cumulative_sums_backward", "p_runs", "p_longest_run", "p_fft",
        "p_approximate_entropy", "p_serial_1", "p_serial_2", "passed",
    ]
    assert kv["passed"] in ("true", "false")
    assert code == (0 if kv["passed"] == "true" else 1)


def test_rng_multi_stream_suite(workdir, tmp_path, capsys):
    paths = []
    for i in range(3):
        path = tmp_path / f"s{i}.puf"
        assert main(["rng", "extract", "--token", str(workdir / "tok.puft"),
                     "--bits", "2048", "--output", str(path)]) == 0
        paths.append(str(path))
    capsys.readouterr()
    code, kv, _ = run_cli(capsys, "rng", "test", "--input", *paths)
    assert kv["streams"] == "3"
    assert "frequency_proportion" in kv
    assert "serial_band" in kv
    assert code in (0, 1)


def test_rng_extract_draws_fresh_bits_each_run(workdir, tmp_path, capsys):
    paths = [tmp_path / "a.puf", tmp_path / "b.puf"]
    for path in paths:
        code, kv, _ = run_cli(capsys, "rng", "extract", "--token", str(workdir / "tok.puft"),
                              "--bits", "2000", "--output", str(path))
        assert code == 0 and kv["bits"] == "2000"
    assert paths[0].read_bytes() != paths[1].read_bytes()


@pytest.mark.parametrize("bits", ["0", "-5", str(MAX_RANDOM_BITS + 1)])
def test_rng_extract_bit_count_out_of_range(workdir, tmp_path, capsys, bits):
    out = tmp_path / "bits.puf"
    code, _, err = run_cli(capsys, "rng", "extract", "--token", str(workdir / "tok.puft"),
                           "--bits", bits, "--output", str(out))
    assert code == 1
    assert err.strip() == f"error=bit count must be in 1..{MAX_RANDOM_BITS}"
    assert not out.exists()


def test_rng_test_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "rng", "test", "--input", str(tmp_path / "ghost.puf"))
    assert code == 1
    assert err.startswith("error=")


# ---------------------------------------------------------------- serve

def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def test_serve_subprocess_roundtrip(workdir, tmp_path):
    port = free_port()
    proc = subprocess.Popen(
        [sys.executable, "-m", "photonpuf.cli", "serve",
         "--host", "127.0.0.1", "--port", str(port),
         "--token", str(workdir / "tok.puft"), "--store", str(tmp_path / "store")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        for line in proc.stdout:
            if line.startswith("listening="):
                break
        from photonpuf.token import load_token, token_id
        tid = token_id(load_token(workdir / "tok.puft"))
        blob = (workdir / "c.chal").read_bytes()
        deadline = time.monotonic() + 10
        client = None
        while client is None:
            try:
                client = ServiceClient(("127.0.0.1", port), timeout=5.0)
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.05)
        with client:
            rid, digest = client.enroll(tid, blob)
            accepted, corrected = client.auth(rid)
        assert accepted
        assert (tmp_path / "store").is_dir()
    finally:
        proc.terminate()
        proc.communicate(timeout=5)         # reaps the server and closes both pipes
