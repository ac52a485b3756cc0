"""Command line around the simulator, protocol, campaigns, and service.

Every subcommand prints line-oriented ``key=value`` pairs so output is easy
to scrape from shell scripts, and exits 0 on success, 1 on a negative result
(for example a rejected authentication), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import secrets
import sys

import numpy as np

from . import bch
from .campaign import Campaign, run_campaign, success_curve
from .hashing import BitKey, draw_helper, hash_apply, hash_enroll
from .protocol import authenticate, enroll, load_record, save_record, verify
from .randomness import ALL_TESTS, nist_test, suite_report
from .service import DEFAULT_FRAME_TIMEOUT, PufService, RecordStore, random_bits, serve_forever
from .token import (
    KINDS,
    NoiseParams,
    PixelPattern,
    Wavelength,
    challenge_from_bytes,
    challenge_to_bytes,
    load_pgm,
    load_token,
    new_token,
    random_pattern,
    respond,
    save_pgm,
    save_token,
    token_id,
)

__all__ = ["main"]


def _emit(*pairs):
    for key, value in pairs:
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = f"{value:.6g}"
        print(f"{key}={value}")


def _parse_dims(text: str) -> tuple:
    try:
        a, b = text.lower().split("x")
        return (int(a), int(b))
    except Exception:
        raise argparse.ArgumentTypeError(f"expected ROWSxCOLS, got {text!r}")


def _load_challenge(path: str):
    with open(path, "rb") as fh:
        challenge = challenge_from_bytes(fh.read())
    if challenge is None:
        raise ValueError(f"{path} holds an empty challenge descriptor")
    return challenge


def _noise_flags(parser: argparse.ArgumentParser, seeded: bool = True):
    g = parser.add_argument_group("capture noise")
    g.add_argument("--intensity-sigma", type=float, default=None)
    g.add_argument("--phase-sigma", type=float, default=None)
    g.add_argument("--delta-t", type=float, default=None, help="temperature offset, degC")
    g.add_argument("--vibration-amp", type=float, default=None,
                   help="resonant translation jitter amplitude, pixels")
    g.add_argument("--vibration-prob", type=float, default=None)
    if seeded:  # rng extract and serve reseed every capture themselves
        g.add_argument("--noise-seed", type=int, default=None,
                       help="repeat a capture; a fresh seed from the OS CSPRNG by default")
    g.add_argument("--no-noise", action="store_true", help="ideal noiseless capture")


def _noise_from_args(args) -> NoiseParams:
    if args.no_noise:
        return NoiseParams.none()
    seed = getattr(args, "noise_seed", None)
    base = NoiseParams(noise_seed=secrets.randbits(64) if seed is None else seed)
    updates = {}
    if args.intensity_sigma is not None:
        updates["intensity_sigma"] = args.intensity_sigma
    if args.phase_sigma is not None:
        updates["phase_drift_sigma"] = args.phase_sigma
    if args.delta_t is not None:
        updates["delta_T"] = args.delta_t
    if args.vibration_amp is not None:
        updates["vibration_amp"] = args.vibration_amp
    if args.vibration_prob is not None:
        updates["vibration_prob"] = args.vibration_prob
    return dataclasses.replace(base, **updates)


def _hash_flags(parser: argparse.ArgumentParser, default_key_len=None):
    g = parser.add_argument_group("hashing")
    g.add_argument("--algo", choices=("rbm", "svd"), default="rbm")
    g.add_argument("--key-len", type=int, default=default_key_len)


# ----------------------------------------------------------------------
# subcommand bodies

def _cmd_token_new(args) -> int:
    extra = {} if args.grain is None else {"speckle_grain": args.grain}
    token = new_token(
        args.seed,
        kind=args.kind,
        grid_dims=args.grid,
        out_dims=args.out,
        wl_decorrelation_length=args.decorrelation_pm,
        **extra,
    )
    tid = token_id(token).hex()
    path = args.output or f"token-{tid[:8]}.puft"
    save_token(token, path)
    _emit(("token_id", tid), ("file", path), ("kind", token.kind), ("seed", token.token_seed))
    return 0


def _cmd_token_show(args) -> int:
    token = load_token(args.token)
    _emit(
        ("token_id", token_id(token).hex()),
        ("kind", token.kind),
        ("seed", token.token_seed),
        ("grid", f"{token.grid_dims[0]}x{token.grid_dims[1]}"),
        ("out", f"{token.out_dims[0]}x{token.out_dims[1]}"),
        ("decorrelation_pm", token.wl_decorrelation_length),
        ("grain_px", token.speckle_grain),
    )
    return 0


def _cmd_challenge_gen(args) -> int:
    if args.wavelength is not None:
        challenge = Wavelength(args.wavelength)
        kind = "wavelength"
    else:
        if args.grid is None:
            raise ValueError("need --grid for a pixel-pattern challenge (or --wavelength)")
        challenge = random_pattern(args.grid, args.seed, on_fraction=args.on_fraction)
        kind = "pixel_pattern"
    path = args.output or f"challenge-{args.seed}.chal"
    with open(path, "wb") as fh:
        fh.write(challenge_to_bytes(challenge))
    pairs = [("challenge", kind), ("file", path)]
    if kind == "pixel_pattern":
        pairs.append(("on_count", challenge.on_count))
    else:
        pairs.append(("wavelength_nm", challenge.lambda_nm))
    _emit(*pairs)
    return 0


def _cmd_capture(args) -> int:
    token = load_token(args.token)
    challenge = _load_challenge(args.challenge)
    image = respond(token, challenge, noise=_noise_from_args(args))
    save_pgm(image, args.output)
    arr = image.as_float()
    _emit(
        ("file", args.output),
        ("dims", f"{arr.shape[0]}x{arr.shape[1]}"),
        ("mean", float(arr.mean())),
        ("max", float(arr.max())),
    )
    return 0


def _cmd_enroll(args) -> int:
    params = bch.bch_new(args.bch_m, args.bch_t)
    if args.image:
        image = load_pgm(args.image)
        challenge = None
        tid = b"\x00" * 16
    else:
        if not (args.token and args.challenge):
            raise ValueError("enroll needs --image, or --token plus --challenge")
        token = load_token(args.token)
        challenge = _load_challenge(args.challenge)
        tid = token_id(token)
        image = respond(token, challenge, noise=_noise_from_args(args))
    _, record = enroll(image, params, algo=args.algo, token_id=tid, challenge=challenge)
    save_record(record, args.record)
    _emit(
        ("record_id", record.record_id.hex()),
        ("token_id", record.token_id.hex()),
        ("file", args.record),
        ("digest", record.key_digest.hex()),
        ("code", f"n={params.n},k={params.k},t={params.t}"),
    )
    return 0


def _cmd_auth(args) -> int:
    record = load_record(args.record)
    if args.image:
        image = load_pgm(args.image)
    else:
        if not args.token:
            raise ValueError("auth needs --image or --token")
        token = load_token(args.token)
        if record.challenge is None:
            raise ValueError("record carries no challenge descriptor; supply --image")
        image = respond(token, record.challenge, noise=_noise_from_args(args))
    outcome = authenticate(image, record)
    accepted = outcome is not None and verify(outcome[0], record)
    _emit(
        ("accepted", accepted),
        ("corrected", outcome[1] if outcome is not None else "-"),
        ("record_id", record.record_id.hex()),
    )
    return 0 if accepted else 1


def _eval_campaign(args, kind: str) -> int:
    token = load_token(args.token)
    if kind == "unpredictability":
        challenges = tuple(
            random_pattern(token.grid_dims, args.seed + i) for i in range(args.challenges)
        )
    else:
        challenges = (_load_challenge(args.challenge),)
    others = tuple(args.seed + i for i in range(args.tokens - 1)) if kind == "unclonability" else ()
    campaign = Campaign(
        kind=kind,
        token=token,
        challenges=challenges,
        other_token_seeds=others,
        noise=_noise_from_args(args),
        repeats=getattr(args, "repeats", 2),
    )
    # mapping seed 0: every eval of one token hashes with the same mapping
    helper = None if args.no_hash else draw_helper(args.algo, token.out_dims, args.key_len, 0)
    result = run_campaign(campaign, helper)

    pairs = [("kind", kind), ("pairs", result.euclidean.count)]
    reports = [("euclidean", result.euclidean), ("correlation", result.correlation)]
    if result.hash_hamming is not None:
        reports.append(("hamming", result.hash_hamming))
    for name, report in reports:
        short = {"euclidean": "ed", "correlation": "cc", "hamming": "hd"}[name]
        pairs.append((f"{short}_mean", report.mean))
        pairs.append((f"{short}_std", report.std))
    if args.report:
        for name, report in reports:
            path = f"{args.report}.{name}.tsv"
            report.save_tsv(path)
            pairs.append((f"report_{name}", path))
    _emit(*pairs)
    return 0


def _cmd_eval_success_curve(args) -> int:
    token = load_token(args.token)
    params = bch.bch_new(args.bch_m, args.bch_t)
    key_len = args.key_len if args.key_len is not None else params.n
    noise = _noise_from_args(args)
    enroll_keys, auth_keys = [], []
    for i in range(args.enrollments):
        challenge = random_pattern(token.grid_dims, args.seed + i)
        image = respond(token, challenge, noise=noise.with_seed(noise.noise_seed + 1000 * i))
        key, helper = hash_enroll(image, args.algo, key_len, i)
        for j in range(args.auths):
            noisy = respond(token, challenge, noise=noise.with_seed(noise.noise_seed + 1000 * i + j + 1))
            enroll_keys.append(key)
            auth_keys.append(hash_apply(noisy, helper))
    curve = success_curve(enroll_keys, auth_keys)
    hd = np.array([np.count_nonzero(a.bits ^ b.bits) for a, b in zip(enroll_keys, auth_keys)])
    pairs = [
        ("pairs", len(enroll_keys)),
        ("key_len", key_len),
        ("hd_mean", float(hd.mean())),
        ("hd_std", float(hd.std())),
        ("t_half", curve.threshold_for(0.5)),
        ("t_999", curve.threshold_for(0.999)),
        ("correctable_t", params.t),
    ]
    if args.report:
        with open(args.report, "w") as fh:
            fh.write("threshold\tprobability\n")
            for t, prob in curve.rows():
                fh.write(f"{t}\t{prob:.6f}\n")
        pairs.append(("report", args.report))
    _emit(*pairs)
    return 0


def _cmd_rng_extract(args) -> int:
    token = load_token(args.token)
    stream = BitKey(random_bits(token, args.bits, _noise_from_args(args)))
    with open(args.output, "wb") as fh:
        fh.write(stream.to_bytes())
    _emit(
        ("file", args.output),
        ("bits", len(stream)),
        ("ones_fraction", float(stream.bits.mean())),
    )
    return 0


def _cmd_rng_test(args) -> int:
    streams = []
    for path in args.input:
        with open(path, "rb") as fh:
            streams.append(BitKey.from_bytes(fh.read()))
    if len(streams) == 1:
        ok = True
        rows = []
        for name in ALL_TESTS:
            result = nist_test(streams[0], name)
            ok &= result.passed(args.alpha)
            for label, p in result.sub_results:
                rows.append((label, p))
        for label, p in rows:
            _emit((f"p_{label}", p))
        _emit(("passed", ok))
        return 0 if ok else 1
    report = suite_report(streams, alpha=args.alpha)
    for row in report.rows:
        _emit(
            (f"{row.test}_proportion", row.proportion),
            (f"{row.test}_band", f"{row.proportion_band[0]:.4f}..{row.proportion_band[1]:.4f}"),
            (f"{row.test}_uniformity", row.uniformity_p),
            (f"{row.test}_pass", row.proportion_ok and row.uniformity_ok),
        )
    _emit(("streams", report.n_streams), ("passed", report.passed))
    return 0 if report.passed else 1


def _cmd_serve(args) -> int:
    store = RecordStore(args.store)
    params = bch.bch_new(args.bch_m, args.bch_t)
    service = PufService(store, bch_params=params, noise=_noise_from_args(args))
    for path in args.token:
        tid = service.add_token(load_token(path))
        _emit(("token_id", tid.hex()))
    _emit(("listening", f"{args.host}:{args.port}"), ("store", args.store))
    sys.stdout.flush()
    serve_forever((args.host, args.port), service, frame_timeout=args.frame_timeout)
    return 0


# ----------------------------------------------------------------------
# parser assembly

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photonpuf",
        description="Simulated photonic authentication tokens: capture, enroll, evaluate, serve.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_token = sub.add_parser("token", help="create or inspect simulated tokens")
    token_sub = p_token.add_subparsers(dest="action", required=True)
    p_new = token_sub.add_parser("new", help="instantiate a token and write its file")
    p_new.add_argument("--seed", type=int, required=True)
    p_new.add_argument("--kind", choices=KINDS, default="diffuser")
    p_new.add_argument("--grid", type=_parse_dims, default=(16, 16))
    p_new.add_argument("--out", type=_parse_dims, default=(128, 128))
    p_new.add_argument("--grain", type=float, default=None,
                       help="speckle grain radius in pixels")
    p_new.add_argument("--decorrelation-pm", type=float, default=None)
    p_new.add_argument("--output", default=None)
    p_new.set_defaults(func=_cmd_token_new)
    p_show = token_sub.add_parser("show", help="print a token file's parameters")
    p_show.add_argument("--token", required=True)
    p_show.set_defaults(func=_cmd_token_show)

    p_challenge = sub.add_parser("challenge", help="generate challenge descriptors")
    challenge_sub = p_challenge.add_subparsers(dest="action", required=True)
    p_gen = challenge_sub.add_parser("gen")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--grid", type=_parse_dims, default=None)
    p_gen.add_argument("--on-fraction", type=float, default=0.5)
    p_gen.add_argument("--wavelength", type=float, default=None, metavar="NM")
    p_gen.add_argument("--output", default=None)
    p_gen.set_defaults(func=_cmd_challenge_gen)

    p_capture = sub.add_parser("capture", help="simulate one speckle capture to a PGM file")
    p_capture.add_argument("--token", required=True)
    p_capture.add_argument("--challenge", required=True)
    p_capture.add_argument("--output", required=True)
    _noise_flags(p_capture)
    p_capture.set_defaults(func=_cmd_capture)

    p_enroll = sub.add_parser("enroll", help="enroll a capture into a record file")
    p_enroll.add_argument("--token")
    p_enroll.add_argument("--challenge")
    p_enroll.add_argument("--image", help="enroll a pre-captured PGM instead of capturing")
    p_enroll.add_argument("--record", required=True)
    p_enroll.add_argument("--bch-m", type=int, default=8)
    p_enroll.add_argument("--bch-t", type=int, default=31)
    p_enroll.add_argument("--algo", choices=("rbm", "svd"), default="rbm")
    _noise_flags(p_enroll)
    p_enroll.set_defaults(func=_cmd_enroll)

    p_auth = sub.add_parser("auth", help="authenticate against a record file")
    p_auth.add_argument("--record", required=True)
    p_auth.add_argument("--token")
    p_auth.add_argument("--image")
    _noise_flags(p_auth)
    p_auth.set_defaults(func=_cmd_auth)

    p_eval = sub.add_parser("eval", help="distance statistics and success curves")
    eval_sub = p_eval.add_subparsers(dest="action", required=True)
    for kind in ("robustness", "unpredictability", "unclonability"):
        p_kind = eval_sub.add_parser(kind)
        p_kind.add_argument("--token", required=True)
        if kind == "robustness":
            p_kind.add_argument("--challenge", required=True)
            p_kind.add_argument("--repeats", type=int, default=60)
        elif kind == "unpredictability":
            p_kind.add_argument("--challenges", type=int, default=100)
        else:
            p_kind.add_argument("--challenge", required=True)
            p_kind.add_argument("--tokens", type=int, default=50)
        p_kind.add_argument("--seed", type=int, default=1)
        p_kind.add_argument("--no-hash", action="store_true")
        p_kind.add_argument("--report", default=None, metavar="PREFIX")
        _hash_flags(p_kind, default_key_len=255)
        _noise_flags(p_kind)
        p_kind.set_defaults(func=lambda a, k=kind: _eval_campaign(a, k))
    p_curve = eval_sub.add_parser("success-curve")
    p_curve.add_argument("--token", required=True)
    p_curve.add_argument("--enrollments", type=int, default=100)
    p_curve.add_argument("--auths", type=int, default=5)
    p_curve.add_argument("--seed", type=int, default=1)
    p_curve.add_argument("--bch-m", type=int, default=8)
    p_curve.add_argument("--bch-t", type=int, default=31)
    p_curve.add_argument("--report", default=None)
    _hash_flags(p_curve)
    _noise_flags(p_curve)
    p_curve.set_defaults(func=_cmd_eval_success_curve)

    p_rng = sub.add_parser("rng", help="random-bit extraction and statistical tests")
    rng_sub = p_rng.add_subparsers(dest="action", required=True)
    extract_help = "write random bits from captures of a token; each run draws fresh bits"
    p_extract = rng_sub.add_parser("extract", help=extract_help, description=extract_help)
    p_extract.add_argument("--token", required=True)
    p_extract.add_argument("--bits", type=int, default=20000)
    p_extract.add_argument("--output", required=True)
    _noise_flags(p_extract, seeded=False)
    p_extract.set_defaults(func=_cmd_rng_extract)
    p_test = rng_sub.add_parser("test")
    p_test.add_argument("--input", nargs="+", required=True)
    p_test.add_argument("--alpha", type=float, default=0.01)
    p_test.set_defaults(func=_cmd_rng_test)

    p_serve = sub.add_parser("serve", help="run the framed TCP service")
    p_serve.add_argument("--host", default=os.environ.get("PHOTONPUF_HOST", "127.0.0.1"))
    p_serve.add_argument("--port", type=int,
                         default=int(os.environ.get("PHOTONPUF_PORT", "7341")))
    p_serve.add_argument("--token", action="append", required=True,
                         help="token file; repeat to install several")
    p_serve.add_argument("--store", required=True, help="record directory")
    p_serve.add_argument("--bch-m", type=int, default=8)
    p_serve.add_argument("--bch-t", type=int, default=31)
    p_serve.add_argument("--frame-timeout", type=float, default=DEFAULT_FRAME_TIMEOUT)
    _noise_flags(p_serve, seeded=False)
    p_serve.set_defaults(func=_cmd_serve)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error={exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
