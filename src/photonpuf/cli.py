"""Command line around the simulator, protocol, campaigns, and service.

Every subcommand prints line-oriented ``key=value`` pairs so output is easy
to scrape from shell scripts, and exits 0 on success, 1 on a negative result
(for example a rejected authentication), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import itertools
import secrets
import sys

import numpy as np

from . import bch
from .campaign import (key_distances, robustness, score, success_curve, unclonability,
                       unpredictability)
from ._binio import bits_from_bytes, counted_bits
from .metrics import histogram
from .protocol import authenticate, enroll, load_record, save_record, verify
from .randomness import battery, suite_report
from .service import DEFAULT_FRAME_TIMEOUT, PufServer, PufService, RecordStore, random_bits
from .token import (
    DEFAULT_GRAIN_PX,
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


def _alpha(text: str) -> float:
    alpha = float(text)
    if not 0.0 < alpha < 1.0:
        raise argparse.ArgumentTypeError(f"alpha must lie in (0, 1), got {text!r}")
    return alpha


def _load_challenge(path: str):
    with open(path, "rb") as fh:
        challenge = challenge_from_bytes(fh.read())
    if challenge is None:
        raise ValueError(f"{path} holds an empty challenge descriptor")
    return challenge


def _noise_flags(parser: argparse.ArgumentParser, seeded: bool = True):
    g = parser.add_argument_group("capture noise")
    default = NoiseParams()
    g.add_argument("--intensity-sigma", type=float, default=default.intensity_sigma)
    g.add_argument("--phase-sigma", type=float, default=default.phase_drift_sigma)
    g.add_argument("--delta-t", type=float, default=default.delta_T,
                   help="temperature offset, degC")
    if seeded:  # rng extract and serve reseed every capture themselves
        g.add_argument("--noise-seed", type=int, default=None,
                       help="repeat a capture; a fresh seed from the OS CSPRNG by default")
    g.add_argument("--no-noise", action="store_true", help="ideal noiseless capture")


def _noise_from_args(args) -> NoiseParams:
    if args.no_noise:
        return NoiseParams.none()
    seed = getattr(args, "noise_seed", None)
    return NoiseParams(
        intensity_sigma=args.intensity_sigma,
        phase_drift_sigma=args.phase_sigma,
        delta_T=args.delta_t,
        noise_seed=secrets.randbits(64) if seed is None else seed,
    )


def _eval_flags(parser: argparse.ArgumentParser, capture):
    """Flags shared by the distance evaluations; ``capture(args, token, noise)`` returns images."""
    parser.add_argument("--token", required=True)
    parser.add_argument("--no-hash", action="store_true")
    parser.add_argument("--report", default=None, metavar="PREFIX")
    parser.add_argument("--key-len", type=int, default=255)
    _noise_flags(parser)
    parser.set_defaults(func=_cmd_eval_distances, capture=capture)


# ----------------------------------------------------------------------
# subcommand bodies

def _cmd_token_new(args) -> int:
    token = new_token(
        args.seed,
        kind=args.kind,
        grid_dims=args.grid,
        out_dims=args.out,
        wl_decorrelation_length=args.decorrelation_pm,
        speckle_grain=args.grain,
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
    _emit(
        ("file", args.output),
        ("dims", f"{image.shape[0]}x{image.shape[1]}"),
        ("mean", float(image.mean())),
        ("max", float(image.max())),
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
    _, record = enroll(image, params, token_id=tid, challenge=challenge)
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


def _capture_robustness(args, token, noise):
    return robustness(token, _load_challenge(args.challenge), noise, args.repeats)


def _capture_unpredictability(args, token, noise):
    challenges = [random_pattern(token.grid_dims, args.seed + i) for i in range(args.challenges)]
    return unpredictability(token, challenges, noise)


def _capture_unclonability(args, token, noise):
    # the other tokens are numbered from --seed, skipping the reference token's own seed
    seeds = (s for s in itertools.count(args.seed) if s != token.token_seed)
    others = list(itertools.islice(seeds, args.tokens - 1))
    return unclonability(token, _load_challenge(args.challenge), others, noise)


# score's metric name -> (stdout prefix, report header label)
_DISTANCE_LABELS = {
    "euclidean": ("ed", "euclidean"),
    "correlation": ("cc", "cross_correlation"),
    "hamming": ("hd", "fractional_hamming"),
}


def _save_histogram(path, kind, metric, values):
    counts, edges = histogram(values)
    with open(path, "w") as out:
        out.write(f"# kind={kind} metric={metric}\n")
        out.write(f"# count={values.size} mean={values.mean():.6g} std={values.std():.6g}\n")
        out.write("bin_lo\tbin_hi\tcount\n")
        for lo, hi, c in zip(edges[:-1], edges[1:], counts):
            out.write(f"{lo:.6g}\t{hi:.6g}\t{int(c)}\n")


def _cmd_eval_distances(args) -> int:
    token = load_token(args.token)
    key_len = None if args.no_hash else args.key_len
    distances = score(args.capture(args, token, _noise_from_args(args)), key_len)

    pairs = [("kind", args.action), ("pairs", distances["euclidean"].size)]
    for name, values in distances.items():
        short = _DISTANCE_LABELS[name][0]
        pairs.append((f"{short}_mean", float(values.mean())))
        pairs.append((f"{short}_std", float(values.std())))
    if args.report:
        for name, values in distances.items():
            path = f"{args.report}.{name}.tsv"
            _save_histogram(path, args.action, _DISTANCE_LABELS[name][1], values)
            pairs.append((f"report_{name}", path))
    _emit(*pairs)
    return 0


def _cmd_eval_success_curve(args) -> int:
    token = load_token(args.token)
    params = bch.bch_new(args.bch_m, args.bch_t)
    noise = _noise_from_args(args)
    distances = []
    for i in range(args.enrollments):
        challenge = random_pattern(token.grid_dims, args.seed + i)
        # capture 0 enrolls at mapping seed i, captures 1..auths authenticate against it
        images = robustness(token, challenge, noise.with_seed(noise.noise_seed + 1000 * i),
                            args.auths + 1)
        distances.append(key_distances(images, params.n, i))
    hd = np.array(distances, dtype=np.int64).ravel()
    curve = success_curve(hd, params.n)
    pairs = [
        ("pairs", hd.size),
        ("key_len", params.n),
        ("hd_mean", float(hd.mean())),
        ("hd_std", float(hd.std())),
        # the curve is non-decreasing: the first threshold reaching each target
        ("t_half", int(np.searchsorted(curve, 0.5))),
        ("t_999", int(np.searchsorted(curve, 0.999))),
        ("correctable_t", params.t),
    ]
    if args.report:
        with open(args.report, "w") as fh:
            fh.write("threshold\tprobability\n")
            for t, prob in enumerate(curve.tolist()):
                fh.write(f"{t}\t{prob:.6f}\n")
        pairs.append(("report", args.report))
    _emit(*pairs)
    return 0


def _cmd_rng_extract(args) -> int:
    token = load_token(args.token)
    stream = random_bits(token, args.bits, _noise_from_args(args))
    with open(args.output, "wb") as fh:
        fh.write(counted_bits(stream))
    _emit(
        ("file", args.output),
        ("bits", stream.size),
        ("ones_fraction", float(stream.mean())),
    )
    return 0


def _cmd_rng_test(args) -> int:
    streams = []
    for path in args.input:
        with open(path, "rb") as fh:
            streams.append(bits_from_bytes(fh.read()))
    if len(streams) == 1:
        results = battery(streams[0])
        for p_values in results.values():
            for label, p in p_values.items():
                _emit((f"p_{label}", p))
        ok = all(p >= args.alpha for p_values in results.values() for p in p_values.values())
        _emit(("passed", ok))
        return 0 if ok else 1
    rows = suite_report(streams, alpha=args.alpha)
    for name, row in rows.items():
        lo, hi = row["band"]
        _emit(
            (f"{name}_proportion", row["proportion"]),
            (f"{name}_band", f"{lo:.4f}..{hi:.4f}"),
            (f"{name}_uniformity", row["uniformity"]),
            (f"{name}_pass", row["passed"]),
        )
    ok = all(row["passed"] for row in rows.values())
    _emit(("streams", len(streams)), ("passed", ok))
    return 0 if ok else 1


def _cmd_serve(args) -> int:
    store = RecordStore(args.store)
    params = bch.bch_new(args.bch_m, args.bch_t)
    service = PufService(store, bch_params=params, noise=_noise_from_args(args))
    for path in args.token:
        tid = service.add_token(load_token(path))
        _emit(("token_id", tid.hex()))
    _emit(("listening", f"{args.host}:{args.port}"), ("store", args.store))
    sys.stdout.flush()
    with PufServer((args.host, args.port), service, args.frame_timeout) as server:
        server.serve_forever()
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
    p_new.add_argument("--grain", type=float, default=DEFAULT_GRAIN_PX,
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
    p_enroll.add_argument("--bch-m", type=int, default=bch.DEFAULT_M)
    p_enroll.add_argument("--bch-t", type=int, default=bch.DEFAULT_T)
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
    p_rob = eval_sub.add_parser("robustness")
    p_rob.add_argument("--challenge", required=True)
    p_rob.add_argument("--repeats", type=int, default=60)
    _eval_flags(p_rob, _capture_robustness)
    p_unp = eval_sub.add_parser("unpredictability")
    p_unp.add_argument("--challenges", type=int, default=100)
    p_unp.add_argument("--seed", type=int, default=1, help="seed of the first random challenge")
    _eval_flags(p_unp, _capture_unpredictability)
    p_unc = eval_sub.add_parser("unclonability")
    p_unc.add_argument("--challenge", required=True)
    p_unc.add_argument("--tokens", type=int, default=50)
    p_unc.add_argument("--seed", type=int, default=1,
                       help="first other token's seed; the reference token's own seed is skipped")
    _eval_flags(p_unc, _capture_unclonability)
    p_curve = eval_sub.add_parser("success-curve")
    p_curve.add_argument("--token", required=True)
    p_curve.add_argument("--enrollments", type=int, default=100)
    p_curve.add_argument("--auths", type=int, default=5)
    p_curve.add_argument("--seed", type=int, default=1)
    p_curve.add_argument("--bch-m", type=int, default=bch.DEFAULT_M)
    p_curve.add_argument("--bch-t", type=int, default=bch.DEFAULT_T)
    p_curve.add_argument("--report", default=None)
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
    test_help = ("run the SP 800-22 battery on bit files: a sanity check on the output, "
                 "not evidence of entropy")
    p_test = rng_sub.add_parser("test", help=test_help, description=test_help)
    p_test.add_argument("--input", nargs="+", required=True)
    p_test.add_argument("--alpha", type=_alpha, default=0.01)
    p_test.set_defaults(func=_cmd_rng_test)

    p_serve = sub.add_parser("serve", help="run the framed TCP service")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=7341)
    p_serve.add_argument("--token", action="append", required=True,
                         help="token file; repeat to install several")
    p_serve.add_argument("--store", required=True, help="record directory")
    p_serve.add_argument("--bch-m", type=int, default=bch.DEFAULT_M)
    p_serve.add_argument("--bch-t", type=int, default=bch.DEFAULT_T)
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
