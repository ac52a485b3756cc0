"""photonpuf benchmark: closed-loop TCP workloads, end to end and layer by layer.

One run, as the harness calls it (prints the metrics, then one JSON line):

    python3 perfbench/run.py --workload pixel-auth --seed 1 --seconds 45 --trace 0

Every workload, each in a fresh process, with a median table and a result file:

    python3 perfbench/run.py --workload all --seed 1 --repeat 3 --out base.json

Per-workload ratios between two result files, with "unresolved" where the
run-to-run spread exceeds the bound in BENCHMARK.json:

    python3 perfbench/run.py --compare base.json new.json

``--trace 1`` reports the per-layer metrics instead of the end-to-end ones
and writes the spans to ``.perfbench_out/``. The benchmark imports photonpuf
from ``src/`` of the checkout it sits in and refuses any other copy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
# Whether numpy's large temporaries get transparent huge pages depends on the
# host's free memory at the moment; it moved throughput by ~20% from run to
# run. numpy reads this before its first import, so runs compare.
os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")

import numpy as np  # noqa: E402
import photonpuf  # noqa: E402

if Path(photonpuf.__file__).resolve().parent != SRC / "photonpuf":
    raise ImportError(f"photonpuf must come from {SRC}, not {photonpuf.__file__}")

import workloads  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"
ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMPY_MADVISE_HUGEPAGE")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "git_commit": _git_commit(),
        "seed": seed,
        "env_vars": {k: os.environ.get(k) for k in ENV_VARS},
    }


def write_spans(spans, path: Path):
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps({"id": s.span_id, "name": s.name, "parent": s.parent,
                                 "request": s.request, "thread": s.thread,
                                 "start_ns": s.start_ns, "end_ns": s.end_ns}) + "\n")


def run_one(args) -> int:
    w = workloads.WORKLOADS[args.workload]
    print("# env " + json.dumps(environment(args.seed)), flush=True)
    OUT_DIR.mkdir(exist_ok=True)
    out = workloads.run(w, args.seed, args.seconds, bool(args.trace), work_dir=str(OUT_DIR))
    if args.trace:
        spans_path = OUT_DIR / f"spans-{w.name}-seed{args.seed}.jsonl"
        write_spans(out.spans, spans_path)
        print(f"# {len(out.spans)} spans written to {spans_path.relative_to(ROOT)}")
    for problem in out.problems:
        print(f"# problem: {problem}", file=sys.stderr)
    rejected = out.notes.get("rejected_auths", 0)
    print(f"# {w.name} seed={args.seed} trace={args.trace} attempted={out.attempted} "
          f"failed={out.failed} rejected={rejected} "
          f"failed_ratio={(out.failed + rejected) / out.attempted:.4g}")
    print("# samples " + json.dumps(out.notes))
    for name, (value, unit) in out.metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out.metrics.items()},
    }
    if args.out:
        run_row = {"workload": w.name, "seed": args.seed, "trace": args.trace, **result}
        write_result(args.out, environment(args.seed), [run_row])
    print(json.dumps(result), flush=True)
    return 0


def write_result(path, env: dict, runs: list):
    with open(path, "w") as fh:
        json.dump({"env": env, "runs": runs}, fh, indent=1)


def run_all(args) -> int:
    """Each workload and repeat in a fresh process; prints a median table."""
    runs = []
    for name in workloads.WORKLOADS:
        for i in range(args.repeat):
            seed = args.seed + i
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{name} seed={seed}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            row = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"workload": name, "seed": seed, "trace": args.trace, **row})
    for name in workloads.WORKLOADS:
        mine = [r for r in runs if r["workload"] == name]
        failed = sum(r["failed"] for r in mine)
        attempted = sum(r["attempted"] for r in mine)
        print(f"# {name}: {len(mine)} runs, correct={all(r['correct'] for r in mine)} "
              f"failed_ratio={failed / attempted:.4g}")
        for metric, m in mine[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in mine]
            print(f"{name} {metric} {statistics.median(values):.6g} {m['unit']}")
    if args.out:
        write_result(args.out, environment(args.seed), runs)
    return 0 if all(r["correct"] for r in runs) else 1


# ----------------------------------------------------------------------
# compare

def _spread(values) -> float | None:
    """Quartile distance over the median; None below two runs."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def compare_rows(base: dict, new: dict, spec: dict) -> list[dict]:
    """One row per (workload, trace, metric) present in both files."""
    metric_spec = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    def group(doc):
        out: dict = {}
        for r in doc["runs"]:
            for metric, m in r["metrics"].items():
                out.setdefault((r["workload"], r["trace"], metric), []).append(m["value"])
        return out

    b, n = group(base), group(new)
    rows = []
    for key in sorted(b.keys() & n.keys()):
        workload, trace, metric = key
        ms = metric_spec.get(metric, {"better": "lower", "unit": ""})
        bound = ms.get("bound")
        bv, nv = b[key], n[key]
        bmed, nmed = statistics.median(bv), statistics.median(nv)
        sign = 1.0 if ms["better"] == "lower" else -1.0
        worse_by = sign * (nmed - bmed) / abs(bmed) if bmed else 0.0
        spreads = [_spread(bv), _spread(nv)]
        all_better = all(sign * (x - y) < 0 for x in nv for y in bv)
        if bound is None:
            verdict = ""
        elif None in spreads or max(spreads) > bound:
            verdict = "better (every run)" if all_better else "unresolved"
        elif worse_by > bound:
            verdict = "worse"
        else:
            verdict = "within bound"
        rows.append({
            "workload": workload, "trace": trace, "metric": metric, "unit": ms["unit"],
            "base": bmed, "new": nmed, "ratio": nmed / bmed if bmed else float("nan"),
            "base_runs": len(bv), "new_runs": len(nv), "verdict": verdict,
        })
    return rows


def run_compare(args) -> int:
    with open(args.compare[0]) as fh:
        base = json.load(fh)
    with open(args.compare[1]) as fh:
        new = json.load(fh)
    print(f"# base commit {base['env'].get('git_commit')}, new commit {new['env'].get('git_commit')}")
    for row in compare_rows(base, new, load_spec()):
        print(f"{row['workload']} trace={row['trace']} {row['metric']}: "
              f"ratio {row['ratio']:.4f} (base {row['base']:.6g} {row['unit']}, "
              f"{row['base_runs']} vs {row['new_runs']} runs) {row['verdict']}".rstrip())
    return 0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="timed loop length (default: run_seconds in BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=1, help="runs per workload with --workload all")
    p.add_argument("--out", help="write the runs to this result file")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = p.parse_args(argv)
    if not args.compare and not args.workload:
        p.error("--workload or --compare is required")
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        return run_compare(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
