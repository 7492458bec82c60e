"""neckflow benchmark: one workload, fresh-process passes, checked results.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; ``neckflow`` is imported from ``./src``.
Each pass runs in its own interpreter (``passes.py``), because a second
sweep in one process drifts and slows (see README.md).  Passes repeat until
``--seconds`` would be exceeded, at least two; with ``--trace 1`` they
alternate between untraced and traced.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the medians of the end-to-end
metrics (times at the reference host speed, see ``PROBE_REF_S``) with
``--trace 0``, the per-layer metrics with ``--trace 1``.
A summary goes to standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from passes import WORKLOADS  # noqa: E402
from spans import EXACT, LAYERS  # noqa: E402

OUT_DIR = os.path.join(HERE, ".out")
PASS_TIMEOUT_S = 150.0

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Host speed on a shared machine drifts by tens of percent over minutes
# (README.md, "Machine and noise record").  Every pass times a fixed probe
# twice right after its timed part, and the end-to-end times are reported
# at the host speed where those two probes take PROBE_REF_S.
PROBE_REF_S = 0.6
AT_REF_SPEED = ("wall_s", "cpu_s", "setup_s")

# per-layer counters reported with --trace 1, besides the layer self times
COUNTS = ("coeffs.eval_calls", "coeffs.eval_points", "fields.sample_points",
          "sweeps.rows") + EXACT
# what must repeat exactly across passes and runs of one code version and seed
REPEATS = EXACT + ("sweeps.rows", "digest")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def src_digest(root: str) -> str:
    pkg = os.path.join(root, "src", "neckflow")
    h = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def child_env(root: str) -> dict:
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    env.pop("NECK_THREADS", None)  # sweep cells run sequentially
    env.update(PYTHONPATH=os.path.join(root, "src"), PYTHONDONTWRITEBYTECODE="1",
               OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    return env


def spawn(workload: str, seed: int, mode: str, root: str, env: dict) -> dict:
    """Start one pass, wait for it, return its result plus ``setup_s``."""
    cmd = [sys.executable, os.path.join(HERE, "passes.py"), workload, str(seed),
           mode, OUT_DIR]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} pass of {workload} exceeded {PASS_TIMEOUT_S:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass of {workload} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if "ready" in result:
        result["setup_s"] = result["ready"] - start
    result["elapsed_s"] = time.monotonic() - start
    return result


def run_passes(args, root: str) -> tuple[list, dict | None]:
    env = child_env(root)
    modes = ("plain", "traced") if args.trace else ("plain",)
    min_passes = 2
    passes = []
    start = time.monotonic()
    while True:
        mode = modes[len(passes) % len(modes)]
        res = spawn(args.workload, args.seed, mode, root, env)
        res["mode"] = mode
        passes.append(res)
        elapsed = time.monotonic() - start
        if len(passes) >= min_passes and elapsed + res["elapsed_s"] > args.seconds:
            break
    drift = None
    if args.trace and args.workload == "rate-sweep":
        drift = spawn(args.workload, args.seed, "drift", root, env)
    return passes, drift


def check_exact(passes: list, key: str) -> list:
    """Exact counters (and the report digest) must repeat in every pass of
    this run and match what earlier runs of the same code and seed stored."""
    exact = {k: v for k, v in passes[0]["counts"].items() if k in REPEATS}
    problems = []
    for i, p in enumerate(passes[1:], 2):
        for name, value in exact.items():
            if p["counts"][name] != value:
                problems.append(f"pass {i}: {name} = {p['counts'][name]}, pass 1 had {value}")
    path = os.path.join(OUT_DIR, "exact.json")
    stored = {}
    if os.path.exists(path):
        with open(path) as fh:
            stored = json.load(fh)
    if key in stored:
        for name, value in exact.items():
            if stored[key].get(name) != value:
                problems.append(f"{name} = {value}, an earlier run stored "
                                f"{stored[key].get(name)}")
    else:
        stored[key] = exact
        with open(path + ".tmp", "w") as fh:
            json.dump(stored, fh, indent=1, sort_keys=True)
        os.replace(path + ".tmp", path)
    return problems


def median_of(passes: list, get) -> float:
    return float(statistics.median(get(p) for p in passes))


def at_ref_speed(p: dict, name: str) -> float:
    scale = PROBE_REF_S / p["probe_s"] if name in AT_REF_SPEED else 1.0
    return p[name] * scale


def layer_metrics(passes: list, drift: dict | None) -> dict:
    plain = [p for p in passes if p["mode"] == "plain"]
    traced = [p for p in passes if p["mode"] == "traced"]
    out = {}
    for layer in LAYERS + ["trace.other", "fd.sample_incl"]:
        out[f"{layer}_s"] = (median_of(traced, lambda p: p["self_s"][layer]), "s")
    for name in COUNTS:
        out[name] = (median_of(traced, lambda p: p["counts"].get(name, 0)), "count")
    hits, gets = out.pop("verifier.cache_hits")[0], out["verifier.cache_gets"][0]
    out["verifier.cache_hit_ratio"] = (hits / gets if gets else 0.0, "ratio")
    out["sweeps.rows_drifted"] = (
        float(drift["sweeps.rows_drifted"]) if drift else 0.0, "count")
    wall = median_of(traced, lambda p: p["wall_s"])
    plain_wall = median_of(plain, lambda p: p["wall_s"])
    out["trace.wall_s"] = (wall, "s")
    out["trace.untraced_wall_s"] = (plain_wall, "s")
    out["trace.overhead_s"] = (wall - plain_wall, "s")
    out["trace.spans"] = (median_of(traced, lambda p: p["spans"]), "count")
    out["host.probe_s"] = (median_of(passes, lambda p: p["probe_s"]), "s")
    uses = [c[2] for p in passes for c in p["checks"] if c[2] is not None]
    out["checks.bound_use_max"] = (max(uses) if uses else 0.0, "ratio")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "neckflow", "__init__.py")):
        print("perfbench: run from the repository root (no src/neckflow here)",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        passes, drift = run_passes(args, root)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    checks = [c for p in passes for c in p["checks"]]
    failed = [c for c in checks if not c[1]]
    key = f"{args.workload} seed={args.seed} src={src_digest(root)}"
    problems = check_exact(passes, key)

    if args.trace:
        metrics = layer_metrics(passes, drift)
    else:
        metrics = {name: (median_of(passes, lambda p: at_ref_speed(p, name)), unit)
                   for name, unit in END_TO_END.items()}

    log = sys.stderr
    print(f"perfbench {args.workload} seed={args.seed}: {len(passes)} passes, "
          f"{len(checks)} checks, {len(failed)} failed", file=log)
    for name, ok, use in failed[:20]:
        print(f"  FAIL {name} (use {use})", file=log)
    for msg in problems:
        print(f"  NOT EXACT {msg}", file=log)
    print("  pass wall_s " + " ".join(f"{p['mode'][0]}{p['wall_s']:.3f}" for p in passes),
          file=log)
    print("  pass probe_s " + " ".join(f"{p['probe_s']:.3f}" for p in passes), file=log)
    if "digest" in passes[0]["counts"]:
        print(f"  report sha256 {passes[0]['counts']['digest']}", file=log)
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}", file=log)

    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
