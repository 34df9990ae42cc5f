"""mmdot benchmark: one seeded workload, timed end to end or traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload slope_study --seed 1 --seconds 20 --trace 0

Runs the workload closed-loop (one caller, each pass after the previous one
ended) in a fresh worker process whose BLAS/OpenMP thread count is fixed,
and times set-up in further worker processes.  Prints a record line with
the environment and every figure of the run, then, as the last line, one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  Exits non-zero without a result when the checkout holds no
``src/mmdot`` to measure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("slope_study", "gaussian_eval", "cli_roundtrip", "domain_adapt_admm")
# Set-up is timed in this many processes; the median is reported.
SETUP_SAMPLES = 3
# One BLAS/OpenMP thread: on a 2-core box two threads made slope_study
# passes spread over 9.52-10.54 s against 9.56-9.66 s with one.
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKER_TIMEOUT_S = 170

# name -> (unit, better); the end-to-end metrics every workload reports.
# The raw pass wall time is shown in the record line; the gate uses it
# rescaled to the reference host speed (see hostclock.py), because this
# host's speed drifts between runs by more than any useful bound.  For the
# same reason ``setup_s`` is each set-up time rescaled by a gauge of the
# host taken right after it; the raw set-up times are in the record line.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_norm_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# Figures shown in the record line where the workload has them.  They are
# not defined on every workload, are 0 on some, or vary with the seed's data
# far beyond any bound, so they gate nothing; failures count in ``failed``.
WORKLOAD_FIGURES = {
    "objective": ("1", "lower"),
    "failed_share": ("ratio", "lower"),
    "converged_share": ("ratio", "higher"),
    "map_mse_oos": ("1", "lower"),
    "accuracy": ("ratio", "higher"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "smoke"], default="full",
                   help="smoke: toy sizes, for the benchmark's own test")
    return p.parse_args(argv)


def git_commit(root):
    """Commit of the checkout read from .git, or None outside a repository."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def worker_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(min(THREADS, os.cpu_count() or 1))
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(args, workdir, extra):
    """Start one worker, wait for it, return its JSON result."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", args.size, "--workdir", str(workdir),
    ]
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(spawned_at)] + extra,
        cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True,
        timeout=WORKER_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(res, setup_norm_samples):
    return {
        "setup_s": statistics.median(setup_norm_samples),
        "wall_norm_s": statistics.median(res["wall_norm_s"]),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def workload_figures(res):
    figures = {
        "objective": res["objective"],
        "failed_share": res["failed"] / res["attempted"],
        "converged_share": res["converged"] / res["solves"] if res["solves"] else None,
        "map_mse_oos": res["map_mse_oos"],
        "accuracy": res["accuracy"],
    }
    return {k: v for k, v in figures.items() if v is not None}


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "mmdot" / "__init__.py").is_file():
        print(f"no mmdot sources under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    spans_out = scratch / f"spans-{args.workload}-seed{args.seed}.json"
    try:
        setups = [
            run_worker(args, workdir, ["--setup-only"])
            for _ in range(SETUP_SAMPLES - 1)
        ]
        extra = ["--spans-out", str(spans_out)] if args.trace else []
        res = run_worker(args, workdir, extra)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(res)
    setup_samples = [r["setup_s"] for r in setups]
    setup_norm_samples = [r["setup_norm_s"] for r in setups]

    e2e = end_to_end(res, setup_norm_samples) if not args.trace else {}
    figures = workload_figures(res)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "commit": git_commit(ROOT),
        "loop": "closed, 1 caller",
        "env": res["env"],
        "passes": res["passes"],
        "wall_s": statistics.median(res["wall_s"]),
        "pass_wall_s": res["wall_s"],
        "pass_wall_norm_s": res["wall_norm_s"],
        "pass_probe_mean_s": res["probe_mean_s"],
        "setup_samples_s": setup_samples,
        "setup_norm_samples_s": setup_norm_samples,
        "setup_probe_s": [r["setup_probe_s"] for r in setups],
        "digest": res["digest"],
        "exit_codes": res["exit_codes"],
        "failures": res["failures"],
        "end_to_end": {k: [v, *END_TO_END[k]] for k, v in e2e.items()},
        "workload_figures": {k: [v, *WORKLOAD_FIGURES[k]] for k, v in figures.items()},
    }
    if args.trace:
        record["traced_wall_s"] = res["traced_wall_s"]
        record["spans"] = str(spans_out.relative_to(ROOT))
        metrics = res["per_layer"]
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in e2e.items()}
    undefined = [k for k, m in metrics.items() if not math.isfinite(m["value"])]
    if undefined:
        print(f"metrics undefined on this run: {undefined}", file=sys.stderr)
        return 1
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
