"""One benchmark process: set up one workload, run closed-loop passes, report.

Started by ``run.py`` with the thread settings already in its environment
and ``src`` on ``PYTHONPATH``.  Prints one JSON object on its last stdout
line.  ``--setup-only`` stops after set-up, so ``run.py`` can time set-up
several times.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

from hostclock import REFERENCE_PROBE_S, HostClock


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", default="full")
    p.add_argument("--workdir", required=True)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="CLOCK_MONOTONIC reading taken by the parent just before spawning")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans-out")
    return p.parse_args(argv)


def environment():
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy prints instead of returning
        pass
    threads = {k: os.environ.get(k) for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": threads,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def measure(workload, seconds, trace, spans_out):
    """Closed-loop passes until the next one would end past ``seconds``.

    With ``trace`` the passes alternate untraced and traced, starting
    untraced, so the traced run also yields the tracing overhead.
    """
    from layers import layer_metrics, pass_counts
    from probe import Probe
    from workloads import Outcome, check_calls, final_objective

    probe = Probe()
    probe.install()
    # Host-speed sampling interrupts the pass, so only untraced runs use it;
    # traced figures are raw self times.
    clock = None if trace else HostClock()
    walls = {False: [], True: []}
    norm_walls, probe_means = [], []
    outcomes, counts, check_failures = [], [], []
    checks_made = 0
    objective = math.nan
    start = time.perf_counter()
    min_passes = 2 if trace else 1
    pass_id = 0
    while True:
        timed = bool(trace) and pass_id % 2 == 1
        probe.begin_pass(pass_id, timed)
        if clock:
            clock.start()
        t0 = time.perf_counter()
        try:
            outcome = workload.run_pass(probe)
        except Exception as exc:  # a crashed pass is a failed operation
            outcome = Outcome(repr(exc).encode(), 1, [f"pass raised {exc!r}"])
        wall = time.perf_counter() - t0
        if clock:
            spent, probe_mean = clock.stop()
            wall -= spent
            norm_walls.append(wall * REFERENCE_PROBE_S / probe_mean)
            probe_means.append(probe_mean)
        walls[timed].append(wall)
        calls = probe.end_pass()

        outcomes.append(outcome)
        made, failures = check_calls(calls)
        checks_made += made + 1  # +1: this pass's payload digest
        if outcome.digest != outcomes[0].digest:
            failures.append(f"pass {pass_id} payload digest differs from pass 0")
        check_failures += failures
        if timed:
            counts.append(pass_counts(calls, outcome.exit_codes))
        if pass_id == 0:
            objective = final_objective(calls)
        del calls
        pass_id += 1

        elapsed = time.perf_counter() - start
        typical = statistics.median(walls[False] + walls[True])
        if pass_id >= min_passes and elapsed + typical > seconds:
            break
    probe.uninstall()

    first = outcomes[0]
    operations = sum(o.operations for o in outcomes)
    op_failures = [f for o in outcomes for f in o.failures]
    result = {
        "passes": pass_id,
        "attempted": operations + checks_made,
        "failed": len(op_failures) + len(check_failures),
        "failures": (op_failures + check_failures)[:20],
        "correct": not check_failures,
        "digest": first.digest,
        "wall_s": walls[False],
        "wall_norm_s": norm_walls,
        "probe_mean_s": probe_means,
        "solves": first.solves,
        "converged": first.converged,
        "objective": objective,
        "map_mse_oos": first.map_mse_oos,
        "accuracy": first.accuracy,
        "exit_codes": first.exit_codes,
    }
    if trace:
        traced = [i for i in range(pass_id) if i % 2 == 1]
        result["traced_wall_s"] = walls[True]
        result["per_layer"] = layer_metrics(
            counts, probe.self_times(set(traced)), walls[True], walls[False]
        )
        if spans_out:
            with open(spans_out, "w", encoding="utf-8") as fh:
                json.dump(probe.span_records(), fh)
    return result


def main(argv=None):
    args = parse_args(argv)
    from workloads import WORKLOADS  # imports mmdot.cli: part of set-up

    workload = WORKLOADS[args.workload](args.seed, args.size)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.workdir)
    try:
        workload.setup(workdir)
        # CLOCK_MONOTONIC is system-wide, so readings compare across processes.
        setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
        setup_probe_s = HostClock().gauge()
        result = {} if args.setup_only else measure(
            workload, args.seconds, args.trace, args.spans_out)
        result.update(
            setup_s=setup_s,
            setup_probe_s=setup_probe_s,
            setup_norm_s=setup_s * REFERENCE_PROBE_S / setup_probe_s,
        )
        if not args.setup_only:
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            result["env"] = environment()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
