"""Command-line front end.

Subcommands wrap the library with file-based inputs and outputs: ``solve``,
``map``, ``emd``, ``eval-gaussian``, ``sample-complexity``, ``domain-adapt``.
Each ``cmd_*`` writes its result and returns its exit code and input paths;
``main`` times it and then writes the run manifest alongside the result
(``<out>.manifest.json``) with the resolved parameters, seed, library
version, input digests, and wall-clock runtime, so any result can be
replayed.  All inputs are local files or flags; no network, no environment
variables.

Exit codes: 0 success; 1 input/usage error; 2 a solve failed numerically
(nothing written), or the result is written but did not converge.  For
``solve`` that is its one solve; the three studies (``eval-gaussian``,
``sample-complexity``, ``domain-adapt``) share one rule: exit 2 if any
record failed or did not converge, or the study's reference solve (the
sample-complexity ``m_ref`` solve) did not converge.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import __version__
from .dataio import (
    file_digest,
    read_labeled_csv,
    read_matrix_csv,
    write_json,
    write_matrix_csv,
)
from .errors import NumericalFailureError, ShapeError
from .experiments import (
    run_domain_adaptation,
    run_gaussian_experiment,
    run_sample_complexity_study,
)
from .kernels import GAUSSIAN, KRONECKER_DELTA, KernelSpec, gram, squared_euclidean_cost
from .solvers import SolverConfig, derive_beta, solve_admm, solve_emd_exact, solve_simplified
from .transport_map import (
    TransportMapModel,
    load_model,
    map_point_sgd,
    map_points_closed_form,
    save_model,
)

# Every input error of the library (CsvFormatError, ShapeError, DatasetError,
# EmptyInputError, InvalidModelError) is a ValueError.
_INPUT_ERRORS = (ValueError, OSError)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract here is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _manifest(args, input_paths, runtime):
    params = {
        k: v for k, v in sorted(vars(args).items()) if k not in ("func", "command")
    }
    return {
        "command": args.command,
        "parameters": params,
        "seed": args.seed,
        "version": __version__,
        "input_digests": {p: file_digest(p) for p in input_paths if p},
        "runtime_seconds": runtime,
    }


def _solver_config(args):
    """The solver flags as a ``SolverConfig``; absent ADMM flags keep their defaults."""
    admm = {}
    if "rho" in args:
        admm = dict(rho_admm=args.rho, max_inner_iters=args.max_inner_iters,
                    tol_residual=args.tol_residual)
    return SolverConfig(
        lambda1=args.lambda1, lambda2=args.lambda2, nu1=args.nu1, nu2=args.nu2,
        max_outer_iters=args.max_iters, tol_gap=args.tol, seed=args.seed, **admm
    )


def _read_cost(path):
    C = read_matrix_csv(path)
    if not np.isfinite(C).all():
        raise ValueError(f"{path}: cost matrix has non-finite entries")
    return C


def cmd_solve(args):
    if args.emit_model and args.cost != "sqeuclidean":
        # A model maps each point to its weighted target mean, the
        # barycenter of the squared-Euclidean cost only.
        raise ValueError("--emit-model requires --cost sqeuclidean")
    X = read_matrix_csv(args.source)
    Y = read_matrix_csv(args.target)
    kernel = KernelSpec(args.kernel, args.sigma if args.kernel == GAUSSIAN else None)
    G1 = gram(kernel, X, X)
    G2 = gram(kernel, Y, Y)
    if args.cost == "sqeuclidean":
        C, cost_path = squared_euclidean_cost(X, Y), None
    else:
        C, cost_path = _read_cost(args.cost), args.cost
    if C.shape != (X.shape[0], Y.shape[0]):
        raise ShapeError(
            f"cost shape {C.shape} does not match samples ({X.shape[0]}, {Y.shape[0]})"
        )
    solve = solve_simplified if args.method == "fw" else solve_admm
    plan, trace = solve(C, G1, G2, _solver_config(args))
    doc = {
        "alpha": plan.alpha.tolist(),
        "objective": float(trace.objective_per_iter[-1]),
        "converged": trace.converged,
        "trace": {
            "iters_used": trace.iters_used,
            "converged": trace.converged,
            "final_gap_or_residual": float(trace.gap_or_residual_per_iter[-1]),
        },
    }
    if plan.beta is not None:
        doc["beta"] = plan.beta.tolist()
    if plan.gamma is not None:
        doc["gamma"] = plan.gamma.tolist()
    write_json(args.out, doc)
    if args.emit_model:
        beta = plan.beta if plan.beta is not None else derive_beta(
            plan.alpha, G1.entries
        )
        model = TransportMapModel(
            beta_star=beta, source_points=X, target_points=Y, kernel1=kernel
        )
        save_model(model, args.emit_model)
    return (0 if trace.converged else 2), [args.source, args.target, cost_path]


def cmd_map(args):
    model = load_model(args.model)
    P = read_matrix_csv(args.points)
    if args.method == "closed":
        mapped, fallback = map_points_closed_form(model, P)
    else:
        mapped, fallback = map_point_sgd(model, P, steps=args.steps, seed=args.seed)
    write_matrix_csv(
        args.out, mapped, extra_columns=[("fallback", fallback.astype(int))]
    )
    return 0, [args.model, args.points]


def cmd_emd(args):
    inputs = []
    if args.cost != "sqeuclidean":
        C = _read_cost(args.cost)
        inputs.append(args.cost)
    else:
        if not (args.source and args.target):
            raise ValueError("--cost sqeuclidean requires --source and --target")
        X = read_matrix_csv(args.source)
        Y = read_matrix_csv(args.target)
        C = squared_euclidean_cost(X, Y)
        inputs += [args.source, args.target]
    coupling, objective = solve_emd_exact(C)
    write_json(args.out, {"coupling": coupling.tolist(), "objective": objective})
    return 0, inputs


def _study_exit(args, report, input_paths=()):
    """Write a study's report; its exit code is 2 if any record failed or did
    not converge, or the study's reference solve did not converge."""
    write_json(args.out, report.to_dict())
    ok = report.details.get("ref_converged", True) and not any(
        r.get("failed", False) or not r["converged"] for r in report.records
    )
    return (0 if ok else 2), input_paths


def cmd_eval_gaussian(args):
    report = run_gaussian_experiment(
        d=args.dim,
        m_values=args.samples,
        sigma=args.sigma,
        repeats=args.repeats,
        cfg=_solver_config(args),
        oos_count=args.oos_count,
        method=args.method,
    )
    return _study_exit(args, report)


def cmd_sample_complexity(args):
    report = run_sample_complexity_study(
        d=args.dim,
        m_values=args.samples,
        sigma=args.sigma,
        cfg=_solver_config(args),
        seed=args.seed,
        ref_multiplier=args.ref_multiplier,
    )
    return _study_exit(args, report)


def cmd_domain_adapt(args):
    source = read_labeled_csv(args.source)
    target_train = read_labeled_csv(args.target_train)
    target_test = read_labeled_csv(args.target_test)
    oos = read_labeled_csv(args.oos_source) if args.oos_source else None
    report = run_domain_adaptation(
        source,
        target_train,
        target_test,
        sigma=args.sigma,
        cfg=_solver_config(args),
        oos_source=oos,
        method=args.method,
    )
    inputs = [args.source, args.target_train, args.target_test, args.oos_source]
    return _study_exit(args, report, inputs)


def _add_solver_flags(p):
    d = SolverConfig()
    p.add_argument("--lambda1", type=float, default=d.lambda1)
    p.add_argument("--lambda2", type=float, default=d.lambda2)
    p.add_argument("--nu1", type=float, default=d.nu1)
    p.add_argument("--nu2", type=float, default=d.nu2)
    p.add_argument("--max-iters", type=int, default=d.max_outer_iters,
                   dest="max_iters",
                   help="outer Frank-Wolfe iterations, or ADMM cycles")
    p.add_argument("--tol", type=float, default=d.tol_gap,
                   help="Frank-Wolfe duality-gap stop; stopping above it exits 2")


def _add_method_flags(p):
    """The solver flags, ``--method`` and the flags only ADMM reads."""
    _add_solver_flags(p)
    d = SolverConfig()
    p.add_argument("--method", choices=["fw", "admm"], default="fw")
    p.add_argument("--rho", type=float, default=d.rho_admm, help="ADMM penalty")
    p.add_argument("--max-inner-iters", type=int, default=d.max_inner_iters,
                   dest="max_inner_iters",
                   help="Newton steps of the prox solve in each ADMM cycle")
    p.add_argument("--tol-residual", type=float, default=d.tol_residual,
                   help="ADMM residual stop")


def _int_list(text):
    return [int(tok) for tok in text.split(",") if tok]


def build_parser():
    parser = _Parser(prog="mmdot", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve for a transport plan")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--kernel", choices=[GAUSSIAN, KRONECKER_DELTA], required=True)
    p.add_argument("--sigma", type=float)
    p.add_argument("--cost", default="sqeuclidean",
                   help="'sqeuclidean' or a cost-matrix CSV path")
    _add_method_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--emit-model", dest="emit_model",
                   help="also write a transport-map model JSON here "
                   "(with --cost sqeuclidean only)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("map", help="apply a transport-map model to points")
    p.add_argument("--model", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--method", choices=["closed", "sgd"], default="closed")
    p.add_argument("--steps", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("emd", help="exact small-scale discrete OT baseline")
    p.add_argument("--cost", default="sqeuclidean")
    p.add_argument("--source")
    p.add_argument("--target")
    p.add_argument("--seed", type=int, default=0,
                   help="recorded in the manifest only: exact EMD is deterministic")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_emd)

    p = sub.add_parser("eval-gaussian", help="Gaussian map-recovery experiment")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--samples", type=_int_list, required=True,
                   help="comma-separated sample counts, e.g. 10,20,50")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--oos-count", type=int, default=200, dest="oos_count")
    _add_method_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval_gaussian)

    p = sub.add_parser("sample-complexity", help="objective-error decay study")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--samples", type=_int_list, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--ref-multiplier", type=int, default=8, dest="ref_multiplier")
    _add_solver_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample_complexity)

    p = sub.add_parser("domain-adapt", help="domain-adaptation pipeline on CSVs")
    p.add_argument("--source", required=True)
    p.add_argument("--target-train", required=True, dest="target_train")
    p.add_argument("--target-test", required=True, dest="target_test")
    p.add_argument("--oos-source", dest="oos_source")
    p.add_argument("--sigma", type=float, required=True)
    _add_method_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_domain_adapt)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        code, input_paths = args.func(args)
        # The runtime is taken before the inputs are digested.
        manifest = _manifest(args, input_paths, time.perf_counter() - t0)
        write_json(args.out + ".manifest.json", manifest)
        return code
    except _INPUT_ERRORS as exc:
        print(f"mmdot {args.command}: error: {exc}", file=sys.stderr)
        return 1
    except NumericalFailureError as exc:
        print(f"mmdot {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
