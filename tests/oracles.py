"""Independent oracles used by the test suite.

Deliberately brute-force and structurally unrelated to the library's own
algorithms: transportation-polytope vertex enumeration and a dense-LP
solve for exact discrete OT, dense grid search over the joint simplex for
the penalized objective, bisection on the threshold for the simplex
projection, one kernel value per pair of points for the gram, and
term-by-term sums and row-by-row text for the map's objective and the CSV
writer.  The support solve's oracle is the same algorithm written with
scipy's checked wrappers of the LAPACK calls the library makes directly,
and the ADMM prox's oracle the same Newton solve with nothing kept
between steps.
"""

import itertools
from functools import lru_cache

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.optimize import linprog, nnls

from mmdot.errors import ShapeError
from mmdot.solvers import _ARMIJO, _project_simplex


@lru_cache(maxsize=None)
def transportation_vertices(m, n):
    """All vertices of {pi >= 0, pi 1 = 1/m, pi^T 1 = 1/n} by basis enumeration.

    Every vertex is the unique solution supported on some m+n-1 cells; we
    enumerate all supports, solve the marginal equations, and keep the
    feasible consistent solutions.  Cached per shape since the vertex set
    does not depend on the cost.
    """
    cells = list(itertools.product(range(m), range(n)))
    k = m + n - 1
    rows = []
    # Marginal equation matrix: one row per row-sum, one per column-sum.
    A_full = np.zeros((m + n, m * n))
    for i, j in cells:
        A_full[i, i * n + j] = 1.0
        A_full[m + j, i * n + j] = 1.0
    b = np.concatenate([np.full(m, 1.0 / m), np.full(n, 1.0 / n)])
    verts = []
    seen = set()
    for support in itertools.combinations(range(m * n), k):
        A = A_full[:, support]
        x, *_ = np.linalg.lstsq(A, b, rcond=None)
        if np.max(np.abs(A @ x - b)) > 1e-9:
            continue  # support is not a spanning tree
        if np.min(x) < -1e-12:
            continue
        pi = np.zeros(m * n)
        pi[list(support)] = np.maximum(x, 0.0)
        key = tuple(np.round(pi, 9))
        if key not in seen:
            seen.add(key)
            verts.append(pi.reshape(m, n))
    return tuple(verts)


def emd_by_vertex_enumeration(C):
    """Exact uniform-marginal discrete OT optimum by vertex enumeration."""
    C = np.asarray(C, dtype=float)
    m, n = C.shape
    best_obj = np.inf
    best_pi = None
    for pi in transportation_vertices(m, n):
        obj = float(np.sum(pi * C))
        if obj < best_obj:
            best_obj = obj
            best_pi = pi
    return best_pi, best_obj


def emd_by_linear_program(C):
    """Exact uniform-marginal discrete OT optimum as a dense LP.

    The marginal equations are written out cell by cell and handed to
    HiGHS; no assignment structure is used, so this checks the library's
    assignment route independently.
    """
    C = np.asarray(C, dtype=float)
    m, n = C.shape
    A = np.zeros((m + n, m * n))
    for i in range(m):
        for j in range(n):
            A[i, i * n + j] = 1.0
            A[m + j, i * n + j] = 1.0
    b = np.concatenate([np.full(m, 1.0 / m), np.full(n, 1.0 / n)])
    res = linprog(C.ravel(), A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return res.x.reshape(m, n), float(res.fun)


def penalized_objective(alpha, C, G1, G2, lam1, lam2, nu1, nu2):
    """Scalar-loop evaluation of the penalized plan objective."""
    m, n = C.shape
    r1 = alpha.sum(axis=1) - 1.0 / m
    r2 = alpha.sum(axis=0) - 1.0 / n
    val = float(np.sum(alpha * C))
    val += lam1 * float(r1 @ G1 @ r1) + nu1 * float(r1 @ (G1 * G1) @ r1)
    val += lam2 * float(r2 @ G2 @ r2) + nu2 * float(r2 @ (G2 * G2) @ r2)
    return val


def simplex_grid_min(C, G1, G2, lam1, lam2, nu1, nu2, step):
    """Dense grid search for the penalized objective over the joint simplex.

    Enumerates all compositions of 1/step into m*n parts.  Only intended
    for m*n = 4 at moderate step sizes.
    """
    m, n = C.shape
    k = m * n
    N = int(round(1.0 / step))
    best = np.inf
    # Compositions of N into k nonnegative parts, vectorized in blocks over
    # the first coordinate to keep memory bounded.
    from itertools import combinations

    # Stars and bars via combinations indices for k=4 is still huge in pure
    # python; use a vectorized three-loop for k=4 specifically.
    assert k == 4, "grid oracle implemented for 2x2 instances"
    best = np.inf
    for a in range(N + 1):
        rem_a = N - a
        bs = np.arange(rem_a + 1)
        for b in bs:
            rem_b = rem_a - b
            c = np.arange(rem_b + 1)
            d = rem_b - c
            alphas = np.stack(
                [
                    np.full_like(c, a),
                    np.full_like(c, b),
                    c,
                    d,
                ],
                axis=1,
            ) / float(N)
            A = alphas.reshape(-1, m, n)
            r1 = A.sum(axis=2) - 1.0 / m
            r2 = A.sum(axis=1) - 1.0 / n
            vals = np.einsum("kij,ij->k", A, C)
            vals += lam1 * np.einsum("ki,ij,kj->k", r1, G1, r1)
            vals += nu1 * np.einsum("ki,ij,kj->k", r1, G1 * G1, r1)
            vals += lam2 * np.einsum("ki,ij,kj->k", r2, G2, r2)
            vals += nu2 * np.einsum("ki,ij,kj->k", r2, G2 * G2, r2)
            best = min(best, float(vals.min()))
    return best


def simplex_projection_by_bisection(v):
    """Euclidean projection onto {x >= 0, sum x = 1} by bisection on theta.

    The projection is ``max(v - theta, 0)`` for the theta at which its
    entries sum to one.  That sum is continuous and non-increasing in theta,
    at least 1 at ``min(v) - 1`` and 0 at ``max(v)``, so bisecting down to
    adjacent floats pins theta without any sorting.
    """
    v = np.asarray(v, dtype=float)
    lo, hi = float(v.min()) - 1.0, float(v.max())
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if np.maximum(v - mid, 0.0).sum() > 1.0:
            lo = mid
        else:
            hi = mid
    candidates = [np.maximum(v - t, 0.0) for t in (lo, hi)]
    return min(candidates, key=lambda x: abs(x.sum() - 1.0))


def eval_kernel(spec, x, z):
    """``k(x, z)`` of a single pair of points: the per-pair oracle of ``gram``.

    Delta-kernel equality is exact coordinate-wise floating-point equality.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if x.shape != z.shape:
        raise ShapeError(f"dimension mismatch: {x.shape} vs {z.shape}")
    if spec.kind == "gaussian":
        d2 = float(np.sum((x - z) ** 2))
        return float(np.exp(-d2 / (2.0 * spec.sigma**2)))
    return 1.0 if np.array_equal(x, z) else 0.0


def conditional_cost(w, targets, cost_fn, y):
    """Conditional expected cost ``sum_j w_j c(y, y_j)`` at a candidate ``y``."""
    return sum(wj * cost_fn(y, yj) for wj, yj in zip(w, targets))


def matrix_csv_by_rows(M, extra_columns=()):
    """``write_matrix_csv``'s text, built one row and one cell at a time."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    names = [f"y{k}" for k in range(M.shape[1])] + [name for name, _ in extra_columns]
    lines = [",".join(names)]
    for i in range(M.shape[0]):
        cells = [repr(float(v)) for v in M[i]]
        cells += [str(vals[i]) for _, vals in extra_columns]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def prox_kkt_gap(H1, H2, rho, center, alpha):
    """Relative KKT gap of ``alpha`` for the ADMM prox objective.

    The objective is ``f(alpha) = u1^T H1 u1 + u2^T H2 u2 + rho
    ||alpha + center||^2`` over the joint probability simplex, with the
    marginal residuals ``u1 = alpha 1 - 1/m`` and ``u2 = alpha^T 1 - 1/n``.
    Its gradient ``g`` is written out term by term, and the conditional-
    gradient gap ``<g, alpha> - min g``, an upper bound on
    ``f(alpha) - min f``, is returned divided by ``1 + f(alpha)``.
    """
    m, n = alpha.shape
    u1 = alpha.sum(axis=1) - 1.0 / m
    u2 = alpha.sum(axis=0) - 1.0 / n
    shifted = alpha + center
    f = float(u1 @ H1 @ u1 + u2 @ H2 @ u2 + rho * np.sum(shifted**2))
    g = 2.0 * (H1 @ u1)[:, None] + 2.0 * (H2 @ u2)[None, :] + 2.0 * rho * shifted
    return float(np.sum(g * alpha) - g.min()) / (1.0 + f)


def support_qp_by_scipy_wrappers(Q, c):
    """``solvers._support_qp`` written with scipy's checked wrappers of LAPACK.

    The same algorithm through ``cholesky``, ``cho_solve`` and
    ``solve_triangular``; the library calls LAPACK's ``potrf``, ``potrs``
    and ``trtrs`` directly with the arguments these wrappers pass, so the
    two agree bit for bit.
    """
    k = c.size
    R = cholesky(Q)
    z1, z2 = cho_solve((R, False), np.column_stack([c, np.ones(k)])).T
    mu = -(2.0 + z1.sum()) / z2.sum()
    a = -0.5 * (z1 + mu * z2)
    if a.min() > 0.0:
        return a / a.sum(), False
    y = solve_triangular(R, -0.5 * c, trans="T")
    b = nnls(np.vstack([R - y[:, None], np.ones(k)]),
             np.concatenate([np.zeros(k), [1.0]]))[0]
    return b / b.sum(), True


def prox_simplex_rebuilt(B, rho, center, y, max_iters, newton=None):
    """``solvers._prox_simplex`` rebuilding everything at every Newton step.

    The same semismooth Newton solve, written without the kept factor and
    the deferred dual: ``K``, ``M = I + B K B / rho``, its Cholesky factor
    (scipy's ``cholesky`` and ``cho_solve``, which agree with the library's
    direct LAPACK calls bit for bit) and the dual value ``D`` are computed
    afresh at every step and every point.  ``newton`` is accepted and
    ignored.
    """
    m, n = center.shape
    k = m + n
    diag = np.arange(k)

    def at(y):
        z = B @ y
        v = -center - (z[:m, None] + z[m:]) / rho
        alpha = _project_simplex(v.ravel()).reshape(m, n)
        u = np.concatenate([alpha.sum(axis=1) - 1.0 / m, alpha.sum(axis=0) - 1.0 / n])
        dual = (
            rho * float(np.sum(alpha * (alpha - 2.0 * v)))
            - 2.0 * (z[:m].sum() / m + z[m:].sum() / n)
            - float(y @ y)
        )
        return alpha, dual, B @ u - y

    alpha, dual, r = at(y)
    eye = np.eye(k)
    for step in range(1, max_iters + 1):
        S = alpha > 0.0
        Sf = S.astype(float)
        ab = np.concatenate([Sf.sum(axis=1), Sf.sum(axis=0)])
        K = np.outer(ab, -1.0 / ab[:m].sum() * ab)
        K[diag, diag] += ab
        K[:m, m:] += Sf
        K[m:, :m] += Sf.T
        M = eye + B @ K @ B / rho
        mu = 0.0
        while True:
            d = cho_solve((cholesky(M + mu * eye), False), r)
            slope = 2.0 * float(r @ d)
            y_new = y + d
            alpha_new, dual_new, r_new = at(y_new)
            if mu == 0.0 and ((alpha_new > 0.0) == S).all():
                return alpha_new, y_new, step, False
            if dual_new >= dual + _ARMIJO * slope:
                break
            if dual + slope == dual:
                return alpha, y, step, False
            mu = max(4.0 * mu, 1.0)
        y, alpha, dual, r = y_new, alpha_new, dual_new, r_new
    return alpha, y, max_iters, True
