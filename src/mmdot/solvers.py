"""Optimizers producing transport-plan coefficients.

Three routes are provided:

* ``solve_simplified`` -- fully-corrective conditional-gradient (Frank-Wolfe)
  minimization of the penalized plan objective over the joint probability
  simplex: it starts at a vertex, adds one vertex per outer iteration and
  solves the objective exactly on the support, through the KKT system when
  the optimum is interior and one NNLS otherwise.
* ``solve_admm`` -- consensus ADMM for the variant that carries explicit
  nonnegative conditional-embedding coefficients ``beta`` and ``gamma``
  tied to ``alpha`` through the gram matrices; the proximal ``alpha`` step
  of each cycle is solved exactly by semismooth Newton on its
  (m+n)-dimensional dual.
* ``solve_emd_exact`` -- exact small-scale discrete OT, used as a
  baseline: an assignment solve when m = n, the transportation LP through
  HiGHS otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import block_diag, cho_solve, cholesky, solve_triangular
from scipy.optimize import linear_sum_assignment, linprog, nnls

from .embeddings import cost_entries
from .errors import NumericalFailureError, ShapeError
from .kernels import gram_entries

_EMD_SIZE_CAP = 10_000
# Sufficient-increase fraction of the Armijo line search in the ADMM prox.
_ARMIJO = 1e-4


@dataclass(frozen=True)
class SolverConfig:
    """Regularization weights and iteration budgets.

    ``lambda1``/``lambda2`` weight the row/column marginal residuals in the
    plain gram quadratic forms, ``nu1``/``nu2`` the same residuals in the
    element-wise-squared gram forms.  ``rho_admm`` is the ADMM penalty
    (fixed, no adaptive schedule, so traces are reproducible).
    ``max_outer_iters`` bounds the outer Frank-Wolfe iterations (one support
    solve each) or the ADMM cycles; ``max_inner_iters`` bounds the
    Newton steps of the prox solve in each ADMM cycle (see
    ``_prox_simplex``).  ``tol_gap`` is the Frank-Wolfe duality-gap stop.
    """

    lambda1: float = 10.0
    lambda2: float = 10.0
    nu1: float = 10.0
    nu2: float = 10.0
    rho_admm: float = 1.0
    max_outer_iters: int = 5000
    max_inner_iters: int = 500
    tol_gap: float = 1e-8
    tol_residual: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "nu1", "nu2"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if not self.rho_admm > 0:
            raise ValueError("rho_admm must be positive")
        if self.max_outer_iters <= 0 or self.max_inner_iters <= 0:
            raise ValueError("iteration budgets must be positive")
        if not (self.tol_gap > 0 and self.tol_residual > 0):
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class SolveTrace:
    """Per-iteration objective and convergence-measure record.

    ``inner_cap_hits`` counts the ADMM cycles whose prox solve used up its
    ``max_inner_iters`` Newton steps before reaching its optimum, and
    ``prox_newton_steps`` the Newton steps of all prox solves; both are
    always 0 on the Frank-Wolfe route.  ``support_solves`` counts the
    Frank-Wolfe support solves and ``nnls_solves`` those of them that left
    the exact KKT fast path for the NNLS (see ``_support_qp``); both are 0
    on the ADMM route.  ``stop_reason`` says why the loop ended: ``"gap"``
    (Frank-Wolfe duality gap met), ``"fixed_point"`` or ``"stall"`` (see
    ``_frank_wolfe_simplex``), ``"residual"`` (ADMM residuals met) or
    ``"budget"`` (``max_outer_iters`` used up); it is ``None`` on the
    trace of a ``NumericalFailureError``.  None of these fields enters a
    result payload.
    """

    objective_per_iter: np.ndarray
    gap_or_residual_per_iter: np.ndarray
    iters_used: int
    converged: bool
    inner_cap_hits: int = 0
    support_solves: int = 0
    nnls_solves: int = 0
    prox_newton_steps: int = 0
    stop_reason: str | None = None


@dataclass(frozen=True)
class PlanCoefficients:
    """Representer coefficients of the plan embedding.

    ``alpha`` lies on the joint probability simplex.  ``beta`` (n x m) and
    ``gamma`` (m x n) are the nonnegative conditional-embedding
    coefficients; they are only present on the ADMM route.
    """

    alpha: np.ndarray
    beta: np.ndarray | None = None
    gamma: np.ndarray | None = None


def _penalty_matrices(G1, G2, cfg):
    """The penalty's row and column forms ``H = lam G + nu G*G``.

    With the marginal residuals ``u1 = alpha 1 - 1/m`` and
    ``u2 = alpha^T 1 - 1/n``, the penalized plan objective is
    ``<C, alpha> + u1^T H1 u1 + u2^T H2 u2``; the loss term needs no
    embedding of the cost, since ``<c, phi(x_i) (x) phi(y_j)> = c(x_i, y_j)``.
    """
    return tuple(
        lam * G + nu * (G * G)
        for G, lam, nu in ((G1, cfg.lambda1, cfg.nu1), (G2, cfg.lambda2, cfg.nu2))
    )


def _support_qp(Q, c):
    """Minimize ``a^T Q a + c^T a`` over the probability simplex exactly.

    Returns ``(a, fell_back)``.  ``Q`` must be positive definite; one that
    is not numerically definite raises ``numpy.linalg.LinAlgError``.

    Factor ``Q = R^T R`` (Cholesky).  The fast path solves ``Q z1 = c`` and
    ``Q z2 = 1`` (one ``cho_solve`` on a two-column right-hand side) and
    takes the stationary point on the hyperplane ``1^T a = 1``:
    ``a = -(z1 + mu z2) / 2`` with ``mu = -(2 + 1^T z1) / (1^T z2)``.  If
    every ``a > 0`` it is the simplex optimum, since the bound multipliers
    are zero.  Otherwise (``fell_back``) solve ``R^T y = -c / 2`` and set
    ``B = R - y 1^T``.  Then ``B^T B = Q + sym(c 1^T) + ||y||^2 1 1^T``,
    and on the simplex ``a^T B^T B a = a^T Q a + c^T a + ||y||^2``: the
    problem is the minimum-norm point of the convex hull of the columns of
    ``B``.  That point is ``b / sum(b)`` for
    ``b = nnls([B; 1^T], [0; 1])`` (Lawson & Hanson 1974, ch. 23;
    Wolfe 1976).
    """
    k = c.size
    R = cholesky(Q)
    # R comes from a checked factorization; a non-finite c gives a NaN in
    # a, which fails the test below and raises in the checked solve after it.
    z1, z2 = cho_solve(
        (R, False), np.column_stack([c, np.ones(k)]), check_finite=False
    ).T
    mu = -(2.0 + z1.sum()) / z2.sum()
    a = -0.5 * (z1 + mu * z2)
    if a.min() > 0.0:
        return a / a.sum(), False
    y = solve_triangular(R, -0.5 * c, trans="T")
    b = nnls(np.vstack([R - y[:, None], np.ones(k)]),
             np.concatenate([np.zeros(k), [1.0]]))[0]
    return b / b.sum(), True


def _point_classes(G):
    """Index of the first point identical to each point, read off the gram.

    Points ``i`` and ``i'`` are identical to the kernel when
    ``G[i, i] == G[i, i'] == G[i', i']``: their feature vectors coincide,
    and so do their gram rows.
    """
    d = np.diag(G)
    same = (G == d[:, None]) & (G == d[None, :])
    return np.argmax(same, axis=0).tolist()


def _forest_cycle(support, s, n, cls1, cls2):
    """Path of support cells that closes a cycle with cell ``s``, if any.

    The support is read as a bipartite graph over classes of identical
    points (``cls1``/``cls2`` from ``_point_classes`` of each gram): row
    class ``cls1[i]`` and column class ``cls2[j]`` are joined by an edge for
    each cell ``(i, j)``.  Returns ``None`` when the classes of the row and
    column of ``s`` are not yet connected, otherwise the positions in
    ``support`` of the path of cells from the column class of ``s`` back to
    its row class: signs ``-1, +1, -1, ...`` along it, with ``+1`` on ``s``,
    keep every row and column class sum fixed.  The breadth-first search
    stops at the column class of ``s``.
    """
    m = len(cls1)
    si, sj = divmod(s, n)
    adj = {}
    for k, cell in enumerate(support):
        i, j = divmod(cell, n)
        u, v = cls1[i], m + cls2[j]
        adj.setdefault(u, []).append((v, k))
        adj.setdefault(v, []).append((u, k))
    goal = m + cls2[sj]
    prev = {cls1[si]: None}
    queue = [cls1[si]]
    for node in queue:
        if node == goal:
            break
        for nb, k in adj.get(node, ()):
            if nb not in prev:
                prev[nb] = (node, k)
                queue.append(nb)
    else:
        return None
    path = []
    while prev[node] is not None:
        node, k = prev[node]
        path.append(k)
    return path


def _frank_wolfe_simplex(L, G1, G2, cfg):
    """Fully-corrective conditional gradient over the joint probability simplex.

    Minimizes the penalized plan objective

        f(alpha) = <L, alpha> + lam1 ||alpha 1 - 1/m||^2_{G1}
                 + lam2 ||alpha^T 1 - 1/n||^2_{G2}
                 + nu1  ||alpha 1 - 1/m||^2_{G1*G1}
                 + nu2  ||alpha^T 1 - 1/n||^2_{G2*G2}

    where ``lam1, lam2, nu1, nu2`` are ``cfg.lambda1, cfg.lambda2, cfg.nu1,
    cfg.nu2`` (Holloway's fully-corrective Frank-Wolfe; Lacoste-Julien &
    Jaggi, NeurIPS 2015).  It starts at the vertex ``argmin L``.  Each outer
    iteration forms the full gradient and stops once the duality gap is at
    most ``cfg.tol_gap``; otherwise it adds the best vertex ``s`` to the
    support and solves the objective exactly on the support
    (``_support_qp``: the equality-constrained KKT point when every support
    weight is positive there, one NNLS otherwise).  With
    ``H = lam G + nu G*G`` that support problem is ``min a^T Q a + c^T a``
    with ``Q = H1[I, I] + H2[J, J]``.

    Identical points have identical gram rows, so the penalty sees only the
    mass on each class of identical points (``_point_classes``).  ``Q`` is
    singular when the support's cells close a cycle in the bipartite graph
    of row and column classes: the class marginals, and so the quadratic
    part, do not change along the cycle while the cost does.  So before the
    support solve the loop takes the exact line-searched FW step toward
    ``s``, which makes every support cell positive, and then pushes mass
    downhill round the one cycle ``s`` may close until a cell empties
    (``_forest_cycle``).  The support stays a forest over the point
    classes, on which ``Q`` is definite when each gram is definite over its
    distinct points; a ``Q`` that still fails its Cholesky factorization
    raises ``NumericalFailureError``.

    The iterate is the support itself: cell indices ``idx`` (rows ``I``,
    columns ``J``) and weights ``a``; the dense plan is built once, at
    return.  The only O(mn) work of an outer iteration is forming the
    gradient ``g = L + p[:, None] + q``, with ``p = 2 H1 u1`` and
    ``q = 2 H2 u2``, and its ``argmin``.  ``H1 u1`` is
    ``H1[:, I] @ a - H1 1/m``, O(m k) for a support of ``k`` cells; the
    objective, the gap and the FW step's curvature are read off the support
    and these vectors.

    If ``s`` already lies in the support after an exact support solve, the
    iterate is a fixed point of the loop: it stops there, converged only if
    the gap met ``cfg.tol_gap``.  If a support solve returns the support
    and weights it started from, bit for bit, every later iteration would
    repeat this one (a stall, seen with near-duplicate points, whose ``Q``
    is nearly singular): it stops there too, unconverged.
    ``cfg.max_outer_iters`` bounds the outer iterations; the returned plan
    is the last one evaluated, and the trace records the stop reason and
    the support solves by route.  A tie between bit-equal gradient entries
    goes to the first cell in row-major order, and reruns are
    bit-identical.  The gradient rows of identical points are equal only up
    to rounding, so which copy of an identical point receives mass is not
    specified.
    """
    m, n = L.shape
    H1, H2 = _penalty_matrices(G1, G2, cfg)
    # H 1/m: the penalty's pull toward the uniform marginals.
    w1 = H1.sum(axis=1) / m
    w2 = H2.sum(axis=1) / n
    Lf = L.ravel()
    cls1, cls2 = _point_classes(G1), _point_classes(G2)

    objs = []
    gaps = []
    converged = False
    solves = fallbacks = 0

    def failure(what):
        trace = SolveTrace(
            np.array(objs), np.array(gaps), len(objs), False,
            support_solves=solves, nnls_solves=fallbacks,
        )
        return NumericalFailureError(what, trace=trace)

    # The objective sums every entry of H1u and H2u, so with L finite,
    # checking it and g[s] in each iteration covers the whole gradient.
    if not np.all(np.isfinite(Lf)):
        raise failure("non-finite objective or gradient")
    idx = np.array([np.argmin(Lf)])
    a = np.ones(1)
    for it in range(cfg.max_outer_iters):
        I, J = np.divmod(idx, n)
        H1u = H1[:, I] @ a - w1
        H2u = H2[:, J] @ a - w2
        g = L + (2.0 * H1u)[:, None] + 2.0 * H2u
        obj = (
            float(Lf[idx] @ a)
            + (float(a @ H1u[I]) - float(H1u.sum()) / m)
            + (float(a @ H2u[J]) - float(H2u.sum()) / n)
        )
        gf = g.ravel()
        s = int(np.argmin(gf))
        if not (np.isfinite(obj) and np.isfinite(gf[s])):
            raise failure("non-finite objective or gradient")
        if objs:
            # Every step is an exact minimization, so the true objective is
            # non-increasing; a fresh evaluation can still wobble by an ulp,
            # so record the running minimum and treat any material increase
            # as a bug.
            if obj > objs[-1] + 1e-8 * (1.0 + abs(objs[-1])):
                raise failure(f"objective increased from {objs[-1]!r} to {obj!r}")
            obj = min(obj, objs[-1])
        fw_gap = float(gf[idx] @ a) - float(gf[s])
        objs.append(obj)
        gaps.append(fw_gap)
        converged = fw_gap <= cfg.tol_gap
        stop = (
            "gap" if converged
            else "fixed_point" if s in idx
            else "budget" if it + 1 == cfg.max_outer_iters
            else None
        )
        if stop:
            break
        idx_prev, a_prev = idx, a

        # Exact FW step toward s: the marginals move by d1 = e_si - r1 and
        # d2 = e_sj - r2, where H1 r1 = H1u + w1.
        si, sj = divmod(s, n)
        Hd1 = H1[:, si] - H1u - w1
        Hd2 = H2[:, sj] - H2u - w2
        curv = float(Hd1[si] - a @ Hd1[I]) + float(Hd2[sj] - a @ Hd2[J])
        step = min(fw_gap / (2.0 * curv), 1.0) if curv > 0.0 else 1.0
        if step == 1.0:
            idx, a = idx[:0], a[:0]
        path = _forest_cycle(idx.tolist(), s, n, cls1, cls2)
        idx, a = np.append(idx, s), np.append((1.0 - step) * a, step)
        if path is not None:
            # Along the cycle the class marginals, and so the penalty, are
            # fixed: f is linear in the push with slope <L, d>.  Pushing
            # downhill empties the smallest shrinking cell first; the
            # support solve below starts afresh, so only that cell's exit
            # is needed.
            ring = np.array([idx.size - 1] + path)
            signs = np.resize([1.0, -1.0], ring.size)
            if float(signs @ Lf[idx[ring]]) > 0.0:
                signs = -signs
            shrink = ring[signs < 0.0]
            drop = shrink[np.argmin(a[shrink])]
            idx, a = np.delete(idx, drop), np.delete(a, drop)

        I, J = np.divmod(idx, n)
        Q = H1[np.ix_(I, I)] + H2[np.ix_(J, J)]
        try:
            a, fell_back = _support_qp(Q, Lf[idx] - 2.0 * w1[I] - 2.0 * w2[J])
        except np.linalg.LinAlgError as exc:
            raise failure(f"support solve failed: {exc}") from exc
        solves += 1
        fallbacks += fell_back
        keep = a > 0.0
        idx, a = idx[keep], a[keep]
        if np.array_equal(idx, idx_prev) and np.array_equal(a, a_prev):
            # The next iteration would repeat this one exactly.
            stop = "stall"
            break

    alpha = np.zeros((m, n))
    alpha.flat[idx] = a
    trace = SolveTrace(
        objective_per_iter=np.array(objs),
        gap_or_residual_per_iter=np.array(gaps),
        iters_used=len(objs),
        converged=converged,
        support_solves=solves,
        nnls_solves=fallbacks,
        stop_reason=stop,
    )
    return alpha, trace


def _check_shapes(C, G1, G2):
    m, n = C.shape
    if G1.shape != (m, m):
        raise ShapeError(f"G1 shape {G1.shape} does not match cost rows {m}")
    if G2.shape != (n, n):
        raise ShapeError(f"G2 shape {G2.shape} does not match cost columns {n}")
    return m, n


def solve_simplified(C, G1, G2, cfg: SolverConfig):
    """Minimize the penalized plan objective over the joint simplex.

    Returns ``(PlanCoefficients with beta/gamma absent, SolveTrace)``.
    The solve starts at the vertex ``argmin C`` and stops once the
    conditional-gradient duality gap is at most ``cfg.tol_gap``, at a fixed
    point of the loop (reported unconverged unless the gap met the target),
    at a stall, where a support solve returns its starting iterate bit for
    bit (reported unconverged), or after ``cfg.max_outer_iters`` outer
    iterations; see ``_frank_wolfe_simplex``.  The trace's ``stop_reason``
    names which (``"gap"``, ``"fixed_point"``, ``"stall"``, ``"budget"``),
    and ``support_solves`` and ``nnls_solves`` count the support solves and
    those that fell back from the exact KKT fast path to the NNLS.
    """
    Cm = cost_entries(C)
    G1 = gram_entries(G1)
    G2 = gram_entries(G2)
    _check_shapes(Cm, G1, G2)
    alpha, trace = _frank_wolfe_simplex(Cm, G1, G2, cfg)
    return PlanCoefficients(alpha=_clean_simplex(alpha)), trace


def _clean_simplex(alpha):
    out = np.maximum(alpha, 0.0)
    return out / out.sum()


def derive_beta(alpha, G1) -> np.ndarray:
    """Conditional-embedding coefficients implied by alpha.

    Solves the nonnegative least-squares consensus problem
    ``min_{beta >= 0} ||alpha - G1 beta^T / m||_F^2`` exactly.  It
    separates by column of ``alpha``: an all-zero column gets a zero row of
    ``beta``, and every other column is one Lawson-Hanson active-set NNLS
    solve against ``G1 / m``.  Exact fitting matters on the ill-conditioned
    grams of well-spread samples, where an iterative fit can leave a
    consensus residual far above that of ``beta = 0``.
    """
    alpha = np.asarray(alpha, dtype=float)
    G1 = gram_entries(G1)
    m, n = alpha.shape
    A = G1 / m
    beta = np.zeros((n, m))
    for j in np.flatnonzero(np.any(alpha != 0.0, axis=0)):
        beta[j] = nnls(A, alpha[:, j])[0]
    return beta


def _project_simplex(v):
    """Euclidean projection of the flat vector ``v`` onto {x >= 0, sum x = 1}.

    Sort-based (Duchi et al., ICML 2008; Condat, Math. Prog. 2016): with
    ``u`` sorted in descending order and ``css`` its cumulative sums minus
    one, the threshold is ``css[r] / (r + 1)`` for the last ``r`` with
    ``u[r] > css[r] / (r + 1)``.
    """
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    r = np.flatnonzero(u - css / np.arange(1, v.size + 1) > 0.0)[-1]
    return np.maximum(v - css[r] / (r + 1), 0.0)


def _prox_simplex(B, rho, center, y, max_iters):
    """Minimize the ADMM prox objective over the joint probability simplex.

        f(alpha) = ||alpha 1 - 1/m||^2_{H1} + ||alpha^T 1 - 1/n||^2_{H2}
                 + rho ||alpha + center||^2_F

    with ``H1, H2`` from ``_penalty_matrices``: the penalized plan
    objective with a zero linear term, plus the proximal term.  ``B`` is
    ``blockdiag(B1, B2)`` with ``Bk = Hk^{1/2}``, so ``||u||^2_H = ||B u||^2
    = max_y 2 y^T B u - ||y||^2``.

    The solve runs on that ``(m+n)``-dimensional dual.  With
    ``y = (y1, y2)``, ``p = B1 y1``, ``q = B2 y2``,
    ``v = -center - (p 1^T + 1 q^T) / rho`` and ``alpha(y) = Pi(v)``, the
    Euclidean projection of ``v`` onto the simplex (``_project_simplex``),
    minimizing over ``alpha`` first gives (up to a constant)

        D(y) = rho ||alpha - v||^2 - rho ||v||^2 - 2 y1^T B1 1/m - ||y1||^2
               - 2 y2^T B2 1/n - ||y2||^2,

    strongly concave and C^{1,1}, with gradient ``2 (B u(alpha) - y)``,
    where ``u(alpha) = (alpha 1 - 1/m, alpha^T 1 - 1/n)``.  It vanishes
    exactly at ``y = B u``, where ``alpha(y)`` is the prox minimizer.  On
    the active set ``S = {alpha > 0}``, with row counts ``a``, column
    counts ``b`` and ``N = |S|``, the projection is affine with Jacobian
    ``P_S - 1_S 1_S^T / N``, and the semismooth Newton step solves
    ``(I + B K B / rho) d = B u - y`` with

        K = [[diag a - a a^T / N,   S - a b^T / N    ],
             [S^T - b a^T / N,      diag b - b b^T / N]],

    positive semidefinite, so the matrix is SPD and factored by Cholesky.
    ``D`` is quadratic on each active set, so once a full step lands on the
    active set it started from, ``y`` is the dual optimum up to rounding and
    the solve stops.

    A step that lands elsewhere must pass the Armijo test
    ``D(y + d) >= D(y) + _ARMIJO * 2 (B u - y)^T d``.  When it fails, the
    step is damped Levenberg-Marquardt style, ``(I + B K B / rho + mu I) d
    = B u - y`` with ``mu = 1, 4, 16, ...``, rather than shortened along
    its ray: where few cells are active, ``K`` is nearly zero in most
    directions and the full step there is a plain gradient step far past
    the next change of active set, while the other directions are
    well-scaled Newton steps that a shorter ray would shrink with it.  If
    the predicted rise ``2 (B u - y)^T d`` no longer changes ``D`` in
    floating point, ``y`` is optimal to working precision and the solve
    stops there.

    Starts at the dual point ``y`` (the previous cycle's, for a warm start)
    and takes at most ``max_iters`` Newton steps.  Returns
    ``(alpha, y, steps, capped)``, where ``capped`` says the budget ran out.
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
            d = cho_solve((cholesky(M + mu * eye), False), r, check_finite=False)
            slope = 2.0 * float(r @ d)
            y_new = y + d
            alpha_new, dual_new, r_new = at(y_new)
            if mu == 0.0 and np.array_equal(alpha_new > 0.0, S):
                return alpha_new, y_new, step, False
            if dual_new >= dual + _ARMIJO * slope:
                break
            if dual + slope == dual:
                return alpha, y, step, False
            mu = max(4.0 * mu, 1.0)
        y, alpha, dual, r = y_new, alpha_new, dual_new, r_new
    return alpha, y, max_iters, True


def solve_admm(C, G1, G2, cfg: SolverConfig):
    """Consensus ADMM with explicit nonnegative ``beta`` and ``gamma``.

    Each cycle minimizes the proximal penalized objective for ``alpha``
    over the simplex exactly (semismooth Newton on its dual, warm-started
    at the previous cycle's dual point, at most ``cfg.max_inner_iters``
    Newton steps; see ``_prox_simplex``), fits ``beta`` and ``gamma``
    exactly to the consensus relations ``alpha = G1 beta^T / m`` and
    ``alpha = gamma G2 / n`` with the column-wise NNLS of ``derive_beta``,
    then takes the plain dual ascent updates.  Stops when both primal
    residuals fall below ``cfg.tol_residual``; running out of budget
    returns ``converged=False`` rather than raising.  The trace's
    ``inner_cap_hits`` counts the cycles whose prox solve ran out of steps
    and ``prox_newton_steps`` the Newton steps of all of them.
    """
    Cm = cost_entries(C)
    G1 = gram_entries(G1)
    G2 = gram_entries(G2)
    m, n = _check_shapes(Cm, G1, G2)
    rho = cfg.rho_admm

    H1, H2 = _penalty_matrices(G1, G2, cfg)
    # The prox solve's dual works with B = H^{1/2}; eigenvalues below zero
    # are rounding and are clipped.
    B = block_diag(*(
        (V * np.sqrt(np.maximum(w, 0.0))) @ V.T
        for w, V in map(np.linalg.eigh, (H1, H2))
    ))

    beta = np.zeros((n, m))
    gamma = np.zeros((m, n))
    D1 = np.zeros((m, n))
    D2 = np.zeros((m, n))
    y = np.zeros(m + n)

    objs = []
    residuals = []
    cap_hits = newton_steps = 0
    converged = False

    def failure(what):
        trace = SolveTrace(
            np.array(objs), np.array(residuals), len(objs), False, cap_hits,
            prox_newton_steps=newton_steps,
        )
        return NumericalFailureError(f"{what} in consensus iteration", trace=trace)

    for _ in range(cfg.max_outer_iters):
        center = 0.5 * (
            D1 + D2 + Cm / rho - (gamma @ G2) / n - (G1 @ beta.T) / m
        )
        if not np.all(np.isfinite(center)):
            raise failure("non-finite prox center")
        alpha, y, steps, capped = _prox_simplex(
            B, rho, center, y, cfg.max_inner_iters
        )
        newton_steps += steps
        cap_hits += capped

        # beta update: min_{beta>=0} ||alpha + D1 - G1 beta^T / m||^2
        beta = derive_beta(alpha + D1, G1)
        # gamma update: min_{gamma>=0} ||(alpha + D2)^T - G2 gamma^T / n||^2
        gamma = derive_beta((alpha + D2).T, G2)

        P1 = alpha - (G1 @ beta.T) / m
        P2 = alpha - (gamma @ G2) / n
        D1 = D1 + P1
        D2 = D2 + P2

        r1 = float(np.linalg.norm(P1))
        r2 = float(np.linalg.norm(P2))
        u1 = alpha.sum(axis=1) - 1.0 / m
        u2 = alpha.sum(axis=0) - 1.0 / n
        obj = float(np.sum(alpha * Cm)) + float(u1 @ H1 @ u1) + float(u2 @ H2 @ u2)
        if not np.isfinite(obj):
            raise failure("non-finite objective")
        objs.append(obj)
        residuals.append(max(r1, r2))
        if r1 <= cfg.tol_residual and r2 <= cfg.tol_residual:
            converged = True
            break

    trace = SolveTrace(
        objective_per_iter=np.array(objs),
        gap_or_residual_per_iter=np.array(residuals),
        iters_used=len(objs),
        converged=converged,
        inner_cap_hits=cap_hits,
        prox_newton_steps=newton_steps,
        stop_reason="residual" if converged else "budget",
    )
    plan = PlanCoefficients(
        alpha=_clean_simplex(alpha),
        beta=np.maximum(beta, 0.0),
        gamma=np.maximum(gamma, 0.0),
    )
    return plan, trace


# ---------------------------------------------------------------------------
# Exact discrete OT
# ---------------------------------------------------------------------------

def solve_emd_exact(C):
    """Exact discrete OT with uniform marginals.

    With m = n an optimal assignment divided by m is an optimal coupling
    (Birkhoff-von Neumann), so the square case is a rectangular assignment
    solve.  Otherwise the transportation LP goes to HiGHS.  Returns
    ``(coupling, objective)``.
    """
    Cm = cost_entries(C)
    if Cm.ndim != 2:
        raise ShapeError("cost matrix must be 2-d")
    m, n = Cm.shape
    if m * n > _EMD_SIZE_CAP:
        raise ShapeError(f"m*n = {m * n} exceeds exact-solver cap {_EMD_SIZE_CAP}")

    if m == n:
        rows, cols = linear_sum_assignment(Cm)
        X = np.zeros((m, n))
        X[rows, cols] = 1.0 / m
    else:
        # Equality rows: one per row marginal, one per column marginal.
        A_eq = sparse.vstack([
            sparse.kron(sparse.eye(m), np.ones((1, n))),
            sparse.kron(np.ones((1, m)), sparse.eye(n)),
        ])
        b_eq = np.concatenate([np.full(m, 1.0 / m), np.full(n, 1.0 / n)])
        res = linprog(Cm.ravel(), A_eq=A_eq, b_eq=b_eq, bounds=(0, None),
                      method="highs")
        if res.status != 0:
            raise NumericalFailureError(f"transportation LP failed: {res.message}")
        X = np.maximum(res.x.reshape(m, n), 0.0)
    objective = float(np.sum(X * Cm))
    return X, objective
