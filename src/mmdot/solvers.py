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

import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np
from scipy import sparse
from scipy.linalg import block_diag, get_lapack_funcs
from scipy.optimize import linear_sum_assignment, linprog, nnls

from .errors import EmptyInputError, NumericalFailureError, ShapeError
from .kernels import gram_entries

_EMD_SIZE_CAP = 10_000
# Cells per block of the Frank-Wolfe gradient argmin (``_lmo``): 256 KB of
# float64, so a block stays in a core's L2 cache while it is summed and read.
_LMO_BLOCK_CELLS = 32_768
# Sufficient-increase fraction of the Armijo line search in the ADMM prox.
_ARMIJO = 1e-4
# Unit roundoff of float64, in the rounding bound of the NNLS warm start's
# optimality check.
_EPS = np.finfo(float).eps
# LAPACK's Cholesky factorization and its two solves, called directly: at
# the support sizes of the Frank-Wolfe loop (often under 30) scipy's
# wrappers of them cost several times the factorization itself.
_potrf, _potrs, _trtrs = get_lapack_funcs(("potrf", "potrs", "trtrs"), dtype=float)


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
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and nonnegative")
        if not 0 < self.rho_admm < np.inf:
            raise ValueError("rho_admm must be finite and positive")
        for budget in (self.max_outer_iters, self.max_inner_iters):
            # bool is an Integral, but True is no budget.
            integral = isinstance(budget, Integral) and not isinstance(budget, bool)
            if not (integral and budget > 0):
                raise ValueError("iteration budgets must be positive integers")
        if not (0 < self.tol_gap < np.inf and 0 < self.tol_residual < np.inf):
            raise ValueError("tolerances must be finite and positive")


@dataclass(frozen=True)
class SolveTrace:
    """Per-iteration objective and convergence-measure record.

    ``inner_cap_hits`` counts the ADMM cycles whose prox solve used up its
    ``max_inner_iters`` Newton steps before reaching its optimum, and
    ``prox_newton_steps`` the Newton steps of all prox solves; both are
    always 0 on the Frank-Wolfe route.  ``support_solves`` counts the
    Frank-Wolfe support solves (0 on the ADMM route).  ``nnls_solves``
    counts the calls of scipy's ``nnls``: on the Frank-Wolfe route the
    support solves that left the exact KKT fast path (see ``_support_qp``),
    on the ADMM route the ``beta``/``gamma`` column fits whose warm start
    failed or that had none (see ``_nnls_columns``).  ``stop_reason`` says
    why the loop ended: ``"gap"`` (Frank-Wolfe duality gap met),
    ``"fixed_point"`` or ``"stall"`` (see ``solve_simplified``),
    ``"residual"`` (ADMM residuals met) or ``"budget"``
    (``max_outer_iters`` used up); it is ``None`` on the trace of a
    ``NumericalFailureError``.  ``support_sizes`` holds the number of
    support cells of the iterate at each Frank-Wolfe iteration (empty on
    the ADMM route).  None of these fields enters a result payload.
    ``converged`` (the stop reason is ``"gap"`` or ``"residual"``) and
    ``iters_used`` (the length of the objective trace) are derived.
    """

    objective_per_iter: np.ndarray
    gap_or_residual_per_iter: np.ndarray
    inner_cap_hits: int = 0
    support_solves: int = 0
    nnls_solves: int = 0
    prox_newton_steps: int = 0
    stop_reason: str | None = None
    support_sizes: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))

    @property
    def converged(self) -> bool:
        return self.stop_reason in ("gap", "residual")

    @property
    def iters_used(self) -> int:
        return len(self.objective_per_iter)


@dataclass(frozen=True)
class PlanCoefficients:
    """Representer coefficients of the plan embedding.

    ``alpha`` lies on the joint probability simplex up to rounding, as
    each route computed it.  ``beta`` (n x m) and ``gamma`` (m x n) are
    the nonnegative conditional-embedding coefficients; they are only
    present on the ADMM route.
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
    # Built in place: the bits of lam * G + nu * (G * G), with no m x m
    # temporary but lam * G.
    H1, H2 = G1 * G1, G2 * G2
    H1 *= cfg.nu1
    H2 *= cfg.nu2
    H1 += cfg.lambda1 * G1
    H2 += cfg.lambda2 * G2
    return H1, H2


def _cholesky(A):
    """Upper Cholesky factor ``R`` of ``A = R^T R``, as ``scipy.linalg.cholesky``
    computes it; ``A`` must be finite.  One that is not numerically definite
    raises ``numpy.linalg.LinAlgError`` with scipy's message."""
    R, info = _potrf(A, lower=0, clean=1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite"
        )
    return R


def _support_qp(Q, c):
    """Minimize ``a^T Q a + c^T a`` over the probability simplex exactly.

    Returns ``(a, fell_back)``.  ``Q`` and ``c`` must be finite and ``Q``
    positive definite; one that is not numerically definite raises
    ``numpy.linalg.LinAlgError``.

    Factor ``Q = R^T R`` (Cholesky).  The fast path solves ``Q z1 = c`` and
    ``Q z2 = 1`` (one ``potrs`` on a two-column right-hand side) and
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
    R = _cholesky(Q)
    z1, z2 = _potrs(R, np.column_stack([c, np.ones(k)]))[0].T
    mu = -(2.0 + z1.sum()) / z2.sum()
    a = -0.5 * (z1 + mu * z2)
    if a.min() > 0.0:
        return a / a.sum(), False
    y = _trtrs(R, -0.5 * c, trans=1)[0]
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


def _lmo(L, p, q, buf):
    """Flat index and value of ``argmin (L + p[:, None]) + q``, one block at a time.

    The gradient is summed into ``buf`` (rows x n, reused across calls) a
    block of rows at a time and searched there, so no m x n gradient is
    allocated and each block is read while it is still in cache.  The
    result is ``np.argmin`` of the dense sum, bit for bit: the first
    minimum in row-major order, or the first NaN if there is one.
    """
    m, n = L.shape
    rows = buf.shape[0]
    s, best = 0, None
    for r in range(0, m, rows):
        blk = buf[: min(rows, m - r)]
        np.add(L[r : r + rows], p[r : r + rows, None], out=blk)
        blk += q
        k = int(np.argmin(blk))
        v = blk.flat[k]
        # Moves only on a strictly smaller value, or on a NaN, which ends
        # the search as it ends np.argmin's.
        if best is None or not v >= best:
            s, best = r * n + k, v
            if np.isnan(v):
                break
    return s, float(best)


def _check_shapes(C, G1, G2):
    """The solvers' one input front: ``C`` and both grams as float arrays
    (a gram may be a ``GramMatrix``), with matching shapes."""
    C = np.asarray(C, dtype=float)
    G1, G2 = gram_entries(G1), gram_entries(G2)
    m, n = C.shape
    if G1.shape != (m, m):
        raise ShapeError(f"G1 shape {G1.shape} does not match cost rows {m}")
    if G2.shape != (n, n):
        raise ShapeError(f"G2 shape {G2.shape} does not match cost columns {n}")
    return C, G1, G2


def solve_simplified(C, G1, G2, cfg: SolverConfig):
    """Fully-corrective conditional gradient over the joint probability simplex.

    Minimizes the penalized plan objective

        f(alpha) = <C, alpha> + lam1 ||alpha 1 - 1/m||^2_{G1}
                 + lam2 ||alpha^T 1 - 1/n||^2_{G2}
                 + nu1  ||alpha 1 - 1/m||^2_{G1*G1}
                 + nu2  ||alpha^T 1 - 1/n||^2_{G2*G2}

    where ``lam1, lam2, nu1, nu2`` are ``cfg.lambda1, cfg.lambda2, cfg.nu1,
    cfg.nu2`` (Holloway's fully-corrective Frank-Wolfe; Lacoste-Julien &
    Jaggi, NeurIPS 2015).  Returns ``(PlanCoefficients with beta/gamma
    absent, SolveTrace)``.  It starts at the vertex ``argmin C``.  Each
    outer iteration finds the gradient's smallest entry (the linear
    minimization oracle) and stops once the duality gap is at most
    ``cfg.tol_gap``; otherwise it adds the best vertex ``s`` to the support
    and solves the objective exactly on the support
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
    return, by scattering ``a`` into zeros.  The weights are the support
    solve's output, positive and divided by their sum, so the plan lies on
    the simplex up to rounding.  The only O(mn) work of an outer iteration
    is the ``argmin`` of the gradient ``g = C + p[:, None] + q``, with
    ``p = 2 H1 u1`` and ``q = 2 H2 u2``.  No m x n gradient is allocated:
    ``_lmo`` sums and searches it a cache-sized block of rows at a time in
    one buffer kept for the solve, and the gap reads ``g`` on the support
    cells from the same sums.  ``H1 u1`` is ``H1[:, I] @ a - H1 1/m``,
    O(m k) for a support of ``k`` cells; the objective, the gap and the FW
    step's curvature are read off the support and these vectors.

    If ``s`` already lies in the support after an exact support solve, the
    iterate is a fixed point of the loop: it stops there, converged only if
    the gap met ``cfg.tol_gap``.  If a support solve returns the support
    and weights it started from, bit for bit, every later iteration would
    repeat this one (a stall, seen with near-duplicate points, whose ``Q``
    is nearly singular): it stops there too, unconverged.
    ``cfg.max_outer_iters`` bounds the outer iterations; the returned plan
    is the last one evaluated.  The trace's ``stop_reason`` names why the
    loop ended (``"gap"``, ``"fixed_point"``, ``"stall"``, ``"budget"``),
    and ``support_solves`` and ``nnls_solves`` count the support solves and
    those that fell back from the exact KKT fast path to the NNLS.  A tie
    between bit-equal gradient entries goes to the first cell in row-major
    order, and reruns are bit-identical.  The gradient rows of identical
    points are equal only up to rounding, so which copy of an identical
    point receives mass is not specified.
    """
    C, G1, G2 = _check_shapes(C, G1, G2)
    m, n = C.shape
    H1, H2 = _penalty_matrices(G1, G2, cfg)
    # H 1/m: the penalty's pull toward the uniform marginals.
    w1 = H1.sum(axis=1) / m
    w2 = H2.sum(axis=1) / n
    Cf = C.ravel()
    cls1, cls2 = _point_classes(G1), _point_classes(G2)

    # The gradient argmin's block of rows (see _lmo).
    buf = np.empty((min(m, max(1, _LMO_BLOCK_CELLS // n)), n))

    objs = []
    gaps = []
    sizes = []
    solves = fallbacks = 0

    def trace(stop=None):
        # The one SolveTrace of this route: at return, or carried by a
        # NumericalFailureError with no stop reason.
        return SolveTrace(
            np.array(objs), np.array(gaps),
            support_solves=solves, nnls_solves=fallbacks,
            stop_reason=stop, support_sizes=np.array(sizes, dtype=int),
        )

    # The objective sums every entry of H1u and H2u, so with C finite,
    # checking it and g[s] in each iteration covers the whole gradient.
    if not np.all(np.isfinite(Cf)):
        raise NumericalFailureError("non-finite objective or gradient", trace())
    # The support: cells idx, their rows I and columns J, costs Cs, weights a.
    idx = np.array([np.argmin(Cf)])
    I, J = np.divmod(idx, n)
    Cs = Cf[idx]
    a = np.ones(1)
    for it in range(cfg.max_outer_iters):
        H1u = H1[:, I] @ a - w1
        H2u = H2[:, J] @ a - w2
        p = 2.0 * H1u
        q = 2.0 * H2u
        obj = (
            float(Cs @ a)
            + (float(a @ H1u[I]) - float(H1u.sum()) / m)
            + (float(a @ H2u[J]) - float(H2u.sum()) / n)
        )
        s, g_s = _lmo(C, p, q, buf)
        # This check also fires before any Q is built from a non-finite
        # gram, so _support_qp's unchecked LAPACK calls see finite input: a
        # finite objective needs finite w1 and w2, the row sums of H1 and H2.
        if not (math.isfinite(obj) and math.isfinite(g_s)):
            raise NumericalFailureError("non-finite objective or gradient", trace())
        if objs:
            # Every step is an exact minimization, so the true objective is
            # non-increasing; a fresh evaluation can still wobble by an ulp,
            # so record the running minimum and treat any material increase
            # as a bug.
            if obj > objs[-1] + 1e-8 * (1.0 + abs(objs[-1])):
                raise NumericalFailureError(
                    f"objective increased from {objs[-1]!r} to {obj!r}", trace()
                )
            obj = min(obj, objs[-1])
        # The gradient on the support, summed as in _lmo.
        fw_gap = float(((Cs + p[I]) + q[J]) @ a) - g_s
        objs.append(obj)
        gaps.append(fw_gap)
        sizes.append(idx.size)
        support = idx.tolist()
        stop = (
            "gap" if fw_gap <= cfg.tol_gap
            else "fixed_point" if s in support
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
            idx, I, J, Cs, a, support = idx[:0], I[:0], J[:0], Cs[:0], a[:0], []
        path = _forest_cycle(support, s, n, cls1, cls2)
        idx = np.concatenate([idx, [s]])
        I = np.concatenate([I, [si]])
        J = np.concatenate([J, [sj]])
        Cs = np.concatenate([Cs, [Cf[s]]])
        a = np.concatenate([(1.0 - step) * a, [step]])
        if path is not None:
            # Along the cycle the class marginals, and so the penalty, are
            # fixed: f is linear in the push with slope <L, d>.  Pushing
            # downhill empties the smallest shrinking cell first; the
            # support solve below starts afresh, so only that cell's exit
            # is needed.
            ring = np.array([idx.size - 1] + path)
            signs = np.resize([1.0, -1.0], ring.size)
            if float(signs @ Cs[ring]) > 0.0:
                signs = -signs
            shrink = ring[signs < 0.0]
            keep = np.ones(idx.size, dtype=bool)
            keep[shrink[np.argmin(a[shrink])]] = False
            idx, I, J, Cs, a = (v[keep] for v in (idx, I, J, Cs, a))

        Q = H1[I[:, None], I] + H2[J[:, None], J]
        try:
            a, fell_back = _support_qp(Q, Cs - 2.0 * w1[I] - 2.0 * w2[J])
        except np.linalg.LinAlgError as exc:
            raise NumericalFailureError(
                f"support solve failed: {exc}", trace()
            ) from exc
        solves += 1
        fallbacks += fell_back
        keep = a > 0.0
        idx, I, J, Cs, a = (v[keep] for v in (idx, I, J, Cs, a))
        if (
            idx.size == idx_prev.size
            and (idx == idx_prev).all()
            and (a == a_prev).all()
        ):
            # The next iteration would repeat this one exactly.
            stop = "stall"
            break

    alpha = np.zeros((m, n))
    alpha.flat[idx] = a
    return PlanCoefficients(alpha=alpha), trace(stop)


def derive_beta(alpha, G1) -> np.ndarray:
    """Conditional-embedding coefficients implied by alpha.

    Solves the nonnegative least-squares consensus problem
    ``min_{beta >= 0} ||alpha - G1 beta^T / m||_F^2`` exactly.  It
    separates by column of ``alpha``: an all-zero column gets a zero row of
    ``beta``, and every other column is one Lawson-Hanson active-set NNLS
    solve against ``G1 / m`` (``_nnls_columns`` without a guess).  Exact
    fitting matters on the ill-conditioned grams of well-spread samples,
    where an iterative fit can leave a consensus residual far above that of
    ``beta = 0``.
    """
    alpha = np.asarray(alpha, dtype=float)
    G1 = gram_entries(G1)
    return _nnls_columns(G1 / alpha.shape[0], alpha)[0]


def _nnls_columns(A, B, guess=None, cache=None):
    """Column-wise NNLS: row ``j`` of ``X`` is ``argmin_{x >= 0} ||B[:, j] - A x||``.

    Returns ``(X, solves)``.  An all-zero column gets a zero row.  Given a
    boolean ``guess`` shaped like ``X`` (a passive set per column, such as
    the previous fit's ``X > 0``), each column first takes the
    least-squares fit on its set ``P``, ``x_P = pinv(A[:, P]) b``, with the
    pseudo-inverse taken by SVD (``A^T A`` would square the condition of an
    ill-conditioned gram) and kept in the dict ``cache``, keyed by ``P``,
    for later calls with the same ``A``.  That fit is the NNLS optimum when
    it meets the KKT conditions: ``x_P > 0`` and ``w = A^T (b - A x) <= 0``
    off ``P`` (``w`` vanishes on ``P`` by construction), the latter up to
    the rounding bound ``(p + k + 1) eps |A|^T (|b| + |A| |x|)`` of the
    computed ``w`` (an active-set warm start, Bro & De Jong, J. Chemometrics
    1997, with the KKT check of Van Benthem & Keenan, J. Chemometrics
    2004).  Every column that fails the check, and every column when no
    guess is given, is one Lawson-Hanson active-set solve of scipy's
    ``nnls``; ``solves`` counts them.
    """
    p, k = A.shape
    X = np.zeros((B.shape[1], k))
    todo = np.any(B != 0.0, axis=0)
    if guess is not None:
        pinvs = []
        for P in guess:
            key = P.tobytes()
            Q = cache.get(key)
            if Q is None:
                Q = cache[key] = np.linalg.pinv(A[:, P])
            pinvs.append(Q)
        # One pseudo-inverse row per passive cell, in the row-major order of
        # the cells, dotted with its column of B.
        rows, cells = np.nonzero(guess)
        X[rows, cells] = np.einsum("rp,rp->r", np.concatenate(pinvs), B.T[rows])
        absA = np.abs(A)
        W = (B - A @ X.T).T @ A
        bound = (p + k + 1) * _EPS * (
            (np.abs(B) + absA @ np.abs(X.T)).T @ absA
        )
        kkt = np.where(guess, X > 0.0, W <= bound).all(axis=1)
        todo &= ~kkt
    for j in np.flatnonzero(todo):
        X[j] = nnls(A, B[:, j])[0]
    return X, int(np.count_nonzero(todo))


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


def _prox_simplex(B, rho, center, y, max_iters, newton):
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

    positive semidefinite, so the matrix is SPD and factored by Cholesky
    (LAPACK ``potrf``, then ``potrs``).  It depends on ``y`` only through
    ``S``, and the warm-started solves of one ADMM run see few distinct
    active sets, so the factor is kept (Boyd et al., "Distributed
    optimization and statistical learning via ADMM", 2011, sec. 4.2): the
    list ``newton`` holds the last undamped system factored in the run,
    ``[S, M, R]`` with ``M = I + B K B / rho`` and ``R`` its Cholesky
    factor (empty before the run's first step).  A step whose ``S`` equals
    the kept one solves with the kept ``R``; any other step rebuilds ``K``,
    ``M`` and ``R`` and replaces the entry in place, so the list holds one
    (m+n) x (m+n) pair however many cycles run.
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
    stops there.  ``D`` is evaluated only where this test or the Armijo
    test reads it, from the arrays the projection was computed from; a
    full step that keeps its active set never reads it.  Damped matrices
    ``M + mu I`` are factored afresh and not kept.

    Starts at the dual point ``y`` (the previous cycle's, for a warm start)
    and takes at most ``max_iters`` Newton steps.  Returns
    ``(alpha, y, steps, capped)``, where ``capped`` says the budget ran out.
    """
    m, n = center.shape
    k = m + n
    diag = np.arange(k)
    eye = np.eye(k)

    def at(y):
        # alpha(y), the arrays D(y) is read from, and B u - y.
        z = B @ y
        v = -center - (z[:m, None] + z[m:]) / rho
        alpha = _project_simplex(v.ravel()).reshape(m, n)
        u = np.concatenate([alpha.sum(axis=1) - 1.0 / m, alpha.sum(axis=0) - 1.0 / n])
        return alpha, (v, z), B @ u - y

    def dual(y, alpha, v, z):
        return (
            rho * float(np.sum(alpha * (alpha - 2.0 * v)))
            - 2.0 * (z[:m].sum() / m + z[m:].sum() / n)
            - float(y @ y)
        )

    alpha, vz, r = at(y)
    dual_y = None
    for step in range(1, max_iters + 1):
        S = alpha > 0.0
        if not newton or not (newton[0] == S).all():
            Sf = S.astype(float)
            ab = np.concatenate([Sf.sum(axis=1), Sf.sum(axis=0)])
            K = np.outer(ab, -1.0 / ab[:m].sum() * ab)
            K[diag, diag] += ab
            K[:m, m:] += Sf
            K[m:, :m] += Sf.T
            M = eye + B @ K @ B / rho
            newton[:] = S, M, _cholesky(M)
        _, M, R = newton
        mu = 0.0
        while True:
            d = _potrs(R if mu == 0.0 else _cholesky(M + mu * eye), r)[0]
            slope = 2.0 * float(r @ d)
            y_new = y + d
            alpha_new, vz_new, r_new = at(y_new)
            if mu == 0.0 and ((alpha_new > 0.0) == S).all():
                return alpha_new, y_new, step, False
            if dual_y is None:
                dual_y = dual(y, alpha, *vz)
            dual_new = dual(y_new, alpha_new, *vz_new)
            if dual_new >= dual_y + _ARMIJO * slope:
                break
            if dual_y + slope == dual_y:
                return alpha, y, step, False
            mu = max(4.0 * mu, 1.0)
        y, alpha, vz, dual_y, r = y_new, alpha_new, vz_new, dual_new, r_new
    return alpha, y, max_iters, True


def solve_admm(C, G1, G2, cfg: SolverConfig):
    """Consensus ADMM with explicit nonnegative ``beta`` and ``gamma``.

    Each cycle minimizes the proximal penalized objective for ``alpha``
    over the simplex exactly (semismooth Newton on its dual, warm-started
    at the previous cycle's dual point, at most ``cfg.max_inner_iters``
    Newton steps; see ``_prox_simplex``), fits ``beta`` and ``gamma``
    exactly to the consensus relations ``alpha = G1 beta^T / m`` and
    ``alpha = gamma G2 / n`` by column-wise NNLS, then takes the plain dual
    ascent updates.  The NNLS of the first cycle is that of ``derive_beta``.
    Later cycles start each column from its passive set of the previous
    cycle, with pseudo-inverses cached for the whole solve, and keep that
    fit when it meets the NNLS optimality conditions; a column that fails
    them goes to scipy's ``nnls`` as in the first cycle (see
    ``_nnls_columns``).  The prox solves of the run share one kept Newton
    factor, refactored only when the active set of the plan changes.  Stops
    when both primal residuals fall below ``cfg.tol_residual``; running out
    of budget returns ``converged=False`` rather than raising.  The plan is
    the last cycle's ``alpha``, ``beta`` and ``gamma`` as computed, the ones the residuals were read from.  The
    trace's ``inner_cap_hits`` counts the cycles whose prox solve ran out of
    steps, ``prox_newton_steps`` the Newton steps of all of them and
    ``nnls_solves`` the column fits that went to scipy's ``nnls``.
    """
    C, G1, G2 = _check_shapes(C, G1, G2)
    m, n = C.shape
    rho = cfg.rho_admm

    objs = []
    residuals = []
    cap_hits = newton_steps = nnls_solves = 0
    stop = "budget"

    def trace(stop=None):
        # The one SolveTrace of this route, as in solve_simplified.
        return SolveTrace(
            np.array(objs), np.array(residuals), cap_hits,
            nnls_solves=nnls_solves, prox_newton_steps=newton_steps,
            stop_reason=stop,
        )

    H1, H2 = _penalty_matrices(G1, G2, cfg)
    # A non-finite gram would fail inside eigh or the simplex projection,
    # or reach the prox solve's unchecked factorization.
    if not (np.all(np.isfinite(H1)) and np.all(np.isfinite(H2))):
        raise NumericalFailureError("non-finite gram penalty form", trace())
    # The prox solve's dual works with B = H^{1/2}; eigenvalues below zero
    # are rounding and are clipped.
    B = block_diag(*(
        (V * np.sqrt(np.maximum(w, 0.0))) @ V.T
        for w, V in map(np.linalg.eigh, (H1, H2))
    ))

    A1 = G1 / m
    A2 = G2 / n
    # Passive sets of the last beta/gamma fit and the pseudo-inverses of
    # their gram columns, for the warm-started NNLS of the next cycle.
    guess1 = guess2 = None
    pinvs1 = {}
    pinvs2 = {}
    # The consensus products G1 beta^T / m and gamma G2 / n, kept for the
    # next cycle's prox center.
    F1 = F2 = np.zeros((m, n))
    D1 = np.zeros((m, n))
    D2 = np.zeros((m, n))
    y = np.zeros(m + n)
    # The prox solve's undamped Newton system, kept across cycles while its
    # active set holds (see _prox_simplex).
    newton = []

    for _ in range(cfg.max_outer_iters):
        center = 0.5 * (D1 + D2 + C / rho - F2 - F1)
        if not np.all(np.isfinite(center)):
            raise NumericalFailureError(
                "non-finite prox center in consensus iteration", trace()
            )
        alpha, y, steps, capped = _prox_simplex(
            B, rho, center, y, cfg.max_inner_iters, newton
        )
        newton_steps += steps
        cap_hits += capped

        # beta update: min_{beta>=0} ||alpha + D1 - G1 beta^T / m||^2
        beta, solves1 = _nnls_columns(A1, alpha + D1, guess1, pinvs1)
        # gamma update: min_{gamma>=0} ||(alpha + D2)^T - G2 gamma^T / n||^2
        gamma, solves2 = _nnls_columns(A2, (alpha + D2).T, guess2, pinvs2)
        nnls_solves += solves1 + solves2
        guess1 = beta > 0.0
        guess2 = gamma > 0.0

        F1 = (G1 @ beta.T) / m
        F2 = (gamma @ G2) / n
        P1 = alpha - F1
        P2 = alpha - F2
        D1 = D1 + P1
        D2 = D2 + P2

        r1 = float(np.linalg.norm(P1))
        r2 = float(np.linalg.norm(P2))
        u1 = alpha.sum(axis=1) - 1.0 / m
        u2 = alpha.sum(axis=0) - 1.0 / n
        obj = float(np.sum(alpha * C)) + float(u1 @ H1 @ u1) + float(u2 @ H2 @ u2)
        if not np.isfinite(obj):
            raise NumericalFailureError(
                "non-finite objective in consensus iteration", trace()
            )
        objs.append(obj)
        residuals.append(max(r1, r2))
        if r1 <= cfg.tol_residual and r2 <= cfg.tol_residual:
            stop = "residual"
            break

    return PlanCoefficients(alpha=alpha, beta=beta, gamma=gamma), trace(stop)


# ---------------------------------------------------------------------------
# Exact discrete OT
# ---------------------------------------------------------------------------

def _check_emd_size(m, n):
    if m * n > _EMD_SIZE_CAP:
        raise ShapeError(f"m*n = {m * n} exceeds exact-solver cap {_EMD_SIZE_CAP}")


def solve_emd_exact(C):
    """Exact discrete OT with uniform marginals.

    With m = n an optimal assignment divided by m is an optimal coupling
    (Birkhoff-von Neumann), so the square case is a rectangular assignment
    solve.  Otherwise the transportation LP goes to HiGHS.  Returns
    ``(coupling, objective)``.
    """
    Cm = np.asarray(C, dtype=float)
    if Cm.ndim != 2:
        raise ShapeError("cost matrix must be 2-d")
    if Cm.size == 0:
        raise EmptyInputError(f"cost matrix of shape {Cm.shape} is empty")
    # The assignment solver takes an infinite cost for a forbidden cell.
    if not np.isfinite(Cm).all():
        raise ValueError("cost matrix has non-finite entries")
    m, n = Cm.shape
    _check_emd_size(m, n)

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
