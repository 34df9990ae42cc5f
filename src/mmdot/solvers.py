"""Optimizers producing transport-plan coefficients.

Three routes are provided:

* ``solve_simplified`` -- conditional-gradient (Frank-Wolfe with away and
  pairwise steps, exact line search) minimization of the penalized plan
  objective over the joint probability simplex.
* ``solve_admm`` -- consensus ADMM for the variant that carries explicit
  nonnegative conditional-embedding coefficients ``beta`` and ``gamma``
  tied to ``alpha`` through the gram matrices; the proximal ``alpha`` step
  of each cycle is solved by accelerated projected gradient.
* ``solve_emd_exact`` -- exact small-scale discrete OT, used as a
  baseline: an assignment solve when m = n, the transportation LP through
  HiGHS otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog, nnls

from .embeddings import cost_entries, marginal_residuals
from .errors import NumericalFailureError, ShapeError
from .kernels import gram_entries

_EMD_SIZE_CAP = 10_000
# The ADMM prox solve stops once an accelerated step moves alpha by at most
# this much in Frobenius norm.
_PROX_STEP_TOL = 1e-13


@dataclass(frozen=True)
class SolverConfig:
    """Regularization weights and iteration budgets.

    ``lambda1``/``lambda2`` weight the row/column marginal residuals in the
    plain gram quadratic forms, ``nu1``/``nu2`` the same residuals in the
    element-wise-squared gram forms.  ``rho_admm`` is the ADMM penalty
    (fixed, no adaptive schedule, so traces are reproducible).
    ``max_inner_iters`` bounds the accelerated projected-gradient steps of
    the prox solve in each ADMM cycle.
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

    ``inner_cap_hits`` counts the ADMM cycles whose prox solve stopped at
    ``max_inner_iters`` steps instead of its step tolerance; it is always 0
    on the Frank-Wolfe route.
    """

    objective_per_iter: np.ndarray
    gap_or_residual_per_iter: np.ndarray
    iters_used: int
    converged: bool
    inner_cap_hits: int = 0


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


def _line_search(a, b, t_max):
    """Exact step for the quadratic f(alpha + t d) = f + b t + a t^2.

    Returns ``(t, predicted_decrease)`` with the step clipped to
    ``[0, t_max]``; ``a <= 0`` means the quadratic is non-convex along
    ``d`` and the full step is taken.
    """
    if a <= 0.0:
        t = t_max
    else:
        t = min(max(-b / (2.0 * a), 0.0), t_max)
    if not np.isfinite(t):
        t = 0.0
    return t, b * t + a * t * t


def _frank_wolfe_simplex(L, G1, G2, cfg, alpha0, max_iters):
    """Conditional-gradient loop over the joint probability simplex.

    Minimizes the penalized plan objective

        f(alpha) = <L, alpha> + lam1 ||alpha 1 - 1/m||^2_{G1}
                 + lam2 ||alpha^T 1 - 1/n||^2_{G2}
                 + nu1  ||alpha 1 - 1/m||^2_{G1*G1}
                 + nu2  ||alpha^T 1 - 1/n||^2_{G2*G2}

    where ``lam1, lam2, nu1, nu2`` are ``cfg.lambda1, cfg.lambda2, cfg.nu1,
    cfg.nu2``.  Starts at ``alpha0`` and stops once the duality gap falls
    below ``cfg.tol_gap`` or after ``max_iters`` iterations.
    ``solve_simplified`` is the only caller; the ADMM route solves its
    proximal step with ``_prox_simplex`` instead.

    Plain Frank-Wolfe only closes the duality gap at a sublinear rate on
    these quadratics, which is far too slow for the gap targets this
    library promises.  Each iteration therefore evaluates three candidate
    directions -- the classical FW step toward the best vertex, the away
    step off the worst active vertex, and the pairwise step that moves mass
    directly from the worst to the best vertex -- and takes the one whose
    exact line search predicts the largest decrease.  The pairwise step is
    what rescues heavily regularized instances: swapping mass inside one
    row or column barely changes the marginals, so the curvature along it
    collapses and the step stays large.

    Simplex vertices are single-entry matrices, so the active set is
    simply the support of ``alpha`` and no weight bookkeeping is needed.
    Tie-breaking everywhere is first-occurrence in row-major order, which
    keeps runs bit-reproducible.

    The marginals, the linear term, and the curvature of every candidate
    direction are maintained from vectors and gram identities instead of
    forming per-direction matrices, so each iteration touches the full
    plan only for the gradient scan and the iterate update; the cached
    quantities are recomputed from scratch periodically to stop rounding
    drift from accumulating.
    """
    alpha = alpha0.copy()
    m, n = alpha.shape
    G1sq, G2sq = G1 * G1, G2 * G2
    lam1, lam2, nu1, nu2 = cfg.lambda1, cfg.lambda2, cfg.nu1, cfg.nu2
    tol_gap = cfg.tol_gap
    u_m, u_n = 1.0 / m, 1.0 / n
    # Row sums of the grams turn G @ u into G @ r without a second matvec.
    ones1, ones1sq = G1.sum(axis=1), G1sq.sum(axis=1)
    ones2, ones2sq = G2.sum(axis=1), G2sq.sum(axis=1)

    objs = []
    gaps = []
    converged = False
    r1 = r2 = None
    lin = 0.0
    for it in range(max_iters):
        if it % 128 == 0:  # periodic exact refresh of the cached state
            r1 = alpha.sum(axis=1)
            r2 = alpha.sum(axis=0)
            lin = float(np.sum(alpha * L))
        u1 = r1 - u_m
        u2 = r2 - u_n
        G1u, G1su = G1 @ u1, G1sq @ u1
        G2u, G2su = G2 @ u2, G2sq @ u2
        g = L + (2.0 * (lam1 * G1u + nu1 * G1su))[:, None]
        g += 2.0 * (lam2 * G2u + nu2 * G2su)
        obj = (
            lin
            + lam1 * float(u1 @ G1u) + nu1 * float(u1 @ G1su)
            + lam2 * float(u2 @ G2u) + nu2 * float(u2 @ G2su)
        )
        if not np.isfinite(obj) or not np.all(np.isfinite(g)):
            raise NumericalFailureError(
                "non-finite objective or gradient",
                trace=SolveTrace(np.array(objs), np.array(gaps), len(objs), False),
            )
        if objs:
            # Exact line search makes the true objective non-increasing; a
            # fresh evaluation can still wobble by an ulp, so record the
            # running minimum and treat any material increase as a bug.
            if obj > objs[-1] + 1e-8 * (1.0 + abs(objs[-1])):
                raise NumericalFailureError(
                    f"objective increased from {objs[-1]!r} to {obj!r}",
                    trace=SolveTrace(np.array(objs), np.array(gaps), len(objs), False),
                )
            obj = min(obj, objs[-1])
        gf = g.ravel()
        af = alpha.ravel()
        inner = float(gf @ af)
        s = int(np.argmin(gf))
        fw_gap = inner - float(gf[s])
        objs.append(obj)
        gaps.append(fw_gap)
        if fw_gap <= tol_gap:
            converged = True
            break

        masked = np.where(af > 0.0, gf, -np.inf)
        v = int(np.argmax(masked))
        away_gap = float(gf[v]) - inner
        wv = float(af[v])
        si, sj = divmod(s, n)
        vi, vj = divmod(v, n)

        # Curvatures along (e - alpha) and (alpha - e) expand into the
        # vertex gram entry, the gram-marginal product, and the marginal
        # quadratic form, all of which are already at hand.
        G1r, G1sr = G1u + ones1 * u_m, G1su + ones1sq * u_m
        G2r, G2sr = G2u + ones2 * u_n, G2su + ones2sq * u_n
        r1q = lam1 * float(r1 @ G1r) + nu1 * float(r1 @ G1sr)
        r2q = lam2 * float(r2 @ G2r) + nu2 * float(r2 @ G2sr)

        def vertex_curvature(i, j):
            a = lam1 * (G1[i, i] - 2.0 * G1r[i]) + nu1 * (G1sq[i, i] - 2.0 * G1sr[i])
            a += lam2 * (G2[j, j] - 2.0 * G2r[j]) + nu2 * (G2sq[j, j] - 2.0 * G2sr[j])
            return float(a) + r1q + r2q

        a_fw = vertex_curvature(si, sj)
        a_aw = vertex_curvature(vi, vj)
        a_pw = 0.0
        if si != vi:
            a_pw += lam1 * (G1[si, si] - 2.0 * G1[si, vi] + G1[vi, vi])
            a_pw += nu1 * (G1sq[si, si] - 2.0 * G1sq[si, vi] + G1sq[vi, vi])
        if sj != vj:
            a_pw += lam2 * (G2[sj, sj] - 2.0 * G2[sj, vj] + G2[vj, vj])
            a_pw += nu2 * (G2sq[sj, sj] - 2.0 * G2sq[sj, vj] + G2sq[vj, vj])

        # Candidate 1: FW step toward vertex s.
        t_fw, dec_fw = _line_search(a_fw, -fw_gap, 1.0)
        # Candidate 2: away step off vertex v.
        t_aw_max = wv / (1.0 - wv) if wv < 1.0 else np.inf
        t_aw, dec_aw = _line_search(a_aw, -away_gap, t_aw_max)
        # Candidate 3: pairwise step shifting mass from v to s.
        t_pw, dec_pw = _line_search(float(a_pw), float(gf[s] - gf[v]), wv)

        decs = (dec_fw, dec_pw, dec_aw)
        best = int(np.argmin(decs))  # first occurrence: FW, then pairwise, away
        if best == 0:
            c = 1.0 - t_fw
            alpha *= c
            alpha.flat[s] += t_fw
            r1 *= c
            r1[si] += t_fw
            r2 *= c
            r2[sj] += t_fw
            lin = c * lin + t_fw * L.flat[s]
        elif best == 1:
            alpha.flat[s] += t_pw
            if t_pw == wv:
                alpha.flat[v] = 0.0  # drop step: source vertex leaves exactly
            else:
                alpha.flat[v] = max(alpha.flat[v] - t_pw, 0.0)
            r1[si] += t_pw
            r1[vi] -= t_pw
            r2[sj] += t_pw
            r2[vj] -= t_pw
            lin += t_pw * (L.flat[s] - L.flat[v])
        else:
            c = 1.0 + t_aw
            alpha *= c
            if t_aw == t_aw_max:
                alpha.flat[v] = 0.0
            else:
                alpha.flat[v] = max(alpha.flat[v] - t_aw, 0.0)
            r1 *= c
            r1[vi] -= t_aw
            r2 *= c
            r2[vj] -= t_aw
            lin = c * lin - t_aw * L.flat[v]

    # Steps keep the simplex sum invariant up to rounding; only clamp.
    np.maximum(alpha, 0.0, out=alpha)
    trace = SolveTrace(
        objective_per_iter=np.array(objs),
        gap_or_residual_per_iter=np.array(gaps),
        iters_used=len(objs),
        converged=converged,
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
    Initialization is the uniform coupling; the stop rule is the
    conditional-gradient duality gap falling below ``cfg.tol_gap``.
    """
    Cm = cost_entries(C)
    G1 = gram_entries(G1)
    G2 = gram_entries(G2)
    m, n = _check_shapes(Cm, G1, G2)
    alpha0 = np.full((m, n), 1.0 / (m * n))
    alpha, trace = _frank_wolfe_simplex(
        Cm, G1, G2, cfg, alpha0, cfg.max_outer_iters
    )
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


def _prox_simplex(H1, H2, rho, center, alpha0, max_iters, lip, mom):
    """Minimize the ADMM prox objective over the joint probability simplex.

        f(alpha) = ||alpha 1 - 1/m||^2_{H1} + ||alpha^T 1 - 1/n||^2_{H2}
                 + rho ||alpha + center||^2_F

    with ``H1 = lam1 G1 + nu1 G1*G1`` and ``H2 = lam2 G2 + nu2 G2*G2``: the
    penalized plan objective with a zero linear term, plus the proximal
    term.  ``f`` is ``2 rho``-strongly convex with a ``lip``-Lipschitz
    gradient, so Nesterov's accelerated projected gradient with the
    constant momentum ``mom`` converges linearly to the unique minimizer.
    Starts at ``alpha0`` and stops once a step moves alpha by at most
    ``_PROX_STEP_TOL`` in Frobenius norm, or after ``max_iters`` steps.
    Returns ``(alpha, capped)``, where ``capped`` says the budget ran out.
    """
    m, n = alpha0.shape
    x = y = alpha0
    for _ in range(max_iters):
        u1 = y.sum(axis=1) - 1.0 / m
        u2 = y.sum(axis=0) - 1.0 / n
        g = (2.0 * (H1 @ u1))[:, None] + 2.0 * (H2 @ u2) + 2.0 * rho * (y + center)
        x_new = _project_simplex((y - g / lip).ravel()).reshape(m, n)
        d = x_new - x
        x = x_new
        if np.linalg.norm(d) <= _PROX_STEP_TOL:
            return x, False
        y = x + mom * d
    return x, True


def solve_admm(C, G1, G2, cfg: SolverConfig):
    """Consensus ADMM with explicit nonnegative ``beta`` and ``gamma``.

    Each cycle minimizes the proximal penalized objective for ``alpha``
    over the simplex (accelerated projected gradient warm-started at the
    previous ``alpha``, at most ``cfg.max_inner_iters`` steps; see
    ``_prox_simplex``), fits ``beta`` and ``gamma`` exactly to the
    consensus relations ``alpha = G1 beta^T / m`` and
    ``alpha = gamma G2 / n`` with the column-wise NNLS of ``derive_beta``,
    then takes the plain dual ascent updates.  Stops when both primal
    residuals fall below ``cfg.tol_residual``; running out of budget
    returns ``converged=False`` rather than raising.  The trace's
    ``inner_cap_hits`` counts the cycles whose prox solve ran out of steps.
    """
    Cm = cost_entries(C)
    G1 = gram_entries(G1)
    G2 = gram_entries(G2)
    m, n = _check_shapes(Cm, G1, G2)
    rho = cfg.rho_admm

    # The prox objective's curvature depends only on the fixed grams.
    H1 = cfg.lambda1 * G1 + cfg.nu1 * (G1 * G1)
    H2 = cfg.lambda2 * G2 + cfg.nu2 * (G2 * G2)
    lip = 2.0 * (
        rho + n * np.linalg.eigvalsh(H1)[-1] + m * np.linalg.eigvalsh(H2)[-1]
    )
    sq = np.sqrt(2.0 * rho / lip)
    mom = (1.0 - sq) / (1.0 + sq)

    alpha = np.full((m, n), 1.0 / (m * n))
    beta = np.zeros((n, m))
    gamma = np.zeros((m, n))
    D1 = np.zeros((m, n))
    D2 = np.zeros((m, n))

    objs = []
    residuals = []
    cap_hits = 0
    converged = False

    def failure(what):
        trace = SolveTrace(
            np.array(objs), np.array(residuals), len(objs), False, cap_hits
        )
        return NumericalFailureError(f"{what} in consensus iteration", trace=trace)

    for _ in range(cfg.max_outer_iters):
        center = 0.5 * (
            D1 + D2 + Cm / rho - (gamma @ G2) / n - (G1 @ beta.T) / m
        )
        if not np.all(np.isfinite(center)):
            raise failure("non-finite prox center")
        alpha, capped = _prox_simplex(
            H1, H2, rho, center, alpha, cfg.max_inner_iters, lip, mom
        )
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
        rG1, rG2, rGG1, rGG2 = marginal_residuals(alpha, G1, G2)
        obj = float(np.sum(alpha * Cm))
        obj += cfg.lambda1 * rG1 + cfg.nu1 * rGG1
        obj += cfg.lambda2 * rG2 + cfg.nu2 * rGG2
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

def solve_emd_exact(C, m=None, n=None):
    """Exact discrete OT with uniform marginals.

    With m = n an optimal assignment divided by m is an optimal coupling
    (Birkhoff-von Neumann), so the square case is a rectangular assignment
    solve.  Otherwise the transportation LP goes to HiGHS.  Returns
    ``(coupling, objective)``.
    """
    Cm = cost_entries(C)
    if Cm.ndim != 2:
        raise ShapeError("cost matrix must be 2-d")
    mm, nn = Cm.shape
    if m is not None and m != mm:
        raise ShapeError(f"declared m={m} does not match cost rows {mm}")
    if n is not None and n != nn:
        raise ShapeError(f"declared n={n} does not match cost columns {nn}")
    m, n = mm, nn
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
