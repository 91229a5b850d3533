"""Convex l1 recovery programs and their unrolled iterations.

One first-order primal-dual engine drives four programs: PDHG (proximal
steps on both sides) in the restarted, reflected Halpern form of Lu & Yang
2024 ("Restarted Halpern PDHG for linear programming"), with the restart
constants and adaptive primal weight of PDLP (Applegate et al. 2021,
"Practical large-scale linear programming using primal-dual hybrid
gradient"):

    qcbp     min ||z||_1           s.t. ||A z - y||_2 <= eta
    bpdn     min lam ||z||_1 + ||A z - y||_2^2
    lasso    min ||A z - y||_2     s.t. ||z||_1 <= tau
    dantzig  min ||z||_1           s.t. ||A^T (A z - y)||_inf <= eta

At every restart the engine also solves the optimality system on the
current support and signs exactly, the solution polishing of OSQP (Stellato
et al. 2020, "OSQP: an operator splitting solver for quadratic programs",
section 5.2), and stops on the polished pair once one PDHG step from it
passes the stopping test.

Each program is min f(z) + g(K z - c) with one parameter (``PARAMETERS``):
f is the l1 norm, lam times it (bpdn) or the indicator of the tau ball
(lasso); g is the squared l2 norm (bpdn, lasso) or the indicator of the eta
ball; K z - c is A z - y, or A^T (A z - y) for dantzig. The lasso residual is
minimized through its square, which has the same minimizers; reports print
the plain residual. Each converged solution can be re-checked by an
independent verifier built on feasibility plus the Fenchel duality gap of a
supplied dual.

Every report also classifies the minimizer from the returned primal-dual
pair (Fuchs 2004; Zhang, Yin & Cheng 2015): rank-deficient columns on the
support mean it is not unique; full column rank plus a dual strictly inside
its bound off the support (qcbp, bpdn) mean it is unique, and so does a
lasso matrix of full column rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bounds import DEFAULT_SUPPORT_CAP, support_chunks, support_count
from .network import map_rows
from .numerics import (
    RANK_TOLERANCE,
    as_matrix,
    as_vector,
    check_measurement,
    check_signal,
    numerical_rank,
    read_only_copy,
    row_norms,
    spectral_norm,
    sphere_noise,
)

#: ``brute_force_sparse_fit`` refits exactly every support whose screened
#: residual lies within this multiple of (||y|| + smallest screened residual)
#: of the smallest.
SCREEN_RTOL = 1e-9


#: The parameter each program reads, by the name of its CLI flag.
PARAMETERS = {"qcbp": "eta", "bpdn": "lam", "lasso": "tau", "dantzig": "eta"}
VARIANTS = tuple(PARAMETERS)


@dataclass(frozen=True)
class ProblemSpec:
    """One of the four recovery programs, min f(z) + g(K z - c), with its one
    parameter (``PARAMETERS``)."""

    variant: str
    a: np.ndarray
    y: np.ndarray
    parameter: float

    def __post_init__(self):
        a, y = map(read_only_copy, check_measurement(self.a, self.y))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "y", y)
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        t = float(self.parameter)
        object.__setattr__(self, "parameter", t)
        if not (0 < t < math.inf or t == 0 and self.variant != "bpdn"):
            sign = "positive" if self.variant == "bpdn" else "non-negative"
            raise ValueError(f"{PARAMETERS[self.variant]} must be a {sign} finite number")
        if self.variant == "qcbp":
            # Infeasible iff y is farther than eta from range(A); the slack
            # absorbs round-off in the least-squares residual (eta = 0).
            coeffs = np.linalg.lstsq(a, y, rcond=None)[0]
            r = a @ coeffs - y
            gap = math.sqrt(r @ r)
            if gap > t + RANK_TOLERANCE * (1.0 + math.sqrt(y @ y)):
                raise ValueError(
                    f"qcbp is infeasible: y lies {gap:.6g} from the range of A, eta is {t:.6g}"
                )


@dataclass(frozen=True)
class SolveConfig:
    max_iters: int = 50_000
    tol: float = 1e-8

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max iters must be at least 1")
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be a positive finite number")


@dataclass(frozen=True)
class SolveReport:
    """Solver outcome. ``converged`` means both residuals dropped below the
    configured tolerance (bpdn's primal residual below tol * min(1, lam)).
    ``uniqueness`` is what the returned (solution, dual) pair certifies
    about other minimizers: "unique", "not_unique" or "undetermined"."""

    solution: np.ndarray
    objective: float
    primal_residual: float
    dual_residual: float
    iterations: int
    converged: bool
    uniqueness: str
    dual: np.ndarray


def _soft_threshold(t: np.ndarray, z: float) -> np.ndarray:
    """Shrink every entry of ``t`` towards zero by ``z >= 0``:
    sign(t) * max(|t| - z, 0), the prox of z ||.||_1."""
    return np.sign(t) * np.maximum(np.abs(t) - z, 0.0)


def _project_l1_ball(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto the l1 ball (``radius >= 0``) via the
    sorted-threshold rule."""
    mag = np.abs(v)
    if mag.sum() <= radius:
        return v.copy()
    if radius == 0.0:
        return np.zeros_like(v)
    drop = np.sort(mag)[::-1]
    cumulative = np.cumsum(drop)
    idx = np.arange(1, v.size + 1)
    positive = drop - (cumulative - radius) / idx > 0
    positive[0] = True  # its margin is radius > 0, which rounding loses when radius << max|v|
    k = positive.nonzero()[0][-1] + 1
    theta = (cumulative[k - 1] - radius) / k
    return _soft_threshold(v, theta)


def _project_l2_ball(u: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto the closed l2 ball (``radius >= 0``); a
    point inside the ball is returned itself, not a copy."""
    d = u - center
    nd = math.sqrt(d.dot(d))
    if nd <= radius:
        return u
    return center + d * (radius / nd)


def _project_linf_ball(u: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto the closed l-infinity ball (``radius >= 0``):
    a componentwise clamp. The ``clip`` method runs the ufunc that ``np.clip``
    wraps, so the bits (signed zeros included) are the same, without the
    wrapper's cost."""
    return center + (u - center).clip(-radius, radius)


def _data_term(problem: ProblemSpec) -> tuple[np.ndarray, np.ndarray]:
    """(K, c) of the data term g(K z - c): (A, y), or (A^T A, A^T y) for
    dantzig."""
    a, y = problem.a, problem.y
    if problem.variant == "dantzig":
        return a.T @ a, a.T @ y
    return a, y


def objective_value(problem: ProblemSpec, z: np.ndarray) -> float:
    resid = problem.a @ z - problem.y
    if problem.variant == "lasso":
        return float(np.linalg.norm(resid))
    l1 = float(np.abs(z).sum())
    if problem.variant == "bpdn":
        return problem.parameter * l1 + float(resid @ resid)
    return l1


def _variant_operators(problem: ProblemSpec):
    """(K, prox of f, prox of the conjugate g*) of the program, on the arrays
    ``ProblemSpec`` validated."""
    k, c = _data_term(problem)
    t = problem.parameter
    if problem.variant == "lasso":

        def prox_primal(z, step):
            return _project_l1_ball(z, t)

    elif problem.variant == "bpdn":

        def prox_primal(z, step):
            return _soft_threshold(z, step * t)

    else:  # weight 1: the step is the threshold
        prox_primal = _soft_threshold
    if problem.variant in ("bpdn", "lasso"):

        def prox_dual(u, s):
            return 2.0 * (u - s * c) / (s + 2.0)

    else:
        project = _project_l2_ball if problem.variant == "qcbp" else _project_linf_ball

        def prox_dual(u, s):
            return u - s * project(u / s, c, t)

    return k, prox_primal, prox_dual


# Restart constants of PDLP (Applegate et al. 2021), applied to the reflected
# Halpern iteration of Lu & Yang 2024: restart once the fixed-point residual
# has fallen to SUFFICIENT x its value at the restart point, or to NECESSARY x
# that value and rose in the last step, or after ARTIFICIAL x all steps so far.
_RESTART_SUFFICIENT = 0.2
_RESTART_NECESSARY = 0.8
_RESTART_ARTIFICIAL = 0.36
# Movement below this leaves the primal weight as it is.
_MOVEMENT_FLOOR = 1e-10


def _pdhg(problem: ProblemSpec, config: SolveConfig):
    """Restarted, reflected Halpern PDHG with an adaptive primal weight, from
    the origin (Lu & Yang 2024, "Restarted Halpern PDHG for linear
    programming"; primal weight after Applegate et al. 2021, PDLP).

    T is one PDHG step, primal first, with tau = step / omega and
    sigma = step omega, where step = 0.95 / ||K||. From the restart point w0
    the iterates are w_{j+1} = (j+1)/(j+2) (2 T(w_j) - w_j) + 1/(j+2) w0. A
    restart moves w0 to T(w_j) and sets omega <- sqrt(omega ||du|| / ||dz||)
    from the movement since the previous restart. The residuals, the
    stopping test and the returned pair are those of T(w_j). bpdn's primal
    residual bounds how far ||A^T u||_inf exceeds lam, so there it must fall
    below tol * min(1, lam). Before each restart, while the cap allows one
    more step, T is applied once to ``_polish``'s pair; if that step passes
    the stopping test, its T is returned and counts as an iteration.
    Otherwise the restart goes ahead unchanged.
    """
    k, prox_primal, prox_dual = _variant_operators(problem)
    step = 0.95 / max(spectral_norm(k), 1e-30)
    tol, max_iters, sqrt = config.tol, config.max_iters, math.sqrt
    p_tol = tol * min(1.0, problem.parameter) if problem.variant == "bpdn" else tol
    # On 6x8 operands numpy's dispatch costs more than the arithmetic: the
    # bound ``dot`` methods give the bits of ``@`` at a third of its cost
    # (k.dot(z) 0.48 us against 1.63 us, r.dot(r) 0.53 us against 1.18 us).
    kdot, ktdot = k.dot, k.T.dot
    omega = 1.0
    tau = sigma = step

    def pdhg_step(z, u, kz, ktu):
        """T(z, u), its movement, and the primal residual of the pair it
        returns; ``dual_residual(du, dkz)`` gives the dual one on demand."""
        z_new = prox_primal(z - tau * ktu, tau)
        kz_new = kdot(z_new)
        dz = z - z_new
        dkz = kz - kz_new
        u_new = prox_dual(u + sigma * (kz_new - dkz), sigma)
        ktu_new = ktdot(u_new)
        du = u - u_new
        r = dz / tau - (ktu - ktu_new)
        return z_new, u_new, kz_new, ktu_new, dz, du, dkz, sqrt(r.dot(r))

    def dual_residual(du, dkz):
        r = du / sigma - dkz
        return sqrt(r.dot(r))

    z0 = z = np.zeros(k.shape[1])
    u0 = u = np.zeros(k.shape[0])
    kz = kdot(z)
    ktu = ktdot(u)
    j = 0
    for iters in range(1, max_iters + 1):
        z_new, u_new, kz_new, ktu_new, dz, du, dkz, p_res = pdhg_step(z, u, kz, ktu)
        # The dual residual only decides the stop, so it is computed when the
        # primal test passes or the cap is reached: with this step's sigma
        # and movement, before a restart rebinds them.
        if p_res <= p_tol or iters == max_iters:
            d_res = dual_residual(du, dkz)
            if p_res <= p_tol and d_res <= tol:
                break
        fixed = sqrt(omega * dz.dot(dz) + du.dot(du) / omega)
        if j == 0:
            fixed0 = fixed
        elif (
            fixed <= _RESTART_SUFFICIENT * fixed0
            or (fixed <= _RESTART_NECESSARY * fixed0 and fixed > fixed_prev)
            or j >= _RESTART_ARTIFICIAL * iters
        ):
            polished = _polish(problem, z_new, u_new) if iters < max_iters else None
            if polished is not None:
                z_pol, u_pol = polished
                z_pol, u_pol, _, _, _, du_pol, dkz_pol, p_pol = pdhg_step(z_pol, u_pol, kdot(z_pol), ktdot(u_pol))
                d_pol = dual_residual(du_pol, dkz_pol)
                if p_pol <= p_tol and d_pol <= tol:
                    z_new, u_new, p_res, d_res = z_pol, u_pol, p_pol, d_pol
                    iters += 1
                    break
            dz, du = z_new - z0, u_new - u0
            moved_z, moved_u = sqrt(dz.dot(dz)), sqrt(du.dot(du))
            if moved_z > _MOVEMENT_FLOOR and moved_u > _MOVEMENT_FLOOR:
                omega = sqrt(omega * moved_u / moved_z)
                tau, sigma = step / omega, step * omega
            z0 = z = z_new
            u0 = u = u_new
            kz, ktu = kz_new, ktu_new
            j = 0
            continue
        fixed_prev = fixed
        anchor = 1.0 / (j + 2)
        z = z_new - dz  # the reflection 2 T(w) - w, then the pull towards w0
        z += anchor * (z0 - z)
        u = u_new - du
        u += anchor * (u0 - u)
        kz = kdot(z)
        ktu = ktdot(u)
        j += 1
    converged = p_res <= p_tol and d_res <= tol
    return z_new, u_new, p_res, d_res, iters, converged


def _polish(problem: ProblemSpec, z: np.ndarray, u: np.ndarray):
    """Exact primal-dual pair on the support S and signs s of ``z``, from the
    reduced optimality system (the solution polishing of OSQP, Stellato et
    al. 2020, section 5.2), or None when that system is singular or has no
    admissible answer. With G = A_S^T A_S and x = G^-1 A_S^T y, the first
    three programs share z_S = x - m G^-1 s: bpdn with m = lam / 2; lasso
    with m = mu / 2 > 0 putting z on the budget, or m = 0 when the budget
    is inactive, x has the signs s and A has full column rank; qcbp with
    m > 0 putting A z - y on the eta sphere. Dantzig takes as its active rows
    T the |S| rows of largest |u| (ties to the lower index), as at a vertex
    of the LP, and solves them against the rows and columns S of K = A^T A.
    The caller checks the pair with one PDHG step before trusting it.
    """
    a, y, t = problem.a, problem.y, problem.parameter
    support = np.flatnonzero(z)
    # More columns than rows make G singular, which rounding can hide from
    # np.linalg.solve.
    if not 0 < support.size <= a.shape[0]:
        return None
    sign = np.sign(z[support])
    polished = np.zeros_like(z)
    try:
        if problem.variant == "dantzig":
            active = np.sort(np.argsort(-np.abs(u), kind="stable")[: support.size])
            k, c = _data_term(problem)
            dual = np.zeros_like(u)
            polished[support] = np.linalg.solve(k[np.ix_(active, support)], c[active] + t * np.sign(u[active]))
            dual[active] = np.linalg.solve(k[np.ix_(support, active)], -sign)
            return polished, dual
        a_s = a[:, support]
        x_ls, g_sign = np.linalg.solve(a_s.T @ a_s, np.column_stack((a_s.T @ y, sign))).T
    except np.linalg.LinAlgError:
        return None
    if problem.variant == "bpdn":
        m = 0.5 * t
    elif problem.variant == "lasso":
        m = (sign @ x_ls - t) / (sign @ g_sign)
        if not m > 0:
            # An inactive budget leaves the least-squares fit on S, which
            # solves the lasso when its signs are s and A has full column
            # rank (a wide A skips the rank test).
            full_rank = a.shape[1] <= a.shape[0] and numerical_rank(a) == a.shape[1]
            if not (full_rank and np.array_equal(np.sign(x_ls), sign)):
                return None
            m = 0.0
    else:  # qcbp
        r0 = a_s @ x_ls - y
        v = a_s @ g_sign
        slack = t**2 - r0 @ r0
        if not slack > 0:
            return None
        m = math.sqrt(slack / (v @ v))
    polished[support] = x_ls - m * g_sign
    resid = a @ polished - y
    return polished, (resid / m if problem.variant == "qcbp" else 2.0 * resid)


def _uniqueness(problem: ProblemSpec, z: np.ndarray, u: np.ndarray, tol: float) -> str:
    """Classify the minimizer from a converged primal-dual pair.

    Entries above ``sqrt(tol)`` times the largest form the support S, so the
    verdict does not depend on the units of y and the parameter, and the
    off-support dual must clear its bound by the same relative margin. If A_S
    is numerically rank-deficient (``numerical_rank``), a null vector h moves
    z without changing A z and moves ||z||_1 linearly, so z + t h for small
    |t| of the right sign is another minimizer of every variant. For qcbp and
    bpdn, full column rank plus a dual strictly below its bound off S forces
    every minimizer onto S with the same A z, hence z itself. A lasso with A
    of full column rank minimizes a strictly convex ||A z - y||^2 over a
    convex set, so its minimizer is unique whatever the budget.
    """
    cut = math.sqrt(tol)
    a = problem.a
    support = np.abs(z) > cut * np.abs(z).max(initial=0.0)
    a_s = a[:, support]
    if a_s.shape[1] and numerical_rank(a_s) < a_s.shape[1]:
        return "not_unique"
    if problem.variant == "lasso" and numerical_rank(a) == a.shape[1]:
        return "unique"
    if problem.variant not in ("qcbp", "bpdn"):
        return "undetermined"
    bound = 1.0 if problem.variant == "qcbp" else problem.parameter
    off = np.abs(a[:, ~support].T @ u)
    if off.size and float(off.max()) >= bound * (1.0 - cut):
        return "undetermined"
    return "unique"


def solve(problem: ProblemSpec, config: SolveConfig = SolveConfig()) -> SolveReport:
    """Run the primal-dual engine once, from the origin, on one of the four
    programs. A report with ``converged=False`` means the iteration cap was
    hit, never a silently wrong answer; its uniqueness is undetermined.
    """
    z, u, p_res, d_res, iters, converged = _pdhg(problem, config)
    return SolveReport(
        solution=z,
        objective=objective_value(problem, z),
        primal_residual=p_res,
        dual_residual=d_res,
        iterations=iters,
        converged=converged,
        uniqueness=_uniqueness(problem, z, u, config.tol) if converged else "undetermined",
        dual=u,
    )


#: What each constrained program bounds by its parameter: (name, its value
#: at z given A and the residual r = A z - y).
_CONSTRAINTS = {
    "qcbp": ("||Az - y||_2", lambda a, z, r: float(np.linalg.norm(r))),
    "lasso": ("||z||_1", lambda a, z, r: float(np.abs(z).sum())),
    "dantzig": ("||A^T(Az - y)||_inf", lambda a, z, r: float(np.abs(a.T @ r).max(initial=0.0))),
}


def verify_optimality(problem: ProblemSpec, solution, dual, tol: float) -> list[str]:
    """Independent optimality check: primal feasibility plus the Fenchel
    duality gap of min f(z) + g(K z - c) at the supplied dual u,
    f(z) + g(K z - c) + u.c + g*(u) + f*(-K^T u). For the l1 objectives u is
    first scaled into the set where f* is zero; the lasso is checked on its
    squared residual. Returns human-readable violations; empty means the
    point passes at tolerance ``tol``."""
    z = as_vector(solution, "solution")
    u = as_vector(dual, "dual")
    variant, t = problem.variant, problem.parameter
    k, c = _data_term(problem)
    resid = problem.a @ z - problem.y
    violations = []
    if variant in _CONSTRAINTS:
        name, measure = _CONSTRAINTS[variant]
        feas = measure(problem.a, z, resid) - t
        if feas > tol:
            violations.append(f"infeasible: {name} exceeds {PARAMETERS[variant]} by {feas:.3e}")
    sub = float(np.abs(k.T @ u).max(initial=0.0))
    if variant == "lasso":
        primal, f_conj = float(resid @ resid), t * sub
    else:
        primal, f_conj = objective_value(problem, z), 0.0
        bound = t if variant == "bpdn" else 1.0
        if sub > bound * (1.0 + tol):
            ktu = "A^T A u" if variant == "dantzig" else "A^T u"
            violations.append(f"dual subgradient bound violated: ||{ktu}||_inf = {sub:.6f}")
        u = u / max(1.0, sub / bound)
    if variant in ("bpdn", "lasso"):
        g_conj = float(u @ u) / 4.0
    else:  # eta times the dual of the ball's norm: l2 for qcbp, l1 for dantzig
        g_conj = t * float(np.linalg.norm(u) if variant == "qcbp" else np.abs(u).sum())
    gap = primal - (-float(u @ c) - g_conj - f_conj)
    scale = 1.0 + abs(primal)
    if gap > tol * scale:
        violations.append(f"duality gap {gap:.3e} above {tol * scale:.3e}")
    return violations


def brute_force_sparse_fit(
    a, y, s: int, cap: int = DEFAULT_SUPPORT_CAP
) -> tuple[tuple[int, ...], np.ndarray, float]:
    """Exhaustive least squares over every support of size <= s.

    Returns (support, coefficients on that support, residual l2 norm) for the
    global minimizer, ties broken by the lexicographically smallest support —
    so the answer does not depend on enumeration order. Rejected when the
    number of supports, sum of C(n, k) for k = 1..s, exceeds ``cap``.

    Every support is first screened by its pseudo-inverse residual, one
    stacked ``pinv`` per chunk of supports. Only the supports whose screened
    residual is within ``SCREEN_RTOL * (||y|| + r_min)`` of the smallest,
    r_min, are refit exactly with ``lstsq``, and the winner is chosen among
    those refits alone: when s >= m every full-rank support fits y to within
    rounding, so the screened residuals cannot rank them. For y = 0 every
    support ties and is refit, so the screen only adds to the cost.
    """
    a, y = check_measurement(a, y)
    n = a.shape[1]
    if not 0 <= s <= n:
        raise ValueError(f"sparsity {s} out of range [0, {n}]")
    support_count(n, range(1, s + 1), cap)

    def chunks():
        return (c for size in range(1, s + 1) for c in support_chunks(n, size))

    rows = a.T
    screened = []
    for supports in chunks():
        cols = rows[supports].transpose(0, 2, 1)  # (chunk, m, size)
        fit = cols @ (np.linalg.pinv(cols) @ y)[:, :, None]
        screened.append(np.linalg.norm(fit[:, :, 0] - y, axis=1))
    best_support: tuple[int, ...] = ()
    best_coeffs = np.zeros(0)
    best_res = float(np.linalg.norm(y))
    r_min = min((float(r.min()) for r in screened), default=best_res)
    keep = r_min + SCREEN_RTOL * (best_res + r_min)
    for supports, residuals in zip(chunks(), screened):
        for row in supports[residuals <= keep]:
            support = tuple(row.tolist())
            cols = a[:, support]
            coeffs, _, _, _ = np.linalg.lstsq(cols, y, rcond=None)
            res = float(np.linalg.norm(cols @ coeffs - y))
            if res < best_res or (res == best_res and support < best_support):
                best_support = support
                best_coeffs = coeffs
                best_res = res
    return best_support, best_coeffs, best_res


def _check_shrinkage(lam: float, step_bound: float) -> None:
    if not 0 < step_bound < math.inf:
        raise ValueError("step bound L must be a positive finite number")
    if not 0 <= lam < math.inf:
        raise ValueError("lambda must be a non-negative finite number")


def ista_run(a, y, lam: float, step_bound: float, iters: int) -> np.ndarray:
    """Iterative shrinkage-thresholding trajectory for
    min lam ||z||_1 + (1/2) ||A z - y||_2^2:
    x <- eta_{lam/L}(x - (1/L) A^T (A x - y)).

    Returns the (iters + 1, n) array of iterates from the zero start. With
    L >= sigma_max(A)^2 the objective is non-increasing along the trajectory.
    """
    a, y = check_measurement(a, y)
    _check_shrinkage(lam, step_bound)
    if iters < 0:
        raise ValueError("iteration count must be non-negative")
    x = np.zeros(a.shape[1])
    trajectory = np.empty((iters + 1, x.size))
    trajectory[0] = x
    threshold = lam / step_bound
    adot, atdot = a.dot, a.T.dot  # the bits of ``@`` at less cost, as in ``_pdhg``
    for i in range(1, iters + 1):
        x = _soft_threshold(x - atdot(adot(x) - y) / step_bound, threshold)
        trajectory[i] = x
    return trajectory


def ista_objective(a, y, lam: float, z) -> float:
    a, y = check_measurement(a, y)
    resid = a @ as_vector(z) - y
    return lam * float(np.abs(z).sum()) + 0.5 * float(resid @ resid)


@dataclass(frozen=True)
class Lista:
    """Unrolled shrinkage iteration with one tied pair of matrices, applied
    ``depth`` times: x <- eta_threshold(W1 x + W2 y)."""

    w1: np.ndarray
    w2: np.ndarray
    threshold: float
    depth: int

    def __post_init__(self):
        w1, w2 = as_matrix(self.w1, "w1"), as_matrix(self.w2, "w2")
        if w1.shape[0] != w1.shape[1]:
            raise ValueError(f"w1 must be square, got {w1.shape}")
        if w2.shape[0] != w1.shape[0]:
            raise ValueError(f"w2 rows {w2.shape[0]} do not match state size {w1.shape[0]}")
        if not self.threshold >= 0:
            raise ValueError("threshold must be non-negative")
        if self.depth < 0:
            raise ValueError("depth must be non-negative")
        object.__setattr__(self, "w1", read_only_copy(w1))
        object.__setattr__(self, "w2", read_only_copy(w2))


def lista_from_ista(a, lam: float, step_bound: float, depth: int) -> Lista:
    """Unroll ``depth`` shrinkage iterations with the matrices the plain
    iteration induces: W1 = I - (1/L) A^T A, W2 = (1/L) A^T."""
    a = as_matrix(a, "measurement matrix")
    _check_shrinkage(lam, step_bound)
    return Lista(np.eye(a.shape[1]) - (a.T @ a) / step_bound, a.T / step_bound, lam / step_bound, depth)


def lista_eval(net: Lista, y) -> np.ndarray:
    """``net.depth`` shrinkage steps from zeros."""
    _, y = check_measurement(net.w2.T, y)
    b = net.w2 @ y
    x = np.zeros(net.w1.shape[0])
    w1dot = net.w1.dot
    for _ in range(net.depth):
        x = _soft_threshold(w1dot(x) + b, net.threshold)
    return x


def robustness_scan(
    f: Callable[[np.ndarray], np.ndarray],
    a,
    x,
    noise_levels: Sequence[float],
    trials: int,
    seed: int,
) -> list[tuple[float, int, float]]:
    """Perturbation-gain table of a reconstruction map: for every noise level
    and trial, draw e uniformly on the sphere of that radius and record
    ||f(Ax + e) - f(Ax)||_2 / ||e||_2. Deterministic given the seed.

    ``f`` maps a batch of measurements to one output row each, like the map
    of ``check_positive_homogeneity``; it is called through ``map_rows``."""
    a, x = check_signal(a, x)
    radii, e = sphere_noise(np.random.default_rng(seed), noise_levels, trials, a.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below
        norm_e = row_norms(e)
        if not norm_e.all():  # the squared entries underflow
            raise ValueError(f"noise level {radii[norm_e.argmin()]:g} is too small: ||e|| rounds to 0")
        y = a @ x
        base = map_rows(f, y[None, :])
        gains = row_norms(map_rows(f, y + e) - base) / norm_e
    finite = np.isfinite(norm_e) & np.isfinite(gains)
    if not finite.all():  # a squared entry or the map overflows
        raise ValueError(f"noise level {radii[finite.argmin()]:g} is too large: the gain overflows")
    return [(r, i % trials, g) for i, (r, g) in enumerate(zip(radii.tolist(), gains.tolist()))]


def selection_discontinuity_demo(y2: float) -> tuple[float, bool]:
    """Exact minimizer of min_{z1} |z1| + |y2 (1 - z1)| for y2 in (0, 2).

    The solution jumps from z1 = 0 (y2 < 1) to z1 = 1 (y2 > 1); at y2 = 1 the
    whole interval [0, 1] is optimal, flagged via the multiplicity bit with
    z1 = 0 returned by convention. No continuous selection can bridge the
    jump.
    """
    if not 0.0 < y2 < 2.0:
        raise ValueError(f"y2 must lie in (0, 2), got {y2}")
    if y2 < 1.0:
        return 0.0, False
    if y2 > 1.0:
        return 1.0, False
    return 0.0, True
