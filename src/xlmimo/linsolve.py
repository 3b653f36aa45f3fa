"""Solvers for P w = s with P Hermitian positive definite.

Direct Cholesky plus four iterative schemes: Gauss-Seidel, Jacobi
over-relaxation, conjugate gradient, and Jacobi-preconditioned CG.  All
solvers accept one right-hand side (shape (n,)) or several (shape (n, m))
and record a per-iteration least-square error trace
||P w^(t) - s||_F^2 / ||s||_F^2.  The iterative schemes are step generators
run by one driver, `_iterate`.
"""

from dataclasses import dataclass, field
from itertools import islice

import numpy as np
import scipy.linalg

from .errors import ConfigurationError, NotHpdError, SplittingError

HERMITIAN_RTOL = 1e-12
CONDITION_SIZE_CAP = 512

# Library defaults; the experiment config (SolverConfig) takes its own from here.
DEFAULT_T = 5
DEFAULT_OMEGA = 1.0                # JOR relaxation (1 = classical Jacobi)
PCG_VARIANTS = ("textbook", "algorithm")
DEFAULT_PCG_VARIANT = "textbook"


@dataclass(frozen=True)
class HpdSystem:
    """A Hermitian positive-definite matrix with right-hand side(s)."""

    P: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        P = np.asarray(self.P)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise NotHpdError(f"P must be square, got shape {P.shape}")
        rhs = np.asarray(self.rhs)
        if rhs.shape[0] != P.shape[0] or rhs.ndim not in (1, 2):
            raise NotHpdError(
                f"rhs shape {rhs.shape} incompatible with n={P.shape[0]}")
        scale = max(1.0, float(np.abs(P).max()))
        # NaN fails the comparison, so a NaN entry is rejected too.
        if not float(np.abs(P - P.conj().T).max()) <= HERMITIAN_RTOL * scale:
            raise NotHpdError("P is not Hermitian to machine precision")

    @property
    def n(self) -> int:
        return self.P.shape[0]


@dataclass
class SolverOutcome:
    """Solution, iteration count, residual telemetry, and convergence flag."""

    w: np.ndarray
    iterations: int
    residual_trace: np.ndarray  # length iterations + 1; index 0 = initial guess
    converged: bool
    iterates: list = field(default_factory=list)  # populated on request only


def _prepare(sys: HpdSystem, w0):
    """Promote rhs/initial guess to 2-D working arrays."""
    s = np.asarray(sys.rhs, dtype=complex)
    was_1d = s.ndim == 1
    s2 = s[:, None] if was_1d else s
    if w0 is None:
        w = np.zeros_like(s2)
    else:
        w = np.asarray(w0, dtype=complex)
        w = w[:, None] if w.ndim == 1 else w
        if w.shape != s2.shape:
            raise ConfigurationError(
                f"w0 shape {w.shape} does not match rhs shape {s2.shape}")
        w = w.copy()
    snorm2 = float(np.vdot(s2, s2).real)
    return s2, w, was_1d, (snorm2 if snorm2 > 0 else 1.0)


def _ls_error(P, w, s2, snorm2) -> float:
    r = P @ w - s2
    return float(np.vdot(r, r).real / snorm2)


def _finish(w, was_1d, trace, converged, iterates):
    if was_1d:
        w = w[:, 0]
        iterates = [x[:, 0] for x in iterates]
    return SolverOutcome(w=w, iterations=len(trace) - 1,
                         residual_trace=np.asarray(trace),
                         converged=converged, iterates=iterates)


def direct_solve(sys: HpdSystem) -> SolverOutcome:
    """Exact solve via Cholesky P = M M^H; reference oracle for the iterative paths."""
    s2, _, was_1d, snorm2 = _prepare(sys, None)
    try:
        factor = scipy.linalg.cho_factor(np.asarray(sys.P, dtype=complex),
                                         lower=True)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise NotHpdError(f"Cholesky breakdown: {exc}") from exc
    w = scipy.linalg.cho_solve(factor, s2)
    return _finish(w, was_1d, [_ls_error(sys.P, w, s2, snorm2)], True, [])


def _iterate(sys: HpdSystem, T: int, eps, w0, keep_iterates,
             steps) -> SolverOutcome:
    """Run at most T iterations of `steps(P, s, w)`, a generator of iterates.

    Stops early once sqrt(LS error) <= eps, or when the generator ends (a
    Krylov method whose residual is exactly zero).  Without eps, converged
    means the final LS error does not exceed the initial one.
    """
    if T < 1:
        raise ConfigurationError(f"iteration count T must be >= 1, got {T}")
    P = np.asarray(sys.P, dtype=complex)
    s2, w, was_1d, snorm2 = _prepare(sys, w0)
    trace = [_ls_error(P, w, s2, snorm2)]
    iterates = []
    for w in islice(steps(P, s2, w), T):
        trace.append(_ls_error(P, w, s2, snorm2))
        if keep_iterates:
            iterates.append(w.copy())
        if eps is not None and np.sqrt(trace[-1]) <= eps:
            break
    converged = (np.sqrt(trace[-1]) <= eps if eps is not None
                 else trace[-1] <= trace[0])
    return _finish(w, was_1d, trace, converged, iterates)


def _check_diag(d) -> np.ndarray:
    if np.any(d == 0):
        raise SplittingError(
            f"zero diagonal entry at index {int(np.argmin(np.abs(d)))}")
    return d


def gs_solve(sys: HpdSystem, T: int, w0=None, eps: float | None = None,
             keep_iterates: bool = False) -> SolverOutcome:
    """Gauss-Seidel sweeps, realized as forward substitution with (D + Lo)."""
    def steps(P, s, w):
        _check_diag(np.diag(P))
        DL, Up = np.tril(P), np.triu(P, 1)
        while True:
            w = scipy.linalg.solve_triangular(DL, s - Up @ w, lower=True)
            yield w

    return _iterate(sys, T, eps, w0, keep_iterates, steps)


def jor_solve(sys: HpdSystem, T: int, omega: float = DEFAULT_OMEGA, w0=None,
              eps: float | None = None,
              keep_iterates: bool = False) -> SolverOutcome:
    """Jacobi over-relaxation: w <- w + omega * D^{-1} (s - P w)."""
    if omega <= 0:
        raise ConfigurationError(f"relaxation omega must be positive, got {omega}")

    def steps(P, s, w):
        d = _check_diag(np.diag(P))[:, None]
        while True:
            w = w + omega * ((s - P @ w) / d)
            yield w

    return _iterate(sys, T, eps, w0, keep_iterates, steps)


def _col_dot(a, b) -> np.ndarray:
    return np.einsum("ij,ij->j", a.conj(), b).real


def _pcg_steps(c_res, c_dir):
    """PCG recurrence with diagonal preconditioner C applied on one side.

    `c_dir` (textbook PCG) divides the residual into the search direction,
    z = C^{-1} r, with r^H z inner products.  `c_res` (the paper's
    algorithm) keeps the residual itself preconditioned, r = C^{-1}(s - P w),
    with r^H r inner products.  Both None is plain CG; a side without C skips
    its division.
    """
    def steps(P, s, w):
        r = s - P @ w
        if c_res is not None:
            r = r / c_res
        z = r if c_dir is None else r / c_dir
        m = z.copy()
        rz = _col_dot(r, z)
        while np.any(rz > 0):
            q = P @ m
            if c_res is not None:
                q = q / c_res
            curv = _col_dot(m, q)
            if np.any((curv <= 0) & (rz > 0)):
                raise NotHpdError(
                    "nonpositive direction curvature encountered; P is not HPD")
            alpha = np.where(rz > 0, rz / np.where(curv > 0, curv, 1.0), 0.0)
            w = w + alpha * m
            r = r - alpha * q
            z = r if c_dir is None else r / c_dir
            rz_new = _col_dot(r, z)
            beta = np.where(rz > 0, rz_new / np.where(rz > 0, rz, 1.0), 0.0)
            m = z + beta * m
            rz = rz_new
            yield w

    return steps


def cg_solve(sys: HpdSystem, T: int, eps: float | None = None, w0=None,
             keep_iterates: bool = False) -> SolverOutcome:
    """Classical conjugate gradient; exact within n iterations in exact arithmetic."""
    return _iterate(sys, T, eps, w0, keep_iterates, _pcg_steps(None, None))


def jacpcg_solve(sys: HpdSystem, T: int, eps: float | None = None, w0=None,
                 precond_diag=None, keep_iterates: bool = False,
                 variant: str = DEFAULT_PCG_VARIANT) -> SolverOutcome:
    """Diagonally preconditioned CG with C = diag(P) by default.

    `variant="textbook"` runs standard PCG with r^H z inner products;
    `variant="algorithm"` runs the recurrences on the preconditioned residual
    r = C^{-1}(s - P w) with beta = r+^H r+ / r^H r.  Both coincide with CG
    for C = I.  Pass `precond_diag` to override the preconditioner.
    """
    if variant not in PCG_VARIANTS:
        raise ConfigurationError(f"unknown PCG variant {variant!r}")
    c = np.diag(sys.P).real if precond_diag is None else precond_diag
    c = _check_diag(np.asarray(c, dtype=float))[:, None]
    steps = _pcg_steps(c, None) if variant == "algorithm" else _pcg_steps(None, c)
    return _iterate(sys, T, eps, w0, keep_iterates, steps)


def condition_number(P: np.ndarray) -> float:
    """Spectral condition number lambda_max / lambda_min of an HPD matrix."""
    P = np.asarray(P)
    if P.shape[0] > CONDITION_SIZE_CAP:
        raise ConfigurationError(
            f"dense condition number capped at n={CONDITION_SIZE_CAP}, "
            f"got n={P.shape[0]}")
    vals = np.linalg.eigvalsh(P)
    if vals[0] <= 0:
        raise NotHpdError(f"min eigenvalue {vals[0]:.3e} is not positive")
    return float(vals[-1] / vals[0])


ITERATIVE_SOLVERS = {
    "gs": gs_solve,
    "jor": jor_solve,
    "cg": cg_solve,
    "jacpcg": jacpcg_solve,
}

METHODS = ("direct", *ITERATIVE_SOLVERS)
"""Every precoding method name; the single list the package validates against."""


def solve(sys: HpdSystem, method: str, T: int = DEFAULT_T,
          omega: float = DEFAULT_OMEGA,
          pcg_variant: str = DEFAULT_PCG_VARIANT) -> SolverOutcome:
    """Solve P w = s with the named method; T iterations unless direct.

    Each scheme gets only its own option: omega goes to JOR, pcg_variant to
    Jac-PCG.  The solvers are looked up at call time, so a replaced
    `direct_solve` or `ITERATIVE_SOLVERS` entry is the one that runs.
    """
    if method == "direct":
        return direct_solve(sys)
    if method not in ITERATIVE_SOLVERS:
        raise ConfigurationError(
            f"unknown method {method!r}; expected one of {METHODS}")
    options = {"jor": {"omega": omega},
               "jacpcg": {"variant": pcg_variant}}.get(method, {})
    return ITERATIVE_SOLVERS[method](sys, T, **options)
