"""Solvers for P w = s with P Hermitian positive definite, over stacks of systems.

Direct Cholesky plus four iterative schemes: Gauss-Seidel, Jacobi
over-relaxation, conjugate gradient, and Jacobi-preconditioned CG.  P has
shape (..., n, n): any leading dimensions index independent systems (one per
Monte-Carlo trial), and no leading dimension is one system.  The rhs has the
same leading dimensions and is one vector per system, (..., n), or several,
(..., n, m); one dimension fewer than P means vectors.  Unless called with
`trace=False`, the solvers record a per-iteration least-square error trace
||P w^(t) - s||_F^2 / ||s||_F^2 per system.  The iterative schemes are step
generators run by one driver, `_iterate`.

Element-wise steps, stacked matrix products, numpy's stacked
`cholesky`/`inv` (one LAPACK call per system) and `np.vecdot` norms (one
BLAS dot per system) round every system exactly as a solve of that system
alone.
"""

from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .errors import ConfigurationError, NonFiniteError, NotHpdError

HERMITIAN_RTOL = 1e-12
# A PCG column whose r^H z is below the smallest normal float has converged:
# iterating on, its recurrences underflow to zero curvature on an HPD system.
RZ_FLOOR = np.finfo(float).tiny

# Library defaults; the experiment config (SolverConfig) takes its own from here.
DEFAULT_T = 5
DEFAULT_OMEGA = 1.0                # JOR relaxation (1 = classical Jacobi)


@dataclass(frozen=True)
class HpdSystem:
    """Hermitian positive-definite matrices (..., n, n) with finite right-hand sides."""

    P: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        P = np.asarray(self.P)
        if P.ndim < 2 or P.shape[-1] != P.shape[-2]:
            raise NotHpdError(f"P must be square, got shape {P.shape}")
        rhs = np.asarray(self.rhs)
        if (rhs.ndim not in (P.ndim - 1, P.ndim)
                or rhs.shape[:P.ndim - 1] != P.shape[:-1]):
            raise NotHpdError(
                f"rhs shape {rhs.shape} incompatible with P shape {P.shape}")
        # Per system: the tolerance scales with that system's largest entry,
        # and NaN fails the comparison, so a NaN entry is rejected too.
        scale = np.maximum(1.0, np.abs(P).max(axis=(-2, -1)))
        asym = np.abs(P - herm(P)).max(axis=(-2, -1))
        if not np.all(asym <= HERMITIAN_RTOL * scale):
            raise NotHpdError("P is not Hermitian to machine precision")
        if not np.isfinite(rhs).all():
            raise NonFiniteError("right-hand side holds an inf or NaN")


@dataclass
class SolverOutcome:
    """Solutions, iteration count, residual telemetry, and convergence flags.

    `w` has the rhs's shape.  `residual_trace` (..., iterations + 1), index 0
    the starting point w = 0, and `converged` (...), true where the final LS
    error does not exceed the initial one, are None when the trace is off.
    A system whose Krylov residual vanishes before the others' holds its
    final iterate and error.
    """

    w: np.ndarray
    iterations: int
    residual_trace: np.ndarray | None
    converged: np.ndarray | None
    iterates: list = field(default_factory=list)  # populated on request only


def herm(A: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix in a stack."""
    return np.swapaxes(A.conj(), -1, -2)


def sq_norms(X: np.ndarray) -> np.ndarray:
    """||X_i||_F^2 of each matrix in a stack (...), one BLAS dot per matrix.

    Each matrix is flattened in C order, a view where its strides allow, as
    `np.vdot` flattens it, and `np.vecdot` makes the same `zdotc` call per
    row: a norm rounds as the matrix's own `np.vdot`, whatever stack it sits
    in.
    """
    f = X.reshape(*X.shape[:-2], -1)
    return np.vecdot(f, f).real


def _prepare(sys: HpdSystem):
    """Promote the rhs to a (..., n, m) working array."""
    s = np.asarray(sys.rhs, dtype=complex)
    is_vec = s.ndim < np.ndim(sys.P)
    return (s[..., None] if is_vec else s), is_vec


def _ls_error(P, w, s2, snorm2) -> np.ndarray:
    r = P @ w
    r -= s2
    return sq_norms(r) / snorm2


def _rhs_norms(s2) -> np.ndarray:
    snorm2 = sq_norms(s2)
    return np.where(snorm2 > 0, snorm2, 1.0)


def _finish(w, is_vec, iterations, trace, iterates):
    """The outcome; `trace` (..., iterations + 1) LS errors or None."""
    if is_vec:
        w = w[..., 0]
        iterates = [x[..., 0] for x in iterates]
    converged = None if trace is None else trace[..., -1] <= trace[..., 0]
    return SolverOutcome(w=w, iterations=iterations, residual_trace=trace,
                         converged=converged, iterates=iterates)


def direct_solve(sys: HpdSystem, trace: bool = True) -> SolverOutcome:
    """Exact solve via Cholesky P = L L^H; reference oracle for the iterative paths.

    Computes what `flops.flops_direct` charges: the Cholesky factor, the
    triangular inverse L^{-1}, and w = L^{-H} (L^{-1} s).
    """
    P = np.asarray(sys.P, dtype=complex)
    s2, is_vec = _prepare(sys)
    try:
        L = np.linalg.cholesky(P)
    except np.linalg.LinAlgError as exc:
        raise NotHpdError(f"Cholesky breakdown: {exc}") from exc
    Linv = np.linalg.inv(L)
    w = herm(Linv) @ (Linv @ s2)
    errors = _ls_error(P, w, s2, _rhs_norms(s2))[..., None] if trace else None
    return _finish(w, is_vec, 0, errors, [])


def _iterate(sys: HpdSystem, T: int, keep_iterates, trace,
             steps) -> SolverOutcome:
    """Run at most T iterations of `steps(P, s, w)`, a generator of iterates,
    from w = 0.

    Stops early only when the generator ends (a Krylov method whose
    residuals have all vanished).  With `trace`, records the LS error of
    every iterate in one stacked pass; converged means the final error does
    not exceed the initial.  Overflow warnings are off: a diverged iterate
    stays non-finite, so an inf or NaN in the final iterate or the trace
    raises `NonFiniteError`.
    """
    if T < 1:
        raise ConfigurationError(f"iteration count T must be >= 1, got {T}")
    P = np.asarray(sys.P, dtype=complex)
    s2, is_vec = _prepare(sys)
    # ws[t] holds iterate t of every system, when any but the last is read.
    keep = trace or keep_iterates
    ws = np.zeros((T + 1 if keep else 1, *s2.shape), dtype=complex)
    w, iterations = ws[0], 0
    with np.errstate(over="ignore", invalid="ignore"):
        for w in islice(steps(P, s2, w), T):
            iterations += 1
            if keep:
                ws[iterations] = w
        ws = ws[:iterations + 1]
        # P broadcasts over the leading iteration axis, moved last after.
        errors = (np.moveaxis(_ls_error(P, ws, s2, _rhs_norms(s2)), 0, -1)
                  if trace else None)
    if not np.isfinite(w).all() or trace and not np.isfinite(errors).all():
        raise NonFiniteError(f"iterate diverged to inf or NaN in {iterations} steps")
    return _finish(w, is_vec, iterations, errors,
                   list(ws[1:]) if keep_iterates else [])


def _check_diag(d) -> np.ndarray:
    if np.any(d == 0):
        where = tuple(int(i) for i in np.argwhere(d == 0)[0])
        raise NotHpdError(f"zero diagonal entry at {where}")
    return d


def _diag(P) -> np.ndarray:
    return np.diagonal(P, axis1=-2, axis2=-1)


def gs_solve(sys: HpdSystem, T: int, keep_iterates: bool = False,
             trace: bool = True) -> SolverOutcome:
    """Gauss-Seidel sweeps w <- (D + Lo)^{-1} (s - Up w), P = Lo + D + Up.

    Computes what `flops.flop_model("gs", K, T)` charges: (D + Lo)^{-1}
    formed once, then one dense matrix product per sweep.
    """
    def steps(P, s, w):
        _check_diag(_diag(P))
        DLinv, Up = np.linalg.inv(np.tril(P)), np.triu(P, 1)
        while True:
            w = DLinv @ (s - Up @ w)
            yield w

    return _iterate(sys, T, keep_iterates, trace, steps)


def jor_solve(sys: HpdSystem, T: int, omega: float = DEFAULT_OMEGA,
              keep_iterates: bool = False, trace: bool = True) -> SolverOutcome:
    """Jacobi over-relaxation: w <- w + omega * D^{-1} (s - P w)."""
    if omega <= 0:
        raise ConfigurationError(f"relaxation omega must be positive, got {omega}")

    def steps(P, s, w):
        d = _check_diag(_diag(P))[..., None]
        while True:
            w = w + omega * ((s - P @ w) / d)
            yield w

    return _iterate(sys, T, keep_iterates, trace, steps)


def _col_dot(a, b) -> np.ndarray:
    """Re(a_j^H b_j) per column j, shaped (..., 1, m) to scale columns."""
    return np.einsum("...ij,...ij->...j", a.conj(), b).real[..., None, :]


def _pcg_steps(c):
    """PCG recurrence with diagonal preconditioner C (..., n, 1); None is CG.

    The search direction is built from z = C^{-1} r, with r^H z inner
    products.  A column whose r^H z is below `RZ_FLOOR` (zero, or underflowed
    after convergence) takes zero steps from then on, so it holds its iterate
    while the other columns go on.
    """
    def steps(P, s, w):
        r = s - P @ w
        z = r if c is None else r / c
        m = z.copy()
        rz = _col_dot(r, z)
        live = rz >= RZ_FLOOR
        while np.any(live):
            q = P @ m
            curv = _col_dot(m, q)
            if np.any((curv <= 0) & live):
                raise NotHpdError(
                    "nonpositive direction curvature encountered; P is not HPD")
            alpha = np.where(live, rz / np.where(curv > 0, curv, 1.0), 0.0)
            w = w + alpha * m
            r = r - alpha * q
            z = r if c is None else r / c
            rz_new = _col_dot(r, z)
            beta = np.where(live, rz_new / np.where(live, rz, 1.0), 0.0)
            m = z + beta * m
            rz = rz_new
            live = rz >= RZ_FLOOR
            yield w

    return steps


def cg_solve(sys: HpdSystem, T: int, keep_iterates: bool = False,
             trace: bool = True) -> SolverOutcome:
    """Classical conjugate gradient; exact within n iterations in exact arithmetic."""
    return _iterate(sys, T, keep_iterates, trace, _pcg_steps(None))


def jacpcg_solve(sys: HpdSystem, T: int, precond_diag=None,
                 keep_iterates: bool = False,
                 trace: bool = True) -> SolverOutcome:
    """Standard PCG with the Jacobi preconditioner C = diag(P) by default.

    Pass `precond_diag` ((n,) or (..., n)) to override the preconditioner;
    C = I gives CG.  C must be positive, else `NotHpdError`.
    """
    c = _diag(np.asarray(sys.P)).real if precond_diag is None else precond_diag
    c = np.asarray(c, dtype=float)
    if not np.all(c > 0):
        raise NotHpdError("nonpositive preconditioner entry; P is not HPD")
    return _iterate(sys, T, keep_iterates, trace, _pcg_steps(c[..., None]))


ITERATIVE_SOLVERS = {
    "gs": gs_solve,
    "jor": jor_solve,
    "cg": cg_solve,
    "jacpcg": jacpcg_solve,
}

METHODS = ("direct", *ITERATIVE_SOLVERS)
"""Every precoding method name; the single list the package validates against."""


def solve(sys: HpdSystem, method: str, T: int = DEFAULT_T,
          omega: float = DEFAULT_OMEGA, trace: bool = True) -> SolverOutcome:
    """Solve every system of P w = s with the named method; T iterations unless direct.

    omega goes to JOR only.  `trace=False` skips the LS-error trace (and
    `converged`).  The solvers are looked up at call time, so a replaced
    `direct_solve` or `ITERATIVE_SOLVERS` entry is the one that runs.
    """
    if method == "direct":
        return direct_solve(sys, trace=trace)
    if method not in ITERATIVE_SOLVERS:
        raise ConfigurationError(
            f"unknown method {method!r}; expected one of {METHODS}")
    options = {"omega": omega} if method == "jor" else {}
    return ITERATIVE_SOLVERS[method](sys, T, trace=trace, **options)
