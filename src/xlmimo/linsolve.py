"""Solvers for P w = s with P Hermitian positive definite, over stacks of systems.

Direct Cholesky plus four iterative schemes: Gauss-Seidel, Jacobi
over-relaxation, conjugate gradient, and Jacobi-preconditioned CG.  P has
shape (..., n, n): any leading dimensions index independent systems (one per
Monte-Carlo trial), and no leading dimension is one system.  The rhs has the
same leading dimensions and is one vector per system, (..., n), or several,
(..., n, m); one dimension fewer than P means vectors.  Unless called with
`trace=False`, the solvers record a per-iteration least-square error trace
||P w^(t) - s||_F^2 / ||s||_F^2 per system.  Every method is a step
generator run by one driver, `_iterate`; direct takes one step.

Each check has one home.  `HpdSystem` checks the input: P square, Hermitian,
with a Cholesky factor, and a finite rhs, so all five methods reject a system
that is not HPD before any step.  `_iterate` checks the output: an inf or NaN
in any method's final iterate or trace raises `NonFiniteError`.  The methods
keep only CG's nonpositive curvature, a safety check that rounding could
still fire, and a custom Jacobi preconditioner's checks.

Element-wise steps, stacked matrix products, numpy's stacked
`cholesky`/`inv` (one LAPACK call per system) and `np.vecdot` norms (one
BLAS dot per system) round every system exactly as a solve of that system
alone.
"""

from dataclasses import dataclass, field
from itertools import islice, repeat

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
    """Hermitian positive-definite matrices (..., n, n) with finite right-hand sides.

    P is certified by its Cholesky factor, which exists exactly when P is HPD
    (Golub & Van Loan, Matrix Computations, 4.2); direct forms its own.
    """

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
        P = np.asarray(P, dtype=complex)
        try:
            np.linalg.cholesky(P)
        except np.linalg.LinAlgError as exc:
            where = f"system {_first_without_factor(P)} of " if P.ndim > 2 else ""
            raise NotHpdError(
                f"{where}P is not HPD: no Cholesky factor ({exc})") from exc


def _first_without_factor(P: np.ndarray) -> tuple:
    """Index of the first system of the stack P with no Cholesky factor:
    searched on the error path only, since numpy's error names none."""
    for i in np.ndindex(P.shape[:-2]):
        try:
            np.linalg.cholesky(P[i])
        except np.linalg.LinAlgError:
            return i


@dataclass
class SolverOutcome:
    """Solutions, iteration count, residual telemetry, and convergence flags.

    `w` has the rhs's shape.  `iterations` is T, or 1 for direct.
    `residual_trace` (..., iterations + 1), index 0 the starting point
    w = 0, and `converged` (...), true where the final LS error does not
    exceed the initial one, are None when the trace is off.  A system whose
    Krylov residual vanishes holds its final iterate and error.
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


def direct_solve(sys: HpdSystem, trace: bool = True) -> SolverOutcome:
    """Exact solve via Cholesky P = L L^H; reference oracle for the iterative paths.

    Its one step of the driver `_iterate` computes what `flops.flops_direct`
    charges: the Cholesky factor, the triangular inverse L^{-1}, and
    w = L^{-H} (L^{-1} s).
    """
    def steps(P, s):
        Linv = np.linalg.inv(np.linalg.cholesky(P))
        yield herm(Linv) @ (Linv @ s)

    return _iterate(sys, 1, False, trace, steps)


def _iterate(sys: HpdSystem, T: int, keep_iterates, trace,
             steps) -> SolverOutcome:
    """Run T steps of `steps(P, s)`, a generator of iterates that starts
    from w = 0 and never ends before T; the one driver of every method.

    A vector rhs steps as one column, read back by `col`.  With `trace`,
    records the LS error of w = 0 and every distinct iterate in one stacked
    pass; a step that yields the array of the step before (a held iterate)
    repeats that array's error.
    Overflow warnings are off: a diverged iterate stays non-finite, so an
    inf or NaN in the final iterate or the trace raises `NonFiniteError`.
    """
    if T < 1:
        raise ConfigurationError(f"iteration count T must be >= 1, got {T}")
    P, s = np.asarray(sys.P, dtype=complex), np.asarray(sys.rhs, dtype=complex)
    s, col = (s[..., None], (..., 0)) if s.ndim < P.ndim else (s, ...)
    # w = 0 and every distinct iterate, kept only when the trace or the
    # caller reads them; step t's iterate is ws[at[t]].
    ws = [np.zeros_like(s)] if trace or keep_iterates else None
    at, errors = [0], None
    with np.errstate(over="ignore", invalid="ignore"):
        for iterations, w in enumerate(islice(steps(P, s), T), 1):
            if ws is not None:
                if w is not ws[-1]:
                    ws.append(w)
                at.append(len(ws) - 1)
        if trace:
            # P broadcasts over the leading iteration axis, moved last after.
            # Per iterate: a broadcast subtraction takes a 128 KiB ufunc buffer.
            ws = np.array(ws)
            r = P @ ws
            for r_t in r:
                r_t -= s
            snorm2 = sq_norms(s)
            errors = np.moveaxis(
                sq_norms(r) / np.where(snorm2 > 0, snorm2, 1.0), 0, -1)[..., at]
    if not np.isfinite(w).all() or trace and not np.isfinite(errors).all():
        raise NonFiniteError(f"solution is inf or NaN after {iterations} steps")
    return SolverOutcome(
        w=w[col], iterations=iterations, residual_trace=errors,
        converged=None if errors is None else errors[..., -1] <= errors[..., 0],
        iterates=[ws[i][col] for i in at[1:]] if keep_iterates else [])


def gs_solve(sys: HpdSystem, T: int, keep_iterates: bool = False,
             trace: bool = True) -> SolverOutcome:
    """Gauss-Seidel sweeps w <- (D + Lo)^{-1} (s - Up w), P = Lo + D + Up.

    Computes what `flops.flop_model("gs", K, T)` charges: (D + Lo)^{-1}
    formed once, then one dense matrix product per sweep.
    """
    def steps(P, s):
        DLinv, Up = np.linalg.inv(np.tril(P)), np.triu(P, 1)
        w = np.zeros_like(s)
        while True:
            w = DLinv @ (s - Up @ w)
            yield w

    return _iterate(sys, T, keep_iterates, trace, steps)


def jor_solve(sys: HpdSystem, T: int, omega: float = DEFAULT_OMEGA,
              keep_iterates: bool = False, trace: bool = True) -> SolverOutcome:
    """Jacobi over-relaxation: w <- w + omega * D^{-1} (s - P w)."""
    if not 0 < omega < np.inf:
        raise ConfigurationError(f"omega must be positive and finite, got {omega}")

    def steps(P, s):
        d = np.diagonal(P, axis1=-2, axis2=-1)[..., None]
        w = np.zeros_like(s)
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
    while the other columns go on.  Once no column is live, the generator
    yields the held iterate without stepping.  A NaN r^H z stays live: the
    NaN reaches w through alpha, and the driver raises `NonFiniteError`.
    """
    def steps(P, s):
        w = np.zeros_like(s)
        r = s - P @ w
        z = r if c is None else r / c
        m = z.copy()
        rz = _col_dot(r, z)
        while np.any(live := ~(rz < RZ_FLOOR)):
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
            yield w
        yield from repeat(w)

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
    C = I gives CG.  A custom C must be positive and finite, else
    `NotHpdError`; the default diag(P) is, since `HpdSystem` certified P.
    """
    d = np.diagonal(np.asarray(sys.P), axis1=-2, axis2=-1).real
    c = d if precond_diag is None else np.asarray(precond_diag, dtype=float)
    if c.shape != d.shape[d.ndim - c.ndim:]:
        raise NotHpdError(f"precond_diag shape {c.shape} incompatible with "
                          f"P shape {np.shape(sys.P)}")
    if precond_diag is not None and not np.all((0 < c) & (c < np.inf)):
        raise NotHpdError("precond_diag must be positive and finite")
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
    """Solve every system of P w = s with the named method: T iterations, or
    direct's one step.

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
