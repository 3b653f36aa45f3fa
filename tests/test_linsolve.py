"""Linear solvers: direct Cholesky oracle, GS, JOR, CG, Jac-PCG."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (condition_number, diag_scaled_hpd, ls_error_oracle,
                     random_hpd, random_rhs)
from xlmimo.errors import ConfigurationError, NonFiniteError, NotHpdError
from xlmimo.linsolve import (HERMITIAN_RTOL, ITERATIVE_SOLVERS, METHODS,
                             HpdSystem, cg_solve, direct_solve, gs_solve,
                             jacpcg_solve, jor_solve, solve, sq_norms)


def _sys(P, s):
    return HpdSystem(P=np.asarray(P, complex), rhs=np.asarray(s, complex))


class TestHpdSystem:
    def test_rejects_nonsquare(self):
        with pytest.raises(NotHpdError):
            HpdSystem(P=np.zeros((2, 3)), rhs=np.zeros(2))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHpdError):
            HpdSystem(P=np.array([[1.0, 2.0], [0.0, 1.0]]), rhs=np.zeros(2))

    def test_rejects_incompatible_rhs(self):
        with pytest.raises(NotHpdError):
            HpdSystem(P=np.eye(2), rhs=np.zeros(3))

    # The tolerance is HERMITIAN_RTOL * max|P|, and max|P| = 1 for these P.
    @pytest.mark.parametrize("entry, value", [
        ((0, 1), np.nan),                   # NaN off the diagonal
        ((1, 1), np.nan),                   # NaN on the diagonal
        ((0, 1), 2 * HERMITIAN_RTOL),       # asymmetry of twice the tolerance
    ])
    def test_rejects_nan_and_asymmetry(self, entry, value):
        P = np.eye(2, dtype=complex)
        P[entry] = value
        with pytest.raises(NotHpdError):
            HpdSystem(P=P, rhs=np.zeros(2))

    # Zero, indefinite and negative-definite, each with a diagonal entry
    # that is not positive, and indefinite with a positive diagonal.  None
    # is HPD: its leading principal minor of order where + 1 is the first
    # that is not positive (Sylvester's criterion), so Cholesky breaks down
    # at that pivot, and every method rejects the system before any step.
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("P, where", [
        ([[0.0, 1.0], [1.0, 0.0]], 0),
        ([[2.0, 1.0], [1.0, -1.0]], 1),
        ([[-2.0, 0.5], [0.5, -1.0]], 0),
        ([[1.0, 2.0], [2.0, 1.0]], 1),
    ])
    def test_every_method_rejects_a_nonpositive_diagonal(self, method, P,
                                                          where):
        minors = [np.linalg.det(np.asarray(P)[:k, :k]) for k in (1, 2)]
        assert min(minors[:where], default=1.0) > 0 >= minors[where]
        with pytest.raises(NotHpdError, match="no Cholesky factor"):
            solve(_sys(P, [1.0, 1.0]), method, T=3)

    def test_accepts_asymmetry_within_tolerance(self):
        P = np.eye(2, dtype=complex)
        P[0, 1] = 0.5 * HERMITIAN_RTOL
        assert HpdSystem(P=P, rhs=np.zeros(2)).P.shape == (2, 2)


class TestDirectSolve:
    def test_identity(self):
        out = direct_solve(_sys(np.eye(3), [1.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.w, [1.0, 0.0, 0.0])
        # One step of the driver: the trace holds w = 0 and the solution.
        assert out.iterations == 1 and out.converged
        np.testing.assert_array_equal(out.residual_trace, [1.0, 0.0])

    def test_diagonal(self):
        out = direct_solve(_sys(np.diag([2.0, 4.0]), [2.0, 8.0]))
        np.testing.assert_allclose(out.w, [1.0, 2.0])

    def test_random_residual(self):
        rng = np.random.default_rng(1)
        H = random_rhs(rng, 8, 4)
        P = H.conj().T @ H + 0.1 * np.eye(4)
        s = random_rhs(rng, 4)
        out = direct_solve(_sys(P, s))
        assert np.linalg.norm(P @ out.w - s) / np.linalg.norm(s) < 1e-12

    def test_non_hpd_rejected(self):
        with pytest.raises(NotHpdError):
            direct_solve(_sys(np.diag([1.0, -1.0]), [1.0, 1.0]))


class TestGaussSeidel:
    def test_identity_one_sweep(self):
        out = gs_solve(_sys(np.eye(3), [1.0, 2.0, 3.0]), T=1)
        np.testing.assert_allclose(out.w, [1.0, 2.0, 3.0])
        assert out.residual_trace[-1] == 0.0

    def test_hand_computed_sweep(self):
        out = gs_solve(_sys([[2.0, 1.0], [1.0, 2.0]], [3.0, 3.0]), T=1)
        np.testing.assert_allclose(out.w, [1.5, 0.75])

    def test_converges_to_direct(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            P = random_hpd(rng, 16, cond_cap=10.0)
            s = random_rhs(rng, 16)
            ref = direct_solve(_sys(P, s)).w
            out = gs_solve(_sys(P, s), T=300)
            assert np.linalg.norm(out.w - ref) < 1e-8 * np.linalg.norm(ref)
            assert out.converged

    def test_zero_diagonal_rejected(self):
        with pytest.raises(NotHpdError):
            gs_solve(_sys([[0.0, 1.0], [1.0, 0.0]], [1.0, 1.0]), T=1)

    def test_trace_length_and_t_validation(self):
        out = gs_solve(_sys(np.eye(2), [1.0, 1.0]), T=4)
        assert len(out.residual_trace) == out.iterations + 1
        with pytest.raises(ConfigurationError):
            gs_solve(_sys(np.eye(2), [1.0, 1.0]), T=0)


class TestJor:
    def test_hand_computed_iterations(self):
        sys = _sys([[2.0, 1.0], [1.0, 2.0]], [3.0, 3.0])
        out = jor_solve(sys, T=2, omega=1.0, keep_iterates=True)
        np.testing.assert_allclose(out.iterates[0], [1.5, 1.5])
        np.testing.assert_allclose(out.iterates[1], [0.75, 0.75])

    def test_diagonal_system_exact_in_one(self):
        out = jor_solve(_sys(np.diag([2.0, 5.0]), [4.0, 10.0]), T=1, omega=1.0)
        np.testing.assert_allclose(out.w, [2.0, 2.0])
        assert out.residual_trace[-1] == 0.0

    def test_divergence_flagged(self):
        P = random_hpd(np.random.default_rng(5), 8)
        d = np.sqrt(np.diag(P).real)
        lam_max = np.linalg.eigvalsh(P / np.outer(d, d))[-1]
        out = jor_solve(_sys(P, random_rhs(np.random.default_rng(6), 8)),
                        T=50, omega=2.5 / lam_max)
        assert not out.converged
        assert out.residual_trace[-1] > out.residual_trace[0]

    def test_invalid_omega(self):
        with pytest.raises(ConfigurationError):
            jor_solve(_sys(np.eye(2), [1.0, 1.0]), T=1, omega=0.0)


class TestCg:
    def test_identity_one_iteration(self):
        out = cg_solve(_sys(np.eye(4), [1.0, 2.0, 3.0, 4.0]), T=1)
        np.testing.assert_allclose(out.w, [1.0, 2.0, 3.0, 4.0], atol=1e-14)

    def test_zero_rhs(self):
        out = cg_solve(_sys(np.eye(3), np.zeros(3)), T=5)
        np.testing.assert_array_equal(out.w, 0.0)

    def test_finite_termination(self):
        rng = np.random.default_rng(7)
        P = random_hpd(rng, 8)
        s = random_rhs(rng, 8)
        ref = direct_solve(_sys(P, s)).w
        out = cg_solve(_sys(P, s), T=8)
        assert (np.linalg.norm(out.w - ref) / np.linalg.norm(ref)) < 1e-8

    def test_energy_norm_monotone(self):
        rng = np.random.default_rng(8)
        P = random_hpd(rng, 12)
        s = random_rhs(rng, 12)
        ref = direct_solve(_sys(P, s)).w
        out = cg_solve(_sys(P, s), T=12, keep_iterates=True)
        energies = [float(np.vdot(x - ref, P @ (x - ref)).real)
                    for x in out.iterates]
        assert all(b <= a * (1 + 1e-10) for a, b in zip(energies, energies[1:]))


def _iterations_to(trace, tol):
    """First iteration whose sqrt(LS error) is within tol (len(trace) if none)."""
    hits = np.flatnonzero(np.sqrt(trace) <= tol)
    return int(hits[0]) if hits.size else trace.size


@pytest.mark.parametrize("solver", [cg_solve, jacpcg_solve])
def test_long_runs_hold_the_converged_iterate(solver):
    # Run far past convergence, r^H z underflows: the column must stop,
    # not hit a zero curvature and report an HPD system as indefinite.
    rng = np.random.default_rng(10)
    for _ in range(20):
        sys = _sys(diag_scaled_hpd(rng, 16), random_rhs(rng, 16))
        long, short = solver(sys, T=400), solver(sys, T=100)
        np.testing.assert_array_equal(long.w, short.w)
        np.testing.assert_array_equal(
            long.residual_trace,
            np.append(short.residual_trace, [short.residual_trace[-1]] * 300))


class TestJacPcg:
    def test_identity_preconditioner_matches_cg(self):
        rng = np.random.default_rng(9)
        P = random_hpd(rng, 10)
        s = random_rhs(rng, 10)
        cg = cg_solve(_sys(P, s), T=6, keep_iterates=True)
        pcg = jacpcg_solve(_sys(P, s), T=6, precond_diag=np.ones(10),
                           keep_iterates=True)
        for a, b in zip(cg.iterates, pcg.iterates):
            np.testing.assert_array_equal(a, b)

    def test_diagonal_system_one_iteration(self):
        out = jacpcg_solve(_sys(np.diag([1.0, 10.0, 100.0]), [1.0, 1.0, 1.0]),
                           T=1)
        assert out.residual_trace[-1] < 1e-28

    def test_preconditioning_beats_cg_on_scaled_systems(self):
        rng = np.random.default_rng(10)
        wins = 0
        for _ in range(100):
            P = diag_scaled_hpd(rng, 16)
            s = random_rhs(rng, 16)
            cg = cg_solve(_sys(P, s), T=100).residual_trace
            pcg = jacpcg_solve(_sys(P, s), T=100).residual_trace
            wins += _iterations_to(pcg, 1e-6) < _iterations_to(cg, 1e-6)
        assert wins >= 90

    def test_zero_preconditioner_diagonal_rejected(self):
        P = np.array([[0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(NotHpdError):
            jacpcg_solve(HpdSystem(P=P, rhs=np.ones(2)), T=1)

    def test_indefinite_preconditioner_rejected(self):
        # r^H C^{-1} r <= 0 for either C: PCG must not skip its loop and
        # return w = 0.  HpdSystem rejects diag(P) = (2, -1) on construction,
        # and jacpcg_solve a custom C = (1, -1).
        with pytest.raises(NotHpdError):
            jacpcg_solve(_sys(np.diag([2.0, -1.0]), [1.0, 1.0]), T=1)
        with pytest.raises(NotHpdError):
            jacpcg_solve(_sys(np.eye(2), [1.0, 1.0]), T=1,
                         precond_diag=[1.0, -1.0])

    @pytest.mark.parametrize("diag", [np.ones(3), np.ones((2, 2))])
    def test_preconditioner_shape_mismatch_rejected(self, diag):
        with pytest.raises(NotHpdError, match=r"\(2, 2\)"):
            jacpcg_solve(HpdSystem(P=np.eye(2), rhs=np.ones(2)), T=1,
                         precond_diag=diag)

    def test_one_preconditioner_for_a_stack(self):
        rng = np.random.default_rng(12)
        P = np.stack([random_hpd(rng, 4), random_hpd(rng, 4)])
        sys = HpdSystem(P=P, rhs=random_rhs(rng, 2, 4))
        np.testing.assert_array_equal(
            jacpcg_solve(sys, T=3, precond_diag=np.ones(4)).w,
            cg_solve(sys, T=3).w)

    def test_multi_rhs_matches_column_solves(self):
        rng = np.random.default_rng(11)
        P = random_hpd(rng, 8)
        S = random_rhs(rng, 8, 3)
        joint = jacpcg_solve(HpdSystem(P=P, rhs=S), T=5)
        for j in range(3):
            single = jacpcg_solve(HpdSystem(P=P, rhs=S[:, j]), T=5)
            np.testing.assert_allclose(joint.w[:, j], single.w, rtol=1e-12,
                                       atol=1e-14)


class TestSolve:
    def setup_method(self):
        rng = np.random.default_rng(13)
        self.sys = HpdSystem(P=random_hpd(rng, 6), rhs=random_rhs(rng, 6, 2))

    def test_direct_is_direct_solve(self):
        np.testing.assert_array_equal(solve(self.sys, "direct").w,
                                      direct_solve(self.sys).w)

    def test_each_scheme_gets_its_own_option(self):
        expected = {"gs": gs_solve(self.sys, 3),
                    "jor": jor_solve(self.sys, 3, omega=0.5),
                    "cg": cg_solve(self.sys, 3),
                    "jacpcg": jacpcg_solve(self.sys, 3)}
        for method, ref in expected.items():
            out = solve(self.sys, method, 3, omega=0.5)
            np.testing.assert_array_equal(out.w, ref.w)

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigurationError):
            solve(self.sys, "sor")


@st.composite
def _stacks(draw):
    """A stack of 1-5 HPD systems of size 1-8, some of them the identity
    (its Krylov residual reaches exactly zero after one step), with one
    vector or 1-3 column right-hand sides per system."""
    batch = draw(st.integers(1, 5))
    n = draw(st.integers(1, 8))
    m = draw(st.sampled_from([None, 1, 2, 3]))
    identity = draw(st.lists(st.booleans(), min_size=batch, max_size=batch))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    P = np.stack([np.eye(n, dtype=complex) if eye else random_hpd(rng, n)
                  for eye in identity])
    rhs = np.stack([random_rhs(rng, n, m) for _ in range(batch)])
    return P, rhs


class TestStacks:
    """A stack of systems solves as each system alone, bit for bit."""

    @pytest.mark.parametrize("method", METHODS)
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(stack=_stacks(), T=st.integers(1, 10))
    def test_stack_equals_single_solves(self, method, stack, T):
        P, rhs = stack
        singles = [solve(HpdSystem(P=p, rhs=s), method, T, omega=0.7)
                   for p, s in zip(P, rhs)]
        out = solve(HpdSystem(P=P, rhs=rhs), method, T, omega=0.7)
        steps = 1 if method == "direct" else T
        assert out.w.shape == rhs.shape
        assert out.iterations == steps
        assert out.residual_trace.shape == (len(P), steps + 1)
        for i, one in enumerate(singles):
            assert one.iterations == steps
            np.testing.assert_array_equal(out.w[i], one.w)
            np.testing.assert_array_equal(out.residual_trace[i],
                                          one.residual_trace)

    @pytest.mark.parametrize("method", ["cg", "jacpcg"])
    def test_one_system_finishes_before_the_others(self, method):
        rng = np.random.default_rng(20)
        P = np.stack([random_hpd(rng, 4), np.eye(4), random_hpd(rng, 4)])
        rhs = random_rhs(rng, 3, 4)
        out = solve(HpdSystem(P=P, rhs=rhs), method, T=4)
        alone = solve(HpdSystem(P=P[1], rhs=rhs[1]), method, T=4)
        assert alone.iterations == out.iterations == 4
        np.testing.assert_array_equal(alone.residual_trace, [1.0] + [0.0] * 4)
        np.testing.assert_array_equal(out.w[1], alone.w)
        np.testing.assert_array_equal(out.residual_trace[1],
                                      alone.residual_trace)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("bad", [np.nan, "asymmetric"])
    def test_one_bad_system_rejects_the_stack(self, method, bad):
        P = np.stack([np.eye(3, dtype=complex)] * 3)
        if bad == "asymmetric":
            P[1, 0, 2] = 0.5
        else:
            P[1, 2, 2] = bad
        with pytest.raises(NotHpdError):
            solve(HpdSystem(P=P, rhs=np.ones((3, 3))), method)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_rhs_rejected(self, method, bad):
        P = np.stack([np.eye(2), [[2.0, 1.0], [1.0, 2.0]]])
        s = np.ones((2, 2))
        s[1, 0] = bad
        with pytest.raises(NonFiniteError):
            solve(_sys(P, s), method, T=1)

    @pytest.mark.parametrize("method", METHODS)
    def test_non_finite_solution_raises(self, method):
        # 1/1e-320 overflows: the solution of every system but the
        # identity is inf, and the driver raises instead of returning it.
        # Alone, Jac-PCG's first r^H z is NaN: the column stays live, and
        # the NaN reaches w.
        tiny = 1e-320 * np.eye(2)
        for P, s in [(np.stack([np.eye(2), tiny]), np.ones((2, 2))),
                     (tiny, np.ones(2))]:
            with pytest.raises(NonFiniteError):
                solve(_sys(P, s), method, T=3)

    @pytest.mark.parametrize("method", METHODS)
    def test_zero_diagonal_system_rejects_the_stack(self, method):
        P = np.stack([np.eye(2), [[0.0, 1.0], [1.0, 0.0]], np.eye(2)])
        with pytest.raises(NotHpdError):
            solve(HpdSystem(P=P, rhs=np.ones((3, 2))), method)

    def test_converged_is_reported_per_system(self):
        # omega = 1.5 contracts the identity's error by 4 per sweep, and
        # diverges where D^{-1} P has an eigenvalue above 2 / omega.
        rng = np.random.default_rng(22)
        P = np.stack([np.eye(8), random_hpd(rng, 8)])
        d = np.sqrt(np.diag(P[1]).real)
        assert np.linalg.eigvalsh(P[1] / np.outer(d, d))[-1] > 2 / 1.5
        out = jor_solve(HpdSystem(P=P, rhs=random_rhs(rng, 2, 8)), T=50,
                        omega=1.5)
        np.testing.assert_array_equal(out.converged, [True, False])

    def test_trace_off_keeps_the_solution(self):
        rng = np.random.default_rng(23)
        sys = HpdSystem(P=random_hpd(rng, 6), rhs=random_rhs(rng, 6, 2))
        for method in METHODS:
            off = solve(sys, method, 3, trace=False)
            assert off.residual_trace is None and off.converged is None
            np.testing.assert_array_equal(off.w, solve(sys, method, 3).w)


@st.composite
def _matrix_stacks(draw):
    """A complex stack (0-2 leading axes) of 1-40 x 1-40 matrices: C
    contiguous, a transposed view, or a view with strided rows or columns."""
    lead = tuple(draw(st.lists(st.integers(1, 4), max_size=2)))
    n, m = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (*lead, 2 * n, 2 * m)
    X = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return {"contiguous": np.ascontiguousarray(X[..., :n, :m]),
            "transposed": np.swapaxes(X[..., :n, :m], -1, -2),
            "strided rows": X[..., ::2, :m],
            "strided columns": X[..., :n, ::2],
            "reversed": X[..., ::-1, ::-2]}[
        draw(st.sampled_from(["contiguous", "transposed", "strided rows",
                              "strided columns", "reversed"]))]


class TestSqNorms:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(X=_matrix_stacks())
    def test_equals_vdot_per_matrix(self, X):
        # Bit for bit: one BLAS dot per matrix, as np.vdot of that matrix.
        flat = X.reshape(-1, *X.shape[-2:])
        oracle = np.array([np.vdot(x, x).real for x in flat])
        out = sq_norms(X)
        assert out.shape == X.shape[:-2]
        np.testing.assert_array_equal(out.reshape(-1), oracle)


class TestTrace:
    """The LS-error trace, taken over the stack of iterates in one pass,
    against one np.vdot per system and iterate."""

    @pytest.mark.parametrize("method", ITERATIVE_SOLVERS)
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(stack=_stacks(), T=st.integers(1, 10))
    def test_trace_equals_per_iteration_oracle(self, method, stack, T):
        P, rhs = stack
        out = ITERATIVE_SOLVERS[method](HpdSystem(P=P, rhs=rhs), T,
                                        keep_iterates=True)
        assert len(out.iterates) == out.iterations
        np.testing.assert_array_equal(out.residual_trace,
                                      ls_error_oracle(P, rhs, out.iterates))

    @pytest.mark.parametrize("method", ITERATIVE_SOLVERS)
    @pytest.mark.parametrize("columns", [None, 3])
    def test_kept_iterates_equal_fresh_solves(self, method, columns):
        # Iterate t, kept by the driver, must be the w of a solve stopped at
        # T = t: a step that updated its iterate in place would break it.
        rng = np.random.default_rng(23)
        sys = HpdSystem(P=np.stack([random_hpd(rng, 6) for _ in range(2)]),
                        rhs=np.stack([random_rhs(rng, 6, columns)
                                      for _ in range(2)]))
        solver = ITERATIVE_SOLVERS[method]
        out = solver(sys, 5, keep_iterates=True)
        assert len(out.iterates) == 5
        for t, w in enumerate(out.iterates, 1):
            np.testing.assert_array_equal(w, solver(sys, t, trace=False).w)

    @pytest.mark.parametrize("method", ["cg", "jacpcg"])
    def test_krylov_hold(self, method):
        # The identity's residual vanishes after one step, in every system:
        # the solve still takes all T steps, each holding the first iterate.
        rng = np.random.default_rng(24)
        P = np.stack([np.eye(5, dtype=complex)] * 3)
        rhs = random_rhs(rng, 3, 5)
        sys, solver = HpdSystem(P=P, rhs=rhs), ITERATIVE_SOLVERS[method]
        out = solver(sys, 6, keep_iterates=True)
        assert out.iterations == 6 and out.residual_trace.shape == (3, 7)
        np.testing.assert_array_equal(out.residual_trace,
                                      ls_error_oracle(P, rhs, out.iterates))
        np.testing.assert_array_equal(out.residual_trace[:, 1:], 0.0)
        first = solver(sys, 1, trace=False).w
        for w in out.iterates:
            np.testing.assert_array_equal(w, first)


class TestConditionNumber:
    def test_identity(self):
        assert condition_number(np.eye(5)) == 1.0

    def test_diagonal(self):
        assert condition_number(np.diag([1.0, 100.0])) == pytest.approx(100.0)

    def test_jacobi_preconditioning_reduces_condition(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            P = diag_scaled_hpd(rng, 16)
            d = np.sqrt(np.diag(P).real)
            Pc = P / np.outer(d, d)
            assert condition_number(Pc) <= condition_number(P)

    def test_not_pd_rejected(self):
        with pytest.raises(NotHpdError):
            condition_number(np.diag([1.0, 0.0]))

    def test_size_cap(self):
        with pytest.raises(ConfigurationError):
            condition_number(np.eye(513))
