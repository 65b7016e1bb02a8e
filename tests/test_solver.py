"""Mode assembly, the real Schur-form solve, symmetry completion, and field evaluation."""

import dataclasses
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import lu_factor, lu_solve, schur

from adspectral import (ADProblem, FourierGrid, ModeSolveError, SolverConfig,
                        assemble_mode, bary_interpolate, coefficients_at,
                        dft_coefficients, evaluate_u, evaluate_ux, mode_rate,
                        sa_coefficient_map, sa_evaluate_u, sa_evaluate_ux,
                        sa_field, solve_modes)
from adspectral import test_problem as builtin_problem
from adspectral import solver
from adspectral.gegenbauer import build_basis, build_integration_matrix, \
    reference_rule, shift_integration_matrix, time_grid
from adspectral.problems import config_from_pairs
from adspectral.solver import PIVOT_RTOL, _back_substitute, _kernel, \
    _prepare, _residual, _unit_solutions


# The text of the pivot test's ModeSolveError for the modes that the
# rates_with fixture puts at the threshold, with the modulus left open.
PIVOT_MESSAGE = ("singular or ill-conditioned system (smallest eigenvalue "
                 "modulus {} below 1e-14 * (1 + |alpha| ||TQ||) = 3.927e-12)")


def _degenerate_problem(u0=None, g=None):
    # mu = nu = 0: every mode system collapses to the identity.
    return ADProblem(
        mu=0.0, nu=0.0, L=2.0, T=1.0,
        u0=u0 or (lambda x: np.sin(np.pi * x)),
        g=g or (lambda t: 0.0 * np.asarray(t)))


class TestAssembleMode:
    def _tq_and_spectrum(self, problem, config):
        basis = build_basis(config.lam, config.M)
        tq = shift_integration_matrix(build_integration_matrix(basis), problem.T)
        x0 = problem.L * np.arange(config.N0) / config.N0
        spectrum = dft_coefficients(np.asarray(problem.u0(x0), dtype=float),
                                    config.N0)
        return tq, spectrum

    def test_tp1_fundamental_rate(self):
        problem = builtin_problem(1)
        assert mode_rate(problem, 1) == pytest.approx(np.pi ** 2)

    def test_tp3_mode_eight_rate(self):
        # Oracle: w_8 = 8 pi, alpha = w (nu w + mu i) by direct arithmetic.
        problem = builtin_problem(3)
        alpha = mode_rate(problem, 8)
        assert alpha.real == pytest.approx(6.4 * np.pi ** 2, rel=1e-15)
        assert alpha.imag == pytest.approx(0.08 * np.pi, rel=1e-15)
        assert alpha == pytest.approx(63.16546816697189 + 0.25132741228718347j)

    def test_rates_of_an_array_equal_scalar_rates(self):
        problem = builtin_problem(3)
        ns = np.arange(1, 65)
        rates = mode_rate(problem, ns)
        assert rates.shape == (64,)
        assert all(rates[i] == mode_rate(problem, int(n)) for i, n in enumerate(ns))
        assert type(mode_rate(problem, 3)) is complex

    def test_degenerate_transport_gives_identity(self):
        problem = _degenerate_problem()
        config = SolverConfig(N=4, M=6, N0=6)
        tq, _ = self._tq_and_spectrum(problem, config)
        assert mode_rate(problem, 1) == 0
        assert np.array_equal(assemble_mode(1, problem, config, tq),
                              np.eye(7))

    def test_matrix_and_rhs_shape(self):
        # The solved column maps back to the replicated right-hand side.
        problem = builtin_problem(1)
        config = SolverConfig(N=4, M=10, N0=6)
        tq, spectrum = self._tq_and_spectrum(problem, config)
        matrix = assemble_mode(2, problem, config, tq)
        assert matrix.shape == (11, 11)
        assert np.array_equal(matrix,
                              np.eye(11) + mode_rate(problem, 2) * tq.entries)
        psi = solve_modes(problem, config).psi[2]
        assert_allclose(matrix @ psi, np.full(11, spectrum.mode(2)),
                        rtol=0, atol=1e-15)

    def test_mode_index_out_of_range(self):
        problem = builtin_problem(1)
        config = SolverConfig(N=4, M=6, N0=6)
        tq, _ = self._tq_and_spectrum(problem, config)
        with pytest.raises(ValueError, match="mode index"):
            assemble_mode(3, problem, config, tq)


class TestSolveModes:
    def test_identity_systems_copy_rhs(self):
        problem = _degenerate_problem()
        config = SolverConfig(N=6, M=5, N0=8)
        sol = solve_modes(problem, config)
        x0 = problem.L * np.arange(8) / 8
        spectrum = dft_coefficients(problem.u0(x0), 8)
        for n in range(1, 4):
            assert np.array_equal(sol.psi[n], np.full(6, spectrum.mode(n)))

    def test_table_row_accuracy(self):
        # Terminal-time field error at the comparison settings.
        problem = builtin_problem(1).with_horizon(0.1)
        config = SolverConfig(N=4, M=10, N0=6, lam=-0.4)
        sol = solve_modes(problem, config)
        grid = sol.grid
        err = np.abs(evaluate_u(sol, grid, 0.1) - problem.exact(grid.nodes, 0.1))
        assert np.max(err) <= 1e-14

    def test_nodal_coefficients_match_closed_form(self):
        # Oracle: psi_n(t) = u0_hat_n exp(-alpha_n t) from the mode ODE.
        problem = builtin_problem(1)
        config = SolverConfig(N=4, M=12, N0=6)
        sol = solve_modes(problem, config)
        _, _, _, spectrum = _prepare(problem, config)
        for n in (1, 2):
            closed = spectrum.mode(n) * np.exp(-mode_rate(problem, n)
                                               * sol.time_grid.nodes)
            assert np.max(np.abs(sol.psi[n] - closed)) <= 1e-12

    @pytest.mark.parametrize("pid", [1, 2, 3])
    def test_conjugate_symmetry_exact(self, pid):
        problem = builtin_problem(pid)
        config = SolverConfig(N=8, M=10, N0=10)
        sol = solve_modes(problem, config)
        for n in range(1, 5):
            assert np.array_equal(sol.psi[-n], np.conj(sol.psi[n]))

    @pytest.mark.parametrize("pid", [1, 2, 3])
    def test_zero_mean_constraint(self, pid):
        problem = builtin_problem(pid)
        config = SolverConfig(N=8, M=10, N0=10)
        sol = solve_modes(problem, config)
        stack = np.stack([sol.psi[k] for k in sorted(sol.psi)])
        assert np.max(np.abs(stack.sum(axis=0))) <= 1e-12

    @pytest.mark.parametrize("pid", [1, 2, 3])
    def test_synthesis_residue_small(self, pid):
        problem = builtin_problem(pid)
        config = SolverConfig(N=8, M=12, N0=10)
        sol = solve_modes(problem, config)
        grid = sol.grid
        ks = np.array(sorted(sol.psi))
        om = grid.wavenumbers(ks)
        for t in np.linspace(0.0, problem.T, 50):
            coeffs = coefficients_at(sol, float(t))
            c = np.array([coeffs[int(k)] for k in ks])
            total = np.exp(1j * np.outer(grid.nodes, om)) @ c
            assert np.max(np.abs(total.imag)) <= 1e-12

    def test_parallel_solve_bit_identical(self):
        problem = builtin_problem(1)
        config = SolverConfig(N=100, M=40, N0=102)
        serial = solve_modes(problem, config, parallel=False)
        threaded = solve_modes(problem, config, parallel=True)
        for k in serial.psi:
            assert np.array_equal(serial.psi[k], threaded.psi[k])

    def test_repeated_runs_bit_identical(self):
        problem = builtin_problem(3)
        config = SolverConfig(N=16, M=8, N0=18)
        a = solve_modes(problem, config)
        b = solve_modes(problem, config)
        for k in a.psi:
            assert np.array_equal(a.psi[k], b.psi[k])

    def test_temporal_spectral_accuracy(self):
        # Each step of 2 in M buys at least two decades until the noise floor.
        problem = builtin_problem(1)
        grid = FourierGrid(L=2.0, N=4)
        logs = []
        for M in (4, 6, 8, 10):
            config = SolverConfig(N=4, M=M, N0=6)
            sol = solve_modes(problem, config)
            err = np.abs(evaluate_u(sol, grid, 0.2)
                         - problem.exact(grid.nodes, 0.2))
            dne = np.sqrt(problem.L / 4 * np.sum(err ** 2))
            logs.append(np.log10(dne))
        drops = [a - b for a, b in zip(logs, logs[1:])]
        assert all(d >= 2.0 for d in drops)

    def test_table_is_read_only_and_backs_psi(self):
        sol = solve_modes(builtin_problem(3), SolverConfig(N=8, M=6))
        assert sol.table.shape == (7, 9)
        assert not sol.table.flags.writeable
        assert not sol.units.flags.writeable and not sol.scale.flags.writeable
        with pytest.raises(ValueError):
            sol.table[0, 0] = 1.0
        assert sorted(sol.psi) == list(range(-4, 5))
        for k in sol.psi:
            assert np.shares_memory(sol.psi[k], sol.table)
            assert np.array_equal(sol.psi[k], sol.table[:, k + 4])
            assert not sol.psi[k].flags.writeable
        with pytest.raises(TypeError):
            sol.psi[1] = sol.psi[2]

    def test_stage_times_read_only(self):
        sol = solve_modes(builtin_problem(3), SolverConfig(N=8, M=6))
        assert set(sol.stage_s) == {"assembly", "solve"}
        for seconds in sol.stage_s.values():
            assert type(seconds) is float and seconds >= 0.0
        with pytest.raises(TypeError):
            sol.stage_s["solve"] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            sol.stage_s = {}

    def test_singular_system_reported_with_mode(self, rates_with):
        problem, config, _ = rates_with({3: 0.0})
        with pytest.raises(ModeSolveError, match="mode 3: singular") as info:
            solve_modes(problem, config)
        assert info.value.mode == 3
        assert str(info.value) == "mode 3: " + PIVOT_MESSAGE.format("0.000e+00")


class TestDirectLapack:
    """The real Schur-form solve against LAPACK LU and a long-double oracle."""

    @pytest.mark.parametrize("pid", [1, 2, 3])
    @pytest.mark.parametrize("N,M", [(8, 40), (64, 10), (256, 32)])
    def test_matches_lu_factor_oracle(self, pid, N, M):
        # psi_n is the solution of the real system I + Re(alpha_n) TQ turned
        # by the exact phase exp(-i Im(alpha_n) t) at the time nodes.
        problem = builtin_problem(pid)
        config = SolverConfig(N=N, M=M)
        sol = solve_modes(problem, config)
        _, tq, _, spectrum = _prepare(problem, config)
        for n in range(1, N // 2 + 1):
            alpha = mode_rate(problem, n)
            matrix = np.eye(M + 1) + alpha.real * tq.entries
            phase = np.exp(-1j * alpha.imag * sol.time_grid.nodes)
            expected = lu_solve(lu_factor(matrix),
                                np.full(M + 1, spectrum.mode(n))) * phase
            assert_allclose(sol.psi[n], expected, rtol=0, atol=1e-15)

    def test_tiny_pivot_reported_with_mode(self, rates_with):
        # Nonzero, so the solve could proceed; the relative test refuses it.
        problem, config, _ = rates_with({2: 0.5})
        with pytest.raises(ModeSolveError, match="mode 2: singular") as info:
            solve_modes(problem, config)
        assert info.value.mode == 2
        assert str(info.value) == "mode 2: " + PIVOT_MESSAGE.format("1.964e-12")

    def test_pivot_above_the_threshold_is_solved(self, rates_with):
        problem, config, rates = rates_with({2: 2.0})
        sol = solve_modes(problem, config)
        _, tq, _, spectrum = _prepare(problem, config)
        matrix = np.eye(7) + rates[1] * tq.entries
        rhs = np.full(7, spectrum.mode(2))
        residual = np.abs(rhs - matrix @ sol.psi[2]).max()
        scale = np.linalg.norm(matrix, np.inf) * np.abs(sol.psi[2]).max()
        assert np.all(np.isfinite(sol.psi[2]))
        assert residual <= PIVOT_RTOL * (scale + abs(rhs[0]))

    def test_solve_modes_names_the_singular_mode(self, rates_with):
        # Modes 2 and 4 are singular; the lowest is named.
        problem, config, _ = rates_with({2: 0.0, 4: 0.0})
        with pytest.raises(ModeSolveError, match="mode 2:") as info:
            solve_modes(problem, config)
        assert info.value.mode == 2
        assert str(info.value) == "mode 2: " + PIVOT_MESSAGE.format("0.000e+00")

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                        reason="the oracle needs an extended long double")
    def test_real_path_accuracy_over_grid(self):
        # The real Schur path against a solve on the complex Schur factor on
        # real rates, over a (lam, M) grid. Each error is measured in units
        # of its first-order bound u || |A^-1| (|A| |x| + |b|) ||_inf for a
        # componentwise backward stable solve (Higham, ch. 7), which one
        # refinement step attains (ch. 12); raw errors would only rank the
        # rounding of the worst-conditioned system. The oracle is LU in
        # double plus four refinement steps whose residuals 1 - x - z (Q x)
        # are formed in long double; it sits within 0.001 units of 40-digit
        # mpmath solves at (-0.49, 40) and (2, 40). Both paths round the
        # residual of their one refinement step in double, so neither stays
        # within one unit across the grid.
        zs = np.array([0.5, 5, 50, 500, 5e3, 5e5])
        eps = np.finfo(float).eps
        worst = {"real": 0.0, "complex": 0.0}
        for lam in (-0.49, -0.45, -0.4, 0.0, 0.5, 1.0, 2.0):
            for M in (10, 16, 32, 40, 48, 64):
                q = reference_rule(lam, M)[1]
                solved = {
                    "real": _unit_solutions(q.entries, *q.real_schur, zs),
                    "complex": _complex_schur_solve(q.entries, zs)}
                for i, z in enumerate(zs):
                    a = np.eye(M + 1) + z * q.entries
                    exact = _long_double_solve(q.entries, z)
                    x_abs = np.abs(exact).astype(float)
                    cond = (np.abs(np.linalg.inv(a)) @ (np.abs(a) @ x_abs + 1.0)).max()
                    for path, x in solved.items():
                        err = float(np.abs(x[:, i] - exact).max())
                        worst[path] = max(worst[path], err / (eps / 2 * cond))
        assert worst["real"] <= worst["complex"] <= 3.0

    # Problem 1 has real rates; problem 3 has complex ones, whose real parts
    # take the same back-substitution.
    @pytest.mark.parametrize("pid", [1, 3])
    def test_refined_residual_check_names_the_mode(self, monkeypatch, pid):
        # A back-substitution that goes wrong in mode 2's column leaves a
        # residual that the refinement step cannot remove.
        back_substitute = solver._back_substitute

        def off_in_column_one(s, alpha, kernel, y, work):
            back_substitute(s, alpha, kernel, y, work)
            y[:, 1] *= 1.001

        monkeypatch.setattr(solver, "_back_substitute", off_in_column_one)
        with pytest.raises(ModeSolveError,
                           match="mode 2: refined residual") as info:
            solve_modes(builtin_problem(pid), SolverConfig(N=8, M=6))
        assert info.value.mode == 2
        residual = {1: "1.030e-07", 3: "4.180e-07"}[pid]
        assert str(info.value) == (
            f"mode 2: refined residual {residual} exceeds 1e-14 "
            f"* ((1 + |alpha| ||TQ||) ||x|| + 1)")


def _complex_schur_solve(q: np.ndarray, zs: np.ndarray) -> np.ndarray:
    # (I + z q) x = ones for each z on the complex Schur form q = U R U^H:
    # the solver's back-substitution, with only 1x1 blocks, and one
    # refinement step against q.
    r, u = schur(q, output="complex")
    r[np.tril_indices_from(r, -1)] = 0.0
    zs = zs.astype(complex)
    uh = u.conj().T
    y = np.empty((len(q), len(zs)), dtype=complex)
    kernel = _kernel(r, zs, scratch=y)
    y[:] = uh.sum(axis=1)[:, None]
    _back_substitute(r, zs, kernel, y, work=np.empty_like(y))
    x = u @ y
    step = uh @ _residual(q, zs, x, out=y)
    _back_substitute(r, zs, kernel, step, work=y)
    return x + u @ step


def _long_double_solve(q: np.ndarray, z: float) -> np.ndarray:
    # (I + z q) x = ones by LU in double and four refinement steps with
    # long-double residuals, returned in long double.
    lu = lu_factor(np.eye(len(q)) + z * q)
    q_ld = q.astype(np.longdouble)
    x = lu_solve(lu, np.ones(len(q))).astype(np.longdouble)
    for _ in range(4):
        residual = 1 - x - np.longdouble(z) * (q_ld @ x)
        x += lu_solve(lu, residual.astype(float))
    return x


def _former_pivots(s, alpha, scratch):
    # The pivots, p = 1 + alpha s_jj and det as the solver formed them
    # before it built one kernel per unit solve.
    starts = np.flatnonzero(s.diagonal(-1))
    p = alpha * s.diagonal()[:, None]
    p += 1.0
    det = p[starts] * p[starts + 1] - np.multiply.outer(
        s[starts, starts + 1] * s[starts + 1, starts], alpha * alpha)
    modulus = np.abs(p, out=scratch)
    modulus[starts] = modulus[starts + 1] = np.sqrt(det)
    return modulus.min(axis=0), p, det


def _former_back_substitute(s, alpha, p, det, y):
    # The back-substitution that updated the two rows of a 2x2 block one at
    # a time.
    j, k = len(s), len(det)
    while j:
        if j > 1 and s[j - 1, j - 2]:
            i, k = j - 2, k - 1
            y[i:j] -= alpha * (s[i:j, j:] @ y[j:])
            top = p[i + 1] * y[i] - alpha * s[i, i + 1] * y[i + 1]
            y[i + 1] *= p[i]
            y[i + 1] -= alpha * s[i + 1, i] * y[i]
            y[i] = top
            y[i:j] /= det[k]
        else:
            i = j - 1
            y[i] -= alpha * (s[i, j:] @ y[j:])
            y[i] /= p[i]
        j = i


def _former_unit_solutions(a, s, z, alpha):
    # The unit solve on the two functions above, without its checks.
    y = np.empty((len(z), len(alpha)))
    _, p, det = _former_pivots(s, alpha, scratch=y)
    y[:] = z.T.sum(axis=1)[:, None]
    _former_back_substitute(s, alpha, p, det, y)
    x = z @ y
    step = z.T @ _residual(a, alpha, x, out=y)
    _former_back_substitute(s, alpha, p, det, step)
    x += np.matmul(z, step, out=y)
    x[:, alpha == 0] = 1.0
    return x


class TestKernel:
    """The kernel's back-substitution makes the roundings of the former one."""

    @pytest.mark.parametrize("pid", [1, 3])
    @pytest.mark.parametrize("lam", [-0.45, 0.0, 0.5, 2.0])
    def test_units_bit_identical_to_the_former_solve(self, pid, lam):
        problem = builtin_problem(pid)
        for M in (1, 2, 3, 4, 7, 8, 16, 32, 40, 64):
            q = reference_rule(lam, M)[1]
            # At lam = -0.45 and 0, M = 1 has no 2x2 block; at lam = 0.5
            # and 2, every odd M has no 1x1 block.
            s, z = q.real_schur
            s = 0.5 * problem.T * s
            tq = shift_integration_matrix(q, problem.T).entries
            for N in (4, 64, 1024):
                sol = solve_modes(problem, SolverConfig(N=N, M=M, lam=lam))
                rates = np.ascontiguousarray(
                    mode_rate(problem, np.arange(1, N // 2 + 1)).real)
                want = _former_unit_solutions(tq, s, z, rates)
                assert np.array_equal(sol.units, want), (M, N)
                pivot = _kernel(s, rates, scratch=np.empty_like(want)).pivot
                assert np.array_equal(
                    pivot, _former_pivots(s, rates, np.empty_like(want))[0])

    def test_solve_peak_traced_memory(self):
        # One solve at the rough_modes size, N = 4096 and M = 32, peaked at
        # 2692794 traced bytes with the former pivots and back-substitution.
        # A kernel that kept its couplings through the solve peaked about
        # 0.5 MB higher.
        config = SolverConfig(N=4096, M=32)
        solve_modes(builtin_problem(1), config)  # warm: the rule cache
        problem = builtin_problem(1)
        tracemalloc.start()
        try:
            solve_modes(problem, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2692794


class TestRealSchurPath:
    """Every mode solves its real rate through the real Schur form of Q."""

    @pytest.mark.parametrize("pid,horizon,factors", [
        (1, None, {"real_schur"}),
        (2, None, {"real_schur"}),
        (3, None, {"real_schur"}),
        # max |Re alpha_n| (M + 1) max |TQ| passes REAL_SOLVE_LIMIT from
        # mode 1 on: refused before the factor is formed.
        (1, 1e200, set()),
    ])
    def test_rule_keeps_only_the_factors_used(self, pid, horizon, factors):
        problem = builtin_problem(pid)
        if horizon is not None:
            problem = problem.with_horizon(horizon)
        config = SolverConfig(N=16, M=8)
        reference_rule.cache_clear()
        if factors:
            sol = solve_modes(problem, config)
            assert sol.units.dtype == np.float64
            assert np.all(np.isfinite(sol.table))
        else:
            with pytest.raises(ModeSolveError, match=(
                    r"^mode 1: \|Re\(alpha_n\)\| T = 9\.8696e\+200 is too "
                    r"large: the real Schur solve needs \|Re\(alpha_n\)\| "
                    r"\(M \+ 1\) max \|TQ\| below 1e\+150$")) as info:
                solve_modes(problem, config)
            assert info.value.mode == 1
        q = reference_rule(config.lam, config.M)[1]
        assert set(q.__dict__) - {"order", "entries"} == factors


class TestReferenceRuleCache:
    def test_prepare_reuses_rule_across_horizons(self):
        problem = builtin_problem(1)
        config = SolverConfig(N=4, M=11, lam=-0.25)
        basis_a, tq_a, tgrid_a, _ = _prepare(problem, config)
        basis_b, tq_b, tgrid_b, _ = _prepare(problem.with_horizon(0.05), config)
        assert basis_b is basis_a
        rule_basis, q = reference_rule(-0.25, 11)
        assert rule_basis is basis_a
        assert reference_rule(-0.25, 11)[1] is q
        assert not q.entries.flags.writeable
        assert not tq_a.entries.flags.writeable
        assert np.array_equal(tq_a.entries, 0.5 * 0.2 * q.entries)
        assert np.array_equal(tq_b.entries, 0.5 * 0.05 * q.entries)
        assert tgrid_b.nodes[-1] < tgrid_a.nodes[-1]

    def test_other_lambda_or_order_misses(self):
        problem = builtin_problem(1)
        _prepare(problem, SolverConfig(N=4, M=13, lam=0.3))
        before = reference_rule.cache_info()
        _prepare(problem, SolverConfig(N=4, M=13, lam=0.3))
        hit = reference_rule.cache_info()
        assert (hit.hits, hit.misses) == (before.hits + 1, before.misses)
        basis_lam, _, _, _ = _prepare(problem, SolverConfig(N=4, M=13, lam=0.31))
        basis_m, _, _, _ = _prepare(problem, SolverConfig(N=4, M=14, lam=0.3))
        after = reference_rule.cache_info()
        assert after.misses == hit.misses + 2
        assert (basis_lam.lam, basis_lam.order) == (0.31, 13)
        assert (basis_m.lam, basis_m.order) == (0.3, 14)

    def test_cached_rule_equals_fresh_build(self):
        basis, q = reference_rule(0.5, 9)
        fresh = build_basis(0.5, 9)
        assert np.array_equal(basis.nodes, fresh.nodes)
        assert np.array_equal(q.entries, build_integration_matrix(fresh).entries)


class TestNonFiniteInitialData:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_solve_modes_refuses_before_the_fft(self, bad):
        problem = ADProblem(
            mu=0.0, nu=1.0, L=2.0, T=0.2,
            u0=lambda x: np.where(np.isclose(x, 1.0), bad, np.sin(np.pi * x)),
            g=lambda t: 0.0 * np.asarray(t))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="u0 is not finite: sample 3 of 6"):
                solve_modes(problem, SolverConfig(N=4, M=6))

class TestEvaluation:
    def test_coefficients_at_node_is_exact(self):
        problem = builtin_problem(1)
        config = SolverConfig(N=4, M=9, N0=6)
        sol = solve_modes(problem, config)
        l = 4
        coeffs = coefficients_at(sol, float(sol.time_grid.nodes[l]))
        for k in sol.psi:
            assert coeffs[k] == sol.psi[k][l]

    def test_coefficients_at_horizon_match_closed_form(self):
        # T itself is outside the node set; interpolation reaches it.
        problem = builtin_problem(1)
        config = SolverConfig(N=4, M=12, N0=6)
        sol = solve_modes(problem, config)
        _, _, _, spectrum = _prepare(problem, config)
        coeffs = coefficients_at(sol, problem.T)
        for n in (1, 2):
            closed = spectrum.mode(n) * np.exp(-mode_rate(problem, n) * problem.T)
            assert abs(coeffs[n] - closed) <= 1e-12

    def test_constant_coefficients_without_transport(self):
        problem = _degenerate_problem()
        config = SolverConfig(N=4, M=6, N0=6)
        sol = solve_modes(problem, config)
        x0 = problem.L * np.arange(6) / 6
        spectrum = dft_coefficients(problem.u0(x0), 6)
        for t in (0.0, 0.37, 1.0):
            coeffs = coefficients_at(sol, t)
            assert coeffs[1] == pytest.approx(spectrum.mode(1), abs=1e-15)

    def test_time_outside_horizon_rejected(self):
        sol = solve_modes(builtin_problem(1), SolverConfig(N=4, M=6, N0=6))
        with pytest.raises(ValueError, match="t must lie"):
            coefficients_at(sol, 0.3)

    @pytest.mark.parametrize("N", [4, 8])
    def test_initial_condition_reproduced(self, N):
        problem = builtin_problem(1)
        config = SolverConfig(N=N, M=12, N0=N + 2)
        sol = solve_modes(problem, config)
        grid = sol.grid
        assert_allclose(evaluate_u(sol, grid, 0.0), np.sin(np.pi * grid.nodes),
                        atol=1e-13)

    def test_pointwise_value_at_half_domain(self):
        problem = builtin_problem(1).with_horizon(0.1)
        config = SolverConfig(N=4, M=10, N0=6)
        sol = solve_modes(problem, config)
        grid = sol.grid
        u = evaluate_u(sol, grid, 0.1)
        assert abs(u[1] - np.exp(-0.1 * np.pi ** 2)) <= 1e-14

    def test_tp2_terminal_accuracy(self):
        problem = builtin_problem(2)
        config = SolverConfig(N=4, M=10, N0=6)
        sol = solve_modes(problem, config)
        grid = sol.grid
        err = np.abs(evaluate_u(sol, grid, 1.0)
                     - np.exp(-1.0) * np.sin(np.pi * grid.nodes))
        assert np.max(err) <= 1e-14

    def test_initial_derivative_reproduced(self):
        problem = builtin_problem(1)
        config = SolverConfig(N=4, M=12, N0=6)
        sol = solve_modes(problem, config)
        grid = sol.grid
        assert_allclose(evaluate_ux(sol, grid, 0.0),
                        np.pi * np.cos(np.pi * grid.nodes), atol=1e-12)

    def test_derivative_value_at_origin(self):
        problem = builtin_problem(1).with_horizon(0.1)
        config = SolverConfig(N=4, M=12, N0=6)
        sol = solve_modes(problem, config)
        grid = sol.grid
        ux = evaluate_ux(sol, grid, 0.1)
        assert abs(ux[0] - np.pi * np.exp(-0.1 * np.pi ** 2)) <= 1e-12

    def test_zero_field_stays_zero(self):
        problem = _degenerate_problem(u0=lambda x: 0.0 * np.asarray(x))
        config = SolverConfig(N=4, M=6, N0=6)
        sol = solve_modes(problem, config)
        grid = sol.grid
        assert_allclose(evaluate_ux(sol, grid, 0.5), np.zeros(4), atol=0.0)
        assert_allclose(evaluate_u(sol, grid, 0.5), np.zeros(4), atol=0.0)

    @pytest.mark.parametrize("evaluate", [evaluate_u, evaluate_ux])
    @pytest.mark.parametrize("L,N", [(4.0, 8), (2.0, 16)])
    def test_foreign_grid_refused(self, evaluate, L, N):
        # A grid of another period or size would mis-scale or mis-shape the
        # synthesis; the solution grid here is L = 2, N = 8.
        sol = solve_modes(builtin_problem(1), SolverConfig(N=8, M=10))
        with pytest.raises(ValueError, match=rf"FourierGrid\(L={L}, N={N}\).*"
                                             r"FourierGrid\(L=2.0, N=8\)"):
            evaluate(sol, FourierGrid(L=L, N=N), 0.1)


class TestBatchedEvaluation:
    def test_table_matches_barycentric_rows(self):
        problem = builtin_problem(3)
        sol = solve_modes(problem, SolverConfig(N=8, M=10, N0=10))
        ks = sorted(sol.psi)
        nodes = sol.time_grid.nodes
        off_node = np.linspace(0.0, problem.T, 7)
        table = sol.coefficients(np.concatenate([nodes, off_node]))
        for l, row in enumerate(table[:len(nodes)]):
            assert np.array_equal(row, [sol.psi[k][l] for k in ks])
        for t, row in zip(off_node, table[len(nodes):]):
            s = 2.0 * t / problem.T - 1.0
            expected = [bary_interpolate(sol.basis, sol.psi[k], s) for k in ks]
            assert_allclose(row, expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("pid", [1, 3])  # real rates, complex rates
    def test_nodal_rows_equal_table(self, pid):
        sol = solve_modes(builtin_problem(pid), SolverConfig(N=16, M=10))
        assert np.array_equal(sol.coefficients(sol.time_grid.nodes), sol.table)

    @pytest.mark.parametrize("pid", [1, 3])
    def test_interpolated_rows_symmetric_and_zero_sum(self, pid):
        # Each row is completed after interpolation, so its -n mode is the
        # exact conjugate of its n mode and its zero mode is exactly
        # -2 sum_n Re c_n of its own positive modes.
        problem = builtin_problem(pid)
        sol = solve_modes(problem, SolverConfig(N=16, M=10))
        rows = sol.coefficients(np.linspace(0.0, problem.T, 7))
        half = 8
        assert np.array_equal(rows[:, :half], np.conj(rows[:, :half:-1]))
        assert np.array_equal(rows[:, half],
                              -2.0 * rows[:, half + 1:].real.sum(axis=1))

    @pytest.mark.parametrize("pid", [1, 2, 3])
    def test_rows_do_not_depend_on_the_batch(self, pid):
        # Each entry is the same fixed sum over the nodes whether its time
        # is asked alone or among many, so the rows are equal, not close.
        problem = builtin_problem(pid)
        sol = solve_modes(problem, SolverConfig(N=64, M=12))
        times = np.random.default_rng(pid).uniform(0.0, problem.T, 24)
        for t, row in zip(times, sol.coefficients(times)):
            assert np.array_equal(row, sol.coefficients(t)[0])

    def test_evaluation_builds_no_table(self):
        sol = solve_modes(builtin_problem(3), SolverConfig(N=16, M=10))
        evaluate_u(sol, sol.grid, sol.problem.T)
        assert "table" not in vars(sol)

    def test_array_of_times_matches_scalar_calls(self):
        problem = builtin_problem(3)
        sol = solve_modes(problem, SolverConfig(N=8, M=10, N0=10))
        grid = sol.grid
        times = np.linspace(0.0, problem.T, 5)
        for evaluate in (evaluate_u, evaluate_ux):
            batch = evaluate(sol, grid, times)
            assert batch.shape == (5, 8)
            assert evaluate(sol, grid, 0.05).shape == (8,)
            for t, row in zip(times, batch):
                assert_allclose(row, evaluate(sol, grid, float(t)),
                                rtol=0, atol=1e-15)

    def test_time_outside_horizon_rejected_in_batch(self):
        sol = solve_modes(builtin_problem(1), SolverConfig(N=4, M=6, N0=6))
        with pytest.raises(ValueError, match="t must lie"):
            evaluate_u(sol, sol.grid, np.array([0.1, 0.3]))

    @pytest.mark.parametrize("pid", [1, 2, 3])
    def test_derivative_at_large_n_matches_exact(self, pid):
        # A dense phase matrix rounds w_k x_j at this size; the FFT does not.
        problem = builtin_problem(pid)
        sol = solve_modes(problem, SolverConfig(N=1024, M=32))
        grid = sol.grid
        times = np.append(sol.time_grid.nodes, problem.T)
        ux = evaluate_ux(sol, grid, times)
        exact = np.array([problem.exact_dx(grid.nodes, t) for t in times])
        assert np.max(np.abs(ux - exact)) <= 1e-12


@pytest.mark.parametrize("kind", ["collocation", "closed_form"])
def test_left_moving_advection_matches_exact(kind):
    # mu < 0 carries the harmonic to the left: with L = 2,
    # u = e^{-nu pi^2 t} sin(pi (x - mu t)).
    mu, nu, T = -0.5, 0.1, 1.0
    problem, config = config_from_pairs(
        {"mu": str(mu), "nu": str(nu), "L": "2", "T": str(T),
         "u0": "first_harmonic", "N": "16", "M": "24"})
    sol = (solve_modes(problem, config) if kind == "collocation"
           else sa_field(problem, config.N, config.N0))
    grid = sol.grid
    times = np.append(time_grid(build_basis(config.lam, config.M), T).nodes, T)
    phase = np.pi * (grid.nodes - mu * times[:, None])
    decay = np.exp(-nu * np.pi ** 2 * times)[:, None]
    assert np.max(np.abs(evaluate_u(sol, grid, times)
                         - decay * np.sin(phase))) <= 1e-13
    assert np.max(np.abs(evaluate_ux(sol, grid, times)
                         - np.pi * decay * np.cos(phase))) <= 1e-12


@pytest.mark.parametrize("kind", ["collocation", "closed_form"])
class TestEvaluateFields:
    @staticmethod
    def _solution(kind):
        problem, config = builtin_problem(3), SolverConfig(N=16, M=10)
        return (solve_modes(problem, config) if kind == "collocation"
                else sa_field(problem, config.N, config.N0))

    def test_equals_the_separate_evaluations(self, kind):
        # At the time nodes plus T, as the command line asks.
        sol = self._solution(kind)
        grid, T = sol.grid, sol.problem.T
        times = np.append(time_grid(build_basis(-0.4, 10), T).nodes, T)
        table, u, ux = solver.evaluate_fields(sol, times)
        assert np.array_equal(table, sol.coefficients(times))
        assert np.array_equal(u, evaluate_u(sol, grid, times))
        assert np.array_equal(ux, evaluate_ux(sol, grid, times))

    def test_refuses_a_time_outside_the_horizon(self, kind):
        with pytest.raises(ValueError, match=re.escape(
                "t must lie in [0, 0.1]; got 0.2")):
            solver.evaluate_fields(self._solution(kind), [0.05, 0.2])

    def test_refuses_a_2d_time(self, kind):
        with pytest.raises(ValueError, match=re.escape(
                "t must be a scalar or a 1-D array; got shape (1, 2)")):
            solver.evaluate_fields(self._solution(kind), [[0.01, 0.02]])


@pytest.mark.parametrize("call", [
    lambda problem, config, t: coefficients_at(solve_modes(problem, config), t),
    lambda problem, config, t: sa_coefficient_map(
        sa_field(problem, config.N), t),
    lambda problem, config, t: sa_evaluate_u(sa_field(problem, config.N), 0.5, t),
    lambda problem, config, t: sa_evaluate_ux(
        sa_field(problem, config.N), 0.5, t),
], ids=["coefficients_at", "sa_coefficient_map", "sa_evaluate_u",
        "sa_evaluate_ux"])
@pytest.mark.parametrize("t, shape", [([0.01, 0.02], (2,)),
                                      ([[0.01]], (1, 1))], ids=["1-D", "2-D"])
def test_scalar_time_entry_points_refuse_an_array(call, t, shape):
    # Each takes one time, and names the shape its caller passed.
    problem, config = builtin_problem(3), SolverConfig(N=8, M=4)
    with pytest.raises(ValueError, match="^" + re.escape(
            f"t must be a scalar; got shape {shape}") + "$"):
        call(problem, config, t)


class TestValueObjects:
    @pytest.mark.parametrize("build", [
        lambda: build_basis(-0.4, 6),
        lambda: build_integration_matrix(build_basis(-0.4, 6)),
        lambda: time_grid(build_basis(-0.4, 6), 0.2),
        lambda: sa_field(builtin_problem(1), 4).spectrum,
        lambda: solve_modes(builtin_problem(1), SolverConfig(N=4, M=6)),
        lambda: sa_field(builtin_problem(1), 4),
    ], ids=["GegenbauerBasis", "IntegrationMatrix", "TimeGrid",
            "InitialSpectrum", "SpectralSolution", "SAField"])
    def test_equality_is_identity(self, build):
        # Objects holding arrays compare by identity; a generated __eq__
        # would compare the arrays and raise on their ambiguous truth value.
        a, b = build(), build()
        assert a == a
        assert not a == b
        assert a != b
        assert len({a, b}) == 2
