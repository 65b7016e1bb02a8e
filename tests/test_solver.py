"""Mode assembly, direct solves, symmetry completion, and field evaluation."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import lu_factor, lu_solve

from adspectral import (ADProblem, FourierGrid, ModeSolveError, SolverConfig,
                        assemble_mode, bary_interpolate, coefficients_at,
                        dft_coefficients, evaluate_u, evaluate_ux, mode_rate,
                        solve_modes)
from adspectral import test_problem as builtin_problem
from adspectral import solver
from adspectral.gegenbauer import build_basis, build_integration_matrix, \
    reference_rule, shift_integration_matrix
from adspectral.solver import PIVOT_RTOL, ModeSystem, _coefficient_table, \
    _prepare, _solve_system


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

    def test_degenerate_transport_gives_identity(self):
        problem = _degenerate_problem()
        config = SolverConfig(N=4, M=6, N0=6)
        tq, spectrum = self._tq_and_spectrum(problem, config)
        system = assemble_mode(1, problem, config, tq, spectrum)
        assert system.alpha == 0
        assert np.array_equal(system.matrix, np.eye(7, dtype=complex))

    def test_matrix_and_rhs_shape(self):
        problem = builtin_problem(1)
        config = SolverConfig(N=4, M=10, N0=6)
        tq, spectrum = self._tq_and_spectrum(problem, config)
        system = assemble_mode(2, problem, config, tq, spectrum)
        assert system.matrix.shape == (11, 11)
        assert_allclose(system.rhs, np.full(11, spectrum.mode(2)))
        assert system.alpha.real >= 0 and system.alpha.imag >= 0

    def test_mode_index_out_of_range(self):
        problem = builtin_problem(1)
        config = SolverConfig(N=4, M=6, N0=6)
        tq, spectrum = self._tq_and_spectrum(problem, config)
        with pytest.raises(ValueError, match="mode index"):
            assemble_mode(3, problem, config, tq, spectrum)


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
        with pytest.raises(ValueError):
            sol.table[0, 0] = 1.0
        assert sorted(sol.psi) == list(range(-4, 5))
        for k in sol.psi:
            assert np.shares_memory(sol.psi[k], sol.table)
            assert np.array_equal(sol.psi[k], sol.table[:, k + 4])
            assert not sol.psi[k].flags.writeable
        with pytest.raises(TypeError):
            sol.psi[1] = sol.psi[2]

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_singular_system_reported_with_mode(self):
        size = 5
        matrix = np.zeros((size, size), dtype=complex)
        matrix[0, 0] = 1.0
        system = ModeSystem(n=3, alpha=1.0 + 0j, matrix=matrix,
                            rhs=np.ones(size, dtype=complex))
        with pytest.raises(ModeSolveError, match="mode 3"):
            _solve_system(system)


class TestDirectLapack:
    @pytest.mark.parametrize("pid", [1, 2, 3])
    @pytest.mark.parametrize("N,M", [(8, 40), (64, 10), (256, 32)])
    def test_matches_lu_factor_oracle_bit_for_bit(self, pid, N, M):
        problem = builtin_problem(pid)
        config = SolverConfig(N=N, M=M)
        sol = solve_modes(problem, config)
        _, tq, _, spectrum = _prepare(problem, config)
        for n in range(1, N // 2 + 1):
            system = assemble_mode(n, problem, config, tq, spectrum)
            expected = lu_solve(lu_factor(system.matrix), system.rhs)
            assert np.array_equal(sol.psi[n], expected)

    def test_tiny_pivot_reported_with_mode(self):
        # Nonzero, so LAPACK factors it; the relative test refuses it.
        matrix = np.diag([1.0, 1.0, 0.5 * PIVOT_RTOL]).astype(complex)
        system = ModeSystem(n=7, alpha=1.0 + 0j, matrix=matrix,
                            rhs=np.ones(3, dtype=complex))
        with pytest.raises(ModeSolveError, match="mode 7: singular"):
            _solve_system(system)
        matrix = np.diag([1.0, 1.0, 2.0 * PIVOT_RTOL]).astype(complex)
        ok = ModeSystem(n=7, alpha=1.0 + 0j, matrix=matrix,
                        rhs=np.ones(3, dtype=complex))
        assert np.array_equal(_solve_system(ok), [1.0, 1.0, 0.5 / PIVOT_RTOL])

    def test_solve_modes_names_the_singular_mode(self, monkeypatch):
        assemble = solver.assemble_mode

        def singular_at_two(n, *args):
            system = assemble(n, *args)
            if n != 2:
                return system
            matrix = np.zeros_like(system.matrix)
            matrix[0, 0] = 1.0
            return ModeSystem(n=n, alpha=system.alpha, matrix=matrix,
                              rhs=system.rhs)

        monkeypatch.setattr(solver, "assemble_mode", singular_at_two)
        with pytest.raises(ModeSolveError, match="mode 2:") as info:
            solve_modes(builtin_problem(3), SolverConfig(N=8, M=6))
        assert info.value.mode == 2

    def test_zero_matrix_refused(self, monkeypatch):
        # An all-zero matrix has ||A|| = 0, so only LAPACK's info flags it.
        zero = ModeSystem(n=2, alpha=1.0 + 0j,
                          matrix=np.zeros((5, 5), dtype=complex),
                          rhs=np.ones(5, dtype=complex))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModeSolveError, match="mode 2: singular"):
                _solve_system(zero)
        assemble = solver.assemble_mode

        def zero_at_two(n, *args):
            system = assemble(n, *args)
            if n != 2:
                return system
            return ModeSystem(n=n, alpha=system.alpha,
                              matrix=np.zeros_like(system.matrix),
                              rhs=system.rhs)

        monkeypatch.setattr(solver, "assemble_mode", zero_at_two)
        with pytest.raises(ModeSolveError, match="mode 2:") as info:
            solve_modes(builtin_problem(3), SolverConfig(N=8, M=6))
        assert info.value.mode == 2


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


class TestBatchedEvaluation:
    def test_table_matches_barycentric_rows(self):
        problem = builtin_problem(3)
        sol = solve_modes(problem, SolverConfig(N=8, M=10, N0=10))
        ks = sorted(sol.psi)
        nodes = sol.time_grid.nodes
        off_node = np.linspace(0.0, problem.T, 7)
        table = _coefficient_table(sol, np.concatenate([nodes, off_node]))
        for l, row in enumerate(table[:len(nodes)]):
            assert np.array_equal(row, [sol.psi[k][l] for k in ks])
        for t, row in zip(off_node, table[len(nodes):]):
            s = 2.0 * t / problem.T - 1.0
            expected = [bary_interpolate(sol.basis, sol.psi[k], s) for k in ks]
            assert_allclose(row, expected, rtol=0, atol=1e-15)

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
