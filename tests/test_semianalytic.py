"""Closed-form coefficients and direct evaluation of the solution field."""

import dataclasses
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from adspectral import (ADProblem, FourierGrid, SAField, SolverConfig,
                        coefficients_at, dft_coefficients, evaluate_u,
                        evaluate_ux, mode_rate, sa_coefficient_map, sa_evaluate_u, sa_evaluate_ux,
                        sa_field, solve_modes, synthesize_field)
from adspectral import test_problem as builtin_problem


def _mode(field, n, t):
    # The closed-form coefficient of mode n at time t, read from the table.
    return field.coefficients(t)[0, field.N // 2 + n]


def _half_sums(field, x, t):
    # Reference: the half-spectrum sums over n = 1 .. N/2, one mode at a time,
    #   u  = 2 Re sum_n c_n(t) e^{i w_n x} - 2 sum_n Re c_n(t) + g(t),
    #   ux = -2 Im sum_n w_n c_n(t) e^{i w_n x}.
    ns = range(1, field.N // 2 + 1)
    om = np.array([2.0 * np.pi * n / field.problem.L for n in ns])
    c = np.array([field.spectrum.mode(n) * np.exp(-mode_rate(field.problem, n) * t)
                  for n in ns])
    travelling = c * np.exp(1j * np.multiply.outer(x, om))
    u = 2.0 * travelling.real.sum(axis=-1) - 2.0 * c.real.sum() + field.problem.g(t)
    return u, -2.0 * (travelling * om).imag.sum(axis=-1)


class TestSaCoefficient:
    def test_initial_value(self):
        field = sa_field(builtin_problem(1), 4, 6)
        assert _mode(field, 1, 0.0) == field.spectrum.mode(1)

    def test_tp1_decayed_value(self):
        # Oracle: alpha_1 = pi^2 and u0_hat_1 = -i/2, so -i/2 exp(-0.1 pi^2).
        field = sa_field(builtin_problem(1), 4, 6)
        got = _mode(field, 1, 0.1)
        assert got == pytest.approx(-0.5j * np.exp(-0.1 * np.pi ** 2), abs=1e-16)

    def test_pure_advection_preserves_modulus(self):
        problem = ADProblem(mu=1.0, nu=0.0, L=2.0, T=1.0,
                            u0=lambda x: np.sin(np.pi * x),
                            g=lambda t: 0.0 * np.asarray(t))
        field = sa_field(problem, 4, 6)
        base = abs(field.spectrum.mode(1))
        for t in np.linspace(0.0, 1.0, 9):
            assert abs(_mode(field, 1, float(t))) == pytest.approx(base, rel=1e-14)

    def test_time_bounds(self):
        field = sa_field(builtin_problem(1), 4, 6)
        for t in (-0.01, 1.0):
            with pytest.raises(ValueError, match="t must lie"):
                field.coefficients(t)

    def test_decay_strictly_orders_modes(self):
        # Two harmonics with nonincreasing magnitudes: diffusion separates them.
        problem = ADProblem(mu=0.0, nu=0.5, L=2.0, T=0.5,
                            u0=lambda x: np.sin(np.pi * x) + 0.3 * np.cos(2 * np.pi * x),
                            g=lambda t: 0.3 + 0.0 * np.asarray(t))
        field = sa_field(problem, 8, 10)
        mags = [abs(_mode(field, n, 0.2)) for n in range(1, 5)]
        assert all(a > b for a, b in zip(mags, mags[1:]))


class TestSaField:
    def test_margin_invariant(self):
        spectrum = dft_coefficients(np.zeros(6), 6)
        problem = builtin_problem(1)
        with pytest.raises(ValueError, match="N0 - 2"):
            SAField(spectrum=spectrum, problem=problem, N=6)

    def test_default_sampling(self):
        field = sa_field(builtin_problem(1), 4)
        assert field.spectrum.N0 == 6

    def test_coefficient_map_structure(self):
        field = sa_field(builtin_problem(1), 4, 6)
        coeffs = sa_coefficient_map(field, 0.05)
        assert sorted(coeffs) == list(range(-2, 3))
        assert coeffs[-1] == coeffs[1].conjugate()
        assert abs(sum(coeffs.values())) <= 1e-15

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_u0_refused_without_warning(self, bad):
        problem = ADProblem(
            mu=0.0, nu=1.0, L=2.0, T=0.2,
            u0=lambda x: np.where(np.isclose(x, 0.5), bad, np.sin(np.pi * x)),
            g=lambda t: 0.0 * np.asarray(t))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="u0 is not finite: sample 2 of 8"):
                sa_field(problem, 4, 8)


class TestSaCoefficientTable:
    def test_rows_match_scalar_coefficients(self):
        problem = builtin_problem(3)
        field = sa_field(problem, 16, 18)
        times = np.linspace(0.0, problem.T, 5)
        table = field.coefficients(times)
        assert table.shape == (5, 17)
        for t, row in zip(times, table):
            pos = np.array([_mode(field, n, float(t)) for n in range(1, 9)])
            assert_allclose(row[9:], pos, rtol=1e-15, atol=0)
            assert np.array_equal(row[:8], np.conj(row[9:][::-1]))
            assert row[8] == pytest.approx(-2.0 * pos.real.sum(), abs=1e-16)

    def test_time_outside_horizon_rejected(self):
        field = sa_field(builtin_problem(1), 4, 6)
        with pytest.raises(ValueError, match="t must lie"):
            field.coefficients([0.1, 0.25])
        for evaluate in (sa_evaluate_u, sa_evaluate_ux):
            with pytest.raises(ValueError, match="t must lie"):
                evaluate(field, 0.5, 0.25)

    @pytest.mark.parametrize("pid", [1, 2, 3])
    def test_collocation_table_matches_closed_form(self, pid):
        # Every mode, the negative and zero modes included, at the nodes.
        problem = builtin_problem(pid)
        config = SolverConfig(N=16, M=12, N0=18, lam=-0.4)
        sol = solve_modes(problem, config)
        field = sa_field(problem, config.N, config.N0)
        closed = field.coefficients(sol.time_grid.nodes)
        assert np.max(np.abs(sol.table - closed)) <= 1e-11


class TestSharedInterface:
    # The solver's grid evaluation takes an SAField as it takes a
    # SpectralSolution, through the same grid and coefficients members.
    @pytest.mark.parametrize("pid", [1, 2, 3])
    def test_grid_evaluation_matches_direct_sums(self, pid):
        problem = builtin_problem(pid)
        field = sa_field(problem, 64)
        times = np.linspace(0.0, problem.T, 5)
        u = evaluate_u(field, field.grid, times)
        ux = evaluate_ux(field, field.grid, times)
        for t, u_row, ux_row in zip(times, u, ux):
            assert_allclose(u_row, sa_evaluate_u(field, field.grid.nodes, t),
                            rtol=0, atol=1e-14)
            assert_allclose(ux_row, sa_evaluate_ux(field, field.grid.nodes, t),
                            rtol=0, atol=1e-14)
            assert coefficients_at(field, t) == sa_coefficient_map(field, t)

    @pytest.mark.parametrize("evaluate", [evaluate_u, evaluate_ux])
    def test_foreign_grid_refused(self, evaluate):
        field = sa_field(builtin_problem(1), 8)
        with pytest.raises(ValueError, match=r"FourierGrid\(L=4.0, N=8\).*"
                                             r"FourierGrid\(L=2.0, N=8\)"):
            evaluate(field, FourierGrid(L=4.0, N=8), 0.1)

    @pytest.mark.parametrize("read", [
        lambda sol, t: evaluate_u(sol, sol.grid, t),
        lambda sol, t: evaluate_ux(sol, sol.grid, t),
        lambda sol, t: sol.coefficients(t)], ids=["u", "ux", "coefficients"])
    @pytest.mark.parametrize("kind", ["collocation", "closed_form"])
    def test_two_dimensional_times_refused(self, kind, read):
        # Times are a scalar or 1-D; evaluate_u refuses the shape before it
        # samples g, which takes one float per time.
        problem = builtin_problem(1)
        sol = (solve_modes(problem, SolverConfig(N=8, M=6))
               if kind == "collocation" else sa_field(problem, 8))
        with pytest.raises(ValueError, match=r"1-D array; got shape \(2, 1\)"):
            read(sol, np.array([[0.05], [0.1]]))

    @pytest.mark.parametrize("times,rows", [
        (0.1, 1), (np.float64(0.1), 1), (np.array(0.1), 1), ([0.1], 1),
        (np.array([0.0, 0.05, 0.1]), 3)],
        ids=["float", "float64", "0-d", "list", "1-D"])
    @pytest.mark.parametrize("kind", ["collocation", "closed_form"])
    def test_coefficients_give_one_row_per_time(self, kind, times, rows):
        # A scalar time gives one row, as a 1-D array of one time does.
        problem = builtin_problem(1)
        sol = (solve_modes(problem, SolverConfig(N=8, M=6))
               if kind == "collocation" else sa_field(problem, 8))
        got = sol.coefficients(times)
        assert got.shape == (rows, 9)
        assert np.array_equal(got, sol.coefficients(np.atleast_1d(times)))


class TestSaEvaluation:
    def test_tp1_pointwise(self):
        field = sa_field(builtin_problem(1), 4, 6)
        got = sa_evaluate_u(field, 0.5, 0.1)
        assert got == pytest.approx(np.exp(-0.1 * np.pi ** 2), abs=2.5e-16)

    def test_tp2_pointwise(self):
        field = sa_field(builtin_problem(2), 4, 6)
        got = sa_evaluate_u(field, 0.25, 1.0)
        assert got == pytest.approx(np.exp(-1.0) * np.sin(np.pi / 4), abs=2.5e-16)

    def test_initial_interpolant_reproduced(self):
        problem = builtin_problem(3)
        field = sa_field(problem, 16, 18)
        grid = FourierGrid(L=problem.L, N=16)
        got = np.array([sa_evaluate_u(field, float(x), 0.0) for x in grid.nodes])
        assert_allclose(got, problem.u0(grid.nodes), atol=1e-14)

    def test_derivative_at_origin(self):
        field = sa_field(builtin_problem(1), 4, 6)
        assert sa_evaluate_ux(field, 0.0, 0.0) == pytest.approx(np.pi, abs=1e-13)

    def test_derivative_decayed(self):
        field = sa_field(builtin_problem(1), 4, 6)
        got = sa_evaluate_ux(field, 1.0, 0.1)
        assert got == pytest.approx(-np.pi * np.exp(-0.1 * np.pi ** 2), abs=1e-12)

    def test_zero_spectrum_everywhere_zero(self):
        problem = ADProblem(mu=0.0, nu=1.0, L=2.0, T=1.0,
                            u0=lambda x: 0.0 * np.asarray(x),
                            g=lambda t: 0.0 * np.asarray(t))
        field = sa_field(problem, 4, 6)
        for x, t in [(0.0, 0.0), (0.77, 0.5), (1.9, 1.0)]:
            assert sa_evaluate_ux(field, x, t) == 0.0
            assert sa_evaluate_u(field, x, t) == 0.0

    def test_map_synthesis_matches_pointwise(self):
        problem = builtin_problem(3)
        field = sa_field(problem, 16, 18)
        grid = FourierGrid(L=problem.L, N=16)
        t = 0.07
        via_map = synthesize_field(sa_coefficient_map(field, t), grid,
                                   float(problem.g(t)))
        direct = np.array([sa_evaluate_u(field, float(x), t) for x in grid.nodes])
        assert_allclose(via_map, direct, atol=1e-14)

    @pytest.mark.parametrize("pid,N,N0", [(1, 4, 6), (2, 4, 6), (3, 16, 18)])
    def test_matches_collocation_solution(self, pid, N, N0):
        # Both approximate the same truncated system; at M = 12 the solve has
        # converged to the closed form.
        problem = builtin_problem(pid)
        config = SolverConfig(N=N, M=12, N0=N0)
        sol = solve_modes(problem, config)
        field = sa_field(problem, N, N0)
        grid = sol.grid
        worst = 0.0
        for t in np.linspace(0.0, problem.T, 7):
            numeric = evaluate_u(sol, grid, float(t))
            closed = synthesize_field(sa_coefficient_map(field, float(t)),
                                      grid, float(problem.g(t)))
            worst = max(worst, float(np.max(np.abs(numeric - closed))))
        assert worst <= 1e-11

    def test_matches_half_spectrum_sums(self):
        # Advection and diffusion, and energy in the Nyquist mode n = N/2 = 8.
        def u0(x):
            return (np.sin(np.pi * x) + 0.4 * np.sin(8 * np.pi * x + 0.3)
                    + 0.2 * np.cos(5 * np.pi * x))

        problem = ADProblem(mu=0.7, nu=0.05, L=2.0, T=0.3, u0=u0,
                            g=lambda t: float(u0(0.0)) + 0.0 * np.asarray(t))
        field = sa_field(problem, 16, 18)
        assert abs(field.spectrum.mode(8)) > 0.1
        x = np.random.default_rng(60).uniform(0.0, problem.L, (3, 7))
        for t in (0.0, 0.13, problem.T):
            u_ref, ux_ref = _half_sums(field, x, t)
            u, ux = sa_evaluate_u(field, x, t), sa_evaluate_ux(field, x, t)
            assert u.shape == ux.shape == x.shape
            assert np.max(np.abs(u - u_ref)) <= 1e-14 * max(1.0, np.max(np.abs(u_ref)))
            assert np.max(np.abs(ux - ux_ref)) <= 1e-14 * max(1.0, np.max(np.abs(ux_ref)))

    @pytest.mark.parametrize("pid", [1, 2])
    def test_single_harmonic_pde_residual(self, pid, pde_residual):
        problem = builtin_problem(pid)
        field = sa_field(problem, 4, 6)
        probe_problem = dataclasses.replace(
            problem, exact=lambda x, t: sa_evaluate_u(field, x, t))
        rng = np.random.default_rng(50 + pid)
        for _ in range(25):
            x = rng.uniform(0.05, problem.L - 0.05)
            t = rng.uniform(1e-3, problem.T * 0.9)
            assert abs(pde_residual(probe_problem, x, t)) <= 1e-6
