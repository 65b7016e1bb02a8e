"""Error metrics, sweeps, the preconditioned Jacobi SVD, and conditioning studies."""

import dataclasses
import functools
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from adspectral import (ADProblem, ModeSolveError, SolverConfig,
                        conditioning_study, convergence_sweep, error_report,
                        evaluate_u, jacobi_svd, mode_rate, singular_values,
                        solve_modes)
from adspectral import analysis, gegenbauer, problems, solver
from adspectral import test_problem as builtin_problem
from adspectral.analysis import _field_errors, field_report
from adspectral.gegenbauer import RULE_CACHE_SIZE, build_basis, \
    build_integration_matrix, reference_rule, shift_integration_matrix

SWEEP_NS, SWEEP_MS = range(4, 65, 4), range(2, 41, 2)


@pytest.fixture
def no_rule_builds(monkeypatch):
    """Fail any Gegenbauer rule build, with the rule cache emptied."""

    def unreachable(*args, **kwargs):
        raise AssertionError("a rule was built")

    monkeypatch.setattr(gegenbauer, "build_basis", unreachable)
    reference_rule.cache_clear()


def conditioning_stack(lam, M):
    """The stack conditioning_study builds on problem 3 at N = 64: TQ, then
    A at n = 1 and n = 32."""
    problem = builtin_problem(3)
    tq = shift_integration_matrix(reference_rule(lam, M)[1], problem.T).entries
    rates = mode_rate(problem, np.array([1, 32]))
    return np.concatenate([tq[None] + 0j,
                           np.eye(M + 1) + rates[:, None, None] * tq])


@functools.cache
def conditioning_stack_reference(lam, M):
    """conditioning_stack(lam, M) and its singular values from 40-digit
    mpmath, descending per member.

    Cached, so that the tests of the Jacobi SVD and of the study share one
    mpmath computation per point.
    """
    import mpmath

    stack = conditioning_stack(lam, M)
    with mpmath.workdps(40):
        exact = [np.sort([float(v) for v in mpmath.svd_c(
            mpmath.matrix(member.tolist()), compute_uv=False)])[::-1]
            for member in stack]
    return stack, np.array(exact)


def per_cell_sweep_rows(problem, N_range, M_range, lam, t_final):
    """Reference sweep that evaluates each (N, M) cell on its own.

    Each M shares one solve_modes call at the largest N, as the sweep does:
    the bits of a unit solve depend on its mode count, so per-cell solves
    would differ from it in the last bits. Each cell then replaces that
    solution's unit solutions by their leading N/2 columns and its scale by
    the u0 spectrum at N0 = N + 2, and runs evaluate_u at t_final and
    field_report.
    """
    run = problem.with_horizon(t_final)
    Ns = sorted(set(N_range))
    dnes = {}
    for M in sorted(set(M_range)):
        wide = solve_modes(run, SolverConfig(N=Ns[-1], M=M, lam=lam))
        for N in Ns:
            config = SolverConfig(N=N, M=M, N0=N + 2, lam=lam)
            sol = dataclasses.replace(
                wide, config=config, units=wide.units[:, :N // 2],
                scale=run.spectrum(N + 2).values[1:N // 2 + 1])
            dnes[N, M] = field_report(
                problem, config, evaluate_u(sol, sol.grid, t_final), t_final).dne
    return [(N, M, dne, float(np.log10(dne)) if dne > 0 else -np.inf)
            for (N, M), dne in sorted(dnes.items())]


class TestErrorReport:
    def test_identical_fields_give_exact_zero(self):
        # The solve is deterministic, so an exact sampler wrapping the
        # solver's own output must produce a bitwise-zero error.
        problem = builtin_problem(1)
        config = SolverConfig(N=4, M=6, N0=6)
        t_final = 0.15
        reference = solve_modes(problem.with_horizon(t_final), config)
        grid = reference.grid
        synthetic = dataclasses.replace(
            problem, exact=lambda x, t: evaluate_u(reference, grid, t))
        report = error_report(synthetic, config, t_final)
        assert report.pointwise_max == 0.0
        assert report.dne == 0.0

    def test_tp1_table_value(self):
        report = error_report(builtin_problem(1),
                              SolverConfig(N=4, M=8, N0=6, lam=-0.4), 0.1)
        assert 1.6445e-13 <= report.pointwise_max <= 1.6445e-11

    def test_tp2_table_value(self):
        report = error_report(builtin_problem(2),
                              SolverConfig(N=4, M=7, N0=6, lam=-0.4), 1.0)
        assert 7.0965e-12 <= report.pointwise_max <= 7.0965e-10

    def test_dne_bounded_by_pointwise(self):
        problem = builtin_problem(2)
        report = error_report(problem, SolverConfig(N=8, M=5, N0=10), 0.7)
        assert report.dne <= np.sqrt(problem.L) * report.pointwise_max + 1e-300

    def test_dne_kept_when_squares_underflow_or_overflow(self):
        # Problem 1's exact field is exactly 0 at t = 100, so each numeric
        # field is its own error. Only the first two sums of squares leave
        # the normal range; the third keeps the plain formula's bytes.
        problem = builtin_problem(1)
        shape = np.sin(np.arange(16) + 0.3)
        scales = np.array([1e-300, 1e200, 1e-3])
        fields = scales[:, None] * shape
        _, dne = _field_errors(problem, fields, 100.0)
        plain = np.sqrt(problem.L / 16 * np.sum(shape ** 2))
        assert_allclose(dne, scales * plain, rtol=1e-15)
        assert dne[2] == np.sqrt(problem.L / 16 * np.sum(fields[2] ** 2))
        assert _field_errors(problem, fields[0], 100.0)[1] == dne[0]

    @pytest.mark.parametrize("pid", [1, 3])
    def test_dne_of_errors_below_1e_154(self, pid):
        # The built-in scaled by 1e-285, at its own horizon: every pointwise
        # error is below 1e-290, so every square underflows.
        base = builtin_problem(pid)
        problem = dataclasses.replace(
            base, u0=lambda x: 1e-285 * base.u0(x),
            g=lambda t: 1e-285 * base.g(t),
            exact=lambda x, t: 1e-285 * base.exact(x, t))
        report = error_report(problem, SolverConfig(N=64, M=8), problem.T)
        assert 0 < report.pointwise_max < 1e-290
        assert (report.pointwise_max * np.sqrt(problem.L / 64) <= report.dne
                <= report.pointwise_max * np.sqrt(problem.L))

    def test_dne_two_computations_agree(self):
        problem = builtin_problem(1)
        config = SolverConfig(N=8, M=6, N0=10)
        t_final = 0.2
        report = error_report(problem, config, t_final)
        sol = solve_modes(problem.with_horizon(t_final), config)
        grid = sol.grid
        errs = evaluate_u(sol, grid, t_final) - problem.exact(grid.nodes, t_final)
        via_norm = float(np.sqrt(problem.L) * np.linalg.norm(errs) / np.sqrt(config.N))
        assert report.dne == pytest.approx(via_norm, rel=1e-14)

    def test_requires_exact_solution(self):
        problem = ADProblem(mu=0.0, nu=1.0, L=2.0, T=1.0,
                            u0=lambda x: np.sin(np.pi * x),
                            g=lambda t: 0.0 * np.asarray(t))
        with pytest.raises(ValueError, match="exact"):
            error_report(problem, SolverConfig(N=4, M=6, N0=6), 0.5)

    def test_rejects_nonpositive_t_final(self):
        with pytest.raises(ValueError, match="t_final"):
            error_report(builtin_problem(1), SolverConfig(N=4, M=6, N0=6), 0.0)

    def test_grid_desc_contents(self):
        config = SolverConfig(N=4, M=8, N0=6, lam=-0.4)
        report = error_report(builtin_problem(1), config, 0.1)
        assert report.grid_desc == (4, 8, -0.4, 6, 0.1)


class TestConvergenceSweep:
    def test_temporal_decay_spans_eight_decades(self):
        result = convergence_sweep(builtin_problem(1).with_horizon(0.2), [4],
                                   range(4, 13), -0.4)
        logs = [row[3] for row in result.rows]
        assert logs[0] - logs[-1] >= 8.0
        assert result.slopes[4] < -1.0

    def test_spatial_direction_is_flat(self):
        result = convergence_sweep(builtin_problem(1).with_horizon(0.2),
                                   range(4, 23, 2), [12], -0.4)
        dnes = [row[2] for row in result.rows]
        assert len(result.rows) == 10
        assert np.log10(max(dnes) / min(dnes)) <= 1.0

    def test_single_cell(self):
        result = convergence_sweep(builtin_problem(2), [4], [6], -0.4)
        assert len(result.rows) == 1
        assert result.rows[0][0] == 4 and result.rows[0][1] == 6

    def test_rows_sorted_by_keys(self):
        result = convergence_sweep(builtin_problem(1).with_horizon(0.1),
                                   [8, 4], [6, 5], -0.4)
        keys = [(row[0], row[1]) for row in result.rows]
        assert keys == sorted(keys)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            convergence_sweep(builtin_problem(1), [], [4], -0.4)

    @pytest.mark.parametrize("N_range,M_range,lam,message", [
        ([4, 5], [4], -0.4, "N_range entry 5 is not even and >= 2"),
        ([4], [4, 0], -0.4, "M_range entry 0 is not >= 1"),
        ([4], [4, 2.5], -0.4, "M_range entry 2.5 is not a whole number"),
        ([4], [3.7], -0.4, "M_range entry 3.7 is not a whole number"),
        # the rule table's words, not build_basis's
        ([4], [4], -0.5, "lam -0.5 is not > -0.499999"),
        ([4], [4], float("nan"), "lam nan is not > -0.499999"),
    ], ids=["N_range", "M_range", "M_range-2.5", "M_range-3.7", "lam",
            "lam-nan"])
    def test_bad_entry_names_the_argument(self, no_rule_builds, N_range,
                                          M_range, lam, message):
        with pytest.raises(ValueError, match="^" + re.escape(
                f"convergence_sweep: {message}") + "$"):
            convergence_sweep(builtin_problem(1), N_range, M_range, lam)

    def test_requires_exact_solution(self):
        problem = ADProblem(mu=0.0, nu=1.0, L=2.0, T=1.0,
                            u0=lambda x: np.sin(np.pi * x),
                            g=lambda t: 0.0 * np.asarray(t))
        with pytest.raises(ValueError,
                           match="convergence_sweep requires .* exact"):
            convergence_sweep(problem, [4], [6], -0.4)

    @pytest.mark.parametrize("pid", [1, 2, 3])
    def test_matches_per_cell_error_reports(self, pid):
        # Each M's unit solve is shared by every N; each cell still gets the
        # dne of its own error_report, in the same (N, M) order.
        problem = builtin_problem(pid)
        Ns, Ms = range(4, 65, 4), range(2, 41, 2)
        result = convergence_sweep(problem, Ns, Ms, -0.4)
        keys = [(N, M) for N in Ns for M in Ms]
        expected = [
            error_report(problem, SolverConfig(N=N, M=M, N0=N + 2, lam=-0.4),
                         problem.T).dne
            for N, M in keys]
        assert [row[:2] for row in result.rows] == keys
        assert_allclose([row[2] for row in result.rows], expected,
                        rtol=0.0, atol=1e-15)

    def test_one_rule_build_per_M(self):
        # More values of M than the rule cache holds: a sweep that visited
        # the cells N outer would rebuild every rule once per N.
        Ms = range(2, 42)
        assert len(Ms) > RULE_CACHE_SIZE
        reference_rule.cache_clear()
        convergence_sweep(builtin_problem(1), range(4, 65, 4), Ms, -0.4)
        assert reference_rule.cache_info().misses == len(Ms)

    @pytest.mark.parametrize("pid, N_range, M_range, t_final", [
        (1, SWEEP_NS, SWEEP_MS, None),
        (2, SWEEP_NS, SWEEP_MS, None),
        (3, SWEEP_NS, SWEEP_MS, None),
        (3, SWEEP_NS, SWEEP_MS, 0.37),
        (1, [6, 10, 4, 64, 4], [1, 3, 40, 7, 3], 0.1),
    ], ids=["p1", "p2", "p3", "p3-t0.37", "p1-unsorted-t0.1"])
    def test_rows_equal_per_cell_evaluation(self, pid, N_range, M_range,
                                            t_final):
        # The batched pass does the same arithmetic as one evaluate_u per
        # cell, so every row is equal, not only close.
        problem = builtin_problem(pid)
        t_final = problem.T if t_final is None else t_final
        result = convergence_sweep(problem.with_horizon(t_final), N_range,
                                   M_range, -0.4)
        assert result.rows == per_cell_sweep_rows(problem, N_range, M_range,
                                                  -0.4, t_final)

    def test_one_synthesis_and_exact_sample_per_N(self, monkeypatch):
        counts = dict.fromkeys(["synthesize_field", "complete_half_spectrum",
                                "evaluate_u", "solve_modes", "exact",
                                "dft_coefficients"], 0)

        def counted(name, function):
            def call(*args, **kwargs):
                counts[name] += 1
                return function(*args, **kwargs)
            return call

        # Synthesis and completion are counted wherever the sweep could
        # reach them, directly or through the solver.
        for name in ("synthesize_field", "complete_half_spectrum"):
            for module in (analysis, solver):
                monkeypatch.setattr(module, name, counted(
                    name, getattr(solver, name)), raising=False)
        for name in ("evaluate_u", "solve_modes"):
            monkeypatch.setattr(analysis, name,
                                counted(name, getattr(analysis, name)))
        # One u0 spectrum per N: the solves at the largest N share its own.
        monkeypatch.setattr(problems, "dft_coefficients", counted(
            "dft_coefficients", problems.dft_coefficients))
        problem = builtin_problem(3)
        problem = dataclasses.replace(problem,
                                      exact=counted("exact", problem.exact))
        result = convergence_sweep(problem, SWEEP_NS, SWEEP_MS, -0.4)
        assert len(result.rows) == len(SWEEP_NS) * len(SWEEP_MS)
        assert counts == {"synthesize_field": len(SWEEP_NS),
                          "complete_half_spectrum": len(SWEEP_NS),
                          "evaluate_u": 0, "solve_modes": len(SWEEP_MS),
                          "exact": len(SWEEP_NS),
                          "dft_coefficients": len(SWEEP_NS)}

    def test_warm_sweep_builds_no_rule_only_work(self, monkeypatch):
        # The real Schur factors, the diagonal blocks of S, Z^T ones and the
        # Lagrange row at s = 1 are kept with the cached rule: a second
        # 320-cell sweep on a warm rule cache builds none of them.
        problem = builtin_problem(3)
        first = convergence_sweep(problem, SWEEP_NS, SWEEP_MS, -0.4)
        counts = dict.fromkeys(["schur", "blocks", "end_rows"], 0)
        schur, blocks = gegenbauer._schur, gegenbauer.SchurBlocks.of.__func__
        lagrange = gegenbauer._lagrange_matrix

        def counted_schur(*args, **kwargs):
            counts["schur"] += 1
            return schur(*args, **kwargs)

        def counted_blocks(cls, s):
            counts["blocks"] += 1
            return blocks(cls, s)

        def counted_lagrange(basis, points):
            counts["end_rows"] += int(np.any(np.asarray(points) == 1.0))
            return lagrange(basis, points)

        monkeypatch.setattr(gegenbauer, "_schur", counted_schur)
        monkeypatch.setattr(gegenbauer.SchurBlocks, "of",
                            classmethod(counted_blocks))
        monkeypatch.setattr(gegenbauer, "_lagrange_matrix", counted_lagrange)
        second = convergence_sweep(problem, SWEEP_NS, SWEEP_MS, -0.4)
        assert second.rows == first.rows
        assert counts == {"schur": 0, "blocks": 0, "end_rows": 0}
        # The counters see a cold rule's builds.
        reference_rule.cache_clear()
        convergence_sweep(problem, [4], [2], -0.4)
        assert counts == {"schur": 1, "blocks": 1, "end_rows": 1}

    def test_names_the_lowest_singular_mode(self, rates_with):
        # Modes 2 and 4 are singular at this M; the lowest is named.
        problem, config, _ = rates_with({2: 0.0, 4: 0.0})
        with pytest.raises(ModeSolveError, match="mode 2:") as info:
            convergence_sweep(problem, [4, config.N], [config.M], config.lam)
        assert info.value.mode == 2
        assert str(info.value) == (
            "mode 2: singular or ill-conditioned system (smallest eigenvalue "
            "modulus 0.000e+00 below 1e-14 * (1 + |alpha| ||TQ||) = 3.927e-12)")


class TestJacobiSvd:
    def test_identity(self):
        assert_allclose(singular_values(np.eye(5)), np.ones(5), atol=0.0)

    def test_diagonal_absolute_values(self):
        assert_allclose(singular_values(np.diag([3.0, 2.0, -1.0])),
                        [3.0, 2.0, 1.0], atol=1e-15)

    def test_two_by_two_closed_form(self):
        # Analytic SVD of [[1/2, 1/2 - 1/sqrt(3)], [1/2 + 1/sqrt(3), 1/2]]:
        # sigma^2 are the roots of s^4 - (5/3) s^2 + 1/9.
        q = build_integration_matrix(build_basis(0.5, 1))
        got = singular_values(q.entries)
        expected = np.sqrt([(5 + np.sqrt(21)) / 6, (5 - np.sqrt(21)) / 6])
        assert_allclose(got, expected, rtol=1e-14)

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_random_matrices_match_lapack(self, complex_entries):
        rng = np.random.default_rng(9)
        for _ in range(5):
            a = rng.standard_normal((20, 20))
            if complex_entries:
                a = a + 1j * rng.standard_normal((20, 20))
            s = jacobi_svd(a)
            reference = np.linalg.svd(a, compute_uv=False)
            assert_allclose(s, reference, rtol=1e-10, atol=1e-12)

    def test_rectangular_tall_matrix(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((30, 8))
        s = jacobi_svd(a)
        assert_allclose(s, np.linalg.svd(a, compute_uv=False), rtol=1e-10)

    def test_wide_matrix_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            jacobi_svd(np.ones((3, 5)))

    def test_singular_values_requires_square(self):
        with pytest.raises(ValueError, match="square"):
            singular_values(np.ones((3, 5)))

    def test_rank_deficient(self):
        a = np.outer(np.arange(1.0, 6.0), np.ones(5))
        s = singular_values(a)
        assert s[0] == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)
        assert_allclose(s[1:], 0.0, atol=1e-12)

    def test_stack_members_match_own_call_and_lapack(self):
        # A complex stack whose members 0 and 2 are real (zero imaginary part).
        rng = np.random.default_rng(12)
        stack = rng.standard_normal((4, 12, 12)) + 0j
        stack[1::2] += 1j * rng.standard_normal((2, 12, 12))
        s = jacobi_svd(stack)
        assert s.shape == (4, 12)
        for k, member in enumerate(stack):
            alone = member.real if k % 2 == 0 else member
            assert_allclose(s[k], jacobi_svd(alone), rtol=1e-13)
            assert_allclose(s[k], np.linalg.svd(alone, compute_uv=False), rtol=1e-12)

    @pytest.mark.parametrize("shape", [(9, 9), (31, 9), (2, 31, 9), (3, 7, 7)])
    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_odd_and_tall_inputs(self, shape, complex_entries):
        rng = np.random.default_rng(13)
        a = rng.standard_normal(shape)
        if complex_entries:
            a = a + 1j * rng.standard_normal(shape)
        s = jacobi_svd(a)
        assert s.shape == shape[:-2] + (shape[-1],)
        assert np.all(np.diff(s, axis=-1) <= 0.0)
        assert_allclose(s, np.linalg.svd(a, compute_uv=False), rtol=1e-12)

    def test_stack_with_rank_deficient_and_identity_members(self):
        rng = np.random.default_rng(14)
        rank_one = np.outer(np.arange(1.0, 6.0), np.ones(5))
        stack = np.stack([rank_one, np.eye(5), rng.standard_normal((5, 5))])
        s = singular_values(stack)
        assert s[0, 0] == pytest.approx(np.linalg.norm(rank_one, 2), rel=1e-12)
        assert_allclose(s[0, 1:], 0.0, atol=1e-12)
        assert np.all(s[1] == 1.0)
        assert_allclose(s[2], np.linalg.svd(stack[2], compute_uv=False), rtol=1e-12)

    def test_wide_and_non_square_stacks_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            jacobi_svd(np.ones((2, 3, 5)))
        with pytest.raises(ValueError, match="stack"):
            jacobi_svd(np.ones(5))
        for shape in [(2, 3, 5), (2, 5, 3), (4,)]:
            with pytest.raises(ValueError, match="square"):
                singular_values(np.ones(shape))

    def test_non_finite_entries_rejected(self):
        stack = np.stack([np.eye(4), np.eye(4)])
        stack[1, 2, 3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            jacobi_svd(stack)

    @pytest.mark.parametrize("lam", [-0.4999, -0.49])
    def test_high_relative_accuracy_against_mpmath(self, lam):
        # The smallest singular value of Q is about 7e-8 at lam = -0.4999.
        mpmath = pytest.importorskip("mpmath")
        q = build_integration_matrix(build_basis(lam, 40)).entries
        with mpmath.workdps(40):
            exact = mpmath.svd_r(mpmath.matrix(q.tolist()), compute_uv=False)
            exact = np.sort([float(v) for v in exact])[::-1]
        assert_allclose(singular_values(q), exact, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("M", [8, 48])
    @pytest.mark.parametrize("lam", [-0.45, 0.2, 1.5])
    def test_conditioning_stack_against_mpmath(self, lam, M):
        # The stack conditioning_study builds on problem 3 at N = 64: TQ, then
        # A at n = 1 and n = 32. A has complex rates, so it goes through the
        # real embedding; sigma_min of TQ is about 1e-6 at lam = -0.45, M = 48.
        pytest.importorskip("mpmath")
        stack, exact = conditioning_stack_reference(lam, M)
        got = singular_values(stack)
        assert_allclose(got, exact, rtol=1e-13, atol=0.0)

    def test_zero_imaginary_part_gives_the_real_values(self):
        rng = np.random.default_rng(16)
        for shape in [(12, 12), (30, 8)]:
            a = rng.standard_normal(shape)
            assert_allclose(jacobi_svd(a + 0j), jacobi_svd(a), rtol=1e-15, atol=0.0)

    def test_complex_stack_equals_block_embedding(self):
        def reference(a):
            # The real embedding [[X, -Y], [Y, X]] built by np.block, through
            # the same dgejsv call; every other value of it is taken.
            x, y = a.real, a.imag
            return analysis._dgejsv_values(np.block([[x, -y], [y, x]]))[::2]

        rng = np.random.default_rng(18)
        stack = (rng.standard_normal((3, 11, 11))
                 + 1j * rng.standard_normal((3, 11, 11)))
        assert np.array_equal(jacobi_svd(stack), [reference(a) for a in stack])
        tall = rng.standard_normal((17, 6)) + 1j * rng.standard_normal((17, 6))
        tq = shift_integration_matrix(reference_rule(-0.45, 48)[1], 0.1).entries
        for a in (tall, np.eye(49) + (2.0 + 30.0j) * tq):
            assert np.array_equal(jacobi_svd(a), reference(a))

    def test_complex_identity_gives_exact_ones(self):
        # 1j * I goes through the 10 x 10 real embedding. dgejsv is not
        # exact on every identity: at orders 6, 18, 19, 24, 25, 29, 30 and
        # 34 (of 1 to 40) it gives 1 - 2**-53.
        assert np.all(singular_values(np.eye(5, dtype=complex)) == 1.0)
        assert np.all(singular_values(1j * np.eye(5)) == 1.0)

    @pytest.mark.parametrize("scale", [1e300, 1e-300])
    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_extreme_scales_match_lapack(self, scale, complex_entries):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((12, 12))
        if complex_entries:
            a = a + 1j * rng.standard_normal((12, 12))
        a = scale * a
        assert_allclose(jacobi_svd(a), np.linalg.svd(a, compute_uv=False),
                        rtol=1e-12, atol=0.0)


class TestConditioning:
    def test_shift_leaves_condition_number_invariant(self):
        q = build_integration_matrix(build_basis(-0.4, 20))
        tq = shift_integration_matrix(q, 0.37)
        sq = singular_values(q.entries)
        stq = singular_values(tq.entries)
        assert sq[0] / sq[-1] == pytest.approx(stq[0] / stq[-1], rel=1e-12)

    def test_forms_no_solve_parts_of_the_rule(self):
        # The study reads Q alone: no real Schur factor, no blocks of S,
        # no Z^T ones and no Lagrange row at s = 1 are formed.
        reference_rule.cache_clear()
        conditioning_study(builtin_problem(3), SolverConfig(N=16, M=8),
                           [-0.25, 1.5], [8, 16])
        for lam in (-0.25, 1.5):
            for M in (8, 16):
                basis, q = reference_rule(lam, M)
                assert set(vars(q)) == {"order", "entries"}
                assert "end_row" not in vars(basis)

    def test_fundamental_mode_well_conditioned(self):
        # Comparison-table settings: horizon 0.1.
        problem = builtin_problem(1).with_horizon(0.1)
        config = SolverConfig(N=4, M=10, N0=6)
        reports, flags = conditioning_study(problem, config, [-0.4], [10, 40])
        for report in reports:
            if report.kind == "A" and report.n == 1:
                assert 1.0 <= report.cond <= 2.0
        assert flags["fundamental_max_cond"] <= 2.0

    def test_no_transport_gives_exact_identity(self):
        problem = ADProblem(mu=0.0, nu=0.0, L=2.0, T=1.0,
                            u0=lambda x: np.sin(np.pi * x),
                            g=lambda t: 0.0 * np.asarray(t))
        config = SolverConfig(N=4, M=8, N0=6)
        reports, _ = conditioning_study(problem, config, [-0.4], [8])
        a_reports = [r for r in reports if r.kind == "A"]
        assert a_reports and all(r.cond == 1.0 for r in a_reports)

    def test_sigma_min_shrinks_toward_degenerate_lambda(self):
        problem = builtin_problem(1)
        config = SolverConfig(N=4, M=10, N0=6)
        reports, flags = conditioning_study(
            problem, config, [-0.4999, -0.49, -0.4], [40])
        assert flags["sigma_min_monotone_negative_lam"]
        smin = {r.lam: r.sigma_min for r in reports if r.kind == "TQ"}
        assert smin[-0.4] / smin[-0.4999] >= 100.0

    def test_peak_conditioning_at_nyquist(self):
        problem = ADProblem(mu=1.0, nu=1.0, L=2.0, T=0.2,
                            u0=lambda x: np.sin(np.pi * x),
                            g=lambda t: 0.0 * np.asarray(t))
        config = SolverConfig(N=50, M=4, N0=52)
        reports, flags = conditioning_study(problem, config, [-0.4], [4])
        assert flags["peak_at_nyquist"]
        conds = {r.n: r.cond for r in reports if r.kind == "A"}
        assert conds[25] > conds[1]

    def test_report_cardinality(self):
        problem = builtin_problem(1)
        config = SolverConfig(N=4, M=4, N0=6)
        reports, _ = conditioning_study(problem, config,
                                        [-0.4, 0.0, 0.5], [4, 12])
        assert sum(r.kind == "TQ" for r in reports) == 6
        assert sum(r.kind == "A" for r in reports) == 12
        assert all(r.cond >= 1.0 for r in reports)

    def test_reports_match_lapack_per_matrix(self):
        problem = builtin_problem(3)
        config = SolverConfig(N=16, M=8, N0=18)
        reports, _ = conditioning_study(problem, config, [-0.3, 0.5], [6, 9])
        for r in reports:
            tq = shift_integration_matrix(
                build_integration_matrix(build_basis(r.lam, r.M)), problem.T).entries
            matrix = tq if r.kind == "TQ" else \
                np.eye(r.M + 1) + mode_rate(problem, r.n) * tq
            sigma = np.linalg.svd(matrix, compute_uv=False)
            assert r.sigma_max == pytest.approx(sigma[0], rel=1e-12)
            assert r.sigma_min == pytest.approx(sigma[-1], rel=1e-12)
        assert [(r.kind, r.n) for r in reports[:3]] == [("TQ", 0), ("A", 1), ("A", 8)]

    def test_empty_lists_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            conditioning_study(builtin_problem(1), SolverConfig(N=4, M=4, N0=6),
                               [], [4])

    @pytest.mark.parametrize("lambda_list,M_list,message", [
        ([-0.4, -0.7], [4], "lambda_list entry -0.7 is not > -0.499999"),
        ([float("nan")], [4], "lambda_list entry nan is not > -0.499999"),
        ([-0.4], [4, 0], "M_list entry 0 is not >= 1"),
        ([-0.4], [2.5], "M_list entry 2.5 is not a whole number"),
        ([-0.4], [4, 3.7], "M_list entry 3.7 is not a whole number"),
    ], ids=["lambda_list", "lambda_list-nan", "M_list", "M_list-2.5",
            "M_list-3.7"])
    def test_bad_entry_names_the_argument(self, no_rule_builds, lambda_list,
                                          M_list, message):
        with pytest.raises(ValueError, match=f"^conditioning_study: {message}$"):
            conditioning_study(builtin_problem(1), SolverConfig(N=4, M=4, N0=6),
                               lambda_list, M_list)


class TestCertifiedStudyValues:
    """conditioning_study's rule: gesdd values where certified, else Jacobi."""

    @staticmethod
    def _count_jacobi_members(monkeypatch):
        # Members per jacobi_svd call made through the analysis module.
        counts = []

        def counted(stack):
            counts.append(len(stack))
            return jacobi_svd(stack)

        monkeypatch.setattr(analysis, "jacobi_svd", counted)
        return counts

    @staticmethod
    def _gapped(m):
        # A complex member with distinct singular values 1.01 to about m,
        # which the certificate passes.
        return np.diag(np.arange(1.0, m + 1)) + 0.1j * np.ones((m, m))

    @staticmethod
    def _certified(stack):
        # gesdd's values of each member with sigma_min replaced by
        # _kato_temple's, and the bounds.
        _, s, vh = np.linalg.svd(stack)
        s[:, -1], bound = analysis._kato_temple(stack, s, vh)
        return s, bound

    def test_ill_conditioned_complex_member_falls_back(self, monkeypatch):
        # The rounding term of the bound on sigma_min is about
        # 4 m eps_ext 1e10 = 1.7e-8.
        counts = self._count_jacobi_members(monkeypatch)
        a = (1 + 1j) * np.diag([1.0, 1e-10, 0.5, 0.25])
        well = self._gapped(4)
        got = analysis._study_values(np.stack([well, a]))
        assert counts == [1]
        assert np.array_equal(got[0], self._certified(well[None])[0][0])
        assert np.array_equal(got[1], jacobi_svd(a))

    def test_members_of_a_study_stack(self, monkeypatch):
        # Problem 3 at N = 64, lam = -0.45, M = 48: A at n = 1 (cond 1.1) and
        # A at n = 32 (cond about 80) are certified, TQ is real.
        stack = conditioning_stack(-0.45, 48)
        counts = self._count_jacobi_members(monkeypatch)
        got = analysis._study_values(stack)
        assert counts == [1]
        assert np.array_equal(got[0], jacobi_svd(stack[0].real))
        want, bound = self._certified(stack[1:])
        assert np.all(bound < analysis._GESDD_RTOL)
        assert np.array_equal(got[1:], want)
        assert_allclose(got[1:, [0, -1]], jacobi_svd(stack[1:])[:, [0, -1]],
                        rtol=1e-13, atol=0.0)

    def test_clustered_sigma_min_falls_back(self, monkeypatch):
        # The two smallest singular values are 1 and 1 + 1e-14, so the
        # certificate finds no gap to bound sigma_min with.
        rng = np.random.default_rng(21)
        u, _ = np.linalg.qr(rng.standard_normal((7, 7))
                            + 1j * rng.standard_normal((7, 7)))
        v, _ = np.linalg.qr(rng.standard_normal((7, 7))
                            + 1j * rng.standard_normal((7, 7)))
        a = (u * [1000.0, 300.0, 100.0, 30.0, 10.0, 1.0 + 1e-14, 1.0]) @ v
        _, s, vh = np.linalg.svd(a)
        assert analysis._kato_temple(a[None], s[None], vh[None])[1] == np.inf
        well = self._gapped(7)
        counts = self._count_jacobi_members(monkeypatch)
        got = analysis._study_values(np.stack([well, a]))
        assert counts == [1]
        assert np.array_equal(got[0], self._certified(well[None])[0][0])
        assert np.array_equal(got[1], jacobi_svd(a))

    def test_repeated_sigma_min_equals_jacobi(self, monkeypatch):
        # I + 0.1i ones has sigma_min = 1 of multiplicity m - 1: no gap, so
        # the member takes jacobi_svd's values bit for bit.
        repeated = np.eye(4) + 0.1j * np.ones((4, 4))
        assert self._certified(repeated[None])[1][0] == np.inf
        counts = self._count_jacobi_members(monkeypatch)
        got = analysis._study_values(repeated[None])
        assert counts == [1]
        assert np.array_equal(got[0], jacobi_svd(repeated))

    def test_double_precision_certificate_falls_back(self, monkeypatch):
        # In complex128 the rounding term of the bound, 4 m eps s_1 /
        # sigma_min, is about 3.5e-12 for A at n = 32 (cond about 80,
        # m = 49); A at n = 1 (cond 1.1) still passes, with 4.6e-14.
        monkeypatch.setattr(analysis, "_CERTIFICATE_DTYPE", np.complex128)
        stack = conditioning_stack(-0.45, 48)
        counts = self._count_jacobi_members(monkeypatch)
        got = analysis._study_values(stack)
        assert counts == [2]
        want, bound = self._certified(stack[1:])
        assert bound[0] < analysis._GESDD_RTOL <= bound[1]
        assert np.array_equal(got[1], want[0])
        assert np.array_equal(got[2], jacobi_svd(stack[2]))

    def test_gesdd_failure_falls_back(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        counts = self._count_jacobi_members(monkeypatch)
        stack = np.stack([self._gapped(6), self._gapped(6).T])
        got = analysis._study_values(stack)
        assert counts == [2]
        assert np.array_equal(got, jacobi_svd(stack))

    def test_one_gesdd_call_with_vectors_per_cell(self, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counted(a, *args, **kwargs):
            calls.append((a.shape, args, kwargs))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        conditioning_study(builtin_problem(3), SolverConfig(N=64, M=8, N0=66),
                           [-0.45, 1.5], [8, 48])
        # A at n = 1 and n = 32 in each cell, vectors computed
        assert calls == [((2, M + 1, M + 1), (), {}) for M in (8, 48)] * 2
        calls.clear()
        conditioning_study(builtin_problem(1), SolverConfig(N=4, M=4, N0=6),
                           [-0.4], [4, 12])
        assert calls == []  # mu = 0: every member is real

    def test_one_jacobi_call_per_cell(self, monkeypatch):
        counts = self._count_jacobi_members(monkeypatch)
        conditioning_study(builtin_problem(3), SolverConfig(N=64, M=8, N0=66),
                           [-0.45, 1.5], [8, 48])
        assert counts == [1] * 4  # TQ only
        counts.clear()
        conditioning_study(builtin_problem(1), SolverConfig(N=4, M=4, N0=6),
                           [-0.4], [4, 12])
        assert counts == [3] * 2  # mu = 0: every member is real

    @staticmethod
    def _route(matrix, M):
        # The certificate an (M + 1)-square complex member passes: "a
        # posteriori" with its sigma_min and bound, or None.
        assert matrix.shape == (M + 1, M + 1)
        _, s, vh = np.linalg.svd(matrix)
        sigma, bound = analysis._kato_temple(matrix[None], s[None], vh[None])
        if bound[0] < analysis._GESDD_RTOL:
            return "a posteriori", sigma[0], bound[0]
        return None, None, None

    def test_reports_match_jacobi_over_problem_3(self):
        # Within 1e-13 relative of the all-Jacobi values where gesdd's are
        # certified; bit-identical to them for TQ and every fallback member.
        problem = builtin_problem(3)
        reports, _ = conditioning_study(problem, SolverConfig(N=64, M=8, N0=66),
                                        [-0.45, 0.2, 1.5], range(8, 49, 8))
        assert len(reports) == 3 * 6 * 3
        routes_by_n = {0: set(), 1: set(), 32: set()}
        for r in reports:
            tq = shift_integration_matrix(reference_rule(r.lam, r.M)[1],
                                          problem.T).entries
            matrix = tq if r.kind == "TQ" else (
                np.eye(r.M + 1) + mode_rate(problem, r.n) * tq)
            want = singular_values(matrix)[[0, -1]]
            got = np.array([r.sigma_max, r.sigma_min])
            route = self._route(matrix, r.M)[0] if r.kind == "A" else None
            routes_by_n[r.n].add(route)
            if route:
                assert_allclose(got, want, rtol=1e-13, atol=0.0)
            else:
                assert np.array_equal(got, want)
        assert routes_by_n == {0: {None}, 1: {"a posteriori"},
                               32: {"a posteriori"}}

    def test_nyquist_member_certified_over_a_grid(self):
        # Problem 3 at N = 64: A at n = 32 has cond 54 to 154 and fails the
        # a-priori bound everywhere on this grid. Its a-posteriori bound
        # is checked against 40-digit mpmath where the tests of the Jacobi
        # SVD compute that reference, not against jacobi_svd: at lam = -0.3,
        # M = 16, jacobi_svd's sigma_min is 1.6e-15 off the 40-digit value
        # and the bound is 5.8e-16, while sqrt(theta) is that value rounded.
        problem = builtin_problem(3)
        lams, Ms = [-0.45, -0.16, 0.44, 1.5], range(8, 49, 8)
        reports, _ = conditioning_study(problem, SolverConfig(N=64, M=8, N0=66),
                                        lams, Ms)
        nyquist = [r for r in reports if r.n == 32]
        assert len(nyquist) == len(lams) * len(Ms)
        bounds = {}
        for r in nyquist:
            matrix = conditioning_stack(r.lam, r.M)[2]
            route, sigma, bound = self._route(matrix, r.M)
            assert route == "a posteriori"
            assert r.sigma_min == sigma and bound < analysis._GESDD_RTOL
            want = jacobi_svd(matrix)[[0, -1]]
            assert_allclose([r.sigma_max, r.sigma_min], want, rtol=1e-13, atol=0.0)
            bounds[r.lam, r.M] = r.sigma_min, bound
        pytest.importorskip("mpmath")
        for lam, M in [(-0.45, 8), (-0.45, 48), (1.5, 8), (1.5, 48)]:
            sigma_min, bound = bounds[lam, M]
            exact = conditioning_stack_reference(lam, M)[1][2, -1]
            # both values are rounded to double
            assert abs(sigma_min - exact) <= (bound + np.finfo(float).eps) * exact

    @pytest.mark.parametrize("M", [8, 48])
    @pytest.mark.parametrize("lam", [-0.45, 0.2, 1.5])
    def test_reports_against_mpmath(self, lam, M):
        # The points and mpmath values of the Jacobi SVD's stack test.
        pytest.importorskip("mpmath")
        _, exact = conditioning_stack_reference(lam, M)
        reports, _ = conditioning_study(builtin_problem(3),
                                        SolverConfig(N=64, M=M, N0=66),
                                        [lam], [M])
        assert [(r.kind, r.n) for r in reports] == [("TQ", 0), ("A", 1),
                                                     ("A", 32)]
        assert_allclose([[r.sigma_max, r.sigma_min] for r in reports],
                        exact[:, [0, -1]], rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("pid,horizon,lam,M,member,scale", [
        (3, 1e308, -0.4, 8, "A at n = 32", r"\|alpha_n\| T = 1010.65 \* 1e\+308"),
        # max |Q| grows with lambda: 4e5 at lambda = 10, M = 64
        (1, 1e304, 10.0, 64, "TQ at n = 0", r"max \|Q\| T = 405980 \* 1e\+304"),
    ], ids=["A", "TQ"])
    def test_overflowing_member_refused_before_any_svd(
            self, monkeypatch, pid, horizon, lam, M, member, scale):
        def unreachable(*args, **kwargs):
            raise AssertionError("an SVD ran")

        monkeypatch.setattr(analysis, "_study_values", unreachable)
        problem = builtin_problem(pid).with_horizon(horizon)
        message = (f"^conditioning_study: {member}, lambda = {lam}, M = {M} is "
                   f"not finite: {scale} overflows$")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                conditioning_study(problem, SolverConfig(N=64, M=8, N0=66),
                                   [lam], [M])


    @pytest.mark.parametrize("horizon,shown", [(5e-324, "4.94066e-324"),
                                               (1e-320, "9.99989e-321")])
    def test_underflowing_tq_refused_before_any_svd(self, monkeypatch,
                                                    horizon, shown):
        # Below the smallest normal double TQ's entries lose digits: at
        # T = 1e-320 its cond would read 256.67, not 236.88, and at
        # T = 5e-324 every entry is 0.
        def unreachable(*args, **kwargs):
            raise AssertionError("an SVD ran")

        monkeypatch.setattr(analysis, "_study_values", unreachable)
        problem = builtin_problem(1).with_horizon(horizon)
        message = (r"^conditioning_study: TQ at n = 0, lambda = -0.4, M = 4 is "
                   rf"not normal: min \|Q\| T = 2.59519e-05 \* {shown} "
                   r"underflows$")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                conditioning_study(problem, SolverConfig(N=8, M=4, N0=10),
                                   [-0.4], [4])
