"""DFT interpolation coefficients and synthesis round trips."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from adspectral import (FourierGrid, dft_coefficients, synthesize_derivative,
                        synthesize_field)
from adspectral.fourier import complete_half_spectrum
from adspectral import test_problem as builtin_problem


def _direct_dft(samples):
    # Literal O(N0^2) sum. k j is reduced mod N0 in integers, so the phase
    # argument stays in [0, 2 pi) and adds no rounding of its own.
    N0 = len(samples)
    j = np.arange(N0)
    return {k: np.exp(-2j * np.pi * ((k * j) % N0) / N0) @ samples / N0
            for k in range(-N0 // 2, N0 // 2)}


def _dense_synthesis(c, grid):
    # Literal sum_k c_k exp(i w_k x_j) over modes -N/2..N/2, one row per batch row.
    ks = np.arange(-grid.N // 2, grid.N // 2 + 1)
    return c @ np.exp(1j * np.outer(grid.nodes, grid.wavenumbers(ks))).T


def _interior(spectrum, N):
    # Modes -N/2 .. N/2 of the spectrum as one synthesis row (needs N <= N0 - 2).
    return spectrum.values[np.arange(-N // 2, N // 2 + 1)]


def _symmetric_batch(rng, N, rows):
    # Conjugate-symmetric coefficient rows with a nonzero Nyquist pair.
    half = N // 2
    pos = rng.standard_normal((rows, half)) + 1j * rng.standard_normal((rows, half))
    zero = rng.standard_normal((rows, 1)) + 0j
    return np.concatenate([np.conj(pos[:, ::-1]), zero, pos], axis=1)


class TestGrid:
    def test_nodes_cover_period(self):
        grid = FourierGrid(L=2.0, N=4)
        assert_allclose(grid.nodes, [0.0, 0.5, 1.0, 1.5])
        assert grid.wavenumbers([1])[0] == pytest.approx(np.pi)

    def test_rejects_odd_or_small_n(self):
        with pytest.raises(ValueError, match="N"):
            FourierGrid(L=1.0, N=3)
        with pytest.raises(ValueError, match="N"):
            FourierGrid(L=1.0, N=0)
        with pytest.raises(ValueError, match="L"):
            FourierGrid(L=0.0, N=4)


class TestDftCoefficients:
    def test_constant_signal(self):
        spectrum = dft_coefficients(np.full(6, 2.5), 6)
        assert spectrum.mode(0) == pytest.approx(2.5)
        for k in range(-3, 3):
            if k != 0:
                assert abs(spectrum.mode(k)) < 1e-15

    def test_single_harmonic(self):
        # sin(pi x) on L = 2 lives in modes +-1 only.
        x = 2.0 * np.arange(6) / 6
        spectrum = dft_coefficients(np.sin(np.pi * x), 6)
        assert spectrum.mode(1) == pytest.approx(-0.5j, abs=1e-15)
        assert spectrum.mode(-1) == pytest.approx(0.5j, abs=1e-15)
        for k in (-3, -2, 0, 2):
            assert abs(spectrum.mode(k)) < 1e-15

    def test_mixed_harmonics_against_direct_sum(self):
        L, N0 = 3.7, 8
        x = L * np.arange(N0) / N0
        samples = np.sin(2 * np.pi * x / L) + 0.3 * np.cos(4 * np.pi * x / L)
        spectrum = dft_coefficients(samples, N0)
        # Oracle: literal summation, one mode at a time.
        for k in range(-4, 4):
            direct = sum(samples[j] * np.exp(-2j * np.pi * k * j / N0)
                         for j in range(N0)) / N0
            assert spectrum.mode(k) == pytest.approx(direct, abs=1e-15)
        assert spectrum.mode(1) == pytest.approx(-0.5j, abs=1e-15)
        assert spectrum.mode(2) == pytest.approx(0.15, abs=1e-15)

    def test_agrees_with_fft(self):
        rng = np.random.default_rng(3)
        N0 = 16
        samples = rng.standard_normal(N0)
        spectrum = dft_coefficients(samples, N0)
        fft = np.fft.fft(samples) / N0
        for k in range(-N0 // 2, N0 // 2):
            assert abs(spectrum.mode(k) - fft[k % N0]) < 1e-13

    def test_conjugate_symmetry_random(self):
        rng = np.random.default_rng(4)
        spectrum = dft_coefficients(rng.standard_normal(12), 12)
        for k in range(1, 6):
            assert abs(spectrum.mode(-k) - np.conj(spectrum.mode(k))) < 1e-13

    def test_parseval(self):
        rng = np.random.default_rng(5)
        samples = rng.standard_normal(10)
        spectrum = dft_coefficients(samples, 10)
        lhs = np.mean(samples ** 2)
        rhs = np.sum(np.abs(spectrum.values) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("N0", [6, 12, 4098])
    def test_fft_matches_direct_sum(self, N0):
        samples = np.random.default_rng(N0).standard_normal(N0)
        spectrum = dft_coefficients(samples, N0)
        direct = _direct_dft(samples)
        assert spectrum.values.shape == (N0,) == (len(direct),)
        worst = max(abs(spectrum.values[k % N0] - direct[k]) for k in direct)
        assert worst <= 1e-13

    def test_values_read_only_array(self):
        spectrum = dft_coefficients(np.arange(8.0), 8)
        assert spectrum.values.shape == (8,)
        assert spectrum.N0 == 8
        with pytest.raises(ValueError, match="read-only"):
            spectrum.values[1] = 0.0

    def test_mode_indexes_values(self):
        N0 = 10
        spectrum = dft_coefficients(np.random.default_rng(6).standard_normal(N0), N0)
        for k in range(-N0 // 2, N0 // 2):
            assert spectrum.mode(k) == spectrum.values[k % N0]

    @pytest.mark.parametrize("k", [5, -6])
    def test_mode_outside_stored_range(self, k):
        spectrum = dft_coefficients(np.arange(10.0), 10)
        with pytest.raises(KeyError):
            spectrum.mode(k)

    def test_rejects_bad_n0(self):
        with pytest.raises(ValueError, match="N0"):
            dft_coefficients(np.zeros(5), 5)
        with pytest.raises(ValueError, match="N0"):
            dft_coefficients(np.zeros(2), 2)
        with pytest.raises(ValueError, match="samples"):
            dft_coefficients(np.zeros(6), 8)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_samples_without_warning(self, bad):
        samples = np.zeros(8)
        samples[5] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="u0 is not finite: sample 5 of 8"):
                dft_coefficients(samples, 8)


class TestSynthesis:
    def test_zero_coefficients_boundary_offset(self):
        grid = FourierGrid(L=2.0, N=4)
        coeffs = {k: 0j for k in range(-2, 3)}
        assert_allclose(synthesize_field(coeffs, grid, 3.5), np.full(4, 3.5))

    def test_single_harmonic_pair(self):
        grid = FourierGrid(L=2.0, N=8)
        coeffs = {k: 0j for k in range(-4, 5)}
        coeffs[1], coeffs[-1] = -0.5j, 0.5j
        assert_allclose(synthesize_field(coeffs, grid, 0.0),
                        np.sin(np.pi * grid.nodes), atol=1e-15)

    def test_initial_condition_round_trip(self):
        problem = builtin_problem(1)
        N0, N = 6, 4
        x0 = problem.L * np.arange(N0) / N0
        spectrum = dft_coefficients(problem.u0(x0), N0)
        grid = FourierGrid(L=problem.L, N=N)
        field = synthesize_field(_interior(spectrum, N), grid, 0.0)
        assert_allclose(field, problem.u0(grid.nodes), atol=1e-13)

    def test_band_limited_round_trip_full_grid(self):
        # Trig polynomial of degree < N0/2: samples come back exactly.
        L, N0 = 5.0, 12
        x = L * np.arange(N0) / N0
        samples = (1.2 + np.sin(2 * np.pi * x / L)
                   - 0.7 * np.cos(8 * np.pi * x / L))
        spectrum = dft_coefficients(samples, N0)
        assert abs(spectrum.mode(-N0 // 2)) < 1e-15
        coeffs = np.fft.fftshift(spectrum.values)  # modes -N0/2 .. N0/2 - 1
        coeffs[0] = 0j
        coeffs = np.append(coeffs, 0j)  # mode N0/2
        grid = FourierGrid(L=L, N=N0)
        assert_allclose(synthesize_field(coeffs, grid, 0.0), samples, atol=1e-12)

    def test_missing_mode_rejected(self):
        grid = FourierGrid(L=2.0, N=4)
        coeffs = {k: 0j for k in range(-2, 2)}  # +2 absent
        with pytest.raises(ValueError, match="missing modes"):
            synthesize_field(coeffs, grid, 0.0)

    def test_broken_symmetry_flagged(self):
        grid = FourierGrid(L=2.0, N=4)
        coeffs = {k: 0j for k in range(-2, 3)}
        coeffs[1] = 1.0 + 0j  # no conjugate partner
        with pytest.raises(ValueError, match="residue"):
            synthesize_field(coeffs, grid, 0.0)

    def test_small_residue_discarded(self):
        grid = FourierGrid(L=2.0, N=4)
        coeffs = {k: 0j for k in range(-2, 3)}
        coeffs[1] = -0.5j + 1e-14
        coeffs[-1] = 0.5j + 1e-14
        field = synthesize_field(coeffs, grid, 0.0)
        assert field.dtype == float


class TestBatchedSynthesis:
    N = 16

    def test_field_matches_dense_sum(self):
        grid = FourierGrid(L=3.0, N=self.N)
        c = _symmetric_batch(np.random.default_rng(11), self.N, 3)
        g = np.array([0.0, 1.5, -2.0])
        got = synthesize_field(c, grid, g)
        assert got.shape == (3, self.N)
        assert_allclose(got, _dense_synthesis(c, grid).real + g[:, None],
                        rtol=0, atol=1e-13)

    def test_derivative_matches_dense_sum(self):
        grid = FourierGrid(L=3.0, N=self.N)
        c = _symmetric_batch(np.random.default_rng(12), self.N, 3)
        om = grid.wavenumbers(np.arange(-self.N // 2, self.N // 2 + 1))
        got = synthesize_derivative(c, grid)
        assert got.shape == (3, self.N)
        assert_allclose(got, _dense_synthesis(1j * om * c, grid).real,
                        rtol=0, atol=1e-12)

    def test_broken_symmetry_in_one_row_flagged(self):
        grid = FourierGrid(L=2.0, N=self.N)
        c = _symmetric_batch(np.random.default_rng(14), self.N, 3)
        c[1, self.N // 2 + 1] += 1.0j  # mode 1 of row 1 loses its partner
        with pytest.raises(ValueError, match="residue"):
            synthesize_field(c, grid, 0.0)
        with pytest.raises(ValueError, match="residue"):
            synthesize_derivative(c, grid)

    def test_wrong_mode_count_rejected(self):
        grid = FourierGrid(L=2.0, N=4)
        with pytest.raises(ValueError, match="last axis"):
            synthesize_field(np.zeros((2, 4), dtype=complex), grid, 0.0)


class TestDerivativeSynthesis:
    def test_zero_coefficients(self):
        grid = FourierGrid(L=2.0, N=4)
        coeffs = {k: 0j for k in range(-2, 3)}
        assert_allclose(synthesize_derivative(coeffs, grid), np.zeros(4))

    def test_single_harmonic_derivative(self):
        grid = FourierGrid(L=2.0, N=8)
        coeffs = {k: 0j for k in range(-4, 5)}
        coeffs[1], coeffs[-1] = -0.5j, 0.5j
        assert_allclose(synthesize_derivative(coeffs, grid),
                        np.pi * np.cos(np.pi * grid.nodes), atol=1e-14)

    def test_initial_derivative_matches_analytic(self):
        # Oracle: d/dx sin(2 pi x / L) = (2 pi / L) cos(2 pi x / L).
        problem = builtin_problem(3)
        N0, N = 18, 16
        x0 = problem.L * np.arange(N0) / N0
        spectrum = dft_coefficients(problem.u0(x0), N0)
        grid = FourierGrid(L=problem.L, N=N)
        got = synthesize_derivative(_interior(spectrum, N), grid)
        expected = (2 * np.pi / problem.L) * np.cos(2 * np.pi * grid.nodes / problem.L)
        assert_allclose(got, expected, atol=1e-12)


class TestCompleteHalfSpectrum:
    def test_conjugate_pairs_and_zero_sum(self):
        rng = np.random.default_rng(17)
        half = 4
        pos = rng.uniform(-1, 1, (3, 5, half)) + 1j * rng.uniform(-1, 1, (3, 5, half))
        full = complete_half_spectrum(pos)
        assert full.shape == (3, 5, 2 * half + 1)
        assert np.array_equal(full[..., half + 1:], pos)
        for n in range(1, half + 1):
            assert np.array_equal(full[..., half - n], np.conj(full[..., half + n]))
        # math.fsum is exact, so this is the residue of the stored zero mode.
        for row in full.reshape(-1, 2 * half + 1):
            assert abs(math.fsum(row.real)) <= 1e-15
            assert math.fsum(row.imag) == 0.0
