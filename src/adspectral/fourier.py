"""Equispaced spatial grid, DFT interpolation coefficients, field synthesis."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

# Above this imaginary residue the coefficient map has lost conjugate
# symmetry upstream and synthesis refuses to discard the imaginary part.
RESIDUE_ERROR_THRESHOLD = 1e-8


@dataclass(frozen=True)
class FourierGrid:
    """N equispaced nodes x_j = L j / N covering [0, L)."""

    L: float
    N: int

    def __post_init__(self):
        if not self.L > 0.0:
            raise ValueError(f"L must be positive; got {self.L}")
        if self.N < 2 or self.N % 2:
            raise ValueError(f"N must be even and >= 2; got {self.N}")

    @property
    def nodes(self) -> np.ndarray:
        return self.L * np.arange(self.N) / self.N

    def wavenumbers(self, ks) -> np.ndarray:
        return 2.0 * np.pi * np.asarray(ks, dtype=float) / self.L


@dataclass(frozen=True)
class InitialSpectrum:
    """DFT interpolation coefficients of u0 sampled at N0 equispaced points.

    ``values`` is the read-only FFT output in FFT order: entry ``k % N0``
    holds mode k for k in {-N0/2, ..., N0/2 - 1}. For real samples the
    stored +/- pairs are conjugate.
    """

    values: np.ndarray

    @property
    def N0(self) -> int:
        return len(self.values)

    def mode(self, k: int) -> complex:
        """Coefficient of mode k; KeyError outside -N0/2 .. N0/2 - 1."""
        half = len(self.values) // 2
        if not -half <= k < half:
            raise KeyError(k)
        return self.values[k]


def dft_coefficients(u0_samples, N0: int) -> InitialSpectrum:
    """DFT interpolation coefficients of N0 real samples of u0.

    u_hat_k = (1/N0) sum_j u_j exp(-2 pi i k j / N0) for k in
    {-N0/2, ..., N0/2 - 1}, all from one FFT in O(N0 log N0) and stored as
    one array in FFT order. The tests hold it to the direct O(N0^2) sum
    within 1e-13. A NaN or infinite sample raises ValueError before the FFT.
    """
    if N0 < 4 or N0 % 2:
        raise ValueError(f"N0 must be even and >= 4; got {N0}")
    samples = np.asarray(u0_samples, dtype=float)
    if samples.shape != (N0,):
        raise ValueError(
            f"expected {N0} samples, got shape {samples.shape}"
        )
    if not np.all(np.isfinite(samples)):
        bad = int(np.argmin(np.isfinite(samples)))
        raise ValueError(
            f"u0 is not finite: sample {bad} of {N0} is {samples[bad]}"
        )
    values = np.fft.fft(samples, norm="forward")
    values.setflags(write=False)
    return InitialSpectrum(values=values)


def complete_half_spectrum(pos) -> np.ndarray:
    """Modes -N/2 .. N/2 along the last axis from modes 1 .. N/2 of a real field.

    ``pos`` has shape (..., N/2). Mode -n is the exact conjugate of mode n,
    and mode 0 is -2 sum_n Re c_n, so every row sums to zero (the field
    vanishes at x = 0 before the trace is added). Returns shape (..., N + 1).
    """
    pos = np.asarray(pos, dtype=complex)
    zero = -2.0 * pos.real.sum(axis=-1, keepdims=True)
    return np.concatenate([np.conj(pos[..., ::-1]), zero, pos], axis=-1)


def _gather(coeffs, grid: FourierGrid) -> np.ndarray:
    # Coefficients of modes -N/2 .. N/2 along the last axis, from a mode map
    # or from an array that is already in that order.
    if isinstance(coeffs, Mapping):
        ks = range(-grid.N // 2, grid.N // 2 + 1)
        missing = [k for k in ks if k not in coeffs]
        if missing:
            raise ValueError(f"coefficient map is missing modes {missing}")
        return np.array([coeffs[k] for k in ks], dtype=complex)
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim == 0 or c.shape[-1] != grid.N + 1:
        raise ValueError(
            f"coefficient array must hold modes -{grid.N // 2}..{grid.N // 2} "
            f"on its last axis; got shape {c.shape}"
        )
    return c


def _synthesize(c: np.ndarray, grid: FourierGrid) -> np.ndarray:
    # sum_k c_k exp(i w_k x_j) = sum_k c_k exp(2 pi i k j / N): on the grid
    # modes +-N/2 alias to one, so fold them and take one inverse FFT per row.
    half = grid.N // 2
    folded = np.fft.ifftshift(c[..., :-1], axes=-1)
    folded[..., half] += c[..., -1]
    total = np.fft.ifft(folded, axis=-1, norm="forward")
    residue = float(np.max(np.abs(total.imag))) if total.size else 0.0
    if residue > RESIDUE_ERROR_THRESHOLD:
        raise ValueError(
            f"imaginary synthesis residue {residue:.3e} exceeds "
            f"{RESIDUE_ERROR_THRESHOLD:.0e}; conjugate symmetry broken upstream"
        )
    return total.real.copy()


def synthesize_field(coeffs, grid: FourierGrid, g_value) -> np.ndarray:
    """Evaluate sum_k c_k exp(i w_k x_j) + g_value at the grid nodes.

    ``coeffs`` is a map from every mode k in -N/2..N/2 to its coefficient,
    or an array of shape (..., N + 1) holding those modes in order along
    the last axis; the result then has shape (..., N), and ``g_value`` is a
    scalar or an array of the batch shape (...). The imaginary residue of
    the sum is checked over the whole batch and discarded. Cost
    O(N log N) per row.
    """
    field = _synthesize(_gather(coeffs, grid), grid)
    return field + np.asarray(g_value, dtype=float)[..., None]


def synthesize_derivative(coeffs, grid: FourierGrid) -> np.ndarray:
    """Evaluate Re(i sum_k w_k c_k exp(i w_k x_j)) at the grid nodes.

    Takes ``coeffs`` in either form that synthesize_field takes.
    """
    c = _gather(coeffs, grid)
    om = grid.wavenumbers(np.arange(-grid.N // 2, grid.N // 2 + 1))
    return _synthesize(1j * om * c, grid)
