"""Closed-form mode coefficients and direct field evaluation, no linear solves.

Differentiating each mode's Volterra equation gives a scalar ODE whose
solution is psi_n(t) = u0_hat_n exp(-alpha_n t). ``SAField`` has the
``grid`` and ``coefficients(times)`` of ``solver.SpectralSolution``, so the
solver's grid evaluation serves both; ``sa_evaluate_u``/``ux`` sum the
series directly at any x. No collocation system is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fourier import FourierGrid, InitialSpectrum, complete_half_spectrum
from .problems import ADProblem
from .solver import coefficient_row, coefficients_at, mode_rate


@dataclass(frozen=True, eq=False)
class SAField:
    """Initial spectrum plus problem data, evaluated with N synthesis modes."""

    spectrum: InitialSpectrum
    problem: ADProblem
    N: int

    def __post_init__(self):
        self.grid  # FourierGrid refuses an odd N or N < 2
        if self.N > self.spectrum.N0 - 2:
            raise ValueError(
                f"N must be <= N0 - 2 = {self.spectrum.N0 - 2}; got {self.N}"
            )

    @property
    def grid(self) -> FourierGrid:
        return FourierGrid(L=self.problem.L, N=self.N)

    def coefficients(self, times) -> np.ndarray:
        """Modes -N/2 .. N/2 at each time in [0, T], shape (len(times), N + 1).

        A scalar time gives one row, shape (1, N + 1).

        u0_hat_n exp(-alpha_n t) for n = 1 .. N/2 in one broadcast product,
        completed by conjugation and the zero-sum constraint, in the layout
        of ``SpectralSolution.table``.
        """
        times = self.problem.times(times)
        half = self.N // 2
        rates = mode_rate(self.problem, np.arange(1, half + 1))
        c0 = self.spectrum.values[1:half + 1]
        return complete_half_spectrum(c0 * np.exp(-np.multiply.outer(times, rates)))


def sa_field(problem: ADProblem, N: int, N0: int = 0) -> SAField:
    """Sample u0 at N0 equispaced points and wrap the spectrum for evaluation."""
    if N0 == 0:
        N0 = N + 2
    return SAField(spectrum=problem.spectrum(N0), problem=problem, N=N)


def sa_coefficient_map(field: SAField, t: float) -> dict:
    """All modes |k| <= N/2 at time t, completed by conjugation and zero sum."""
    return coefficients_at(field, t)


def _dense_terms(field: SAField, x, t):
    # Wavenumbers w_k and the terms c_k(t) exp(i w_k x) of k = -N/2 .. N/2,
    # x along the leading axes. Callers sum them with numpy's pairwise sum:
    # a BLAS product accumulates one running total, 1.4e-15 off at N = 1024.
    half = field.N // 2
    om = field.grid.wavenumbers(np.arange(-half, half + 1))
    c = coefficient_row(field, t)
    return om, c * np.exp(1j * np.multiply.outer(np.asarray(x), om))


def sa_evaluate_u(field: SAField, x, t: float):
    """Re sum_k c_k(t) e^{i w_k x} + g(t), k = -N/2 .. N/2, t in [0, T]."""
    _, terms = _dense_terms(field, x, t)
    return terms.sum(axis=-1).real + field.problem.g(t)


def sa_evaluate_ux(field: SAField, x, t: float):
    """Re sum_k i w_k c_k(t) e^{i w_k x}, k = -N/2 .. N/2, t in [0, T]."""
    om, terms = _dense_terms(field, x, t)
    return -(terms * om).sum(axis=-1).imag
