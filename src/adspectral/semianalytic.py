"""Closed-form mode coefficients and direct field evaluation, no linear solves.

Differentiating each mode's Volterra equation gives a scalar ODE whose
solution is psi_n(t) = u0_hat_n exp(-alpha_n t); the field is summed from
the table that ``fourier.complete_half_spectrum`` completes from modes
1 .. N/2, without ever forming a collocation system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fourier import InitialSpectrum, complete_half_spectrum
from .problems import ADProblem
from .solver import _initial_spectrum, _times_in_horizon, mode_rate


@dataclass(frozen=True)
class SAField:
    """Initial spectrum plus problem data, evaluated with N synthesis modes."""

    spectrum: InitialSpectrum
    problem: ADProblem
    N: int

    def __post_init__(self):
        if self.N < 2 or self.N % 2:
            raise ValueError(f"N must be even and >= 2; got {self.N}")
        if self.N > self.spectrum.N0 - 2:
            raise ValueError(
                f"N must be <= N0 - 2 = {self.spectrum.N0 - 2}; got {self.N}"
            )


def sa_field(problem: ADProblem, N: int, N0: int = 0) -> SAField:
    """Sample u0 at N0 equispaced points and wrap the spectrum for evaluation."""
    if N0 == 0:
        N0 = N + 2
    return SAField(spectrum=_initial_spectrum(problem, N0), problem=problem, N=N)


def sa_coefficient(field: SAField, n: int, t: float) -> complex:
    """Closed-form coefficient u0_hat_n exp(-alpha_n t) for 1 <= n <= N/2."""
    if not 1 <= n <= field.N // 2:
        raise ValueError(f"mode index must be in 1..{field.N // 2}; got {n}")
    if not 0.0 <= t <= field.problem.T:
        raise ValueError(f"t must lie in [0, {field.problem.T}]; got {t}")
    return field.spectrum.mode(n) * np.exp(-mode_rate(field.problem, n) * t)


def sa_coefficient_table(field: SAField, times) -> np.ndarray:
    """Modes -N/2 .. N/2 at each time, shape (len(times), N + 1).

    u0_hat_n exp(-alpha_n t) for n = 1 .. N/2 in one broadcast product,
    completed by conjugation and the zero-sum constraint, in the layout of
    ``SpectralSolution.table``.
    """
    times = _times_in_horizon(times, field.problem.T)
    half = field.N // 2
    rates = mode_rate(field.problem, np.arange(1, half + 1))
    c0 = field.spectrum.values[1:half + 1]
    return complete_half_spectrum(c0 * np.exp(-np.multiply.outer(times, rates)))


def sa_coefficient_map(field: SAField, t: float) -> dict:
    """All modes |k| <= N/2 at time t, completed by conjugation and zero sum."""
    half = field.N // 2
    return dict(zip(range(-half, half + 1), sa_coefficient_table(field, [t])[0]))


def _dense_terms(field: SAField, x, t):
    # Wavenumbers w_k and the terms c_k(t) exp(i w_k x) of k = -N/2 .. N/2,
    # x along the leading axes. Callers sum them with numpy's pairwise sum:
    # a BLAS product accumulates one running total, 1.4e-15 off at N = 1024.
    half = field.N // 2
    om = 2.0 * np.pi * np.arange(-half, half + 1) / field.problem.L
    c = sa_coefficient_table(field, [t])[0]
    return om, c * np.exp(1j * np.multiply.outer(np.asarray(x), om))


def sa_evaluate_u(field: SAField, x, t: float):
    """Re sum_k c_k(t) e^{i w_k x} + g(t), k = -N/2 .. N/2, t in [0, T]."""
    _, terms = _dense_terms(field, x, t)
    return terms.sum(axis=-1).real + field.problem.g(t)


def sa_evaluate_ux(field: SAField, x, t: float):
    """Re sum_k i w_k c_k(t) e^{i w_k x}, k = -N/2 .. N/2, t in [0, T]."""
    om, terms = _dense_terms(field, x, t)
    return -(terms * om).sum(axis=-1).imag
