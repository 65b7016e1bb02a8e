"""Closed-form mode coefficients and direct field evaluation, no linear solves.

Differentiating each mode's Volterra equation gives a scalar ODE whose
solution is psi_n(t) = u0_hat_n exp(-alpha_n t); the field follows from the
half-spectrum sums without ever forming a collocation system.
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
    _, rates, c0 = _half_spectrum(field)
    return complete_half_spectrum(c0 * np.exp(-np.multiply.outer(times, rates)))


def sa_coefficient_map(field: SAField, t: float) -> dict:
    """All modes |k| <= N/2 at time t, completed by conjugation and zero sum."""
    half = field.N // 2
    return dict(zip(range(-half, half + 1), sa_coefficient_table(field, [t])[0]))


def _half_spectrum(field: SAField):
    # Wavenumbers, rates alpha_n and initial coefficients of n = 1 .. N/2.
    ns = np.arange(1, field.N // 2 + 1)
    om = 2.0 * np.pi * ns / field.problem.L
    rates = np.array([mode_rate(field.problem, int(n)) for n in ns])
    c0 = np.array([field.spectrum.mode(int(n)) for n in ns])
    return om, rates, c0


def _mode_sums(field: SAField, x, t):
    om, rates, c0 = _half_spectrum(field)
    decayed = c0 * np.exp(-rates * t)
    travelling = decayed * np.exp(1j * np.multiply.outer(np.asarray(x), om))
    return om, decayed, travelling


def sa_evaluate_u(field: SAField, x, t: float):
    """2 Re sum_k c_k(t) e^{i w_k x} - 2 sum_k Re c_k(t) + g(t)."""
    _, decayed, travelling = _mode_sums(field, x, t)
    offset = -2.0 * decayed.real.sum() + field.problem.g(t)
    return 2.0 * travelling.real.sum(axis=-1) + offset


def sa_evaluate_ux(field: SAField, x, t: float):
    """-2 Im sum_k w_k c_k(t) e^{i w_k x}."""
    om, _, travelling = _mode_sums(field, x, t)
    return -2.0 * (travelling * om).imag.sum(axis=-1)
