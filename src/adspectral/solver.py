"""Per-mode integral-collocation systems, direct solves, and field evaluation.

Each nonzero Fourier mode n of the spatial-derivative antiderivative obeys a
Volterra integral equation whose collocated form is the dense complex system

    (I + alpha_n (T/2) Q) psi_n = u0_hat_n * ones,

solved for n = 1 .. N/2 only; negative modes follow by conjugation and the
zero mode from the zero-sum constraint of the coefficient vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np
from scipy.linalg import get_lapack_funcs

from .fourier import FourierGrid, InitialSpectrum, complete_half_spectrum, \
    dft_coefficients, synthesize_derivative, synthesize_field
from .gegenbauer import GegenbauerBasis, IntegrationMatrix, TimeGrid, \
    _lagrange_matrix, reference_rule, shift_integration_matrix, time_grid
from .problems import ADProblem, SolverConfig

# A pivot below this fraction of ||A||_inf marks the system as numerically
# singular; reported, never regularized.
PIVOT_RTOL = 1e-14

# LAPACK LU factor and solve, called directly: up to about M = 32 the input
# checks and batch handling of scipy.linalg.lu_factor/lu_solve cost more
# than the factorization itself.
_GETRF, _GETRS = get_lapack_funcs(("getrf", "getrs"), dtype=complex)


class ModeSolveError(RuntimeError):
    """A mode system was numerically singular or ill-conditioned."""

    def __init__(self, mode: int, detail: str):
        super().__init__(f"mode {mode}: {detail}")
        self.mode = mode


@dataclass(frozen=True)
class ModeSystem:
    """Collocated system for one positive mode index."""

    n: int
    alpha: complex
    matrix: np.ndarray
    rhs: np.ndarray


@dataclass(frozen=True)
class SpectralSolution:
    """Nodal Fourier coefficients psi_k(t_l) on the time-node x mode grid.

    ``table`` is read-only with shape (M + 1, N + 1): row l holds time node
    t_l and column j holds mode k = j - N/2, for k = -N/2 .. N/2. ``psi``
    maps each mode k to its column, a view of ``table``.
    """

    config: SolverConfig
    problem: ADProblem
    basis: GegenbauerBasis
    time_grid: TimeGrid
    table: np.ndarray

    @cached_property
    def psi(self) -> MappingProxyType:
        half = self.config.N // 2
        return MappingProxyType({k: self.table[:, k + half]
                                 for k in range(-half, half + 1)})

    @property
    def grid(self) -> FourierGrid:
        return FourierGrid(L=self.problem.L, N=self.config.N)


def mode_rate(problem: ADProblem, n: int) -> complex:
    """Decay/rotation rate alpha_n = w_n (nu w_n + mu i) with w_n = 2 pi n / L."""
    omega = 2.0 * np.pi * n / problem.L
    return complex(omega * (problem.nu * omega + problem.mu * 1j))


def assemble_mode(n: int, problem: ADProblem, config: SolverConfig,
                  tq: IntegrationMatrix, spectrum: InitialSpectrum) -> ModeSystem:
    """Assemble I + alpha_n TQ and the replicated right-hand side for mode n."""
    if not 1 <= n <= config.N // 2:
        raise ValueError(f"mode index must be in 1..{config.N // 2}; got {n}")
    alpha = mode_rate(problem, n)
    size = tq.order + 1
    matrix = np.eye(size, dtype=complex) + alpha * tq.entries
    rhs = np.full(size, spectrum.mode(n), dtype=complex)
    return ModeSystem(n=n, alpha=alpha, matrix=matrix, rhs=rhs)


def _solve_system(system: ModeSystem) -> np.ndarray:
    if system.alpha == 0:
        # Identity system; skip the factorization entirely.
        return system.rhs.copy()
    lu, piv, info = _GETRF(system.matrix)
    if info > 0:
        raise ModeSolveError(
            system.n, f"singular system (exact zero pivot in column {info})")
    scale = np.abs(system.matrix).sum(axis=1).max()  # ||A||_inf
    pivot_min = float(np.abs(lu.diagonal()).min())
    if pivot_min < PIVOT_RTOL * scale:
        raise ModeSolveError(
            system.n,
            f"singular or ill-conditioned system "
            f"(pivot {pivot_min:.3e} below {PIVOT_RTOL:.0e} * ||A|| = {PIVOT_RTOL * scale:.3e})",
        )
    return _GETRS(lu, piv, system.rhs)[0]


def _initial_spectrum(problem: ADProblem, N0: int) -> InitialSpectrum:
    # u0 sampled at N0 equispaced points of [0, L), then its DFT.
    x0 = problem.L * np.arange(N0) / N0
    return dft_coefficients(np.asarray(problem.u0(x0), dtype=float), N0)


def _prepare(problem: ADProblem, config: SolverConfig):
    basis, q = reference_rule(config.lam, config.M)
    tq = shift_integration_matrix(q, problem.T)
    tgrid = time_grid(basis, problem.T)
    return basis, tq, tgrid, _initial_spectrum(problem, config.N0)


def _solve_prepared(problem: ADProblem, config: SolverConfig,
                    basis: GegenbauerBasis, tq: IntegrationMatrix,
                    tgrid: TimeGrid,
                    spectrum: InitialSpectrum) -> SpectralSolution:
    # One mode at a time, so only one system is held at once.
    pos = np.empty((config.M + 1, config.N // 2), dtype=complex)
    for n in range(1, config.N // 2 + 1):
        pos[:, n - 1] = _solve_system(
            assemble_mode(n, problem, config, tq, spectrum))
    table = complete_half_spectrum(pos)
    table.setflags(write=False)
    return SpectralSolution(config=config, problem=problem, basis=basis,
                            time_grid=tgrid, table=table)


def solve_modes(problem: ADProblem, config: SolverConfig,
                parallel: bool = False) -> SpectralSolution:
    """Solve all positive-mode systems and complete the coefficient table.

    Negative modes are the exact conjugates of the positive ones and the zero
    mode is -2 sum_k Re(psi_k), enforcing the zero-sum constraint.
    ``parallel`` is accepted and ignored: the modes are solved one after
    another, which was never slower than a thread pool at any size measured.
    """
    return _solve_prepared(problem, config, *_prepare(problem, config))


def _times_in_horizon(times, T: float) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    outside = times[~((times >= 0.0) & (times <= T))]
    if outside.size:
        raise ValueError(f"t must lie in [0, {T}]; got {outside[0]}")
    return times


def _coefficient_table(sol: SpectralSolution, times) -> np.ndarray:
    # Coefficients of modes -N/2 .. N/2 at each time, shape (len(times), N + 1),
    # from one product of Lagrange rows and the nodal table. The map
    # s = 2 t / T - 1 reuses the reference-interval barycentric weights; the
    # rows are real, so conjugate symmetry is preserved exactly, and a time
    # on a node takes the nodal values exactly.
    T = sol.problem.T
    times = _times_in_horizon(times, T)
    return _lagrange_matrix(sol.basis, 2.0 * times / T - 1.0) @ sol.table


def coefficients_at(sol: SpectralSolution, t: float) -> dict:
    """Interpolate every mode's nodal coefficients to time t in [0, T]."""
    row = _coefficient_table(sol, [t])[0]
    return {k: complex(c) for k, c in zip(sorted(sol.psi), row)}


def evaluate_u(sol: SpectralSolution, x_grid: FourierGrid, t) -> np.ndarray:
    """Solution values at the grid nodes and time t.

    A scalar t gives shape (N,); a 1-D array of times gives one row per
    time, shape (len(t), N), from one interpolation and one synthesis.
    """
    times = np.atleast_1d(np.asarray(t, dtype=float))
    g = [float(sol.problem.g(float(tk))) for tk in times]
    u = synthesize_field(_coefficient_table(sol, times), x_grid, g)
    return u[0] if np.ndim(t) == 0 else u


def evaluate_ux(sol: SpectralSolution, x_grid: FourierGrid, t) -> np.ndarray:
    """Spatial-derivative values at the grid nodes and time t (scalar or 1-D)."""
    times = np.atleast_1d(np.asarray(t, dtype=float))
    ux = synthesize_derivative(_coefficient_table(sol, times), x_grid)
    return ux[0] if np.ndim(t) == 0 else ux
