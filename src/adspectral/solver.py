"""Mode systems, one real Schur-form solve over all modes, and field evaluation.

Each nonzero Fourier mode n of the spatial-derivative antiderivative obeys a
Volterra integral equation whose collocated form is the dense system

    (I + alpha_n TQ) psi_n = u0_hat_n * ones,    TQ = (T/2) Q,

with alpha_n = nu w_n^2 + i mu w_n. With periodic data and constant mu the
field is u(x, t) = v(x - mu t, t), where v diffuses without advection
(Lawson's integrating factor, SIAM J. Numer. Anal. 4, 1967, applied to the
advection term). So psi_n(t) = u0_hat_n exp(-i Im(alpha_n) t) x_n(t), where
the unit solution x_n solves the real system

    (I + Re(alpha_n) TQ) x_n = ones.

Only n = 1 .. N/2 are solved; negative modes follow by conjugation and the
zero mode from the zero-sum constraint of the coefficient vector. Q is the
same for every mode, so its real Schur form Q = Z S Z^T, cached with the
rule (S quasi-upper triangular, Z orthogonal; Golub and Van Loan, Matrix
Computations, sec. 7.4), turns all N/2 systems into one back-substitution
along the mode axis, one 1x1 or 2x2 diagonal block of S at a time (the
many-shifts method of Laub, IEEE TAC 26, 1981). The diagonals,
determinants and pivot moduli of the diagonal blocks of all N/2 shifted
matrices are formed once per solve, as one kernel, and a 2x2 block solves
both of its rows in one Cramer step. One step of iterative refinement
against TQ follows on the same kernel, and each mode is refused when its
eigenvalues or its refined residual show it numerically singular. The
solution stores the x_n at the time nodes and the u0_hat_n; the phase is
applied after interpolation in time, so the oscillation of the lab frame is
never interpolated. Field evaluation takes it or a ``semianalytic.SAField``:
both have a ``grid`` and ``coefficients(times)``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .fourier import FourierGrid, complete_half_spectrum, \
    synthesize_derivative, synthesize_field
from .gegenbauer import GegenbauerBasis, IntegrationMatrix, TimeGrid, \
    bary_interpolate, reference_rule, shift_integration_matrix, time_grid
from .problems import ADProblem, SolverConfig

# A mode whose smallest eigenvalue modulus min_j |1 + alpha_n (T/2) r_jj|
# falls below this fraction of 1 + |alpha_n| ||TQ||_inf, an upper bound of
# ||I + alpha_n TQ||_inf, or whose refined normwise residual exceeds it, is
# numerically singular; reported, never regularized.
PIVOT_RTOL = 1e-14

# A mode is solved while |Re(alpha_n)| times a bound of every entry of the
# real factor of TQ stays below this, so that the squares in its 2x2
# determinants cannot overflow. A mode past it, far past any the time grid
# resolves, is refused.
REAL_SOLVE_LIMIT = 1e150


class ModeSolveError(RuntimeError):
    """A mode system was numerically singular or ill-conditioned."""

    def __init__(self, mode: int, detail: str):
        super().__init__(f"mode {mode}: {detail}")
        self.mode = mode


@dataclass(frozen=True, eq=False)
class SpectralSolution:
    """Nodal coefficients psi_n(t_l) = u0_hat_n exp(-i Im(alpha_n) t_l) x_n(t_l).

    ``units`` (M + 1, N/2) holds the real unit solutions x_n at the time
    nodes and ``scale`` the u0_hat_n, for n = 1 .. N/2; the phase, from
    ``mode_rate``, is applied when coefficients are read. They and
    ``table``, the ``coefficients`` at the nodes built on first use, are
    read-only; ``table`` has shape (M + 1, N + 1): row l holds time node t_l
    and column j holds mode k = j - N/2, for k = -N/2 .. N/2. ``psi`` maps
    each mode k to its column, a view of ``table``. ``stage_s``, read-only,
    holds the wall-clock seconds of the solve's two stages: "assembly", the
    rule lookup, TQ, time grid and u0 spectrum, and "solve", the unit solves
    of the modes.
    """

    config: SolverConfig
    problem: ADProblem
    basis: GegenbauerBasis
    time_grid: TimeGrid
    units: np.ndarray
    scale: np.ndarray
    stage_s: MappingProxyType

    @cached_property
    def table(self) -> np.ndarray:
        table = self.coefficients(self.time_grid.nodes)
        table.setflags(write=False)
        return table

    @cached_property
    def psi(self) -> MappingProxyType:
        half = self.config.N // 2
        return MappingProxyType({k: self.table[:, k + half]
                                 for k in range(-half, half + 1)})

    @property
    def grid(self) -> FourierGrid:
        return FourierGrid(L=self.problem.L, N=self.config.N)

    def units_at(self, times) -> np.ndarray:
        """The unit solutions x_n at times in [0, T], shape (len(times), N/2).

        ``bary_interpolate`` at s = 2 t / T - 1, exact at the nodes; a
        scalar time gives one row.
        """
        times = self.problem.times(times)
        return bary_interpolate(self.basis, self.units,
                                2.0 * times / self.problem.T - 1.0)

    def coefficients(self, times) -> np.ndarray:
        """Modes -N/2 .. N/2 at times in [0, T], shape (len(times), N + 1).

        A scalar time gives one row, shape (1, N + 1).

        The ``units_at`` the times, scaled by u0_hat_n, then turned by the
        exact phase exp(-i Im(alpha_n) t) and completed: conjugate symmetry
        and the zero sum are exact.
        """
        times = self.problem.times(times)
        shift = mode_rate(self.problem, np.arange(1, len(self.scale) + 1)).imag
        return complete_half_spectrum(
            self.units_at(times) * self.scale
            * np.exp(-1j * np.multiply.outer(times, shift)))


def mode_rate(problem: ADProblem, n):
    """Decay/rotation rate alpha_n = w_n (nu w_n + mu i) with w_n = 2 pi n / L.

    An int n gives a complex, an integer array n the array of its rates.
    """
    omega = 2.0 * np.pi * n / problem.L
    return omega * (problem.nu * omega + problem.mu * 1j)


def assemble_mode(n: int, problem: ADProblem, config: SolverConfig,
                  tq: IntegrationMatrix) -> np.ndarray:
    """The matrix I + alpha_n TQ of mode n; its right-hand side is u0_hat_n * ones.

    This is the paper's complex system. The solve neither forms nor inverts
    it: it solves I + Re(alpha_n) TQ and applies the phase of Im(alpha_n)
    exactly. This spells the paper's matrix out for checks.
    """
    if not 1 <= n <= config.N // 2:
        raise ValueError(f"mode index must be in 1..{config.N // 2}; got {n}")
    return np.eye(tq.order + 1) + mode_rate(problem, n) * tq.entries


class _Kernel(NamedTuple):
    # The parts of every mode matrix I + alpha_i s that both
    # back-substitutions of a unit solve read, by diagonal block of s.
    # ``starts`` holds the first row i of each 2x2 block, ascending;
    # ``swapped`` (K, 2, m) its rows p[i + 1] and p[i], where
    # p = 1 + alpha s_jj; ``offdiag`` (2K, 1) its s[i, i + 1] and
    # s[i + 1, i]; ``det`` (K, m) the determinant of its block of
    # I + alpha s. ``single`` holds the p rows of the 1x1 blocks, in order,
    # and ``pivot`` (m,) the smallest eigenvalue modulus of each matrix.
    starts: list
    swapped: np.ndarray
    offdiag: np.ndarray
    det: np.ndarray
    single: np.ndarray
    pivot: np.ndarray


def _kernel(s: np.ndarray, alpha: np.ndarray, scratch: np.ndarray) -> _Kernel:
    # Each 2x2 diagonal block [[a, b], [c, a]] of s, in LAPACK's standard
    # form with b c < 0, holds the pair a +- i sqrt(-b c), so the
    # determinant (1 + alpha a)^2 - alpha^2 b c of its block of I + alpha s
    # is the squared modulus of both eigenvalues. The moduli go to scratch,
    # an array of at least len(s) rows of len(alpha).
    starts = np.flatnonzero(s.diagonal(-1))
    ends = starts + 1
    diagonal = s.diagonal()
    paired = np.zeros(len(s), dtype=bool)
    paired[starts] = paired[ends] = True
    p = np.multiply.outer(diagonal[~paired], alpha)
    p += 1.0
    swapped = np.multiply.outer(np.stack((diagonal[ends], diagonal[starts]),
                                         axis=1), alpha)
    swapped += 1.0
    b, c = s[starts, ends], s[ends, starts]
    det = swapped[:, 1] * swapped[:, 0]
    det -= np.multiply.outer(b * c, alpha * alpha)
    singles, pairs = len(p), len(det)
    np.abs(p, out=scratch[:singles])
    np.sqrt(det, out=scratch[singles:singles + pairs])
    return _Kernel(starts=starts.tolist(), swapped=swapped,
                   offdiag=np.stack((b, c), axis=1).reshape(2 * pairs, 1),
                   det=det, single=p,
                   pivot=scratch[:singles + pairs].min(axis=0))


def _back_substitute(s: np.ndarray, alpha: np.ndarray, kernel: _Kernel,
                     y: np.ndarray, work: np.ndarray) -> None:
    # Solve (I + alpha_i s) y_i = b_i in place for every column i, where y
    # holds b_i on entry, one diagonal block of the quasi-upper triangular s
    # at a time from the bottom. A 1x1 block divides by its p; a 2x2 block
    # takes Cramer's rule, both rows at once: its rows p[i + 1], p[i] times
    # the block, less its coupling alpha (s[i, i + 1], s[i + 1, i]) times
    # the block upside down, over its det. The couplings, (K, 2, len(alpha)),
    # go to work, an array of y's shape whose contents are lost: held by
    # the kernel, they would add nearly one such array to the solve's peak.
    starts, swapped, offdiag, det, single, _ = kernel
    # Filled and then scaled in place: a broadcast product into it would
    # take a second broadcast buffer.
    coupling = work[:2 * len(det)]
    coupling[:] = alpha
    coupling *= offdiag
    coupling = coupling.reshape(len(det), 2, len(alpha))
    j, k, m = len(s), len(starts), len(single)
    while j:
        if k and starts[k - 1] == j - 2:
            i, k = j - 2, k - 1
            block = y[i:j]
            block -= alpha * (s[i:j, j:] @ y[j:])
            num = swapped[k] * block
            num -= coupling[k] * block[::-1]
            np.divide(num, det[k], out=block)
            del num  # not to be alive through the next block's product
        else:
            i, m = j - 1, m - 1
            y[i] -= alpha * (s[i, j:] @ y[j:])
            y[i] /= single[m]
        j = i


def _residual(a: np.ndarray, alpha: np.ndarray, x: np.ndarray,
              out: np.ndarray) -> np.ndarray:
    # out = ones - (I + alpha_i a) x_i for every column i.
    np.matmul(a, x, out=out)
    out *= alpha
    out += x
    return np.subtract(1.0, out, out=out)


def _prepare(problem: ADProblem, config: SolverConfig):
    # The cached reference rule mapped to (0, T), as basis, TQ and time
    # grid, and the u0 spectrum.
    basis, q = reference_rule(config.lam, config.M)
    return (basis, shift_integration_matrix(q, problem.T),
            time_grid(basis, problem.T), problem.spectrum(config.N0))


def _unit_solutions(a: np.ndarray, s: np.ndarray, z: np.ndarray,
                    alpha: np.ndarray) -> np.ndarray:
    # Column i solves (I + alpha_i a) x = ones for the real rate alpha_i,
    # the system of mode i + 1, given a real Schur form a = z s z^T with s
    # quasi-upper triangular (up to rounding; the refinement step works with
    # a itself). One kernel serves both back-substitutions. It holds about
    # one and a half (M + 1, len(alpha)) arrays, the p rows and the dets;
    # besides it, at most three such arrays are alive at once: y, x and the
    # refinement step. Each back-substitution writes its couplings to one
    # that is free, x before x is formed and y after. Only the result
    # outlives the call.
    #
    # norm = 1 + |alpha_i| ||a||_inf >= ||I + alpha_i a||_inf stands in for
    # the norm in both tests, so that neither needs an (M + 1, len(alpha))
    # temporary: it makes the pivot test stricter, and the residual test,
    # which divides by it, a little looser.
    norm = 1.0 + np.abs(alpha) * np.abs(a).sum(axis=1).max()
    y = np.empty((len(z), len(alpha)))
    kernel = _kernel(s, alpha, scratch=y)
    pivot = kernel.pivot
    bad = np.flatnonzero(~(pivot >= PIVOT_RTOL * norm))
    if bad.size:
        i = int(bad[0])
        raise ModeSolveError(
            i + 1,
            f"singular or ill-conditioned system (smallest eigenvalue modulus "
            f"{pivot[i]:.3e} below {PIVOT_RTOL:.0e} * (1 + |alpha| ||TQ||) "
            f"= {PIVOT_RTOL * norm[i]:.3e})")

    y[:] = z.T.sum(axis=1)[:, None]  # Z^T ones
    x = np.empty_like(y)
    _back_substitute(s, alpha, kernel, y, work=x)
    np.matmul(z, y, out=x)
    # One step of iterative refinement; y is free once x is formed.
    step = z.T @ _residual(a, alpha, x, out=y)
    _back_substitute(s, alpha, kernel, step, work=y)
    x += np.matmul(z, step, out=y)
    # A zero rate leaves the identity, whose solution is exactly ones.
    x[:, alpha == 0] = 1.0

    # The absolute values go to step and y, both free by now.
    resid = np.abs(_residual(a, alpha, x, out=step), out=step).max(axis=0)
    backward = resid / (norm * np.abs(x, out=y).max(axis=0) + 1.0)
    bad = np.flatnonzero(~(backward <= PIVOT_RTOL))
    if bad.size:
        i = int(bad[0])
        raise ModeSolveError(
            i + 1,
            f"refined residual {backward[i]:.3e} exceeds {PIVOT_RTOL:.0e} "
            f"* ((1 + |alpha| ||TQ||) ||x|| + 1)")
    return x


def solve_modes(problem: ADProblem, config: SolverConfig,
                parallel: bool = False) -> SpectralSolution:
    """Solve all positive-mode systems; the coefficients complete when read.

    Negative modes are the exact conjugates of the positive ones and the zero
    mode is -2 sum_k Re(psi_k), enforcing the zero-sum constraint.
    ``parallel`` is accepted and ignored: all modes are solved together in
    one back-substitution along the mode axis. The solution's ``stage_s``
    records the seconds of the two stages, "assembly" and "solve".
    """
    t0 = time.perf_counter()
    basis, tq, tgrid, spectrum = _prepare(problem, config)
    t1 = time.perf_counter()
    # Column n - 1 holds the unit solution x_n of
    # (I + Re(alpha_n) TQ) x_n = ones. It depends on the rule and the real
    # rates, not on u0 or mu. TQ = Z (T/2 S) Z^T, so the cached real Schur
    # form of the reference Q serves every horizon.
    half = config.N // 2
    rates = np.ascontiguousarray(mode_rate(problem, np.arange(1, half + 1)).real)
    with np.errstate(over="ignore"):
        # (M + 1) max |TQ| >= ||TQ||_F, which bounds every entry of the factor
        reach = np.abs(rates) * (len(tq.entries) * np.abs(tq.entries).max())
        far = np.flatnonzero(reach >= REAL_SOLVE_LIMIT)
        if far.size:
            i = int(far[0])
            raise ModeSolveError(
                i + 1,
                f"|Re(alpha_n)| T = {abs(rates[i]) * problem.T:.6g} is too "
                f"large: the real Schur solve needs |Re(alpha_n)| (M + 1) "
                f"max |TQ| below {REAL_SOLVE_LIMIT:.0e}")
    s, z = reference_rule(config.lam, config.M)[1].real_schur
    units = _unit_solutions(tq.entries, 0.5 * problem.T * s, z, rates)
    units.setflags(write=False)
    t2 = time.perf_counter()
    return SpectralSolution(
        config=config, problem=problem, basis=basis, time_grid=tgrid,
        units=units, scale=spectrum.values[1:half + 1],
        stage_s=MappingProxyType({"assembly": t1 - t0, "solve": t2 - t1}))


def coefficient_row(sol, t: float) -> np.ndarray:
    """Modes -N/2 .. N/2 of either kind of sol at one time t, shape (N + 1,)."""
    if np.ndim(t):
        raise ValueError(f"t must be a scalar; got shape {np.shape(t)}")
    return sol.coefficients(t)[0]


def coefficients_at(sol, t: float) -> dict:
    """Map each mode k = -N/2 .. N/2 to its coefficient at time t in [0, T]."""
    half = sol.grid.N // 2
    row = coefficient_row(sol, t)
    return {k: complex(c) for k, c in zip(range(-half, half + 1), row)}


def _check_grid(sol, x_grid: FourierGrid) -> None:
    if x_grid != sol.grid:
        raise ValueError(f"{x_grid} does not match the solution's {sol.grid}")


def _table_and_trace(sol, t):
    # The coefficient table at times t, a scalar or 1-D in [0, T], and the
    # trace g at those times.
    times = sol.problem.times(t)
    return (sol.coefficients(times),
            [float(sol.problem.g(float(tk))) for tk in times])


def evaluate_u(sol, x_grid: FourierGrid, t) -> np.ndarray:
    """Solution values at the grid nodes and time t, for either kind of sol.

    A scalar t gives shape (N,); a 1-D array of times gives one row per
    time, shape (len(t), N), from one coefficient table and one synthesis.
    Any other shape of t, or ``x_grid`` other than ``sol.grid``, raises
    ValueError.
    """
    _check_grid(sol, x_grid)
    table, g = _table_and_trace(sol, t)
    u = synthesize_field(table, x_grid, g)
    return u[0] if np.ndim(t) == 0 else u


def evaluate_ux(sol, x_grid: FourierGrid, t) -> np.ndarray:
    """Spatial-derivative values at the grid nodes and time t (scalar or 1-D)."""
    _check_grid(sol, x_grid)
    ux = synthesize_derivative(sol.coefficients(t), x_grid)
    return ux[0] if np.ndim(t) == 0 else ux


def evaluate_fields(sol, t):
    """The coefficient table at 1-D times t in [0, T], and u and ux from it.

    Returns the table, shape (len(t), N + 1), and the values of u and ux at
    the nodes of ``sol.grid``, each shape (len(t), N), as ``evaluate_u`` and
    ``evaluate_ux`` give them, from one coefficient table.
    """
    grid = sol.grid
    table, g = _table_and_trace(sol, t)
    return (table, synthesize_field(table, grid, g),
            synthesize_derivative(table, grid))
