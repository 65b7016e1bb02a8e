"""Error metrics, convergence sweeps, conditioning studies, and timing."""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .fourier import FourierGrid
from .gegenbauer import reference_rule, shift_integration_matrix
from .problems import ADProblem, SolverConfig
from .solver import (_prepare, _solve_prepared, evaluate_u, mode_rate,
                     solve_modes)

JACOBI_TOL = 1e-14
JACOBI_MAX_SWEEPS = 60


@dataclass(frozen=True)
class ErrorReport:
    """Pointwise max and discrete norm of the error on the spatial grid at t_final."""

    pointwise_max: float
    dne: float
    grid_desc: tuple  # (N, M, lam, N0, t_final)


@dataclass(frozen=True)
class ConditioningReport:
    """Extreme singular values and condition number of one studied matrix."""

    kind: str  # "TQ" or "A"
    n: int     # mode index for kind "A"; 0 for the integration matrix itself
    lam: float
    M: int
    sigma_max: float
    sigma_min: float
    cond: float


@dataclass(frozen=True)
class SweepResult:
    """Rows (N, M, dne, log10 dne) plus log-error slopes versus M per N."""

    rows: list
    slopes: dict


@dataclass(frozen=True)
class BenchResult:
    """Median wall-clock seconds, total and per stage; informational only."""

    median_total: float
    stages: dict


def _report_from_field(problem: ADProblem, config: SolverConfig,
                       numeric: np.ndarray, t_final: float) -> ErrorReport:
    # numeric holds u at the N spatial grid nodes and time t_final.
    nodes = FourierGrid(L=problem.L, N=config.N).nodes
    diff = numeric - np.asarray(problem.exact(nodes, t_final), dtype=float)
    dne = float(np.sqrt(problem.L / config.N * np.sum(diff ** 2)))
    return ErrorReport(
        pointwise_max=float(np.max(np.abs(diff))),
        dne=dne,
        grid_desc=(config.N, config.M, config.lam, config.N0, t_final),
    )


def error_report(problem: ADProblem, config: SolverConfig,
                 t_final: float) -> ErrorReport:
    """Solve with horizon t_final and compare to the exact solution there.

    t_final is treated as the terminal time of the run: the mode systems are
    collocated on (0, t_final) and the coefficients interpolated to its
    endpoint, which is never a collocation node.
    """
    if problem.exact is None:
        raise ValueError("error_report requires a problem with an exact solution")
    if not t_final > 0:
        raise ValueError(f"t_final must be positive; got {t_final}")
    sol = solve_modes(problem.with_horizon(t_final), config)
    return _report_from_field(problem, config, evaluate_u(sol, sol.grid, t_final),
                              t_final)


def convergence_sweep(problem: ADProblem, N_range: Sequence[int],
                      M_range: Sequence[int], lam: float,
                      t_final: Optional[float] = None) -> SweepResult:
    """One error report per (N, M) cell, N0 = N + 2 throughout."""
    if not len(N_range) or not len(M_range):
        raise ValueError("N_range and M_range must be nonempty")
    t_final = problem.T if t_final is None else t_final
    rows = []
    for N in sorted(set(int(n) for n in N_range)):
        for M in sorted(set(int(m) for m in M_range)):
            config = SolverConfig(N=N, M=M, N0=N + 2, lam=lam)
            report = error_report(problem, config, t_final)
            log_dne = float(np.log10(report.dne)) if report.dne > 0 else -np.inf
            rows.append((N, M, report.dne, log_dne))
    slopes = {}
    for N in sorted(set(r[0] for r in rows)):
        ms = np.array([r[1] for r in rows if r[0] == N], dtype=float)
        logs = np.array([r[3] for r in rows if r[0] == N], dtype=float)
        finite = np.isfinite(logs)
        if finite.sum() >= 2:
            slopes[N] = float(np.polyfit(ms[finite], logs[finite], 1)[0])
        else:
            slopes[N] = float("nan")
    return SweepResult(rows=rows, slopes=slopes)


def _round_robin(width: int) -> np.ndarray:
    """Column permutation that advances a Brent-Luk round robin by one step.

    Column i of the left half is paired with column i of the right half.
    Column 0 stays put; the others move one place around the ring left half
    left-to-right, then right half right-to-left, so width - 1 steps pair
    every column with every other once and restore the starting order.
    """
    half = width // 2
    ring = [*range(1, half), *range(width - 1, half - 1, -1)]
    perm = np.arange(width)
    for j, col in enumerate(ring):
        perm[ring[(j + 1) % len(ring)]] = col
    return perm


def jacobi_svd(matrix, tol: float = JACOBI_TOL,
               max_sweeps: int = JACOBI_MAX_SWEEPS):
    """One-sided Jacobi SVD of real or complex matrices with m >= n rows.

    Accepts one (m, n) matrix or a stack (..., m, n), as numpy.linalg.svd
    does. Columns are orthogonalized pairwise by plane rotations (with a
    phase absorption step in the complex case) until every normalized column
    inner product falls below tol. Pairs follow the Brent-Luk round-robin
    ordering: each step rotates n/2 disjoint pairs of every matrix at once,
    and a sweep is n - 1 steps (odd n is padded with a zero column). Returns
    (U, s, Vh) with s descending; small singular values retain high relative
    accuracy.
    """
    a = np.asarray(matrix)
    if a.ndim < 2:
        raise ValueError(f"expected a matrix or a stack of matrices; got shape {a.shape}")
    *batch, m, n = a.shape
    if m < n:
        raise ValueError("one-sided Jacobi requires at least as many rows as columns")
    if not np.all(np.isfinite(a)):
        raise ValueError("one-sided Jacobi requires finite entries")
    dtype = complex if np.iscomplexobj(a) else float
    width = n + n % 2
    half = width // 2
    # work holds [U; V] for every matrix, one column per Jacobi column
    work = np.zeros((math.prod(batch), m + width, width), dtype=dtype)
    work[:, :m, :n] = a.reshape(-1, m, n)
    work[:, m:, :] = np.eye(width)
    perm = _round_robin(width)

    off = np.inf
    for _ in range(max_sweeps):
        rels = []
        for _ in range(width - 1):
            u = work[:, :m]
            uc = u.conj()
            norms = np.einsum("bij,bij->bj", uc, u).real
            c = np.einsum("bij,bij->bj", uc[:, :, :half], u[:, :, half:])
            aa, bb = norms[:, :half], norms[:, half:]
            # sqrt before multiplying: the product itself can underflow
            # for near-null columns of rank-deficient inputs
            roots = np.sqrt(norms)
            denom = roots[:, :half] * roots[:, half:]
            live = denom > 0.0
            cab = np.abs(c)
            rel = cab / np.where(live, denom, 1.0)
            rels.append(rel)
            # converged and zero pairs get the exact identity rotation
            rotate = live & ~(rel <= tol)
            cab = np.where(rotate, cab, 1.0)
            phase = np.where(rotate, np.conj(c) / cab, 1.0)
            zeta = (bb - aa) / (2.0 * cab)
            tt = np.where(rotate, np.copysign(1.0, zeta)
                          / (np.abs(zeta) + np.hypot(1.0, zeta)), 0.0)
            cs = (1.0 / np.sqrt(1.0 + tt * tt))[:, None, :]
            sn = cs * tt[:, None, :]
            x = work[:, :, :half]
            y = phase[:, None, :] * work[:, :, half:]
            work = np.concatenate((cs * x - sn * y, sn * x + cs * y), axis=2)[:, :, perm]
        off = float(np.max(rels, initial=0.0))
        if off <= tol:
            break
    else:
        warnings.warn(
            f"one-sided Jacobi SVD stopped after {max_sweeps} sweeps "
            f"with off-measure {off:.2e}", RuntimeWarning)

    # each sweep restores the column order, so the padding column is last
    u = work[:, :m, :n]
    v = work[:, m:m + n, :n]
    sing = np.sqrt(np.sum(np.abs(u) ** 2, axis=1))
    order = np.argsort(-sing, axis=-1, kind="stable")
    sing = np.take_along_axis(sing, order, axis=-1)
    u = np.take_along_axis(u, order[:, None, :], axis=-1)
    v = np.take_along_axis(v, order[:, None, :], axis=-1)
    u = u / np.where(sing > 0, sing, 1.0)[:, None, :]
    vh = np.conj(np.swapaxes(v, -1, -2))
    return (u.reshape(*batch, m, n), sing.reshape(*batch, n),
            vh.reshape(*batch, n, n))


def singular_values(matrix) -> np.ndarray:
    """Full singular spectrum of a square matrix or a stack of them, descending."""
    a = np.asarray(matrix)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValueError(f"expected a square matrix or a stack of them; got shape {a.shape}")
    _, sing, _ = jacobi_svd(a)
    return sing


def conditioning_study(problem: ADProblem, config: SolverConfig,
                       lambda_list: Sequence[float],
                       M_list: Sequence[int]):
    """Condition numbers of TQ and of A at the fundamental and Nyquist modes.

    Returns (reports, flags). Flags summarize the empirical trends:
    ``peak_at_nyquist`` (cond at n = N/2 dominates the sampled modes whenever
    mu, nu are not both zero), ``sigma_min_monotone_negative_lam`` (smallest
    singular value of Q shrinks as lam decreases below 0, per M), and
    ``fundamental_max_cond`` (largest observed cond at n = 1).
    """
    if not len(lambda_list) or not len(M_list):
        raise ValueError("lambda_list and M_list must be nonempty")
    lams = sorted(set(float(l) for l in lambda_list))
    Ms = sorted(set(int(m) for m in M_list))
    half = config.N // 2
    modes = sorted({1, half})
    rates = mode_rate(problem, np.array(modes))

    reports = []
    transport = problem.mu != 0 or problem.nu != 0
    peak_ok = True
    sigma_min_by_M = {M: [] for M in Ms}

    for lam in lams:
        for M in Ms:
            tq = shift_integration_matrix(reference_rule(lam, M)[1], problem.T)
            # one complex stack per cell: TQ, then A at each sampled mode
            sing = singular_values(np.concatenate(
                [tq.entries[None],
                 np.eye(M + 1) + rates[:, None, None] * tq.entries]))
            conds = {}
            for n, s in zip([0, *modes], sing):
                smax, smin = float(s[0]), float(s[-1])
                reports.append(ConditioningReport(
                    kind="A" if n else "TQ", n=n, lam=lam, M=M,
                    sigma_max=smax, sigma_min=smin, cond=smax / smin))
                conds[n] = smax / smin
            sigma_min_by_M[M].append(float(sing[0, -1]))
            if transport and len(modes) > 1:
                peak_ok = peak_ok and conds[half] >= conds[1] * (1.0 - 1e-9)

    monotone = True
    neg = [i for i, lam in enumerate(lams) if lam < 0.0]
    for M in Ms:
        smins = [sigma_min_by_M[M][i] for i in neg]
        monotone = monotone and all(a <= b * (1.0 + 1e-9)
                                    for a, b in zip(smins, smins[1:]))

    flags = {
        "peak_at_nyquist": peak_ok,
        "sigma_min_monotone_negative_lam": monotone,
        "fundamental_max_cond": max(
            (r.cond for r in reports if r.kind == "A" and r.n == 1),
            default=float("nan")),
    }
    return reports, flags


def bench_solve(problem: ADProblem, config: SolverConfig,
                repeats: int) -> BenchResult:
    """Median wall-clock time of the stages of solve_modes, then one synthesis.

    "assembly" is the rule lookup, time grid and u0 spectrum, "solve" the
    mode solves and the completed coefficient table, and "synthesis" one
    evaluate_u call at every time node.
    """
    if repeats < 3:
        raise ValueError(f"repeats must be >= 3; got {repeats}")
    stage_names = ("assembly", "solve", "synthesis")
    samples = {name: [] for name in stage_names}
    totals = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        prepared = _prepare(problem, config)
        t1 = time.perf_counter()
        sol = _solve_prepared(problem, config, *prepared)
        t2 = time.perf_counter()
        evaluate_u(sol, sol.grid, sol.time_grid.nodes)
        t3 = time.perf_counter()
        samples["assembly"].append(t1 - t0)
        samples["solve"].append(t2 - t1)
        samples["synthesis"].append(t3 - t2)
        totals.append(t3 - t0)
    stages = {name: float(np.median(vals)) for name, vals in samples.items()}
    return BenchResult(median_total=float(np.median(totals)), stages=stages)
