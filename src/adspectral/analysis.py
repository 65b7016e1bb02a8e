"""Error metrics, convergence sweeps and conditioning studies."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg.lapack import dgejsv

from .fourier import FourierGrid, complete_half_spectrum, synthesize_field
from .gegenbauer import reference_rule, shift_integration_matrix
from .problems import ADProblem, SolverConfig, bad_entry
from .solver import evaluate_u, mode_rate, solve_modes


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


def _check_entries(caller: str, name: str, values, kind: str) -> None:
    # The rules of each kind of entry are problems.bad_entry's; name says
    # where caller took the values from.
    bad = bad_entry(kind, values)
    if bad:
        raise ValueError(f"{caller}: {name} {bad[0]!r} is not {bad[1]}")


def _field_errors(problem: ADProblem, numeric: np.ndarray, t_final: float):
    # numeric holds u at the N spatial grid nodes and time t_final along its
    # last axis, one field per leading index; problem.exact is sampled once
    # for all of them. Returns the pointwise errors and the dne of each field.
    N = numeric.shape[-1]
    nodes = FourierGrid(L=problem.L, N=N).nodes
    diff = numeric - np.asarray(problem.exact(nodes, t_final), dtype=float)
    with np.errstate(over="ignore"):
        squares = np.sum(diff ** 2, axis=-1)
    dne = np.asarray(np.sqrt(problem.L / N * squares))
    # The sum of squares underflows when every error is below about 1e-154
    # and overflows above about 1e154. Only those fields are recomputed, with
    # their errors scaled by the largest, so every other dne keeps its bytes.
    big = np.abs(diff).max(axis=-1)
    redo = ~(squares >= np.finfo(float).tiny) | (squares == np.inf)
    redo &= (big > 0) & (big < np.inf)
    if redo.any():
        scaled = diff[redo] / big[redo][:, None]
        dne[redo] = big[redo] * np.sqrt(problem.L / N * np.sum(scaled ** 2, axis=-1))
    return diff, dne


def field_report(problem: ADProblem, config: SolverConfig,
                 numeric: np.ndarray, t_final: float) -> ErrorReport:
    """The error report of u at the N grid nodes and t_final, already evaluated."""
    _check_error_inputs(problem, t_final, "field_report")
    diff, dne = _field_errors(problem, numeric, t_final)
    return ErrorReport(
        pointwise_max=float(np.max(np.abs(diff))),
        dne=float(dne),
        grid_desc=(config.N, config.M, config.lam, config.N0, t_final),
    )


def _check_error_inputs(problem: ADProblem, t_final: float, caller: str) -> None:
    """Refuse, naming caller, a problem with no exact solution or t_final <= 0."""
    if problem.exact is None:
        raise ValueError(f"{caller} requires a problem with an exact solution")
    if not t_final > 0:
        raise ValueError(f"{caller}: t_final must be positive; got {t_final}")


def error_report(problem: ADProblem, config: SolverConfig,
                 t_final: float) -> ErrorReport:
    """Solve with horizon t_final and compare to the exact solution there.

    t_final is treated as the terminal time of the run: the mode systems are
    collocated on (0, t_final) and the coefficients interpolated to its
    endpoint, which is never a collocation node.
    """
    _check_error_inputs(problem, t_final, "error_report")
    sol = solve_modes(problem.with_horizon(t_final), config)
    return field_report(problem, config, evaluate_u(sol, sol.grid, t_final),
                        t_final)


def convergence_sweep(problem: ADProblem, N_range: Sequence[int],
                      M_range: Sequence[int], lam: float) -> SweepResult:
    """One error report per (N, M) cell, N0 = N + 2 in each cell.

    Every cell gives the dne of error_report, from one batched pass over
    solve_modes. The unit solutions x_n depend on M and not on N, so each M
    takes one solve_modes call at the largest N, whose ``units_at`` the
    horizon T, where the error is taken, gives one row of x_n for
    n = 1 .. max(N)/2, and the phase exp(-i Im(alpha_n) T) is formed once
    for the same modes. Each N takes the leading N/2 entries of the rows of
    all M, scales them by its u0 spectrum, sampled once at N0 = N + 2
    points, and by the phase, as SpectralSolution.coefficients does, and
    takes one completion of the half spectrum, one synthesis, one sample of
    problem.exact and one log10 of its dnes. Rows are ordered N outer, M
    inner, and the least-squares slope of each N's log10 dne against M is
    fitted over its finite logs (NaN below two). A problem without an exact
    solution, an N that is not even and >= 2, an M that is not a whole
    number >= 1 or a lam outside the rule table's range is refused before
    any solve or rule build; sweep another horizon with
    problem.with_horizon(t).
    """
    if not len(N_range) or not len(M_range):
        raise ValueError("N_range and M_range must be nonempty")
    _check_entries("convergence_sweep", "N_range entry", N_range, "N")
    _check_entries("convergence_sweep", "M_range entry", M_range, "M")
    _check_entries("convergence_sweep", "lam", [lam], "lambda")
    T = problem.T
    _check_error_inputs(problem, T, "convergence_sweep")
    Ns = sorted(set(int(n) for n in N_range))
    Ms = sorted(set(int(m) for m in M_range))
    ends = np.concatenate([
        solve_modes(problem, SolverConfig(N=Ns[-1], M=M, lam=lam)).units_at(T)
        for M in Ms])
    shift = mode_rate(problem, np.arange(1, Ns[-1] // 2 + 1)).imag
    phase = np.exp(-1j * (T * shift))
    g_final = float(problem.g(T))
    ms = np.array(Ms, dtype=float)
    rows, slopes = [], {}
    for N in Ns:
        half = N // 2
        coeffs = complete_half_spectrum(
            ends[:, :half] * problem.spectrum(N + 2).values[1:half + 1]
            * phase[:half])
        field = synthesize_field(coeffs, FourierGrid(L=problem.L, N=N), g_final)
        _, dnes = _field_errors(problem, field, T)
        logs = np.log10(dnes, out=np.full(len(dnes), -np.inf), where=dnes > 0)
        rows.extend((N, M, float(dne), float(log))
                    for M, dne, log in zip(Ms, dnes, logs))
        finite = np.isfinite(logs)
        if finite.sum() >= 2:
            centred = ms[finite] - ms[finite].mean()
            slopes[N] = float(centred @ logs[finite] / (centred @ centred))
        else:
            slopes[N] = float("nan")
    return SweepResult(rows=rows, slopes=slopes)


def _dgejsv_values(a: np.ndarray) -> np.ndarray:
    # One (m, n) matrix, m >= n, finite. A complex matrix with a zero
    # imaginary part is its real part: the embedding would only double it
    # and change the last bits of the values.
    if np.iscomplexobj(a):
        if a.imag.any():
            m, n = a.shape
            embedding = np.empty((2 * m, 2 * n))
            embedding[:m, :n] = embedding[m:, n:] = a.real
            np.negative(a.imag, out=embedding[:m, n:])
            embedding[m:, :n] = a.imag
            return _dgejsv_values(embedding)[::2]
        a = a.real
    sva, _, _, work, _, info = dgejsv(a, joba=2, jobu=3, jobv=3, jobt=0, jobp=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dgejsv failed with info = {info}")
    # the values come in factored form: sigma = (work[0] / work[1]) sva
    return -np.sort(-sva * (work[0] / work[1]))


def jacobi_svd(matrix) -> np.ndarray:
    """Singular values of real or complex matrices with m >= n rows, descending.

    Accepts one (m, n) matrix or a stack (..., m, n), as numpy.linalg.svd
    does, and returns shape (..., n). Each matrix goes through LAPACK's
    preconditioned one-sided Jacobi SVD, dgejsv (Drmac and Veselic, SIAM J.
    Matrix Anal. Appl. 29, 2008), with JOBA = 'F': a QR factorization with
    full row and column pivoting comes first, so small singular values keep
    high relative accuracy. (scipy's default, JOBA = 'A', may discard
    those below n eps ||A|| as noise.) A complex matrix X + iY with Y != 0 goes in as its
    real embedding [[X, -Y], [Y, X]], whose singular values are those of
    X + iY, each twice; with Y = 0 it goes in as X.
    """
    a = np.asarray(matrix)
    if a.ndim < 2:
        raise ValueError(f"expected a matrix or a stack of matrices; got shape {a.shape}")
    *batch, m, n = a.shape
    if m < n:
        raise ValueError("one-sided Jacobi requires at least as many rows as columns")
    if not np.all(np.isfinite(a)):
        raise ValueError("one-sided Jacobi requires finite entries")
    sing = [_dgejsv_values(member) for member in a.reshape(-1, m, n)]
    return np.reshape(sing, (*batch, n))


def singular_values(matrix) -> np.ndarray:
    """Full singular spectrum of a square matrix or a stack of them, descending.

    The values come from jacobi_svd, so small ones keep high relative
    accuracy.
    """
    a = np.asarray(matrix)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValueError(f"expected a square matrix or a stack of them; got shape {a.shape}")
    return jacobi_svd(a)


# Largest relative error bound on sigma_min under which a complex member of
# a conditioning stack keeps its numpy.linalg.svd values.
_GESDD_RTOL = 1e-13
# The complex type in which the certificate forms A v, its Rayleigh quotient
# and its residual. On x86-64 Linux it is the x87 extended type, eps 1.1e-19.
# Where it is no wider than complex128, the bound's rounding term,
# 4 m eps s_1 / sigma_min, is 4 times gesdd's a-priori error bound, so a
# member falls back to jacobi_svd unless m eps s_1 / sigma_min is below
# _GESDD_RTOL / 4.
_CERTIFICATE_DTYPE = np.clongdouble


def _squared_norms(x: np.ndarray) -> np.ndarray:
    return np.sum(x.real ** 2 + x.imag ** 2, axis=-1)


def _kato_temple(stack: np.ndarray, s: np.ndarray, vh: np.ndarray):
    # sigma_min of each member A of a finite complex stack, and a relative
    # error bound on it, from gesdd's values s and right singular vectors vh
    # of A. v, the last row of vh conjugated, is the right vector of s_min;
    # in _CERTIFICATE_DTYPE, w = A v with |v| = 1, theta = |w|^2 and
    # r = A^H w - theta v. By Kato-Temple (Parlett, The Symmetric Eigenvalue
    # Problem, ch. 10), the eigenvalue sigma_min^2 of A^H A lies in
    # [theta - |r|^2 / (b - theta), theta] for any b with
    # theta < b <= sigma_{m-1}^2; gesdd's absolute error, m eps s_1, gives
    # b = (s_{m-1} - m eps s_1)^2. sqrt(theta) is returned with that
    # interval's width relative to theta, plus the rounding of theta (about
    # 4 m eps_ext s_1 / sigma_min) and of r; the bound is inf with no gap
    # (b <= theta).
    m = stack.shape[-1]
    eps, eps_ext = np.finfo(float).eps, np.finfo(_CERTIFICATE_DTYPE).eps
    a = stack.astype(_CERTIFICATE_DTYPE)
    v = vh[:, -1].conj().astype(_CERTIFICATE_DTYPE)
    v /= np.sqrt(_squared_norms(v))[:, None]
    w = (a @ v[..., None])[..., 0]
    theta = _squared_norms(w)
    r = (a.conj().swapaxes(-2, -1) @ w[..., None])[..., 0] - theta[:, None] * v
    rounding = 4 * m * eps_ext * s[:, 0]
    residual = np.sqrt(_squared_norms(r)) + rounding * s[:, 0]
    gap = np.maximum(s[:, -2] - m * eps * s[:, 0], 0.0) ** 2 - theta
    sigma = np.sqrt(theta)
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = residual ** 2 / (gap * theta) + rounding / sigma
    bound[~(gap > 0)] = np.inf
    return sigma.astype(float), bound.astype(float)


def _study_values(stack: np.ndarray) -> np.ndarray:
    # Singular values of each square member of a finite stack, descending.
    # The members with a nonzero imaginary part take one numpy.linalg.svd
    # (LAPACK gesdd) call with vectors. Each keeps those values, sigma_min
    # replaced by _kato_temple's, when its bound is below _GESDD_RTOL; its
    # other values are gesdd's. Every other member, real ones, those whose
    # bounds are NaN or too large, and all of them when gesdd does not
    # converge, goes through one jacobi_svd call.
    sing = np.empty(stack.shape[:-1])
    fallback = np.ones(len(stack), dtype=bool)
    if np.iscomplexobj(stack):
        tried = np.flatnonzero(stack.imag.any(axis=(-2, -1)))
        if tried.size:
            try:
                _, s, vh = np.linalg.svd(stack[tried])
            except np.linalg.LinAlgError:
                pass
            else:
                s[:, -1], bound = _kato_temple(stack[tried], s, vh)
                certified = bound < _GESDD_RTOL
                sing[tried[certified]] = s[certified]
                fallback[tried[certified]] = False
    if fallback.any():
        sing[fallback] = jacobi_svd(stack[fallback])
    return sing


def conditioning_study(problem: ADProblem, config: SolverConfig,
                       lambda_list: Sequence[float],
                       M_list: Sequence[int]):
    """Condition numbers of TQ and of A at the fundamental and Nyquist modes.

    Returns (reports, flags). Flags summarize the empirical trends:
    ``peak_at_nyquist`` (cond at n = N/2 dominates the sampled modes whenever
    mu, nu are not both zero), ``sigma_min_monotone_negative_lam`` (smallest
    singular value of Q shrinks as lam decreases below 0, per M), and
    ``fundamental_max_cond`` (largest observed cond at n = 1). A lambda at
    or below -1/2 + LAMBDA_MIN_GUARD, or an M that is not a whole number
    >= 1, is refused before any rule is built.

    Each (lambda, M) cell stacks TQ and the A matrices. Every A whose rate
    alpha_n is complex takes one numpy.linalg.svd (LAPACK gesdd) call with
    vectors. The right singular vector v of sigma_min gives sigma_min as
    |A v| in extended precision, and the member keeps it, with gesdd's other
    values, when its Kato-Temple bound, relative to sigma_min, is below
    1e-13. Every other member keeps the relative accuracy of jacobi_svd, in
    one call per cell: TQ, whose sigma_min falls to about 1e-6 as lambda
    nears -1/2, every A with a real rate, and every A the bound does not
    certify. A cell with a member that overflows (|alpha_n| T or max |Q| T
    too large), or with a TQ entry that underflows below the smallest
    normal double where Q's is nonzero, is refused before its SVD, with the
    member named.
    """
    if not len(lambda_list) or not len(M_list):
        raise ValueError("lambda_list and M_list must be nonempty")
    _check_entries("conditioning_study", "lambda_list entry", lambda_list,
                   "lambda")
    _check_entries("conditioning_study", "M_list entry", M_list, "M")
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
            q = reference_rule(lam, M)[1]
            # One stack per cell: TQ, then A at each sampled mode. An entry
            # that overflows (inf times a zero part gives NaN), or a TQ entry
            # that underflows, is refused below, before any SVD.
            with np.errstate(over="ignore", invalid="ignore"):
                tq = shift_integration_matrix(q, problem.T).entries
                stack = np.concatenate(
                    [tq[None], np.eye(M + 1) + rates[:, None, None] * tq])
            bad = np.flatnonzero(~np.isfinite(stack).all(axis=(-2, -1)))
            if bad.size:
                i = int(bad[0])
                scale = (f"|alpha_n| T = {abs(rates[i - 1]):.6g} * " if i
                         else f"max |Q| T = {np.abs(q.entries).max():.6g} * ")
                raise ValueError(
                    f"conditioning_study: {'A' if i else 'TQ'} at n = "
                    f"{[0, *modes][i]}, lambda = {lam}, M = {M} is not finite: "
                    f"{scale}{problem.T:.6g} overflows")
            nonzero = q.entries != 0
            if np.abs(tq[nonzero]).min() < np.finfo(float).tiny:
                raise ValueError(
                    f"conditioning_study: TQ at n = 0, lambda = {lam}, M = {M} "
                    f"is not normal: min |Q| T = "
                    f"{np.abs(q.entries[nonzero]).min():.6g} * "
                    f"{problem.T:.6g} underflows")
            sing = _study_values(stack)
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

