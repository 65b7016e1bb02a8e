"""The four workloads: inputs made from the seed, one timed op, output checks.

Importing this module imports numpy, scipy and ``adspectral`` from the
checkout's ``src/``; the measuring process times that import as set-up.
Every op is one closed-loop call with one op in flight. ``make_input(i)``
depends only on the seed and i, and it and ``check`` run outside the timed
region.
"""

from __future__ import annotations

import csv
import math
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402

import adspectral  # noqa: E402

if Path(adspectral.__file__).resolve().parent != ROOT / "src" / "adspectral":
    raise ImportError(f"adspectral imported from {adspectral.__file__}, "
                      f"not from {ROOT / 'src'}")

from adspectral import (ADProblem, SolverConfig, build_basis,  # noqa: E402
                        build_integration_matrix, cli, mode_rate,
                        shift_integration_matrix, solver, test_problem)

from oracle import closed_form_field, semianalytic_deviation  # noqa: E402

# Exact solutions of the three built-in problems (L = 2), written out here so
# that field_csv's error does not rest on the package's own formulas.
_EXACT = {
    1: lambda x, t: math.exp(-math.pi ** 2 * t) * math.sin(math.pi * x),
    2: lambda x, t: math.exp(-t) * math.sin(math.pi * x),
    3: lambda x, t: (-math.exp(-math.pi ** 2 * 0.1 * t)
                     * math.sin(math.pi * (0.01 * t - x))),
}

# Round-off workloads fail an op whose error exceeds these; rough_modes has a
# known stiff-mode error and is reported, never failed, on its error.
FIELD_TOL = 1e-11
SWEEP_TOL = 1e-12
SVD_TOL = 1e-10
ORACLE_TOL = 1e-12


class CheckError(Exception):
    """An op's output is missing, malformed, non-finite or inaccurate."""


@dataclass
class Outcome:
    """What the checks found for one op."""

    problems: list = field(default_factory=list)
    err: float = float("nan")
    bytes_written: int = 0
    rows_written: int = 0


def _rows(path: Path, header: list, text_columns=()):
    """Yield parsed data rows of a CSV after checking its header; all numbers finite."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        if next(reader, None) != header:
            raise CheckError(f"{path.name}: header is not {header}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise CheckError(f"{path.name}:{lineno}: {len(row)} fields")
            try:
                values = [cell if j in text_columns else float(cell)
                          for j, cell in enumerate(row)]
            except ValueError as exc:
                raise CheckError(f"{path.name}:{lineno}: {exc}") from exc
            if not all(math.isfinite(v) for j, v in enumerate(values)
                       if j not in text_columns):
                raise CheckError(f"{path.name}:{lineno}: non-finite value")
            yield values


def _expect_files(out: Path, names) -> int:
    found = sorted(p.name for p in out.iterdir()) if out.is_dir() else []
    if found != sorted(names):
        raise CheckError(f"output files {found}, expected {sorted(names)}")
    return sum((out / name).stat().st_size for name in names)


def _expect_count(name: str, got: int, want: int) -> None:
    if got != want:
        raise CheckError(f"{name}: {got} data rows, expected {want}")


class _CliWorkload:
    """A workload whose op is one in-process ``adspectral`` command."""

    command = ""
    warm_up_config: dict = {}  # a small op on the same code path

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.first_problem = int(np.random.default_rng(seed).integers(3))
        self.workdir = workdir
        self.out = workdir / "out"

    def problem_id(self, i: int) -> int:
        # Successive ops cycle through the built-ins from a seeded start, so
        # every run of three ops or more covers all three problems.
        return 1 + (self.first_problem + i) % 3

    def config(self, i: int) -> dict:
        raise NotImplementedError

    def _write_config(self, name: str, pairs: dict) -> Path:
        path = self.workdir / name
        path.write_text("".join(f"{k} = {v}\n" for k, v in pairs.items()),
                        encoding="utf-8")
        if self.out.exists():
            shutil.rmtree(self.out)
        return path

    def make_input(self, i: int):
        pairs = self.config(i)
        return pairs, self._write_config(f"op{i}.cfg", pairs)

    def run(self, op):
        _, path = op
        code = cli.main([self.command, "--config", str(path),
                         "--out", str(self.out)])
        if code != 0:
            raise RuntimeError(f"adspectral {self.command} exited {code}")

    def check(self, op, _result) -> Outcome:
        pairs, _ = op
        outcome = Outcome()
        try:
            self.check_files(pairs, outcome)
        except (CheckError, OSError) as exc:
            outcome.problems.append(str(exc))
        return outcome

    def check_files(self, pairs: dict, outcome: Outcome) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        self.run((None, self._write_config("warm.cfg", self.warm_up_config)))
        shutil.rmtree(self.out)

    def final_check(self) -> list:
        return []


SOLUTION_HEADER = ["x", "t", "u", "ux", "u_exact", "abs_err"]
COEFF_HEADER = ["k", "l", "t_node", "re_psi", "im_psi"]
REPORT_HEADER = ["N", "M", "lambda", "N0", "t_final", "pointwise_max", "dne"]


class FieldCsv(_CliWorkload):
    """``adspectral solve`` at N=1024, M=32, writing all three CSVs."""

    command = "solve"
    N, M = 1024, 32
    warm_up_config = {"problem_id": 1, "N": 8, "M": 4}
    err_unit = "abs"
    err_of = "max |u - exact| over solution.csv"

    def config(self, i):
        return {"problem_id": self.problem_id(i), "N": self.N, "M": self.M}

    def check_files(self, pairs, outcome):
        N, M = pairs["N"], pairs["M"]
        names = ["solution.csv", "coefficients.csv", "report.csv"]
        outcome.bytes_written = _expect_files(self.out, names)
        exact = _EXACT[pairs["problem_id"]]
        err, count = 0.0, 0
        for x, t, u, *_ in _rows(self.out / "solution.csv", SOLUTION_HEADER):
            err = max(err, abs(u - exact(x, t)))
            count += 1
        _expect_count("solution.csv", count, N * (M + 2))
        coeffs = sum(1 for _ in _rows(self.out / "coefficients.csv", COEFF_HEADER))
        _expect_count("coefficients.csv", coeffs, (N + 1) * (M + 1))
        reports = sum(1 for _ in _rows(self.out / "report.csv", REPORT_HEADER))
        _expect_count("report.csv", reports, 1)
        outcome.rows_written = count + coeffs + reports
        outcome.err = err
        if not err <= FIELD_TOL:
            raise CheckError(f"solution error {err:.3e} above {FIELD_TOL:.0e}")


class SweepCells(_CliWorkload):
    """``adspectral convergence`` over N 4:4:64 x M 2:2:40, 320 small cells."""

    command = "convergence"
    N_RANGE, M_RANGE = range(4, 65, 4), range(2, 41, 2)
    warm_up_config = {"problem_id": 1, "N": 8, "M": 4, "N_range": "4:4:8",
                      "M_range": "2:2:4"}
    err_unit = "abs"
    err_of = "dne at the finest cell (N=64, M=40)"

    def config(self, i):
        return {"problem_id": self.problem_id(i), "N": self.N_RANGE[-1],
                "M": self.M_RANGE[-1], "N_range": "4:4:64", "M_range": "2:2:40"}

    def check_files(self, pairs, outcome):
        outcome.bytes_written = _expect_files(self.out, ["sweep.csv"])
        cells = {}
        for n, m, dne, _ in _rows(self.out / "sweep.csv",
                                  ["N", "M", "dne", "log10_dne"]):
            cells[(int(n), int(m))] = dne
            outcome.rows_written += 1
        expected = {(n, m) for n in self.N_RANGE for m in self.M_RANGE}
        _expect_count("sweep.csv", outcome.rows_written, len(expected))
        if set(cells) != expected:
            raise CheckError("sweep.csv: cells differ from N_range x M_range")
        outcome.err = cells[(self.N_RANGE[-1], self.M_RANGE[-1])]
        if not outcome.err <= SWEEP_TOL:
            raise CheckError(f"finest-cell dne {outcome.err:.3e} above {SWEEP_TOL:.0e}")


class CondSvd(_CliWorkload):
    """``adspectral conditioning`` over one seeded lambda x M_list 8:8:48."""

    command = "conditioning"
    N = 64
    M_LIST = range(8, 49, 8)
    warm_up_config = {"problem_id": 1, "N": 8, "M": 4, "lambda_list": "-0.4",
                      "M_list": "4"}
    # Op i draws its lambda from band i % 3, so every three ops span
    # [-0.45, 1.5]. One lambda per op keeps an op near 1.5 s, short enough
    # that the reference loops timed before and after it see the host at
    # the speed the op saw. Jacobi's work varies by under 5% over the bands.
    LAMBDA_BANDS = ((-0.45, -0.16), (-0.14, 0.44), (0.46, 1.5))
    err_unit = "rel"
    err_of = "max relative deviation of sigma_min, sigma_max from LAPACK"

    def config(self, i):
        # Problem 3, with both advection and diffusion, for every op.
        lo, hi = self.LAMBDA_BANDS[i % 3]
        lam = round(float(np.random.default_rng([self.seed, i]).uniform(lo, hi)), 3)
        return {"problem_id": 3, "N": self.N, "M": self.M_LIST[0],
                "lambda_list": repr(lam), "M_list": "8:8:48"}

    def check_files(self, pairs, outcome):
        outcome.bytes_written = _expect_files(self.out, ["conditioning.csv"])
        problem = test_problem(pairs["problem_id"])
        lams = [float(v) for v in pairs["lambda_list"].split(",")]
        expected = {(kind, n, lam, M) for lam in lams for M in self.M_LIST
                    for kind, n in (("TQ", 0), ("A", 1), ("A", self.N // 2))}
        seen = set()
        err = 0.0
        header = ["matrix", "n", "lambda", "M", "sigma_max", "sigma_min", "cond"]
        for kind, n, lam, M, smax, smin, _ in _rows(self.out / "conditioning.csv",
                                                     header, text_columns=(0,)):
            key = (kind, int(n), lam, int(M))
            if key not in expected or key in seen:
                raise CheckError(f"conditioning.csv: unexpected row {key}")
            seen.add(key)
            tq = shift_integration_matrix(
                build_integration_matrix(build_basis(lam, int(M))), problem.T).entries
            matrix = tq if kind == "TQ" else (
                np.eye(int(M) + 1) + mode_rate(problem, int(n)) * tq)
            sigma = scipy.linalg.svd(matrix, compute_uv=False)
            err = max(err, abs(smax - sigma[0]) / sigma[0],
                      abs(smin - sigma[-1]) / sigma[-1])
        outcome.rows_written = len(seen)
        _expect_count("conditioning.csv", len(seen), len(expected))
        outcome.err = err
        if not err <= SVD_TOL:
            raise CheckError(f"singular values deviate {err:.3e} from LAPACK")


class OddSteps:
    """Odd, L-periodic, piecewise-constant u0; zero at x = 0 and x = L/2.

    Oddness makes u(0, t) = 0 for all t under pure diffusion, so g = 0 is
    the exact trace. The jumps put energy in every mode, stiff ones included.
    """

    def __init__(self, L: float, breaks: np.ndarray, levels: np.ndarray):
        self.L, self.breaks, self.levels = L, breaks, levels

    def __call__(self, x):
        y = np.mod(np.asarray(x, dtype=float), self.L)
        half = 0.5 * self.L
        left = y < half
        values = self.levels[np.searchsorted(
            self.breaks, np.where(left, y, self.L - y), side="right")]
        return np.where((y == 0.0) | (y == half), 0.0,
                        np.where(left, values, -values))


def _zero_trace(t):
    return 0.0 * np.asarray(t)


class RoughModes:
    """Library ``solve_modes`` + ``evaluate_u`` at T for rough odd data, N=4096."""

    N, M, L, T = 4096, 32, 2.0, 0.2
    err_unit = "abs"
    err_of = "max |u - numpy.fft closed form| at T"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def _problem(self, breaks, levels):
        return ADProblem(mu=0.0, nu=1.0, L=self.L, T=self.T,
                         u0=OddSteps(self.L, breaks, levels), g=_zero_trace)

    def make_input(self, i: int):
        rng = np.random.default_rng([self.seed, i])
        count = int(rng.integers(2, 8))
        breaks = np.sort(rng.uniform(0.0, 0.5 * self.L, count))
        levels = rng.uniform(-1.0, 1.0, count + 1)
        return self._problem(breaks, levels), SolverConfig(N=self.N, M=self.M)

    def run(self, op):
        # Called through the module, where the traced run's spans are installed.
        problem, config = op
        sol = solver.solve_modes(problem, config)
        return solver.evaluate_u(sol, sol.grid, self.T)

    def check(self, op, u) -> Outcome:
        problem, config = op
        outcome = Outcome()
        u = np.asarray(u)
        if u.shape != (config.N,) or not np.all(np.isfinite(u)):
            outcome.problems.append(f"field of shape {u.shape} is not {config.N} finite values")
            return outcome
        oracle = closed_form_field(problem.u0, problem.mu, problem.nu, problem.L,
                                   0.0, config.N, config.N0, self.T)
        outcome.err = float(np.max(np.abs(u - oracle)))
        return outcome

    def warm_up(self) -> None:
        problem = self._problem(np.array([0.5]), np.array([1.0, -0.5]))
        self.run((problem, SolverConfig(N=16, M=4)))

    def final_check(self) -> list:
        deviation = semianalytic_deviation(1)
        if not deviation <= ORACLE_TOL:
            return [f"oracle deviates {deviation:.3e} from sa_evaluate_u"]
        return []


WORKLOADS = {
    "field_csv": FieldCsv,
    "rough_modes": RoughModes,
    "sweep_cells": SweepCells,
    "cond_svd": CondSvd,
}
