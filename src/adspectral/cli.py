"""Command line front end: solve, sa, convergence, conditioning, bench.

Every command reads a key=value config file, writes CSV files into the output
directory, and exits 0 only when all requested outputs were written. The
config rules are ``problems``'s and the CSV text is ``csvtext``'s; this
module evaluates what each command writes and dispatches. ``solve`` and
``sa`` share the field writer, which calls ``solver.evaluate_fields`` on
either kind of solution: one coefficient table per run gives u, ux and
``solve``'s coefficients.csv. ``bench`` is ``solve``, timed: it runs the
whole command ``repeats`` times and splits each run's wall time into the
solution's own stage times and the rest, which is the output.
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import cache
from pathlib import Path

import numpy as np

from .analysis import conditioning_study, convergence_sweep, field_report
from .csvtext import FLOAT, INT, write_coefficients, write_grid, write_table
from .gegenbauer import reference_rule, time_grid
from .problems import ConfigError, config_from_pairs, parse_config_pairs, \
    run_value
from .semianalytic import sa_field
from .solver import ModeSolveError, SpectralSolution, evaluate_fields, \
    solve_modes


def _ensure_outdir(path: Path) -> None:
    if path.exists() and not path.is_dir():
        raise OSError(f"output directory {path} exists and is not a directory")
    path.mkdir(parents=True, exist_ok=True)


def _write_fields(out: Path, problem, config, sol) -> np.ndarray:
    # solution.csv on the (lambda, M) time nodes plus T, from either kind of
    # solution sol, and report.csv at T. Returns the coefficient table at the
    # time nodes.
    grid = sol.grid
    times = np.append(time_grid(reference_rule(config.lam, config.M)[0],
                                problem.T).nodes, problem.T)
    table, u, ux = evaluate_fields(sol, times)
    exact = np.array([problem.exact(grid.nodes, t) for t in times], dtype=float)
    write_grid(out / "solution.csv", ["x", "t", "u", "ux", "u_exact", "abs_err"],
               grid.nodes, times, [u, ux, exact, np.abs(u - exact)])

    report = field_report(problem, config, u[-1], problem.T)
    write_table(out / "report.csv",
                ["N", "M", "lambda", "N0", "t_final", "pointwise_max", "dne"],
                [INT, INT, FLOAT, INT, FLOAT, FLOAT, FLOAT],
                [[*report.grid_desc, report.pointwise_max, report.dne]])
    return table[:-1]


def cmd_solve(pairs: dict, out: Path) -> SpectralSolution:
    problem, config = config_from_pairs(pairs)
    sol = solve_modes(problem, config)
    # The table's rows at the nodes equal sol.table's, bit for bit.
    table = _write_fields(out, problem, config, sol)
    write_coefficients(out / "coefficients.csv", table[:, config.N // 2:],
                       sol.time_grid.nodes)
    return sol


def cmd_sa(pairs: dict, out: Path) -> None:
    problem, config = config_from_pairs(pairs)
    _write_fields(out, problem, config, sa_field(problem, config.N, config.N0))


def cmd_convergence(pairs: dict, out: Path) -> None:
    problem, config = config_from_pairs(pairs)
    n_range = run_value(pairs, "N_range", config.N)
    m_range = run_value(pairs, "M_range", config.M)
    result = convergence_sweep(problem, n_range, m_range, config.lam)
    write_table(out / "sweep.csv",
                ["N", "M", "dne", "log10_dne"], [INT, INT, FLOAT, FLOAT],
                result.rows)


def cmd_conditioning(pairs: dict, out: Path) -> None:
    problem, config = config_from_pairs(pairs)
    lams = run_value(pairs, "lambda_list", config.lam)
    ms = run_value(pairs, "M_list", config.M)
    reports, _ = conditioning_study(problem, config, lams, ms)
    rows = [[r.kind, r.n, r.lam, r.M, r.sigma_max, r.sigma_min, r.cond]
            for r in reports]
    write_table(out / "conditioning.csv",
                ["matrix", "n", "lambda", "M", "sigma_max", "sigma_min", "cond"],
                ["%s", INT, FLOAT, INT, FLOAT, FLOAT, FLOAT], rows)


def cmd_bench(pairs: dict, out: Path) -> None:
    # Per run: the wall time of the whole solve command, its two solver
    # stages, and the rest (config, coefficient table, synthesis, exact
    # samples and the three CSVs). The last run's CSVs stay in out.
    [repeats] = run_value(pairs, "repeats", 5)
    runs = []
    for _ in range(repeats):
        start = time.perf_counter()
        stages = cmd_solve(pairs, out).stage_s
        total = time.perf_counter() - start
        runs.append([total, stages["assembly"], stages["solve"],
                     total - stages["assembly"] - stages["solve"]])
    write_table(out / "bench.csv",
                ["repeats", "median_total_s", "assembly_s", "solve_s",
                 "output_s"],
                [INT, FLOAT, FLOAT, FLOAT, FLOAT],
                [[repeats, *np.median(runs, axis=0).tolist()]])


_COMMANDS = {
    "solve": cmd_solve,
    "sa": cmd_sa,
    "convergence": cmd_convergence,
    "conditioning": cmd_conditioning,
    "bench": cmd_bench,
}


@cache
def _parser() -> argparse.ArgumentParser:
    # Built on first use and kept: parse_args leaves the parser unchanged.
    parser = argparse.ArgumentParser(
        prog="adspectral",
        description="Spectral advection-diffusion solver and analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("solve", "run the collocation solve and write solution CSVs"),
            ("sa", "evaluate the closed-form solution and write CSVs"),
            ("convergence", "sweep (N, M) cells and write error norms"),
            ("conditioning", "singular-value study of TQ and mode matrices"),
            ("bench", "time repeated solve runs and write their medians")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="key=value config file")
        cmd.add_argument("--out", required=True, help="output directory for CSVs")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    out = Path(args.out)
    try:
        _ensure_outdir(out)
        _COMMANDS[args.command](parse_config_pairs(args.config), out)
    except (ConfigError, ModeSolveError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
