"""Command line front end: solve, sa, convergence, conditioning, bench.

Every command reads a key=value config file, writes CSV files into the output
directory, and exits 0 only when all requested outputs were written. CSV
fields carry 17 significant digits so reruns round-trip doubles exactly.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import (_report_from_field, bench_solve, conditioning_study,
                       convergence_sweep)
from .fourier import FourierGrid, synthesize_derivative, synthesize_field
from .gegenbauer import reference_rule, time_grid
from .problems import ConfigError, config_from_pairs, parse_config_pairs
from .semianalytic import sa_coefficient_table, sa_field
from .solver import evaluate_u, evaluate_ux, solve_modes


@dataclass(frozen=True)
class RunManifest:
    command: str
    config_path: Path
    output_dir: Path


INT, FLOAT = "%d", "%.17g"


def _write_table(path: Path, header, formats, rows) -> None:
    """Write a header line, then one line per row with formats[j] for column j.

    ``rows`` is a 2-D array or a list of rows. Integer columns take "%d",
    floats "%.17g" and text "%s"; the whole table is formatted by one
    C-level % operation.
    """
    if isinstance(rows, np.ndarray):
        values = rows.ravel().tolist()
    else:
        values = [cell for row in rows for cell in row]
    line = ",".join(formats) + "\n"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        handle.write((line * len(rows)) % tuple(values))


def _ensure_outdir(path: Path) -> None:
    if path.exists() and not path.is_dir():
        raise OSError(f"output directory {path} exists and is not a directory")
    path.mkdir(parents=True, exist_ok=True)


def _load(manifest: RunManifest):
    extras = parse_config_pairs(manifest.config_path)
    problem, config, t_final = config_from_pairs(extras)
    # t_final is the terminal time of the run: it becomes the solve horizon.
    problem = problem.with_horizon(t_final)
    return problem, config, extras, t_final


def _parse_range(text: str, key: str) -> list[int]:
    # "a" | "a:b" | "a:step:b", inclusive ends, colon syntax.
    parts = text.split(":")
    try:
        nums = [int(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"invalid value for key '{key}': {text!r}") from exc
    if len(nums) == 1:
        return nums
    if len(nums) == 2:
        lo, hi, step = nums[0], nums[1], 1
    elif len(nums) == 3:
        lo, step, hi = nums
    else:
        raise ConfigError(f"invalid value for key '{key}': {text!r}")
    if step <= 0 or hi < lo:
        raise ConfigError(f"invalid value for key '{key}': {text!r}")
    return list(range(lo, hi + 1, step))


def _parse_float_list(text: str, key: str) -> list[float]:
    try:
        return [float(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(f"invalid value for key '{key}': {text!r}") from exc


def _parse_int_list(text: str, key: str) -> list[int]:
    if ":" in text:
        return _parse_range(text, key)
    try:
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(f"invalid value for key '{key}': {text!r}") from exc


def _write_solution(path: Path, problem, grid, times, u, ux) -> None:
    # u and ux hold one row of N grid values per time; rows run x fastest.
    columns = [np.broadcast_to(grid.nodes, u.shape),
               np.broadcast_to(times[:, None], u.shape), u, ux]
    header = ["x", "t", "u", "ux"]
    if problem.exact is not None:
        exact = np.array([problem.exact(grid.nodes, t) for t in times],
                         dtype=float)
        columns += [exact, np.abs(u - exact)]
        header += ["u_exact", "abs_err"]
    table = np.stack(columns, axis=-1).reshape(-1, len(columns))
    _write_table(path, header, [FLOAT] * len(columns), table)


def _write_report(path: Path, report) -> None:
    _write_table(path, ["N", "M", "lambda", "N0", "t_final", "pointwise_max", "dne"],
                 [INT, INT, FLOAT, INT, FLOAT, FLOAT, FLOAT],
                 [[*report.grid_desc, report.pointwise_max, report.dne]])


def cmd_solve(manifest: RunManifest) -> None:
    problem, config, _, t_final = _load(manifest)
    sol = solve_modes(problem, config)
    grid = sol.grid

    times = np.append(sol.time_grid.nodes, t_final)
    u = evaluate_u(sol, grid, times)
    _write_solution(manifest.output_dir / "solution.csv", problem, grid, times,
                    u, evaluate_ux(sol, grid, times))

    psi = sol.table.T
    half = config.N // 2
    k, l = np.meshgrid(np.arange(-half, half + 1), np.arange(config.M + 1),
                       indexing="ij")
    t_node = np.broadcast_to(sol.time_grid.nodes, psi.shape)
    table = np.stack([k, l, t_node, psi.real, psi.imag], axis=-1).reshape(-1, 5)
    _write_table(manifest.output_dir / "coefficients.csv",
                 ["k", "l", "t_node", "re_psi", "im_psi"],
                 [INT, INT, FLOAT, FLOAT, FLOAT], table)

    if problem.exact is not None:
        _write_report(manifest.output_dir / "report.csv",
                      _report_from_field(problem, config, u[-1], t_final))


def cmd_sa(manifest: RunManifest) -> None:
    problem, config, _, t_final = _load(manifest)
    field = sa_field(problem, config.N, config.N0)
    grid = FourierGrid(L=problem.L, N=config.N)
    tgrid = time_grid(reference_rule(config.lam, config.M)[0], problem.T)

    times = np.append(tgrid.nodes, t_final)
    coeffs = sa_coefficient_table(field, times)
    u = synthesize_field(coeffs, grid, [float(problem.g(float(t))) for t in times])
    ux = synthesize_derivative(coeffs, grid)
    _write_solution(manifest.output_dir / "solution.csv", problem, grid, times,
                    u, ux)

    if problem.exact is not None:
        _write_report(manifest.output_dir / "report.csv",
                      _report_from_field(problem, config, u[-1], t_final))


def cmd_convergence(manifest: RunManifest) -> None:
    problem, config, extras, t_final = _load(manifest)
    n_range = _parse_range(extras.get("N_range", str(config.N)), "N_range")
    m_range = _parse_range(extras.get("M_range", str(config.M)), "M_range")
    result = convergence_sweep(problem, n_range, m_range, config.lam, t_final)
    _write_table(manifest.output_dir / "sweep.csv",
                 ["N", "M", "dne", "log10_dne"], [INT, INT, FLOAT, FLOAT],
                 result.rows)


def cmd_conditioning(manifest: RunManifest) -> None:
    problem, config, extras, _ = _load(manifest)
    lams = _parse_float_list(extras.get("lambda_list", str(config.lam)),
                             "lambda_list")
    ms = _parse_int_list(extras.get("M_list", str(config.M)), "M_list")
    reports, _ = conditioning_study(problem, config, lams, ms)
    rows = [[r.kind, r.n, r.lam, r.M, r.sigma_max, r.sigma_min, r.cond]
            for r in reports]
    _write_table(manifest.output_dir / "conditioning.csv",
                 ["matrix", "n", "lambda", "M", "sigma_max", "sigma_min", "cond"],
                 ["%s", INT, FLOAT, INT, FLOAT, FLOAT, FLOAT], rows)


def cmd_bench(manifest: RunManifest) -> None:
    problem, config, extras, _ = _load(manifest)
    repeats = int(extras.get("repeats", "5"))
    result = bench_solve(problem, config, repeats)
    _write_table(manifest.output_dir / "bench.csv",
                 ["repeats", "median_total_s", "assembly_s", "solve_s",
                  "synthesis_s"],
                 [INT, FLOAT, FLOAT, FLOAT, FLOAT],
                 [[repeats, result.median_total, result.stages["assembly"],
                   result.stages["solve"], result.stages["synthesis"]]])


_COMMANDS = {
    "solve": cmd_solve,
    "sa": cmd_sa,
    "convergence": cmd_convergence,
    "conditioning": cmd_conditioning,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="adspectral",
        description="Spectral advection-diffusion solver and analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("solve", "run the collocation solve and write solution CSVs"),
            ("sa", "evaluate the closed-form solution and write CSVs"),
            ("convergence", "sweep (N, M) cells and write error norms"),
            ("conditioning", "singular-value study of TQ and mode matrices"),
            ("bench", "wall-clock timing of the solve stages")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="key=value config file")
        cmd.add_argument("--out", required=True, help="output directory for CSVs")
    args = parser.parse_args(argv)

    manifest = RunManifest(command=args.command,
                           config_path=Path(args.config),
                           output_dir=Path(args.out))
    try:
        _ensure_outdir(manifest.output_dir)
        _COMMANDS[manifest.command](manifest)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
