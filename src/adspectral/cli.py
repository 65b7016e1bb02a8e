"""Command line front end: solve, sa, convergence, conditioning, bench.

Every command reads a key=value config file, writes CSV files into the output
directory, and exits 0 only when all requested outputs were written. CSV
fields carry 17 significant digits so reruns round-trip doubles exactly.

Every CSV is written as a header line plus one ``template % values``
operation. The small tables build their template from one format per column.
``solution.csv`` and ``coefficients.csv`` format each distinct number once:
the repeated x, t, t_node, k and l values are literal text in the template,
and a row of mode -n reuses the text of mode n, its exact conjugate.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache, partial
from pathlib import Path

import numpy as np

from .analysis import (_check_error_inputs, _report_from_field, bench_solve,
                       conditioning_study, convergence_sweep)
from .fourier import FourierGrid, synthesize_derivative, synthesize_field
from .gegenbauer import LAMBDA_MIN_GUARD, reference_rule, time_grid
from .problems import ConfigError, _finite, _get, config_from_pairs, \
    parse_config_pairs
from .semianalytic import sa_coefficient_table, sa_field
from .solver import _coefficient_table, solve_modes

INT, FLOAT = "%d", "%.17g"


def _write_text(path: Path, header, template: str, values) -> None:
    # The one file-writing path: a header line, then the body from one
    # C-level % operation.
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        handle.write(template % tuple(values))


def _write_table(path: Path, header, formats, rows) -> None:
    """Write a header line, then one line per row with formats[j] for column j.

    ``rows`` is a 2-D array or a list of rows. Integer columns take "%d",
    floats "%.17g" and text "%s"; every cell is formatted, by one C-level
    % operation over a template that repeats the row format.
    """
    if isinstance(rows, np.ndarray):
        values = rows.ravel().tolist()
    else:
        values = [cell for row in rows for cell in row]
    _write_text(path, header, (",".join(formats) + "\n") * len(rows), values)


def _texts(values) -> list[str]:
    # The "%.17g" text of each value, in C order, from one % operation.
    values = np.ravel(values).tolist()
    return ((FLOAT + "\n") * len(values) % tuple(values)).splitlines()


def _flip_sign(text: str) -> str:
    # "%.17g" text of -v from that of v; it holds for signed zeros and
    # infinities, not for NaN, whose text carries no sign.
    return text[1:] if text.startswith("-") else "-" + text


def _ensure_outdir(path: Path) -> None:
    if path.exists() and not path.is_dir():
        raise OSError(f"output directory {path} exists and is not a directory")
    path.mkdir(parents=True, exist_ok=True)


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
        return [_finite(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(f"invalid value for key '{key}': {text!r}") from exc


def _parse_int_list(text: str, key: str) -> list[int]:
    if ":" in text:
        return _parse_range(text, key)
    try:
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(f"invalid value for key '{key}': {text!r}") from exc


# Per list key: its parser, the test every entry must pass, and that test in
# words. The lists are checked before any rule is built, so a bad entry is
# reported with its key rather than by the solver stage that refuses it.
_LIST_KEYS = {
    "N_range": (_parse_range, lambda n: n >= 2 and n % 2 == 0, "even and >= 2"),
    "M_range": (_parse_range, lambda m: m >= 1, ">= 1"),
    "M_list": (_parse_int_list, lambda m: m >= 1, ">= 1"),
    "lambda_list": (_parse_float_list,
                    lambda lam: lam > -0.5 + LAMBDA_MIN_GUARD,
                    f"> {-0.5 + LAMBDA_MIN_GUARD}"),
}


def _list_value(pairs: dict, key: str, default) -> list:
    # The entries of a sweep or study list key, or of its default.
    parse, valid, rule = _LIST_KEYS[key]
    text = pairs.get(key, str(default))
    values = parse(text, key)
    bad = [value for value in values if not valid(value)]
    if bad:
        raise ConfigError(f"invalid value for key '{key}': "
                          f"{bad[0]!r} in {text!r} is not {rule}")
    return values


def _write_fields(out: Path, problem, config, nodes, table_at) -> None:
    # solution.csv on the time nodes plus T, from the (times, N + 1)
    # coefficient table that table_at(times) returns, and report.csv at T
    # when the problem has an exact solution. The table is dropped once u
    # and ux are formed, so it is not held while the CSV text is.
    grid = FourierGrid(L=problem.L, N=config.N)
    times = np.append(nodes, problem.T)
    coeffs = table_at(times)
    u = synthesize_field(coeffs, grid, [float(problem.g(float(t))) for t in times])
    ux = synthesize_derivative(coeffs, grid)
    del coeffs
    columns, header = [u, ux], ["x", "t", "u", "ux"]
    if problem.exact is not None:
        exact = np.array([problem.exact(grid.nodes, t) for t in times],
                         dtype=float)
        columns += [exact, np.abs(u - exact)]
        header += ["u_exact", "abs_err"]
    # Rows run x fastest within each time. The N x texts and the t text of a
    # block are formatted once and written into its line template, so %
    # formats only the per-point columns.
    xs = _texts(grid.nodes)
    fields = ("," + FLOAT) * len(columns) + "\n"
    template = "".join(sep.join(xs) + sep
                       for sep in ("," + t + fields for t in _texts(times)))
    _write_text(out / "solution.csv", header, template,
                np.stack(columns, axis=-1).ravel().tolist())

    if problem.exact is not None:
        report = _report_from_field(problem, config, u[-1], problem.T)
        _write_table(out / "report.csv",
                     ["N", "M", "lambda", "N0", "t_final", "pointwise_max", "dne"],
                     [INT, INT, FLOAT, INT, FLOAT, FLOAT, FLOAT],
                     [[*report.grid_desc, report.pointwise_max, report.dne]])


def _write_coefficients(path: Path, table, nodes) -> None:
    # coefficients.csv from the (M + 1, N + 1) nodal table of modes
    # -N/2 .. N/2: rows k = -N/2 .. N/2, then l = 0 .. M. Only modes
    # 0 .. N/2 are formatted; the row of mode -n takes the real text of mode
    # n and its imaginary text with the sign flipped. That is exact only
    # when mode -n is conj(mode n) bit for bit, so check it first: == fails
    # on NaN, and the sign bits tell -0.0 from 0.0, whose texts differ.
    half = table.shape[1] // 2
    neg, pos = table[:, :half], np.conj(table[:, :half:-1])
    if not (np.array_equal(neg, pos)
            and np.array_equal(np.signbit([neg.real, neg.imag]),
                               np.signbit([pos.real, pos.imag]))):
        raise ValueError("coefficient table is not conjugate symmetric")
    upper = table[:, half:].T
    cells = np.array(_texts(np.stack([upper.real, upper.imag], axis=-1)),
                     dtype=object).reshape(upper.shape + (2,))
    mirror = cells[:0:-1].copy()
    mirror[..., 1] = np.frompyfunc(_flip_sign, 1, 1)(mirror[..., 1])
    # k, l and t_node are literal text; each row takes its two texts by %s.
    rest = [f",{l},{t},%s,%s\n" for l, t in enumerate(_texts(nodes))]
    template = "".join(k + k.join(rest)
                       for k in map(str, range(-half, half + 1)))
    _write_text(path, ["k", "l", "t_node", "re_psi", "im_psi"], template,
                np.concatenate([mirror, cells]).ravel().tolist())


def cmd_solve(pairs: dict, out: Path) -> None:
    problem, config = config_from_pairs(pairs)
    sol = solve_modes(problem, config)
    _write_fields(out, problem, config, sol.time_grid.nodes,
                  partial(_coefficient_table, sol))
    _write_coefficients(out / "coefficients.csv", sol.table,
                        sol.time_grid.nodes)


def cmd_sa(pairs: dict, out: Path) -> None:
    problem, config = config_from_pairs(pairs)
    field = sa_field(problem, config.N, config.N0)
    nodes = time_grid(reference_rule(config.lam, config.M)[0], problem.T).nodes
    _write_fields(out, problem, config, nodes,
                  partial(sa_coefficient_table, field))


def cmd_convergence(pairs: dict, out: Path) -> None:
    problem, config = config_from_pairs(pairs)
    # A problem the sweep cannot score is refused before its ranges are read.
    _check_error_inputs(problem, problem.T, "convergence_sweep")
    n_range = _list_value(pairs, "N_range", config.N)
    m_range = _list_value(pairs, "M_range", config.M)
    result = convergence_sweep(problem, n_range, m_range, config.lam)
    _write_table(out / "sweep.csv",
                 ["N", "M", "dne", "log10_dne"], [INT, INT, FLOAT, FLOAT],
                 result.rows)


def cmd_conditioning(pairs: dict, out: Path) -> None:
    problem, config = config_from_pairs(pairs)
    lams = _list_value(pairs, "lambda_list", config.lam)
    ms = _list_value(pairs, "M_list", config.M)
    reports, _ = conditioning_study(problem, config, lams, ms)
    rows = [[r.kind, r.n, r.lam, r.M, r.sigma_max, r.sigma_min, r.cond]
            for r in reports]
    _write_table(out / "conditioning.csv",
                 ["matrix", "n", "lambda", "M", "sigma_max", "sigma_min", "cond"],
                 ["%s", INT, FLOAT, INT, FLOAT, FLOAT, FLOAT], rows)


def cmd_bench(pairs: dict, out: Path) -> None:
    problem, config = config_from_pairs(pairs)
    repeats = _get(pairs, "repeats", int, default=5)
    result = bench_solve(problem, config, repeats)
    _write_table(out / "bench.csv",
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
            ("bench", "wall-clock timing of the solve stages")):
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
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
