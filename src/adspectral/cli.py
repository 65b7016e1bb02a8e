"""Command line front end: solve, sa, convergence, conditioning, bench.

Every command reads a key=value config file, writes CSV files into the output
directory, and exits 0 only when all requested outputs were written. CSV
fields carry 17 significant digits ("%.17g") so reruns round-trip doubles
exactly.

The small tables (``report.csv``, ``sweep.csv``, ``conditioning.csv``,
``bench.csv``) are a header line plus one ``template % values`` operation.
``solution.csv`` and ``coefficients.csv`` are written in row blocks of at
most ``BLOCK_CELLS`` fields. A block is a byte array with one fixed cell per
field; ``_g17_cells`` fills the cells of many float64 values at once with
their exact "%.17g" bytes, and the NUL bytes left between them are dropped
when the block is written. The repeated x, t, t_node, k and l values are
formatted once, each left-packed into a cell as wide as its column's
longest text plus the separator, and copied into every row that holds
them. ``solve`` and ``sa`` share the field writer, which calls
``solver.evaluate_u``/``ux`` on either kind of solution.
``coefficients.csv`` takes modes 0 .. N/2; the row of mode -n, their
conjugate, takes mode n's cells with the sign of the imaginary part
toggled.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from pathlib import Path

import numpy as np

from .analysis import (_bad_entry, _check_error_inputs,
                       _report_from_field, bench_solve, conditioning_study,
                       convergence_sweep)
from .gegenbauer import reference_rule, time_grid
from .problems import ConfigError, _finite, _get, config_from_pairs, \
    parse_config_pairs
from .semianalytic import sa_field
from .solver import ModeSolveError, evaluate_u, evaluate_ux, solve_modes

INT, FLOAT = "%d", "%.17g"


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
    body = (",".join(formats) + "\n") * len(rows) % tuple(values)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        handle.write(body)


# Every field of solution.csv and coefficients.csv is one cell: the "%.17g"
# text of its value, NUL where the text has no byte, and a last slot for the
# separator that ends the field. A formatted value takes CELL_BYTES byte
# slots, which _packed narrows for a repeated column. Slot 0 holds the
# sign; slots 1-5 the "0." and up to three zeros that lead a fixed-notation
# value below 1; slot 7 + j digit j of the 17 significant digits, with the
# point and every digit after it one slot later; slots 25-29 the exponent;
# slot 31 the separator.
# Slots 6 and 30 stay NUL. A cell is four little-endian 64-bit words, so the
# point goes in by one shift of those words.
CELL_BYTES = 32
# Fields per block. A block of cells (256 kB) and the formatter's temporaries
# for it are all the text a writer holds at a time, besides the cells of the
# values it reuses: x, t, t_node, k, l and modes 0 .. N/2 of the table.
BLOCK_CELLS = 8192
_POW_MIN, _POW_MAX = -300, 350  # range of k in the 10^k table
_EXP_MIN = -330                 # lowest exponent in the exponent table
_ZERO, _MINUS, _POINT = ord("0"), ord("-"), ord(".")


@cache
def _g17_tables():
    """Lookup tables of the vectorized "%.17g" formatter, built on first use.

    None when long double cannot certify a rounding (it is plain double, or
    double-double, whose arithmetic is not correctly rounded) or when the
    byte order is not little-endian, which the cell words assume.
    """
    info = np.finfo(np.longdouble)
    if info.nmant not in (63, 112) or sys.byteorder != "little":
        return None
    ks = np.arange(_POW_MIN, _POW_MAX + 1)
    # Correctly rounded 10^k from decimal strings; longdouble(10) ** k is
    # 1 ulp off for some k. 10^k is exact for 0 <= k <= k_exact.
    powers = np.array([f"1e{k}" for k in ks], dtype=np.longdouble)
    k_exact = max(k for k in range(64) if 5 ** k < 2 ** (info.nmant + 1))
    # Bound on |y - x 10^k| / y for y = x * powers[k] in long double: one
    # rounding when 10^k is exact, two otherwise, each at most eps / 2.
    bound = np.where((ks >= 0) & (ks <= k_exact), 1.0, 2.0) * float(info.eps)
    two = np.arange(100, dtype=np.uint8)
    two = np.stack([two // 10, two % 10], axis=1) + np.uint8(_ZERO)
    four = np.concatenate([np.repeat(two, 100, axis=0), np.tile(two, (100, 1))],
                          axis=1)  # the 4 digits of 0 .. 9999
    nonzero = four != _ZERO
    # 1-based position of the last nonzero digit of each 4-digit chunk, 0 for 0
    last_digit = np.where(nonzero.any(axis=1),
                          4 - np.argmax(nonzero[:, ::-1], axis=1), 0)
    # Per (integer digit count, index of the last nonzero digit): the integer
    # digits, the fraction digits and the point, as cell words.
    slot = np.arange(CELL_BYTES)
    n_int = np.arange(18)[:, None, None]
    last = np.arange(17)[None, :, None]

    def table(mask, byte):
        return (np.broadcast_to(mask, (18, 17, CELL_BYTES)) * np.uint8(byte)
                ).reshape(-1, CELL_BYTES).view(np.uint64)

    int_mask = table((slot >= 7) & (slot < 7 + n_int), 255)
    frac_mask = table((slot >= 7 + n_int) & (slot <= 7 + last), 255)
    point = table((slot == 7 + n_int) & (n_int >= 1) & (last >= n_int), _POINT)
    # Word 0 per (sign, leading zeros): "", "0.", "0.0", ... then with "-".
    lead = np.zeros((10, 8), np.uint8)
    for zeros in range(1, 5):
        lead[zeros, 1:zeros + 2] = list(b"0." + b"0" * (zeros - 1))
    lead[5:] = lead[:5]
    lead[5:, 0] = _MINUS
    # Word 3 per exponent from _EXP_MIN up, after a row for no exponent.
    exps = np.arange(_EXP_MIN, -_EXP_MIN + 1)
    mag = np.abs(exps)
    expo = np.zeros((exps.size + 1, 8), np.uint8)
    expo[1:, 1] = ord("e")
    expo[1:, 2] = np.where(exps < 0, _MINUS, ord("+"))
    expo[1:, 3] = (mag // 100 + _ZERO) * (mag >= 100)
    expo[1:, 4] = mag // 10 % 10 + _ZERO
    expo[1:, 5] = mag % 10 + _ZERO
    return (powers, bound, four.view(np.uint32).ravel(),
            last_digit.astype(np.int8), int_mask, frac_mask, point,
            lead.view(np.uint64).ravel(), expo.view(np.uint64).ravel())


def _percent_cells(values) -> np.ndarray:
    """Cells of the values' "%.17g" texts, each from Python's % operator.

    The sign, if any, goes to slot 0 and the rest of the text after it, so
    a cell's sign can be toggled as in ``_g17_cells``.
    """
    values = np.ravel(values).tolist()
    texts = ((FLOAT + "\n") * len(values) % tuple(values)).split()
    cells = "".join((text if text[0] == "-" else "\0" + text).ljust(CELL_BYTES, "\0")
                    for text in texts)
    return np.frombuffer(cells.encode("ascii"),
                         np.uint8).reshape(-1, CELL_BYTES).copy()


def _g17_block(v: np.ndarray) -> np.ndarray:
    # Cells of the "%.17g" texts of a 1-D float64 array. See _g17_cells.
    tables = _g17_tables()
    if tables is None:
        return _percent_cells(v)
    (powers, bound, four, last_digit, int_mask, frac_mask, point, lead,
     expo) = tables
    a = np.abs(v)
    finite = np.isfinite(a)
    nonzero = finite & (a > 0)
    safe = np.where(nonzero, a, 1.0)  # no log of 0, no cast of inf or NaN
    # y = |v| 10^(16 - E) lies in [1e16, 1e17) for the right exponent E.
    k = (16 - _POW_MIN) - np.floor(np.log10(safe)).astype(np.int64)
    wide = safe.astype(np.longdouble)
    y = wide * powers.take(k)
    fix = np.flatnonzero((y < 1e16) | (y >= 1e17))
    if fix.size:
        k[fix] += np.where(y[fix] < 1e16, 1, -1)
        y[fix] = wide[fix] * powers.take(k[fix])
    digits = y.astype(np.int64)
    frac = (y - digits).astype(float)
    # The rounding of y to an integer is certified when y is in range and
    # its fraction is further from 1/2 than y's error bound, plus 2^-53 for
    # the rounding of the fraction to double (none in x87's long double,
    # where y >= 1e16 leaves it 10 bits). Every other value, non-finite
    # ones included, takes the % operator below.
    ok = np.abs(frac - 0.5) > y.astype(float) * bound.take(k) + 2.0 ** -53
    ok &= finite & (digits >= 10 ** 16) & (digits < 10 ** 17)
    digits += frac > 0.5
    exp10 = (16 - _POW_MIN) - k
    carry = np.flatnonzero(digits == 10 ** 17)
    digits[carry] = 10 ** 16
    exp10[carry] += 1
    digits *= nonzero
    exp10 *= nonzero
    # The 17 digits: the first, then four chunks of four by table lookup.
    first = digits // 10 ** 16
    rest = digits - first * 10 ** 16
    high = rest // 10 ** 8
    low = rest - high * 10 ** 8
    chunks = np.empty((v.size, 4), np.int64)
    chunks[:, 0] = high // 10 ** 4
    chunks[:, 1] = high - chunks[:, 0] * 10 ** 4
    chunks[:, 2] = low // 10 ** 4
    chunks[:, 3] = low - chunks[:, 2] * 10 ** 4
    words = np.zeros((v.size, 4), np.uint64)
    words[:, 0] = (first + _ZERO).astype(np.uint64) << np.uint64(56)
    words[:, 1:3] = four.take(chunks).view(np.uint64)
    # Index of the last nonzero digit, 0 when only the first is nonzero.
    last = last_digit.take(chunks)
    last += np.arange(0, 16, 4, dtype=np.int8) * (last > 0)
    last = np.maximum(np.maximum(last[:, 0], last[:, 1]),
                      np.maximum(last[:, 2], last[:, 3]))
    # Fixed notation for -4 <= E < 17, with E + 1 integer digits (none below
    # 1, where the lead holds "0."); otherwise one integer digit and an
    # exponent. Trailing zeros after the point, and a bare point, are cut.
    fixed = (exp10 >= -4) & (exp10 < 17)
    pattern = np.where(fixed, np.maximum(exp10 + 1, 0), 1) * 17 + last
    fraction = words & frac_mask.take(pattern, axis=0)
    cells = words & int_mask.take(pattern, axis=0)
    cells |= point.take(pattern, axis=0)
    cells |= fraction << np.uint64(8)
    # The top byte of each word moves to the next word. The last word of a
    # cell holds no digit, so nothing crosses into the next cell.
    cells.reshape(-1)[1:] |= fraction.reshape(-1)[:-1] >> np.uint64(56)
    cells[:, 0] |= lead.take(np.where(fixed & (exp10 < 0), -exp10, 0)
                             + 5 * np.signbit(v))
    cells[:, 3] |= expo.take(np.where(fixed, 0, exp10 - _EXP_MIN + 1))
    cells = cells.view(np.uint8)
    uncertified = np.flatnonzero(~ok)
    if uncertified.size:
        cells[uncertified] = _percent_cells(v[uncertified])
    return cells


def _g17_cells(values) -> np.ndarray:
    """The exact "%.17g" bytes of float64 values, one cell per value.

    Returns an array of shape ``values.shape + (CELL_BYTES,)``; the non-NUL
    bytes of a cell, in order, are ``"%.17g" % value``. Each finite value
    v != 0 gets its 17 digits D and exponent E from y = |v| 10^(16 - E) in
    long double, with 10^k from a correctly rounded table; D is y rounded to
    an integer. That rounding is used only where it is certified; near-ties,
    values out of range and non-finite values take the % operator.
    """
    values = np.asarray(values, dtype=float)
    flat = values.reshape(-1)
    cells = np.empty((flat.size, CELL_BYTES), np.uint8)
    for start in range(0, flat.size, BLOCK_CELLS):
        block = slice(start, start + BLOCK_CELLS)
        cells[block] = _g17_block(flat[block])
    return cells.reshape(values.shape + (CELL_BYTES,))


def _packed(cells: np.ndarray) -> np.ndarray:
    # The (n, CELL_BYTES) cells of a repeated column with each text moved to
    # the left of a cell as wide as the longest text plus the separator slot;
    # NULs fill the rest.
    text = cells != 0
    width = int(text.sum(axis=1).max()) + 1
    order = np.argsort(~text, axis=1, kind="stable")[:, :width]
    return np.take_along_axis(cells, order, axis=1)


def _write_rows(handle, rows: np.ndarray, widths) -> None:
    # Write a (rows, sum(widths)) block of cells, one field per width, as CSV
    # lines: a comma in the last slot of each field but the last of a row, a
    # newline there, NULs dropped.
    ends = np.cumsum(widths) - 1
    rows[:, ends[:-1]] = ord(",")
    rows[:, ends[-1]] = ord("\n")
    handle.write(rows.tobytes().translate(None, b"\0"))


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


# Per list key: its parser and the kind of its entries, whose rules
# analysis._ENTRY_RULES holds. The lists are checked before any rule is
# built, so a bad entry is reported with its key rather than by the solver
# stage that refuses it.
_LIST_KEYS = {
    "N_range": (_parse_range, "N"),
    "M_range": (_parse_range, "M"),
    "M_list": (_parse_int_list, "M"),
    "lambda_list": (_parse_float_list, "lambda"),
}


def _list_value(pairs: dict, key: str, default) -> list:
    # The entries of a sweep or study list key, or of its default.
    parse, kind = _LIST_KEYS[key]
    text = pairs.get(key, str(default))
    values = parse(text, key)
    bad = _bad_entry(kind, values)
    if bad:
        raise ConfigError(f"invalid value for key '{key}': "
                          f"{bad[0]!r} in {text!r} is not {bad[1]}")
    return values


def _write_fields(out: Path, problem, config, sol) -> None:
    # solution.csv on the (lambda, M) time nodes plus T, from either kind of
    # solution sol, and report.csv at T when the problem has an exact solution.
    grid = sol.grid
    times = np.append(time_grid(reference_rule(config.lam, config.M)[0],
                                problem.T).nodes, problem.T)
    u, ux = evaluate_u(sol, grid, times), evaluate_ux(sol, grid, times)
    columns, header = [u, ux], ["x", "t", "u", "ux"]
    if problem.exact is not None:
        exact = np.array([problem.exact(grid.nodes, t) for t in times],
                         dtype=float)
        columns += [exact, np.abs(u - exact)]
        header += ["u_exact", "abs_err"]
    # Rows run x fastest within each time; the N x cells and the t cell of
    # each time are formatted and packed once.
    x_cells = _packed(_g17_cells(grid.nodes))
    t_cells = _packed(_g17_cells(times))
    widths = [x_cells.shape[1], t_cells.shape[1]] + [CELL_BYTES] * len(columns)
    x_end, lead = np.cumsum(widths[:2])
    rows_per_block = max(1, BLOCK_CELLS // len(widths))
    with open(out / "solution.csv", "wb") as handle:
        handle.write((",".join(header) + "\n").encode())
        for start in range(0, u.size, rows_per_block):
            block = np.arange(start, min(start + rows_per_block, u.size))
            rows = np.empty((block.size, sum(widths)), np.uint8)
            rows[:, :x_end] = x_cells.take(block % config.N, axis=0)
            rows[:, x_end:lead] = t_cells.take(block // config.N, axis=0)
            rows[:, lead:] = _g17_cells(np.stack(
                [column.reshape(-1)[block] for column in columns], axis=-1)
            ).reshape(block.size, -1)
            _write_rows(handle, rows, widths)

    if problem.exact is not None:
        report = _report_from_field(problem, config, u[-1], problem.T)
        _write_table(out / "report.csv",
                     ["N", "M", "lambda", "N0", "t_final", "pointwise_max", "dne"],
                     [INT, INT, FLOAT, INT, FLOAT, FLOAT, FLOAT],
                     [[*report.grid_desc, report.pointwise_max, report.dne]])


def _write_coefficients(path: Path, table, nodes) -> None:
    # coefficients.csv from the (M + 1, N/2 + 1) nodal table of modes 0 .. N/2:
    # rows k = -N/2 .. N/2, then l = 0 .. M. Mode -n, the conjugate of mode n,
    # takes mode n's cells with the sign of the imaginary part toggled.
    half = table.shape[1] - 1
    psi_cells = _g17_cells(np.stack([table.real.T, table.imag.T], axis=-1)
                           ).reshape(half + 1, len(nodes), 2 * CELL_BYTES)
    # k and l as floats: their "%.17g" text is their "%d" text.
    k_cells = _packed(_g17_cells(np.arange(-half, half + 1, dtype=float)))
    l_cells = _packed(_g17_cells(np.arange(len(nodes), dtype=float)))
    t_cells = _packed(_g17_cells(nodes))
    widths = [k_cells.shape[1], l_cells.shape[1], t_cells.shape[1],
              CELL_BYTES, CELL_BYTES]
    k_end, l_end, lead = np.cumsum(widths[:3])
    modes_per_block = max(1, BLOCK_CELLS // (5 * len(nodes)))
    with open(path, "wb") as handle:
        handle.write(b"k,l,t_node,re_psi,im_psi\n")
        for start in range(-half, half + 1, modes_per_block):
            ks = np.arange(start, min(start + modes_per_block, half + 1))
            rows = np.empty((ks.size, len(nodes), sum(widths)), np.uint8)
            rows[:, :, :k_end] = k_cells[ks + half, None]
            rows[:, :, k_end:l_end] = l_cells
            rows[:, :, l_end:lead] = t_cells
            rows[:, :, lead:] = psi_cells[np.abs(ks)]
            rows[ks < 0, :, lead + CELL_BYTES] ^= _MINUS
            _write_rows(handle, rows.reshape(-1, sum(widths)), widths)


def cmd_solve(pairs: dict, out: Path) -> None:
    problem, config = config_from_pairs(pairs)
    sol = solve_modes(problem, config)
    _write_fields(out, problem, config, sol)
    _write_coefficients(out / "coefficients.csv", sol.table[:, config.N // 2:],
                        sol.time_grid.nodes)


def cmd_sa(pairs: dict, out: Path) -> None:
    problem, config = config_from_pairs(pairs)
    _write_fields(out, problem, config, sa_field(problem, config.N, config.N0))


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
    except (ConfigError, ModeSolveError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
