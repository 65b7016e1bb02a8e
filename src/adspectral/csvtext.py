"""CSV text of the command line outputs, byte for byte as "%.17g" writes it.

Floats carry 17 significant digits, so reruns round-trip doubles exactly;
integers are "%d". Small tables take one ``template % values`` operation.
``solution.csv`` and ``coefficients.csv`` are written from fixed cells, one
per field, which ``_g17_cells`` fills with exact "%.17g" bytes and a comma;
NULs between texts are dropped on write. ``solution.csv`` goes in whole
time slabs, as many per formatter call as fit in ``BLOCK_CELLS`` values,
into one reused block whose x cells are copied once and whose t cell is
broadcast per slab. Repeated x, t, t_node, k and l values are formatted
and packed once, with their comma set once; a writer then sets only the
newline that ends each row. It reads no solution: the callers pass the
values."""

from __future__ import annotations

import sys
from functools import cache
from pathlib import Path

import numpy as np

INT, FLOAT = "%d", "%.17g"


def write_table(path: Path, header, formats, rows) -> None:
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
# slot 31 the separator, a comma from the formatter. Slots 6 and 30 stay
# NUL. A cell is four little-endian 64-bit words, so the point goes in by
# one shift of those words.
CELL_BYTES = 32
# Values per formatter call. A block of cells (256 kB) and the formatter's
# temporaries for it are all the text a writer holds at a time, besides the
# cells of the values it reuses: x, t, t_node, k, l and modes 0 .. N/2 of
# the table.
BLOCK_CELLS = 8192
_POW_MIN, _POW_MAX = -300, 350  # range of k in the 10^k table
_EXP_MIN = -330                 # lowest exponent in the exponent table
_ZERO, _MINUS, _POINT, _COMMA = ord("0"), ord("-"), ord("."), ord(",")


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
    # Word 3 per exponent from _EXP_MIN up, after a row for no exponent,
    # each ending in the separator.
    exps = np.arange(_EXP_MIN, -_EXP_MIN + 1)
    mag = np.abs(exps)
    expo = np.zeros((exps.size + 1, 8), np.uint8)
    expo[1:, 1] = ord("e")
    expo[1:, 2] = np.where(exps < 0, _MINUS, ord("+"))
    expo[1:, 3] = (mag // 100 + _ZERO) * (mag >= 100)
    expo[1:, 4] = mag // 10 % 10 + _ZERO
    expo[1:, 5] = mag % 10 + _ZERO
    expo[:, 7] = _COMMA
    return (powers, bound, four.view(np.uint32).ravel(),
            last_digit.astype(np.int8), int_mask, frac_mask, point,
            lead.view(np.uint64).ravel(), expo.view(np.uint64).ravel())


def _percent_cells(values) -> np.ndarray:
    """Cells of the values' "%.17g" texts, each from Python's % operator.

    The sign, if any, goes to slot 0 and the rest of the text after it, so
    a cell's sign can be toggled as in ``_g17_cells``; slot 31 holds ','.
    """
    values = np.ravel(values).tolist()
    texts = ((FLOAT + "\n") * len(values) % tuple(values)).split()
    cells = "".join(
        (text if text[0] == "-" else "\0" + text).ljust(CELL_BYTES - 1, "\0") + ","
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
    bytes of a cell, in order, are ``"%.17g" % value`` and then the
    separator ',' in slot 31, the cell's last. Each finite value v != 0
    gets its 17 digits D and exponent E from y = |v| 10^(16 - E) in long
    double, with 10^k from a correctly rounded table; D is y rounded to an
    integer. That rounding is used only where it is certified; near-ties,
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
    # NULs fill the rest, the separator slot included.
    text = cells[:, :-1] != 0
    width = int(text.sum(axis=1).max()) + 1
    order = np.argsort(~text, axis=1, kind="stable")[:, :width]
    return np.take_along_axis(cells, order, axis=1)


def _separated(cells: np.ndarray) -> np.ndarray:
    # Packed cells of a repeated column, each ending in the separator.
    cells = _packed(cells)
    cells[:, -1] = _COMMA
    return cells


def _write_rows(handle, rows: np.ndarray) -> None:
    # Write a 2-D block of cells as CSV lines: every field already ends in
    # its separator, which a newline replaces at the end of each row; NULs
    # are dropped.
    rows[:, -1] = ord("\n")
    handle.write(rows.tobytes().translate(None, b"\0"))


def write_grid(path: Path, header, x, t, columns) -> None:
    """Write ``solution.csv``, x fastest within each t, from 1-D ``x``, ``t``
    and ``columns`` of shape (len(t), len(x)), named after x and t in ``header``.
    """
    x_cells = _separated(_g17_cells(x))
    t_cells = _separated(_g17_cells(t))
    x_end = x_cells.shape[1]
    lead = x_end + t_cells.shape[1]
    # One slab is the rows of one time; a block is as many as the formatter
    # takes in one call, and its x cells never change.
    slabs = max(1, BLOCK_CELLS // (len(x) * len(columns)))
    block = np.empty((slabs, len(x), lead + CELL_BYTES * len(columns)), np.uint8)
    block[:, :, :x_end] = x_cells
    with open(path, "wb") as handle:
        handle.write((",".join(header) + "\n").encode())
        for start in range(0, len(t), slabs):
            stop = min(start + slabs, len(t))
            rows = block[:stop - start]
            rows[:, :, x_end:lead] = t_cells[start:stop, None]
            rows[:, :, lead:] = _g17_cells(np.stack(
                [column[start:stop] for column in columns], axis=-1)
            ).reshape(stop - start, len(x), -1)
            _write_rows(handle, rows.reshape(-1, rows.shape[-1]))


def write_coefficients(path: Path, table, nodes) -> None:
    """Write ``coefficients.csv`` from the (M + 1, N/2 + 1) table of modes
    0 .. N/2 at ``nodes``: rows k = -N/2 .. N/2, then l = 0 .. M. Mode -n
    takes mode n's cells with the sign of the imaginary part toggled."""
    half = table.shape[1] - 1
    psi_cells = _g17_cells(np.stack([table.real.T, table.imag.T], axis=-1)
                           ).reshape(half + 1, len(nodes), 2 * CELL_BYTES)
    # k and l as floats: their "%.17g" text is their "%d" text.
    k_cells = _separated(_g17_cells(np.arange(-half, half + 1, dtype=float)))
    l_cells = _separated(_g17_cells(np.arange(len(nodes), dtype=float)))
    t_cells = _separated(_g17_cells(nodes))
    k_end = k_cells.shape[1]
    l_end = k_end + l_cells.shape[1]
    lead = l_end + t_cells.shape[1]
    modes = max(1, BLOCK_CELLS // (5 * len(nodes)))
    # The l and t_node cells of a block never change.
    block = np.empty((modes, len(nodes), lead + 2 * CELL_BYTES), np.uint8)
    block[:, :, k_end:l_end] = l_cells
    block[:, :, l_end:lead] = t_cells
    with open(path, "wb") as handle:
        handle.write(b"k,l,t_node,re_psi,im_psi\n")
        for start in range(-half, half + 1, modes):
            ks = np.arange(start, min(start + modes, half + 1))
            rows = block[:ks.size]
            rows[:, :, :k_end] = k_cells[ks + half, None]
            rows[:, :, lead:] = psi_cells[np.abs(ks)]
            rows[ks < 0, :, lead + CELL_BYTES] ^= _MINUS
            _write_rows(handle, rows.reshape(-1, rows.shape[-1]))
