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
newline that ends each row. The digits come from float64 arithmetic alone:
an error-free product with a power of ten held as two doubles (Dekker,
Numer. Math. 18, 1971), so every little-endian IEEE-754 platform takes
the same path. It reads no solution: the callers pass the values."""

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
# Values v with _MAG_MIN <= |v| <= _MAG_MAX take the vectorized digits; the
# bounds keep 10^k, |v| 10^k and every partial product in _scaled far from
# overflow and underflow, and k in -265 .. 298, inside the 10^k table.
_MAG_MIN, _MAG_MAX = 1e-280, 1e280
_POW_MIN, _POW_MAX = -270, 300  # range of k in the 10^k table
_EXP_MIN = -330                 # lowest exponent in the exponent table
_ZERO, _MINUS, _POINT, _COMMA = ord("0"), ord("-"), ord("."), ord(",")
_SPLIT = 2.0 ** 27 + 1  # Dekker's splitter
# Bound on |y - yh - yl| for y = |v| 10^k near [1e16, 1e17), proven at
# _scaled; a rounding of yl is certified when it is further from a tie.
_TIE_MARGIN = 2.0 ** -47


def _split(x):
    # Dekker's split of a double: x = xh + xl exactly, each half of at most
    # 26 significant bits, so that a product of halves is exact in float64.
    c = x * _SPLIT
    xh = c - (c - x)
    return xh, x - xh


def _powers_of_ten():
    # 10^k as hi + lo for k = _POW_MIN .. _POW_MAX: hi is 10^k correctly
    # rounded and lo is 10^k - hi correctly rounded, both from exact integer
    # arithmetic (Python's float(int) and int / int round correctly).
    hi, lo = [], []
    for k in range(_POW_MIN, _POW_MAX + 1):
        if k >= 0:
            power = 10 ** k
            high = float(power)
            low = float(power - int(high))
        else:
            scale = 10 ** -k
            high = 1 / scale
            num, den = high.as_integer_ratio()
            low = (den - num * scale) / (den * scale)
        hi.append(high)
        lo.append(low)
    return np.array(hi), np.array(lo)


@cache
def _g17_tables():
    """Lookup tables of the vectorized "%.17g" formatter, built on first use.

    None when the byte order is not little-endian, which the cell words
    assume; the formatter then takes the % operator for every value.
    """
    if sys.byteorder != "little":
        return None
    hi, lo = _powers_of_ten()
    hi_h, hi_l = _split(hi)
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
    return ((hi, hi_h, hi_l, lo),
            (four.view(np.uint32).ravel(), last_digit.astype(np.int8),
             int_mask, frac_mask, point, lead.view(np.uint64).ravel(),
             expo.view(np.uint64).ravel()))


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


def _scaled(a, k, powers):
    # y = a 10^k as the pair (yh, yl), for hi + lo the table's 10^k (k counted
    # from _POW_MIN): yh = RN(a hi); p = a hi - yh, exact by Dekker's
    # TwoProduct; m = RN(a lo); yl = RN(p + m). RN is float64 rounding, with
    # |RN(x) - x| <= 2^-53 |x|. For y in [1e16 - 1, 1e17 + 1], yh is an
    # integer (yh >= 2^53) and |y - yh - yl| < 2^-47 = _TIE_MARGIN, since
    # a hi <= y (1 + 2^-53) < 2^57 and
    #   |10^k - hi - lo| <= 2^-53 |10^k - hi| <= 2^-106 hi, times a < 2^-49;
    #   |a lo - m| <= 2^-53 |a lo| <= 2^-106 a hi < 2^-49;
    #   |p| <= ulp(yh) / 2 <= 8 and |m| <= 16, so |p + m - yl| < 2^-48.
    hi, hi_h, hi_l, lo = (power.take(k) for power in powers)
    a_h, a_l = _split(a)
    yh = a * hi
    yl = a_h * hi_h - yh
    yl += a_h * hi_l
    yl += a_l * hi_h
    yl += a_l * hi_l
    yl += a * lo
    return yh, yl


def _outside(yh, yl):
    # Whether yh + yl lies below 1e16 and whether it lies at or above 1e17,
    # decided on the pair, not on yh alone: 1e16 - yh and 1e17 - yh are
    # exact near the bound (Sterbenz), and far from it |yl| <= 24 cannot
    # change the answer.
    return yl < 1e16 - yh, yl >= 1e17 - yh


def _g17_block(v: np.ndarray) -> np.ndarray:
    # Cells of the "%.17g" texts of a 1-D float64 array. See _g17_cells.
    tables = _g17_tables()
    if tables is None:
        return _percent_cells(v)
    powers, (four, last_digit, int_mask, frac_mask, point, lead, expo) = tables
    a = np.abs(v)
    in_range = (a >= _MAG_MIN) & (a <= _MAG_MAX)
    safe = np.where(in_range, a, 1.0)  # no log of 0, no cast of inf or NaN
    # y = |v| 10^(16 - E) lies in [1e16, 1e17) for the right exponent E.
    k = (16 - _POW_MIN) - np.floor(np.log10(safe)).astype(np.int64)
    yh, yl = _scaled(safe, k, powers)
    below, above = _outside(yh, yl)
    fix = np.flatnonzero(below | above)
    if fix.size:
        k[fix] += np.where(below[fix], 1, -1)
        yh[fix], yl[fix] = _scaled(safe[fix], k[fix], powers)
        below, above = _outside(yh[fix], yl[fix])
        in_range[fix[below | above]] = False
    # D = yh + r, r = round(yl), is y rounded to an integer wherever yl is
    # further than _TIE_MARGIN from a tie (yl - r is exact: Sterbenz). Where
    # 10^k is exact (lo = 0, k = 0 .. 22), so is the product: y = yh + yl,
    # and yh >= 2^53 is even, so rint's half to even on yl is %'s on y, ties
    # included. Other near-ties, values out of range and non-finite values
    # take the % operator below; 0 takes the digits of 1.0 with the first
    # set to 0.
    r = np.rint(yl)
    ok = np.abs(yl - r) < 0.5 - _TIE_MARGIN
    ok &= in_range | (a == 0)
    exp10 = (16 - _POW_MIN) - k
    # The 17 digits of D in float64, where integers below 2^53 are exact: a
    # high part of 9 digits and a low part of 8, then the first digit and
    # 8 more from the high part. high may come out one too large from the
    # rounded quotient; the carry from adding r to low undoes that too.
    eight = np.empty((v.size, 2))
    high, low = eight[:, 0], eight[:, 1]
    np.floor(yh / 1e8, out=high)
    np.subtract(yh, high * 1e8, out=low)
    low += r
    carry = np.floor(low / 1e8)
    low -= carry * 1e8
    high += carry
    first = np.floor(high / 1e8)
    high -= first * 1e8
    top = np.flatnonzero(first == 10)  # D = 10^17: 10^16 and E + 1
    first[top] = 1
    exp10[top] += 1
    first *= a > 0
    # Four chunks of four digits each, by table lookup.
    quarter = np.floor(eight / 1e4)
    chunks = np.empty((v.size, 4), np.int64)
    chunks[:, 0::2] = quarter
    chunks[:, 1::2] = eight - quarter * 1e4
    words = np.zeros((v.size, 4), np.uint64)
    words[:, 0] = (first.astype(np.uint64) + np.uint64(_ZERO)) << np.uint64(56)
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
        # Near-ties in range at an exact 10^k keep their digits.
        inexact = powers[3].take(k[uncertified]) != 0
        uncertified = uncertified[inexact | ~in_range[uncertified]]
        cells[uncertified] = _percent_cells(v[uncertified])
    return cells


def _g17_cells(values) -> np.ndarray:
    """The exact "%.17g" bytes of float64 values, one cell per value.

    Returns an array of shape ``values.shape + (CELL_BYTES,)``; the non-NUL
    bytes of a cell, in order, are ``"%.17g" % value`` and then the
    separator ',' in slot 31, the cell's last. Each value v with
    1e-280 <= |v| <= 1e280 gets its 17 digits D and exponent E from
    y = |v| 10^(16 - E), formed in float64 as an unevaluated sum yh + yl by
    Dekker's error-free product with 10^k held as a pair of doubles; D is y
    rounded to an integer. That rounding is used only where it is certified
    against a proven error bound, or where 10^k is exact and so is y;
    other near-ties, values out of that range and non-finite values take
    the % operator.
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
