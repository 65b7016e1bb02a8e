"""CSV text of the command line outputs, byte for byte as "%.17g" writes it.

Floats carry 17 significant digits, so reruns round-trip doubles exactly;
integers are "%d". Small tables take one ``template % values`` operation.
``solution.csv`` and ``coefficients.csv`` are written in blocks of rows,
each field a fixed cell of exact "%.17g" bytes and a comma; NULs between
texts are dropped on write. A row starts with its repeated x and t (or k,
l and t_node) cells, formatted and packed once and padded with NULs to a
whole number of 64-bit words, and the formatter writes the cells of the
row's values into the block in place. ``solution.csv`` goes in whole time
slabs, as many per formatter call as fit in ``BLOCK_CELLS`` values; a
writer then sets only the newline that ends each row. The digits come
from float64 and int64 arithmetic alone: an error-free product with a
power of ten held as two doubles (Dekker, Numer. Math. 18, 1971), so
every little-endian IEEE-754 platform takes the same path. It reads no
solution: the callers pass the values."""

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
# slots, which _packed narrows for a repeated column. Every value uses the
# same slots: slot 0 holds the sign; slots 1-5 the "0." and up to three
# zeros that lead a fixed-notation value below 1; slot 7 the first of the
# 17 significant digits; slot 8 the point, or NUL; slot 8 + j digit j for
# j = 1 .. 16; slots 25-29 the exponent; slot 31 the separator, a comma
# from the formatter. Slots 6 and 30 stay NUL. A value with E + 1 >= 2
# integer digits has digits 1 .. E one slot to the left, at slots 8 .. 7 + E,
# and its point at slot 8 + E. A cell is four little-endian 64-bit words.
CELL_BYTES = 32
# Values per formatter call. The formatter's temporaries for a block are
# all the text a writer holds at a time, besides its block of rows (one
# call's worth for solution.csv, modes 0 .. N/2 for coefficients.csv) and
# the cells of the values it reuses: x, t, t_node, k and l.
BLOCK_CELLS = 8192
# Values v with _MAG_MIN <= |v| <= _MAG_MAX take the vectorized digits; the
# bounds keep 10^k, |v| 10^k and every partial product in _scaled far from
# overflow and underflow, and k in -265 .. 298, inside the 10^k table.
_MAG_MIN, _MAG_MAX = 1e-280, 1e280
_POW_MIN, _POW_MAX = -270, 300  # range of k in the 10^k table
_EXP_MIN = -330                 # lowest exponent in the exponent table
_ZERO, _MINUS, _POINT, _COMMA = ord("0"), ord("-"), ord("."), ord(",")
_POINTS = np.uint64(0x2E2E2E2E2E2E2E2E)  # a point in every byte of a word
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
    # 1-based position of the last nonzero digit of each 4-digit chunk, 0 for
    # 0, and per chunk j of digits 1 .. 16 the index of that digit, 4 j + it.
    last_digit = np.where(nonzero.any(axis=1),
                          4 - np.argmax(nonzero[:, ::-1], axis=1), 0)
    last_digit = (last_digit + 4 * np.arange(4)[:, None]) * (last_digit > 0)
    # Row j keeps digits 1 .. j of the two words that hold digits 1 .. 16.
    keep = (np.arange(17)[:, None] > np.arange(16)) * np.uint8(255)
    # Per sign, then per exponent E from _EXP_MIN up: word 0 with the sign
    # and the "0." and zeros that lead a fixed-notation value below 1; word 1
    # with the point after a lone integer digit; word 3 with the exponent,
    # none for -4 <= E < 17, and the separator.
    exps = np.arange(_EXP_MIN, -_EXP_MIN + 1)
    mag = np.abs(exps)
    sci = (exps < -4) | (exps >= 17)
    frame = np.zeros((2, exps.size, 3, 8), np.uint8)
    for zeros in range(1, 5):
        frame[:, exps == -zeros, 0, 1:zeros + 2] = list(b"0." + b"0" * (zeros - 1))
    frame[1, :, 0, 0] = _MINUS
    frame[:, sci | (exps >= 0), 1, 0] = _POINT
    exponent = np.stack([np.full(exps.size, ord("e")),
                         np.where(exps < 0, _MINUS, ord("+")),
                         (mag // 100 + _ZERO) * (mag >= 100),
                         mag // 10 % 10 + _ZERO, mag % 10 + _ZERO], axis=1)
    frame[:, sci, 2, 1:6] = exponent[sci]
    frame[:, :, 2, 7] = _COMMA
    return ((hi, hi_h, hi_l, lo),
            (four.view(np.uint32).ravel(), last_digit.astype(np.int8),
             keep.view(np.uint64), frame.reshape(-1, 24).view(np.uint64)))


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
    # Whether yh + yl lies below 1e16 and whether it lies at or above
    # 1e17 + 1/2, decided on the pair, not on yh alone: 1e16 - yh and
    # 1e17 - yh are exact near the bound (Sterbenz), and so is adding 1/2
    # to the latter; far from it |yl| <= 24 cannot change the answer. A
    # pair in [1e17, 1e17 + 1/2) rounds to D = 10^17, which _g17_block
    # takes as 10^16 at the next exponent: the digits of y / 10. So a
    # y = 1e16 that the pair puts just below 1e16, an exact power of ten
    # such as 1e20 with an inexact 10^k, lands on 1e17 at the next k and
    # stays there.
    return yl < 1e16 - yh, yl >= (1e17 - yh) + 0.5


def _g17_block(v: np.ndarray, out: np.ndarray) -> None:
    # Write the cells of the "%.17g" texts of the float64 values v to out,
    # as words: an array of shape v.shape + (4,). See _g17_cells.
    tables = _g17_tables()
    if tables is None:
        out[...] = _percent_cells(v).view(np.uint64).reshape(out.shape)
        return
    powers, (four, last_digit, keep, frame) = tables
    v = v.reshape(-1)
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
    # D in int64, exact since yh is an integer below 2^57. Row 0 of split
    # takes its first digit, rows 1-4 digits 1 .. 16 in chunks of four.
    digits = yh.astype(np.int64)
    digits += r.astype(np.int64)
    # D = 10^17, from y in [1e17 - 1/2, 1e17 + 1/2): 10^16 and E + 1
    top = np.flatnonzero(digits == 10 ** 17)
    digits[top] = 10 ** 16
    exp10[top] += 1
    split = np.empty((5, v.size), np.int64)
    for row, power in enumerate((10 ** 16, 10 ** 12, 10 ** 8, 10 ** 4)):
        np.floor_divide(digits, power, out=split[row])
    split[4] = digits
    split[1:] -= split[:-1] * 10 ** 4
    first, chunks = split[0], split[1:]
    first *= a > 0
    # Digits 1 .. 8 and 9 .. 16 as two words of ASCII, by table lookup, and
    # the index of the last nonzero digit, 0 when only the first is nonzero.
    pairs = four.take(chunks.T).view(np.uint64)
    last = np.maximum(
        np.maximum(last_digit[0].take(chunks[0]), last_digit[1].take(chunks[1])),
        np.maximum(last_digit[2].take(chunks[2]), last_digit[3].take(chunks[3])))
    # Fixed notation for -4 <= E < 17, with E + 1 integer digits (none below
    # 1, where the lead holds "0."); otherwise one integer digit and an
    # exponent. Trailing zeros after the point, and a bare point, are cut:
    # digits 1 .. last follow the point slot, and the point needs last > 0.
    shown = pairs & keep.take(last, axis=0)
    row = exp10 - _EXP_MIN
    row += len(frame) // 2 * np.signbit(v)
    ends = frame.take(row, axis=0)
    words = np.empty((v.size, 4), np.uint64).T  # a cell's words adjacent
    np.bitwise_or(ends[:, 0], ((first + _ZERO) << 56).view(np.uint64),
                  out=words[0])
    np.left_shift(shown[:, 0], 8, out=words[1])
    words[1] |= ends[:, 1] * (last > 0)
    np.right_shift(shown[:, 0], 56, out=words[2])
    words[2] |= shown[:, 1] << 8
    np.right_shift(shown[:, 1], 56, out=words[3])
    words[3] |= ends[:, 2]
    wide = np.flatnonzero((exp10 > 0) & (exp10 < 17))
    if wide.size:
        # E >= 1: digits 1 .. E go one slot to the left, to slots 8 .. 7 + E.
        # If last > E, the point takes the byte of digit E, which the shift
        # moves to slot 8 + E, just before digits E + 1 .. last.
        n, pair, tail = exp10[wide], pairs[wide], last[wide]
        whole = pair & keep[n]
        part = pair & keep[tail] & ~keep[n]
        part |= (keep[n] ^ keep[n - 1]) & (_POINTS * (tail > n)[:, None])
        words[1, wide] = whole[:, 0] | part[:, 0] << 8
        words[2, wide] = whole[:, 1] | part[:, 0] >> 56 | part[:, 1] << 8
        words[3, wide] = part[:, 1] >> 56 | ends[wide, 2]
    uncertified = np.flatnonzero(~ok)
    if uncertified.size:
        # Near-ties in range at an exact 10^k keep their digits.
        inexact = powers[3].take(k[uncertified]) != 0
        uncertified = uncertified[inexact | ~in_range[uncertified]]
        words[:, uncertified] = _percent_cells(v[uncertified]).view(np.uint64).T
    out[...] = words.T.reshape(out.shape)


def _format_into(values: np.ndarray, rows: np.ndarray, lead: int) -> None:
    # Write the cells of the (n, columns) values into rows, a C-contiguous
    # block of n rows whose value cells start at byte lead, a multiple of 8:
    # whole rows, as many per formatter call as fit in BLOCK_CELLS values.
    rows = rows.reshape(-1, rows.shape[-1])
    words = rows[:, lead:].view(np.uint64).reshape(values.shape + (4,))
    step = max(1, BLOCK_CELLS // values.shape[1])
    for start in range(0, len(values), step):
        _g17_block(values[start:start + step], words[start:start + step])


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
    cells = np.empty(values.shape + (CELL_BYTES,), np.uint8)
    _format_into(values.reshape(-1, 1), cells, 0)
    return cells


def _packed(cells: np.ndarray) -> np.ndarray:
    # The (n, CELL_BYTES) cells of a repeated column with each text moved to
    # the left of a cell as wide as the longest text plus the separator slot;
    # NULs fill the rest, the separator slot included. The texts, joined in
    # order, go to the packed rows: byte i of the joined texts, in the text
    # of cell j, moves by j width minus the bytes of the texts before cell j.
    text = cells[:, :-1] != 0
    counts = text.sum(axis=1)
    width = int(counts.max()) + 1
    ends = np.cumsum(counts)
    shift = np.arange(len(cells)) * width - (ends - counts)
    packed = np.zeros((len(cells), width), np.uint8)
    packed.reshape(-1)[np.arange(ends[-1]) + np.repeat(shift, counts)] = (
        cells[:, :-1][text])
    return packed


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
    t_end = x_end + t_cells.shape[1]
    lead = -(-t_end // 8) * 8  # NULs pad the lead to whole words
    # One slab is the rows of one time; a block is as many as the formatter
    # takes in one call, and its x cells never change.
    slabs = max(1, BLOCK_CELLS // (len(x) * len(columns)))
    block = np.zeros((slabs, len(x), lead + CELL_BYTES * len(columns)),
                     np.uint8)
    block[:, :, :x_end] = x_cells
    with open(path, "wb") as handle:
        handle.write((",".join(header) + "\n").encode())
        for start in range(0, len(t), slabs):
            stop = min(start + slabs, len(t))
            rows = block[:stop - start]
            rows[:, :, x_end:t_end] = t_cells[start:stop, None]
            values = np.stack([column[start:stop] for column in columns],
                              axis=-1)
            _format_into(values.reshape(-1, len(columns)), rows, lead)
            _write_rows(handle, rows.reshape(-1, rows.shape[-1]))


def write_coefficients(path: Path, table, nodes) -> None:
    """Write ``coefficients.csv`` from the (M + 1, N/2 + 1) table of modes
    0 .. N/2 at ``nodes``: rows k = -N/2 .. N/2, then l = 0 .. M. Mode -n
    takes mode n's row with the sign of the imaginary part toggled."""
    half = table.shape[1] - 1
    # k and l as floats: their "%.17g" text is their "%d" text.
    k_cells = _separated(_g17_cells(np.arange(-half, half + 1, dtype=float)))
    l_cells = _separated(_g17_cells(np.arange(len(nodes), dtype=float)))
    t_cells = _separated(_g17_cells(nodes))
    k_end = k_cells.shape[1]
    l_end = k_end + l_cells.shape[1]
    t_end = l_end + t_cells.shape[1]
    lead = -(-t_end // 8) * 8  # NULs pad the lead to whole words
    # The rows of modes 0 .. N/2, each value formatted once, in place.
    rows = np.zeros((half + 1, len(nodes), lead + 2 * CELL_BYTES), np.uint8)
    rows[:, :, :k_end] = k_cells[half:, None]
    rows[:, :, k_end:l_end] = l_cells
    rows[:, :, l_end:t_end] = t_cells
    values = np.stack([table.real.T, table.imag.T], axis=-1)
    _format_into(values.reshape(-1, 2), rows, lead)
    modes = max(1, BLOCK_CELLS // (5 * len(nodes)))
    with open(path, "wb") as handle:
        handle.write(b"k,l,t_node,re_psi,im_psi\n")
        for start in range(-half, 0, modes):
            ks = np.arange(start, min(start + modes, 0))
            block = rows[-ks]
            block[:, :, :k_end] = k_cells[ks + half, None]
            block[:, :, lead + CELL_BYTES] ^= _MINUS
            _write_rows(handle, block.reshape(-1, block.shape[-1]))
        for start in range(0, half + 1, modes):
            block = rows[start:start + modes]
            _write_rows(handle, block.reshape(-1, block.shape[-1]))
