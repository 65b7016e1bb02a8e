"""Command line front end: file outputs, schemas, determinism, exit codes."""

import csv
import io
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from adspectral import (FourierGrid, SAField, SpectralSolution, build_basis,
                        conditioning_study, error_report, sa_field, solve_modes,
                        synthesize_derivative, synthesize_field, time_grid)
from adspectral import gegenbauer
from adspectral import test_problem as builtin_problem
from adspectral import cli, csvtext
from adspectral.cli import main
from adspectral.csvtext import (CELL_BYTES, FLOAT, INT, _g17_cells,
                                _g17_tables, _packed, _percent_cells,
                                write_coefficients, write_table)
from adspectral.fourier import complete_half_spectrum
from adspectral.gegenbauer import reference_rule
from adspectral.problems import config_from_pairs

TABLE_ROW = """
problem_id = 1
N = 4
N0 = 6
M = 10
lambda = -0.4
t_final = 0.1
"""


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


class TestSolveCommand:
    def test_table_row_report(self, tmp_path):
        cfg = _write(tmp_path, TABLE_ROW)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        rows = _read_rows(out / "report.csv")
        assert rows[0] == ["N", "M", "lambda", "N0", "t_final",
                           "pointwise_max", "dne"]
        assert float(rows[1][5]) <= 1e-14

    def test_output_files_and_schemas(self, tmp_path):
        cfg = _write(tmp_path, TABLE_ROW)
        out = tmp_path / "out"
        main(["solve", "--config", str(cfg), "--out", str(out)])
        solution = _read_rows(out / "solution.csv")
        assert solution[0] == ["x", "t", "u", "ux", "u_exact", "abs_err"]
        # (M + 1) time nodes plus the terminal time, N points each.
        assert len(solution) - 1 == (10 + 1 + 1) * 4
        coeffs = _read_rows(out / "coefficients.csv")
        assert coeffs[0] == ["k", "l", "t_node", "re_psi", "im_psi"]
        assert len(coeffs) - 1 == 5 * 11

    @pytest.mark.parametrize("N,M", [(8, 4), (64, 12), (1024, 32)])
    @pytest.mark.parametrize("pid", [1, 2, 3])
    def test_report_equals_error_report(self, tmp_path, pid, N, M):
        # The field at T comes from the same coefficient row, bit for bit,
        # whether it is evaluated alone or with the time nodes.
        pairs = {"problem_id": str(pid), "N": str(N), "M": str(M)}
        cfg = _write(tmp_path, "".join(f"{k} = {v}\n" for k, v in pairs.items()))
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        problem, config = config_from_pairs(pairs)
        report = error_report(problem, config, problem.T)
        row = _read_rows(out / "report.csv")[1]
        assert [float(row[5]), float(row[6])] == [report.pointwise_max,
                                                  report.dne]

    def test_reruns_byte_identical(self, tmp_path):
        cfg = _write(tmp_path, TABLE_ROW)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["solve", "--config", str(cfg), "--out", str(out1)])
        main(["solve", "--config", str(cfg), "--out", str(out2)])
        for name in ("solution.csv", "coefficients.csv", "report.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_lf_line_endings(self, tmp_path):
        cfg = _write(tmp_path, TABLE_ROW)
        out = tmp_path / "out"
        main(["solve", "--config", str(cfg), "--out", str(out)])
        raw = (out / "report.csv").read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n")


class TestTableWriter:
    HEADER = ["n", "a", "b", "c"]
    ROWS = [[3, -0.0, 5e-324, 1e300],
            [-7, 1e-300, -1e300, -1e-300],
            [0, 2.2250738585072014e-308, -np.inf, np.pi],
            [2 ** 40, 0.1, np.nan, -4.9406564584124654e-324]]

    @staticmethod
    def _reference_text(header, rows):
        # The per-cell rule the table writer replaced: csv.writer over
        # str(int) for integers and '.17g' for everything else numeric.
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([
                cell if isinstance(cell, str)
                else str(int(cell)) if isinstance(cell, (int, np.integer))
                else f"{float(cell):.17g}" for cell in row])
        return buffer.getvalue()

    @pytest.mark.parametrize("as_array", [False, True])
    def test_numbers_match_reference(self, tmp_path, as_array):
        rows = np.array(self.ROWS, dtype=float) if as_array else self.ROWS
        path = tmp_path / "t.csv"
        write_table(path, self.HEADER, [INT, FLOAT, FLOAT, FLOAT], rows)
        assert path.read_text(encoding="utf-8") == \
            self._reference_text(self.HEADER, self.ROWS)

    def test_text_columns_and_empty_table(self, tmp_path):
        rows = [["TQ", 0, 1.5, ""], ["A", 12, -0.0, "x"]]
        path = tmp_path / "t.csv"
        write_table(path, self.HEADER, ["%s", INT, FLOAT, "%s"], rows)
        assert path.read_text(encoding="utf-8") == \
            self._reference_text(self.HEADER, rows)
        write_table(path, self.HEADER, [INT] * 4, np.empty((0, 4)))
        assert path.read_text(encoding="utf-8") == "n,a,b,c\n"


class TestFieldWriters:
    """solution.csv and coefficients.csv format each distinct value once."""

    CASES = [{"problem_id": pid, "N": N, "M": M}
             for pid in (1, 2, 3) for N, M in ((2, 1), (8, 4), (64, 16))] + [
        {"mu": 0.5, "nu": 0.1, "L": 2, "T": 1, "u0": "first_harmonic",
         "N": 8, "M": 16},
        {"problem_id": 3, "N": 32, "M": 12, "t_final": 0.37, "lambda": 1.5}]

    @staticmethod
    def _generic_coefficients(table, nodes):
        # coefficients.csv as one float table: k, l, t_node, re, im.
        psi = table.T
        half = psi.shape[0] // 2
        k, l = np.meshgrid(np.arange(-half, half + 1), np.arange(len(nodes)),
                           indexing="ij")
        t_node = np.broadcast_to(nodes, psi.shape)
        return (["k", "l", "t_node", "re_psi", "im_psi"],
                [INT, INT, FLOAT, FLOAT, FLOAT],
                np.stack([k, l, t_node, psi.real, psi.imag],
                         axis=-1).reshape(-1, 5))

    @classmethod
    def _generic_tables(cls, command, pairs):
        # The rule the field writers replaced: every column, repeated ones
        # included, stacked into one float table whose every cell the
        # generic table writer formats.
        problem, config = config_from_pairs(pairs)
        if command == "solve":
            sol = solve_modes(problem, config)
            nodes = sol.time_grid.nodes
            table_at = sol.coefficients
        else:
            field = sa_field(problem, config.N, config.N0)
            nodes = time_grid(reference_rule(config.lam, config.M)[0],
                              problem.T).nodes
            table_at = field.coefficients
        grid = FourierGrid(L=problem.L, N=config.N)
        times = np.append(nodes, problem.T)
        coeffs = table_at(times)
        u = synthesize_field(coeffs, grid,
                             [float(problem.g(float(t))) for t in times])
        ux = synthesize_derivative(coeffs, grid)
        columns = [np.broadcast_to(grid.nodes, u.shape),
                   np.broadcast_to(times[:, None], u.shape), u, ux]
        header = ["x", "t", "u", "ux"]
        if problem.exact is not None:
            exact = np.array([problem.exact(grid.nodes, t) for t in times],
                             dtype=float)
            columns += [exact, np.abs(u - exact)]
            header += ["u_exact", "abs_err"]
        tables = {"solution.csv": (
            header, [FLOAT] * len(columns),
            np.stack(columns, axis=-1).reshape(-1, len(columns)))}
        if command == "solve":
            tables["coefficients.csv"] = cls._generic_coefficients(sol.table,
                                                                   nodes)
        return tables

    @classmethod
    def _check_against_generic(cls, tmp_path, command, pairs):
        cfg = _write(tmp_path,
                     "".join(f"{k} = {v}\n" for k, v in pairs.items()))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        tables = cls._generic_tables(
            command, {k: str(v) for k, v in pairs.items()})
        assert sorted(tables) == sorted(
            p.name for p in out.iterdir() if p.name != "report.csv")
        for name, (header, formats, table) in tables.items():
            reference = tmp_path / f"generic-{name}"
            write_table(reference, header, formats, table)
            assert (out / name).read_bytes() == reference.read_bytes(), name

    @pytest.mark.parametrize(
        "pairs", CASES, ids=lambda p: "-".join(f"{k}{v}" for k, v in p.items()))
    @pytest.mark.parametrize("command", ["solve", "sa"])
    def test_csv_bytes_match_generic_writer(self, tmp_path, command, pairs):
        self._check_against_generic(tmp_path, command, pairs)

    @pytest.mark.parametrize("block_cells", [1, 128, csvtext.BLOCK_CELLS],
                             ids=["one-slab", "partial-block", "default"])
    @pytest.mark.parametrize("command", ["solve", "sa"])
    def test_bytes_independent_of_block_size(self, tmp_path, monkeypatch,
                                             command, block_cells):
        # Problem 3 at N = 8, M = 4 has 6 times of 8 rows of 4 value columns:
        # 128 values make blocks of 4 slabs, the last one of 2, and blocks
        # of 5 modes of coefficients.csv, the last one of 4.
        monkeypatch.setattr(csvtext, "BLOCK_CELLS", block_cells)
        self._check_against_generic(tmp_path, command,
                                    {"problem_id": 3, "N": 8, "M": 4})

    @pytest.mark.parametrize("command", ["solve", "sa"])
    def test_one_coefficient_table_per_run(self, tmp_path, monkeypatch,
                                           command):
        # u, ux and coefficients.csv all come from one table at the nodes
        # and T.
        sizes = []
        for cls in (SpectralSolution, SAField):
            def counting(sol, times, original=cls.coefficients):
                sizes.append(np.size(times))
                return original(sol, times)
            monkeypatch.setattr(cls, "coefficients", counting)
        cfg = _write(tmp_path, "problem_id = 3\nN = 8\nM = 4\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        assert sizes == [4 + 2]

    def test_coefficients_of_symmetric_table_written(self, tmp_path):
        rng = np.random.default_rng(5)
        pos = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        pos[1, 0] = 2.5  # imaginary part +0.0, so mode -1 holds -0.0
        table, nodes = complete_half_spectrum(pos), np.linspace(0.0, 1.0, 4)
        path, reference = tmp_path / "c.csv", tmp_path / "generic.csv"
        write_coefficients(path, table[:, 3:], nodes)  # modes 0 .. 3
        write_table(reference, *self._generic_coefficients(table, nodes))
        assert path.read_bytes() == reference.read_bytes()
        assert ",-0\n" in path.read_text(encoding="utf-8")

    def test_packed_cells_keep_texts_in_narrow_columns(self):
        # A repeated column keeps each text, left-packed, in a cell one slot
        # wider than its longest text; that last slot takes the separator.
        values = np.array([0.0, -0.0, 5e-324, -1e300, np.pi, -np.inf, 0.25,
                           12.0, 1e-5])
        for formatter in (_g17_cells, _percent_cells):
            cells = formatter(values)
            packed = _packed(cells)
            longest = max(len(FLOAT % v) for v in values)
            assert packed.shape == (values.size, longest + 1)
            assert np.all(packed[:, -1] == 0)
            lengths = (packed != 0).sum(axis=1)
            assert all(np.all(row[:n] != 0) for row, n in zip(packed, lengths))
            lines = packed.copy()
            lines[:, -1] = ord("\n")
            assert lines[lines != 0].tobytes() == _percent_texts(values)

    @pytest.mark.parametrize("value", [
        0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e300,
        np.pi, -np.pi, np.inf, -np.inf])
    def test_sign_flip_of_text(self, value):
        # A row of mode -n toggles the sign slot of mode n's imaginary cell.
        for formatter in (_g17_cells, _percent_cells):
            cells = formatter(np.array([value]))
            cells[:, 0] ^= ord("-")
            assert _cell_texts(cells) == (FLOAT % -value + "\n").encode()

    def test_solve_peak_traced_memory(self, tmp_path):
        # The writers hold one block of cells at a time: a writer that built
        # the whole solution.csv block at N = 1024, M = 32 would peak above.
        cfg = _write(tmp_path, "problem_id = 1\nN = 1024\nM = 32\n")
        argv = ["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]
        assert main(argv) == 0  # warm: rule cache and formatter tables
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12e6


def _cell_texts(cells) -> bytes:
    # The text of each cell, one per line.
    cells = cells.reshape(-1, CELL_BYTES).copy()
    cells[:, -1] = ord("\n")
    flat = cells.reshape(-1)
    return flat[flat != 0].tobytes()


def _percent_texts(values) -> bytes:
    values = np.ravel(values).tolist()
    return ((FLOAT + "\n") * len(values) % tuple(values)).encode()


def _first_mismatch(values, got: bytes) -> str:
    for value, text in zip(np.ravel(values), got.splitlines()):
        if text.decode() != FLOAT % value:
            return f"{value!r}: {text.decode()!r} != {FLOAT % value!r}"
    return "line count differs"


class TestG17Cells:
    """The vectorized formatter against Python's "%.17g" % v, value by value."""

    @staticmethod
    def _edge_values():
        big = np.finfo(float).max
        # Every power of ten in range, as parsed: 1e-5 .. 1e22 among them,
        # and doubles such as 1e-14 whose 17 digits round up to 10^17.
        tens = np.array([float(f"1e{n}") for n in range(-323, 309)])
        values = [0.0, -0.0, 5e-324, -5e-324, big, -big, np.inf, -np.inf,
                  np.nan, 9.9999999999999999e-5,
                  # exact ties at the 17th digit, which round half to even
                  2.0 ** 50 + 0.25, 2.0 ** 50 + 0.75,
                  *tens, *np.nextafter(tens, 0.0), *np.nextafter(tens, np.inf)]
        return np.array(values + [-v for v in values])

    @staticmethod
    def _random_values():
        rng = np.random.default_rng(20251019)
        bits = rng.integers(0, 2 ** 64, 200_000, dtype=np.uint64,
                            endpoint=False).view(np.float64)
        normals = (rng.standard_normal(50_000)
                   * 10.0 ** rng.integers(-40, 41, 50_000))
        integers = (rng.integers(-2 ** 53, 2 ** 53, 50_000).astype(float)
                    * 2.0 ** rng.integers(-80, 81, 50_000))
        return np.concatenate([bits, normals, integers])

    @pytest.mark.parametrize("source", ["edge", "random"])
    @pytest.mark.parametrize("formatter", [_g17_cells, _percent_cells],
                             ids=["g17", "percent"])
    def test_bytes_match_percent_operator(self, source, formatter):
        values = self._edge_values() if source == "edge" else self._random_values()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _cell_texts(formatter(values))
        assert got == _percent_texts(values), _first_mismatch(values, got)

    @pytest.mark.parametrize("formatter", [_g17_cells, _percent_cells],
                             ids=["g17", "percent"])
    def test_every_cell_ends_in_the_separator(self, formatter):
        # Slot 31 holds ',' for certified, fallback and non-finite values.
        cells = formatter(self._edge_values())
        assert np.all(cells[:, -1] == ord(","))
        assert not np.any(cells[:, :-1] == ord(","))

    def test_cells_keep_the_input_shape(self):
        values = np.arange(12.0).reshape(3, 2, 2) - 5.5
        cells = _g17_cells(values)
        assert cells.shape == (3, 2, 2, CELL_BYTES)
        assert _cell_texts(cells) == _percent_texts(values)
        assert _g17_cells(np.empty(0)).shape == (0, CELL_BYTES)

    @staticmethod
    def _count_fallbacks(monkeypatch) -> list:
        # The number of values of each call that takes the % operator.
        fallback = []

        def counting(values):
            fallback.append(np.size(values))
            return _percent_cells(values)

        monkeypatch.setattr(csvtext, "_percent_cells", counting)
        return fallback

    def test_fast_path_formats_every_value(self, monkeypatch, tmp_path):
        # Finite values in range take the % operator only at a near-tie,
        # which neither standard normals nor a whole solve come near.
        fallback = self._count_fallbacks(monkeypatch)
        values = np.random.default_rng(3).standard_normal(20_000)
        assert _cell_texts(_g17_cells(values)) == _percent_texts(values)
        assert sum(fallback) == 0
        cfg = _write(tmp_path, "problem_id = 3\nN = 1024\nM = 32\n")
        assert main(["solve", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == 0
        assert sum(fallback) == 0

    @pytest.mark.parametrize("value", [
        1e-280, np.nextafter(1e-280, 0.0), np.nextafter(1e-280, np.inf),
        1e280, np.nextafter(1e280, 0.0), np.nextafter(1e280, np.inf)],
        ids=["1e-280", "1e-280-below", "1e-280-above",
             "1e280", "1e280-below", "1e280-above"])
    def test_range_boundaries(self, monkeypatch, value):
        # 1e-280 is "9.9999999999999996e-281": y = |v| 10^296 lies just below
        # 1e16, where yh alone rounds onto 1e16, so the range is decided on
        # yh + yl. Values in the range take the fast path, the rest take %.
        fallback = self._count_fallbacks(monkeypatch)
        values = np.array([value, -value])
        assert _cell_texts(_g17_cells(values)) == _percent_texts(values)
        inside = csvtext._MAG_MIN <= value <= csvtext._MAG_MAX
        assert sum(fallback) == (0 if inside else 2)

    def test_exact_ties_take_the_fast_path(self, monkeypatch):
        # 10^2 is exact, so y = |v| 10^2 is yh + yl exactly, and the 17th
        # digit of these ties rounds half to even, as % rounds it.
        fallback = self._count_fallbacks(monkeypatch)
        values = np.array([732286862943450.375, 123456789012345.625])
        assert _cell_texts(_g17_cells(values)) == _percent_texts(values)
        assert sum(fallback) == 0

    def test_short_decimals_match_percent_operator(self, monkeypatch):
        # Exact ties at the 17th digit, m + j / 2^d with 18 - d digits in m
        # and j odd, take the fast path; decimal strings of 1 to 17 digits
        # over a wide range of exponents come out as % writes them.
        fallback = self._count_fallbacks(monkeypatch)
        rng = np.random.default_rng(20261021)
        ties = []
        for d in range(2, 10):
            m = rng.integers(10 ** (17 - d), min(10 ** (18 - d), 2 ** (53 - d)),
                             2000)
            j = 2 * rng.integers(0, 2 ** (d - 1), 2000) + 1
            ties.append((m * 2 ** d + j) / 2.0 ** d)
        ties = np.concatenate(ties)
        ties = np.concatenate([ties, -ties])
        assert _cell_texts(_g17_cells(ties)) == _percent_texts(ties)
        assert sum(fallback) == 0
        digits = rng.integers(1, 10 ** rng.integers(1, 18, 20_000))
        exps = rng.integers(-40, 41, 20_000)
        short = np.array([float(f"{m}e{e}") for m, e in zip(digits, exps)])
        got = _cell_texts(_g17_cells(short))
        assert got == _percent_texts(short), _first_mismatch(short, got)

    def test_power_pairs_are_double_double(self):
        # hi is 10^k correctly rounded and lo the remainder, so that
        # |10^k - hi - lo| <= 2^-53 |10^k - hi| <= 2^-106 hi; hi_h + hi_l is
        # hi split into halves of at most 26 significant bits.
        hi, hi_h, hi_l, lo = _g17_tables()[0]
        ks = range(csvtext._POW_MIN, csvtext._POW_MAX + 1)
        for k, high, half_h, half_l, low in zip(ks, hi, hi_h, hi_l, lo):
            exact = Fraction(10) ** k
            error = abs(Fraction(high) - exact)
            for neighbour in (np.nextafter(high, 0.0), np.nextafter(high, np.inf)):
                assert error <= abs(Fraction(neighbour) - exact), k
            remainder = abs(exact - Fraction(high) - Fraction(low))
            assert remainder <= Fraction(2) ** -53 * error, k
            assert remainder <= Fraction(2) ** -106 * Fraction(high), k
            assert Fraction(half_h) + Fraction(half_l) == Fraction(high), k
            for half in (half_h, half_l):
                n = abs(half.as_integer_ratio()[0])
                assert n == 0 or (n // (n & -n)).bit_length() <= 26, k


class TestSaCommand:
    @pytest.mark.parametrize("pid,t_final", [(1, 0.1), (2, 1.0)])
    def test_reproduction_rows(self, tmp_path, pid, t_final):
        cfg = _write(tmp_path, f"problem_id = {pid}\nN = 4\nN0 = 6\nM = 10\n"
                               f"t_final = {t_final}\n")
        out = tmp_path / "out"
        assert main(["sa", "--config", str(cfg), "--out", str(out)]) == 0
        rows = _read_rows(out / "report.csv")
        assert float(rows[1][5]) <= 1e-15
        assert not (out / "coefficients.csv").exists()

    @staticmethod
    def _per_time_map(field, t):
        # One dict per time, as sa_coefficient_map built it mode by mode.
        half = field.N // 2
        row = field.coefficients(t)[0]
        pos = {n: complex(row[half + n]) for n in range(1, half + 1)}
        out = {0: -2.0 * sum(c.real for c in pos.values()) + 0j}
        for n, c in pos.items():
            out[n] = c
            out[-n] = c.conjugate()
        return out

    @pytest.mark.parametrize("pid", [1, 3])
    def test_solution_matches_per_time_maps(self, tmp_path, pid):
        N, M, t_final = 64, 12, 0.05
        cfg = _write(tmp_path, f"problem_id = {pid}\nN = {N}\nM = {M}\n"
                               f"t_final = {t_final}\n")
        out = tmp_path / "out"
        assert main(["sa", "--config", str(cfg), "--out", str(out)]) == 0
        table = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1)

        problem = builtin_problem(pid).with_horizon(t_final)
        field = sa_field(problem, N, N + 2)
        grid = FourierGrid(L=problem.L, N=N)
        times = np.append(time_grid(build_basis(-0.4, M), t_final).nodes, t_final)
        u, ux = [], []
        for t in times:
            coeffs = self._per_time_map(field, float(t))
            u.append(synthesize_field(coeffs, grid, float(problem.g(float(t)))))
            ux.append(synthesize_derivative(coeffs, grid))
        assert table.shape == (len(times) * N, 6)
        assert np.array_equal(table[:, 1], np.repeat(times, N))
        assert np.max(np.abs(table[:, 2] - np.ravel(u))) <= 1e-14
        assert np.max(np.abs(table[:, 3] - np.ravel(ux))) <= 1e-14

    def test_invalid_mode_margin_rejected(self, tmp_path):
        cfg = _write(tmp_path, "problem_id = 1\nN = 6\nN0 = 6\nM = 4\n")
        out = tmp_path / "out"
        assert main(["sa", "--config", str(cfg), "--out", str(out)]) == 1


class TestCustomProblem:
    # Peclet numbers mu L / nu from 10 to 2000, either direction, and pure
    # advection: the advection is carried by the exact phase, so the time
    # grid resolves only the diffusion.
    @pytest.mark.parametrize("mu,nu", [(0.5, 0.1), (10, 0.1), (100, 0.1),
                                       (-100, 0.1), (5, 0)])
    @pytest.mark.parametrize("command", ["solve", "sa"])
    def test_advected_first_harmonic_matches_closed_form(self, tmp_path,
                                                         command, mu, nu):
        # With mu != 0 the trace u(0, t) is not zero; the sampler supplies
        # it, so the field follows exp(-nu w^2 t) sin(w (x - mu t)).
        L = 2.0
        pairs = {"mu": str(mu), "nu": str(nu), "L": str(L), "T": "1",
                 "u0": "first_harmonic", "N": "8", "M": "16"}
        cfg = _write(tmp_path, "".join(f"{k} = {v}\n" for k, v in pairs.items()))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        x, t, u = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1,
                             usecols=(0, 1, 2), unpack=True)
        w = 2.0 * np.pi / L
        exact = np.exp(-nu * w ** 2 * t) * np.sin(w * (x - mu * t))
        assert np.max(np.abs(u - exact)) <= 1e-12
        assert t.max() == 1.0
        # The sampler's exact solution scores the run too.
        assert float(_read_rows(out / "report.csv")[1][5]) <= 1e-12
        if command == "solve" and nu == 0:
            # Every rate is 0, so every unit system is the identity.
            assert np.all(solve_modes(*config_from_pairs(pairs)).units == 1.0)


class TestSweepCommands:
    def test_convergence_cell_count(self, tmp_path):
        cfg = _write(tmp_path, "problem_id = 1\nN = 4\nM = 4\n"
                               "N_range = 4:2:22\nM_range = 4:12\n")
        out = tmp_path / "out"
        assert main(["convergence", "--config", str(cfg), "--out", str(out)]) == 0
        rows = _read_rows(out / "sweep.csv")
        assert rows[0] == ["N", "M", "dne", "log10_dne"]
        assert len(rows) - 1 == 10 * 9

    def test_convergence_rows_sorted(self, tmp_path):
        cfg = _write(tmp_path, "problem_id = 2\nN = 4\nM = 4\n"
                               "N_range = 4:2:8\nM_range = 4:6\n")
        out = tmp_path / "out"
        main(["convergence", "--config", str(cfg), "--out", str(out)])
        rows = _read_rows(out / "sweep.csv")[1:]
        keys = [(int(r[0]), int(r[1])) for r in rows]
        assert keys == sorted(keys)

    def test_convergence_scores_a_custom_problem(self, tmp_path):
        # A sampler builds the problem with its exact solution, so the sweep
        # scores custom problems as it does the built-ins.
        cfg = _write(tmp_path, "mu = 0\nnu = 1\nL = 2\nT = 0.5\n"
                               "u0 = first_harmonic\nN = 4\n"
                               "M = 4\nN_range = 4:2:8\nM_range = 2:4\n")
        out = tmp_path / "out"
        assert main(["convergence", "--config", str(cfg), "--out", str(out)]) == 0
        rows = _read_rows(out / "sweep.csv")[1:]
        assert [(int(r[0]), int(r[1])) for r in rows] == [
            (n, m) for n in (4, 6, 8) for m in (2, 3, 4)]
        assert all(np.isfinite(float(r[2])) for r in rows)

    def test_conditioning_cardinality(self, tmp_path):
        cfg = _write(tmp_path, "problem_id = 1\nN = 4\nM = 4\n"
                               "lambda_list = -0.4,-0.2,0,0.5,1,1.5,2\n"
                               "M_list = 4,40,80\n")
        out = tmp_path / "out"
        assert main(["conditioning", "--config", str(cfg), "--out", str(out)]) == 0
        rows = _read_rows(out / "conditioning.csv")
        assert rows[0] == ["matrix", "n", "lambda", "M", "sigma_max",
                           "sigma_min", "cond"]
        body = rows[1:]
        assert sum(r[0] == "TQ" for r in body) == 21
        assert sum(r[0] == "A" for r in body) == 42

    def test_solve_then_conditioning_in_one_process(self, tmp_path):
        # Two commands through the one parser, each with its own outputs.
        cfg = _write(tmp_path, TABLE_ROW + "lambda_list = -0.4,0.5\nM_list = 4,8\n")
        solve_out, cond_out = tmp_path / "solve", tmp_path / "cond"
        assert main(["solve", "--config", str(cfg), "--out", str(solve_out)]) == 0
        assert main(["conditioning", "--config", str(cfg),
                     "--out", str(cond_out)]) == 0
        assert sorted(p.name for p in solve_out.iterdir()) == [
            "coefficients.csv", "report.csv", "solution.csv"]
        assert float(_read_rows(solve_out / "report.csv")[1][5]) <= 1e-14
        assert [p.name for p in cond_out.iterdir()] == ["conditioning.csv"]
        problem, config = config_from_pairs(
            {"problem_id": "1", "N": "4", "N0": "6", "M": "10",
             "lambda": "-0.4", "t_final": "0.1"})
        reports, _ = conditioning_study(problem, config, [-0.4, 0.5], [4, 8])
        rows = [[kind, int(n), *map(float, rest)] for kind, n, *rest
                in _read_rows(cond_out / "conditioning.csv")[1:]]
        assert rows == [[r.kind, r.n, r.lam, r.M, r.sigma_max, r.sigma_min,
                         r.cond] for r in reports]

    def test_bench_schema(self, tmp_path):
        cfg = _write(tmp_path, "problem_id = 1\nN = 4\nM = 8\nrepeats = 5\n")
        out = tmp_path / "out"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
        rows = _read_rows(out / "bench.csv")
        assert rows[0] == ["repeats", "median_total_s", "assembly_s",
                           "solve_s", "output_s"]
        assert len(rows) == 2
        assert rows[1][0] == "5"
        assert float(rows[1][1]) > 0.0

    def test_bench_runs_the_solve_command_repeats_times(self, tmp_path,
                                                       monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return solve_modes(*args, **kwargs)

        monkeypatch.setattr(cli, "solve_modes", counted)
        cfg = _write(tmp_path, "problem_id = 3\nN = 8\nM = 6\nrepeats = 4\n")
        out = tmp_path / "out"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(calls) == 4
        total, assembly, solve, output = map(
            float, _read_rows(out / "bench.csv")[1][1:])
        assert min(assembly, solve, output) >= 0.0
        assert total >= assembly + solve

    @pytest.mark.parametrize("pid", [1, 2, 3])
    @pytest.mark.parametrize("N,M", [(8, 4), (64, 12)])
    def test_bench_leaves_the_csvs_of_solve(self, tmp_path, pid, N, M):
        cfg = _write(tmp_path, f"problem_id = {pid}\nN = {N}\nM = {M}\n"
                               "repeats = 3\n")
        solve_out, bench_out = tmp_path / "solve", tmp_path / "bench"
        assert main(["solve", "--config", str(cfg), "--out", str(solve_out)]) == 0
        assert main(["bench", "--config", str(cfg), "--out", str(bench_out)]) == 0
        assert sorted(p.name for p in bench_out.iterdir()) == [
            "bench.csv", "coefficients.csv", "report.csv", "solution.csv"]
        for name in ("solution.csv", "coefficients.csv", "report.csv"):
            assert ((bench_out / name).read_bytes()
                    == (solve_out / name).read_bytes()), name


class TestFailureModes:
    def test_unknown_command_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate", "--config", "x", "--out", "y"])
        assert excinfo.value.code != 0

    def test_missing_config_reported(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["solve", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(out)])
        assert code == 1
        assert "nope.cfg" in capsys.readouterr().err

    @pytest.mark.parametrize("encoding,text", [
        ("utf-8-sig", "problem_id = 1\nN = 5\nM = 8\n"),
        ("latin-1", "problem_id = 1\nN = 4\nM = 8\n# caf\u00e9\n")],
        ids=["byte_order_mark", "latin_1"])
    def test_config_encoding_reported_by_file(self, tmp_path, capsys,
                                              encoding, text):
        # A byte-order mark is skipped, so the odd N is the error; a file
        # that is not UTF-8 is refused with its name.
        cfg = tmp_path / "enc.cfg"
        cfg.write_text(text, encoding=encoding)
        code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "Traceback" not in err and "\ufeff" not in err
        if encoding == "latin-1":
            assert f"cannot read config file {cfg}: " in err
        else:
            assert "N" in err and "unknown key" not in err

    def test_invalid_config_value_reported(self, tmp_path, capsys):
        cfg = _write(tmp_path, "problem_id = 1\nN = 5\nM = 8\n")
        code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "N" in capsys.readouterr().err

    def test_output_path_collision_reported(self, tmp_path, capsys):
        cfg = _write(tmp_path, TABLE_ROW)
        blocker = tmp_path / "blocked"
        blocker.write_text("occupied", encoding="utf-8")
        code = main(["solve", "--config", str(cfg), "--out", str(blocker)])
        assert code == 1
        assert "blocked" in capsys.readouterr().err

    def test_solve_leaves_global_random_state(self, tmp_path):
        cfg = _write(tmp_path, TABLE_ROW)
        out = tmp_path / "out"
        np.random.seed(123)
        state = np.random.get_state()[1].copy()
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        # No command draws random numbers, so the global stream is untouched.
        assert np.array_equal(np.random.get_state()[1], state)

    @pytest.mark.parametrize("flag", [["--parallel"], ["--seed", "7"]],
                             ids=["parallel", "seed"])
    def test_removed_flag_is_usage_error(self, tmp_path, flag):
        cfg = _write(tmp_path, TABLE_ROW)
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o"),
                  *flag])
        assert excinfo.value.code == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key,value", [("mu", "nan"), ("L", "inf")])
    def test_non_finite_value_refused_before_solving(self, tmp_path, capsys,
                                                     key, value):
        pairs = {"mu": "1", "nu": "1", "L": "2", "T": "0.2",
                 "u0": "first_harmonic", "N": "4", "M": "4"}
        pairs[key] = value
        cfg = _write(tmp_path, "".join(f"{k} = {v}\n" for k, v in pairs.items()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["solve", "--config", str(cfg),
                         "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "o" / "solution.csv").exists()

    @pytest.mark.parametrize("value", ["x", "3.5"])
    def test_non_integer_repeats_names_the_key(self, tmp_path, capsys, value):
        cfg = _write(tmp_path, f"problem_id = 1\nN = 4\nM = 8\nrepeats = {value}\n")
        code = main(["bench", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"invalid value for key 'repeats': '{value}'" in capsys.readouterr().err
        assert list((tmp_path / "o").iterdir()) == []

    @pytest.mark.parametrize("command,key,value,entry", [
        ("convergence", "N_range", "5:2:9", "5"),
        ("convergence", "M_range", "0:2", "0"),
        ("conditioning", "M_list", "0,4", "0"),
        ("conditioning", "lambda_list", "-0.7", "-0.7"),
        ("bench", "repeats", "2", "2"),
    ])
    def test_bad_list_entry_names_the_key(self, tmp_path, capsys, monkeypatch,
                                          command, key, value, entry):
        # Refused before any rule is built or any mode solved.
        def unreachable(*args, **kwargs):
            raise AssertionError("a rule was built")

        monkeypatch.setattr(gegenbauer, "build_basis", unreachable)
        reference_rule.cache_clear()
        cfg = _write(tmp_path, f"problem_id = 1\nN = 4\nM = 4\n{key} = {value}\n")
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert (f"invalid value for key '{key}': {entry} in '{value}'"
                in capsys.readouterr().err)
        assert list((tmp_path / "o").iterdir()) == []

    def test_usage_error_leaves_parser_usable(self, tmp_path):
        cfg = _write(tmp_path, TABLE_ROW)
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", "--config", str(cfg)])
        assert excinfo.value.code == 2
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(_read_rows(out / "solution.csv")) - 1 == (10 + 2) * 4

    # At this horizon the solve's bound |Re(alpha_n)| (M + 1) max |TQ|
    # passes its limit from mode 1 on, and |alpha_n| T overflows for the
    # higher modes.
    OVERFLOW = "problem_id = 3\nN = 64\nM = 8\nt_final = 1e308\n"

    @pytest.mark.parametrize("command,message", [
        ("solve", "error: mode 1: |Re(alpha_n)| T = 9.8696e+307 is too large: "
                  "the real Schur solve needs |Re(alpha_n)| (M + 1) max |TQ| "
                  "below 1e+150"),
        ("conditioning", "error: conditioning_study: A at n = 32, "
                         "lambda = -0.4, M = 8 is not finite"),
    ])
    def test_overflowing_mode_reported_without_traceback(
            self, tmp_path, capsys, command, message):
        cfg = _write(tmp_path, self.OVERFLOW)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--config", str(cfg),
                         "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1
        assert list((tmp_path / "o").iterdir()) == []

    @pytest.mark.parametrize("horizon", ["5e-324", "1e-320"])
    def test_underflowing_tq_reported_without_traceback(
            self, tmp_path, capsys, horizon):
        cfg = _write(tmp_path, "problem_id = 1\nN = 8\nM = 4\nlambda_list = -0.4\n"
                               f"M_list = 4\nT = {horizon}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["conditioning", "--config", str(cfg),
                         "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: conditioning_study: TQ at n = 0, "
                              "lambda = -0.4, M = 4 is not normal")
        assert err.endswith(" underflows\n") and err.count("\n") == 1
        assert list((tmp_path / "o").iterdir()) == []

    @pytest.mark.parametrize("command,key", [("solve", "lambda"),
                                             ("conditioning", "lambda_list")])
    def test_overflowing_lambda_reported_without_traceback(
            self, tmp_path, capsys, command, key):
        cfg = _write(tmp_path, f"problem_id = 1\nN = 4\nM = 8\n{key} = 100\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--config", str(cfg),
                         "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: lam = 100.0 is too large: the gamma "
                              "function terms of its weight mass")
        assert err.count("\n") == 1
        assert list((tmp_path / "o").iterdir()) == []

    @pytest.mark.parametrize("value", ["inf", "-0.4,nan"])
    def test_non_finite_lambda_list_names_the_key(self, tmp_path, capsys, value):
        cfg = _write(tmp_path, f"problem_id = 1\nN = 4\nM = 4\nlambda_list = {value}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["conditioning", "--config", str(cfg),
                         "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"invalid value for key 'lambda_list': '{value}'" in capsys.readouterr().err
        assert not (tmp_path / "o" / "conditioning.csv").exists()
