"""Command line front end: file outputs, schemas, determinism, exit codes."""

import csv
import io
import warnings

import numpy as np
import pytest

from adspectral import (FourierGrid, build_basis, sa_coefficient, sa_field,
                        synthesize_derivative, synthesize_field, time_grid)
from adspectral import test_problem as builtin_problem
from adspectral.cli import FLOAT, INT, _write_table, main

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
        _write_table(path, self.HEADER, [INT, FLOAT, FLOAT, FLOAT], rows)
        assert path.read_text(encoding="utf-8") == \
            self._reference_text(self.HEADER, self.ROWS)

    def test_text_columns_and_empty_table(self, tmp_path):
        rows = [["TQ", 0, 1.5, ""], ["A", 12, -0.0, "x"]]
        path = tmp_path / "t.csv"
        _write_table(path, self.HEADER, ["%s", INT, FLOAT, "%s"], rows)
        assert path.read_text(encoding="utf-8") == \
            self._reference_text(self.HEADER, rows)
        _write_table(path, self.HEADER, [INT] * 4, np.empty((0, 4)))
        assert path.read_text(encoding="utf-8") == "n,a,b,c\n"


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
        pos = {n: sa_coefficient(field, n, t) for n in range(1, half + 1)}
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

    def test_bench_schema(self, tmp_path):
        cfg = _write(tmp_path, "problem_id = 1\nN = 4\nM = 8\nrepeats = 5\n")
        out = tmp_path / "out"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
        rows = _read_rows(out / "bench.csv")
        assert rows[0] == ["repeats", "median_total_s", "assembly_s",
                           "solve_s", "synthesis_s"]
        assert rows[1][0] == "5"
        assert float(rows[1][1]) > 0.0


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
                 "u0": "first_harmonic", "g": "zero", "N": "4", "M": "4"}
        pairs[key] = value
        cfg = _write(tmp_path, "".join(f"{k} = {v}\n" for k, v in pairs.items()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["solve", "--config", str(cfg),
                         "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "o" / "solution.csv").exists()
