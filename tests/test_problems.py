"""Built-in problems, their exact solutions, and config ingestion."""

import dataclasses
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from adspectral import ADProblem, ConfigError, SolverConfig, \
    conditioning_study, convergence_sweep, dft_coefficients, load_config, \
    solve_modes
from adspectral.cli import main
from adspectral.problems import bad_entry, config_from_pairs, \
    parse_config_pairs
from adspectral import test_problem as builtin_problem


class TestBuiltinProblems:
    def test_tp1_initial_value(self):
        problem = builtin_problem(1)
        assert float(problem.exact(0.5, 0.0)) == pytest.approx(1.0, abs=1e-15)

    def test_tp2_decay_value(self):
        problem = builtin_problem(2)
        assert float(problem.exact(0.5, 1.0)) == pytest.approx(np.exp(-1.0), abs=1e-15)

    def test_tp3_boundary_value(self):
        # Oracle: direct evaluation of the stated closed forms.
        problem = builtin_problem(3)
        expected = -np.exp(-0.01 * np.pi ** 2) * np.sin(0.001 * np.pi)
        assert float(problem.g(0.1)) == pytest.approx(expected, abs=1e-18)
        assert float(problem.exact(0.0, 0.1)) == pytest.approx(expected, abs=1e-18)
        assert expected == pytest.approx(-2.8463349860474e-3, abs=1e-16)

    def test_parameters(self):
        p1, p2, p3 = (builtin_problem(i) for i in (1, 2, 3))
        assert (p1.mu, p1.nu, p1.L, p1.T) == (0.0, 1.0, 2.0, 0.2)
        assert (p2.mu, p2.L, p2.T) == (0.0, 2.0, 1.0)
        assert p2.nu == pytest.approx(1.0 / np.pi ** 2)
        assert (p3.mu, p3.nu, p3.L, p3.T) == (0.01, 0.1, 2.0, 0.1)

    # Each built-in problem's (u0, g, exact, exact_dx), written out literally
    # in its own product order, so that the shared closed form keeps its bits.
    PARENT_FORMULAS = {
        1: (lambda x: np.sin(np.pi * x),
            lambda t: 0.0 * np.asarray(t),
            lambda x, t: np.exp(-np.pi ** 2 * t) * np.sin(np.pi * x),
            lambda x, t: np.pi * np.exp(-np.pi ** 2 * t) * np.cos(np.pi * x)),
        2: (lambda x: np.sin(np.pi * x),
            lambda t: 0.0 * np.asarray(t),
            lambda x, t: np.exp(-t) * np.sin(np.pi * x),
            lambda x, t: np.pi * np.exp(-t) * np.cos(np.pi * x)),
        3: (lambda x: np.sin(np.pi * x),
            lambda t: -np.exp(-np.pi ** 2 * 0.1 * t) * np.sin(np.pi * 0.01 * t),
            lambda x, t: -np.exp(-np.pi ** 2 * 0.1 * t)
            * np.sin(np.pi * (0.01 * t - x)),
            lambda x, t: np.pi * np.exp(-np.pi ** 2 * 0.1 * t)
            * np.cos(np.pi * (0.01 * t - x))),
    }

    @pytest.mark.parametrize("pid", [1, 2, 3])
    def test_presets_keep_the_formulas_bit_for_bit(self, pid):
        # np.array_equal ignores only the sign of zero: the preset's g of
        # problems 1 and 2 is -0.0 where the formula's is +0.0.
        problem = builtin_problem(pid)
        u0, g, exact, exact_dx = self.PARENT_FORMULAS[pid]
        x = problem.L * np.arange(1024) / 1024
        t = np.linspace(0.0, problem.T, 34)[1:]
        assert np.array_equal(problem.u0(x), u0(x))
        assert np.array_equal(problem.g(t), g(t))
        for new, old in ((problem.exact, exact), (problem.exact_dx, exact_dx)):
            assert np.array_equal(new(x[None, :], t[:, None]),
                                  old(x[None, :], t[:, None]))
            for tk in t:
                assert np.array_equal(new(x, tk), old(x, tk))

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError, match="problem id"):
            builtin_problem(4)

    @pytest.mark.parametrize("pid", [1, 2, 3])
    def test_exact_satisfies_pde(self, pid, pde_residual):
        problem = builtin_problem(pid)
        rng = np.random.default_rng(100 + pid)
        for _ in range(100):
            x = rng.uniform(0.05, problem.L - 0.05)
            t = rng.uniform(1e-3, problem.T)
            assert abs(pde_residual(problem, x, t)) <= 1e-8

    @pytest.mark.parametrize("pid", [1, 2, 3])
    def test_exact_periodicity(self, pid):
        problem = builtin_problem(pid)
        rng = np.random.default_rng(200 + pid)
        for t in rng.uniform(0.0, problem.T, 20):
            left = float(problem.exact(0.0, t))
            right = float(problem.exact(problem.L, t))
            assert abs(left - right) <= 1e-12

    @pytest.mark.parametrize("pid", [1, 2, 3])
    def test_exact_matches_initial_and_boundary_data(self, pid):
        problem = builtin_problem(pid)
        xs = np.linspace(0.0, problem.L, 33)
        assert_allclose(problem.exact(xs, 0.0), problem.u0(xs), atol=1e-10)
        ts = np.linspace(0.0, problem.T, 21)
        assert_allclose(problem.exact(0.0, ts), problem.g(ts), atol=1e-10)

    @pytest.mark.parametrize("pid", [1, 2, 3])
    def test_exact_dx_matches_difference_quotient(self, pid):
        problem = builtin_problem(pid)
        h = 1e-6
        for x, t in [(0.3, 0.01), (1.2, 0.05)]:
            fd = (problem.exact(x + h, t) - problem.exact(x - h, t)) / (2 * h)
            assert float(problem.exact_dx(x, t)) == pytest.approx(float(fd), abs=1e-8)

    def test_incompatible_data_rejected(self):
        with pytest.raises(ValueError, match="incompatible"):
            ADProblem(mu=0.0, nu=1.0, L=2.0, T=1.0,
                      u0=lambda x: np.cos(np.pi * x),
                      g=lambda t: 0.0 * np.asarray(t))

    def test_with_horizon(self):
        problem = builtin_problem(1).with_horizon(0.1)
        assert problem.T == 0.1
        assert problem.nu == 1.0

    @pytest.mark.parametrize("T", [0.0, -1.0])
    def test_with_horizon_rejects_nonpositive(self, T):
        with pytest.raises(ValueError, match="T must be positive"):
            builtin_problem(1).with_horizon(T)

    @pytest.mark.parametrize("pid", [1, 2, 3])
    def test_spectrum_is_the_dft_of_equispaced_samples(self, pid):
        problem = builtin_problem(pid)
        x0 = problem.L * np.arange(10) / 10
        assert np.array_equal(problem.spectrum(10).values,
                              dft_coefficients(problem.u0(x0), 10).values)

    def test_spectrum_refuses_an_odd_count(self):
        with pytest.raises(ValueError,
                           match="^N0 must be even and >= 4; got 5$"):
            builtin_problem(1).spectrum(5)

    def test_spectrum_sampled_once_per_count(self):
        problem = builtin_problem(3)
        samples = []

        def u0(x, u0=problem.u0):
            samples.append(np.size(x))
            return u0(x)

        problem = dataclasses.replace(problem, u0=u0)
        samples.clear()  # the compatibility check's sample at x = 0
        first = problem.spectrum(10)
        assert problem.spectrum(10) is first
        assert not first.values.flags.writeable
        problem.spectrum(12)
        assert samples == [10, 12]
        # The kept spectra take no part in equality, hashing or repr.
        fresh = dataclasses.replace(problem)
        assert fresh == problem and hash(fresh) == hash(problem)
        assert repr(fresh) == repr(problem)

    @pytest.mark.parametrize("copy", [
        lambda problem: problem.with_horizon(0.1),
        lambda problem: dataclasses.replace(problem, mu=0.5),
        lambda problem: dataclasses.replace(
            problem, u0=lambda x: 2.0 * np.sin(np.pi * x), g=lambda t: 0.0),
    ], ids=["with_horizon", "replace-mu", "replace-u0"])
    def test_copies_start_without_spectra(self, copy):
        problem = builtin_problem(1)
        kept = problem.spectrum(10)
        other = copy(problem)
        spectrum = other.spectrum(10)
        assert spectrum is not kept
        x0 = other.L * np.arange(10) / 10
        assert np.array_equal(spectrum.values,
                              dft_coefficients(other.u0(x0), 10).values)

    def test_non_finite_u0_refused_on_every_call(self):
        problem = ADProblem(
            mu=0.0, nu=1.0, L=2.0, T=0.2,
            u0=lambda x: np.where(np.isclose(x, 1.0), np.nan, np.sin(np.pi * x)),
            g=lambda t: 0.0 * np.asarray(t))
        for _ in range(2):
            with pytest.raises(ValueError,
                               match="^u0 is not finite: sample 3 of 6 is nan$"):
                problem.spectrum(6)
            with pytest.raises(ValueError, match="^u0 is not finite"):
                solve_modes(problem, SolverConfig(N=4, M=6))

    def test_times_of_a_scalar_and_of_an_array(self):
        problem = builtin_problem(1)
        assert np.array_equal(problem.times(0.1), [0.1])
        assert np.array_equal(problem.times([0.0, 0.2]), [0.0, 0.2])

    @pytest.mark.parametrize("t, message", [
        ([[0.01, 0.02]], "t must be a scalar or a 1-D array; got shape (1, 2)"),
        ([0.1, 0.3], "t must lie in [0, 0.2]; got 0.3"),
        (-1e-300, "t must lie in [0, 0.2]; got -1e-300"),
        (float("nan"), "t must lie in [0, 0.2]; got nan"),
    ], ids=["2-D", "past-T", "negative", "nan"])
    def test_times_refuses(self, t, message):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            builtin_problem(1).times(t)


class TestSolverConfig:
    def test_defaults(self):
        config = SolverConfig(N=4, M=10)
        assert config.N0 == 6
        assert config.lam == -0.4

    def test_rejects_odd_n(self):
        with pytest.raises(ValueError, match="N"):
            SolverConfig(N=5, M=10)

    def test_rejects_n0_not_above_n(self):
        with pytest.raises(ValueError, match="N0"):
            SolverConfig(N=6, M=10, N0=6)
        with pytest.raises(ValueError, match="N0"):
            SolverConfig(N=6, M=10, N0=9)

    def test_rejects_small_m(self):
        with pytest.raises(ValueError, match="M"):
            SolverConfig(N=4, M=0)

    def test_rejects_degenerate_lambda(self):
        with pytest.raises(ValueError, match="lambda"):
            SolverConfig(N=4, M=10, lam=-0.5)

    @pytest.mark.parametrize("field, value", [
        ("N", 8.5), ("M", 2.5), ("N0", 10.5)])
    def test_rejects_non_whole_size(self, field, value):
        # Refused by name here, not later as a TypeError from numpy.
        sizes = {"N": 8, "M": 2, "N0": 10, field: value}
        with pytest.raises(ValueError,
                           match=f"^{field} is not a whole number; got {value}$"):
            SolverConfig(**sizes)

    @pytest.mark.parametrize("value", [True, False, np.True_])
    @pytest.mark.parametrize("field, words", [
        ("N", "is not a whole number"), ("M", "is not a whole number"),
        ("N0", "is not a whole number"), ("lam", "is not a real number")])
    def test_rejects_bool(self, field, words, value):
        # A bool is a numbers.Real and float(True) is whole, but no size or
        # index: M = True would build M = 1.
        with pytest.raises(ValueError,
                           match=f"^{field} {words}; got {value!r}$"):
            SolverConfig(**{"N": 8, "M": 2, "N0": 10, field: value})

    @pytest.mark.parametrize("value", [np.array(0.2), "0.2", None, 0.2j,
                                       [0.2]],
                             ids=["0d-array", "str", "None", "complex", "list"])
    def test_rejects_non_real_lambda(self, value):
        # Refused in the rule words, not later as an unhashable key in the
        # rule cache or a bare TypeError from math.isfinite.
        with pytest.raises(ValueError,
                           match=re.escape(f"lam is not a real number; got {value!r}")):
            SolverConfig(N=8, M=2, lam=value)

    @pytest.mark.parametrize("value", [np.float32(0.25), np.int64(1),
                                       Fraction(1, 4), 1])
    def test_real_lambda_stored_as_float(self, value):
        config = SolverConfig(N=8, M=2, lam=value)
        assert type(config.lam) is float and config.lam == float(value)
        hash(config)

    @pytest.mark.parametrize("field", ["N", "M", "N0"])
    def test_whole_float_size_stored_as_int(self, field):
        sizes = {"N": 8, "M": 2, "N0": 10}
        config = SolverConfig(**{**sizes, field: float(sizes[field])})
        assert type(getattr(config, field)) is int
        assert config == SolverConfig(**sizes)
        sol = solve_modes(builtin_problem(1), config)
        assert sol.table.shape == (3, 9)


# Per kind of entry: the SolverConfig field, the sweeps that take such an
# entry with the words that name it, and the command and list key that read
# one.
READERS = {
    "N": ("N", [("convergence_sweep", lambda p, c, v:
                 convergence_sweep(p, [v], [4], c.lam), "N_range entry")],
          [("convergence", "N_range")]),
    "M": ("M", [("convergence_sweep", lambda p, c, v:
                 convergence_sweep(p, [4], [v], c.lam), "M_range entry"),
                ("conditioning_study", lambda p, c, v:
                 conditioning_study(p, c, [c.lam], [v]), "M_list entry")],
          [("convergence", "M_range"), ("conditioning", "M_list")]),
    "lambda": ("lam", [("convergence_sweep", lambda p, c, v:
                        convergence_sweep(p, [4], [4], v), "lam"),
                       ("conditioning_study", lambda p, c, v:
                        conditioning_study(p, c, [v], [c.M]),
                        "lambda_list entry")],
               [("conditioning", "lambda_list")]),
}


@pytest.mark.parametrize("kind,value", [
    ("N", 3), ("N", 0), ("M", 0), ("M", 2.5), ("lambda", -0.5),
    ("lambda", float("nan"))])
def test_every_reader_refuses_a_bad_entry_in_the_rule_words(
        tmp_path, capsys, kind, value):
    # problems' one rule table decides, and names, what SolverConfig, the
    # sweeps and the command line list keys refuse.
    words = bad_entry(kind, [value])[1]
    field, sweeps, keys = READERS[kind]
    problem, config = builtin_problem(1), SolverConfig(N=4, M=4)
    with pytest.raises(ValueError) as info:
        SolverConfig(**{"N": 4, "M": 4, field: value})
    if not np.isnan(value):
        assert words in str(info.value)
    else:  # NaN is refused as not finite before any rule
        assert str(info.value) == "lam must be finite; got nan"
    for caller, sweep, name in sweeps:
        with pytest.raises(ValueError, match=re.escape(
                f"{caller}: {name} {value!r} is not {words}")):
            sweep(problem, config, value)
    for command, key in keys:
        cfg = tmp_path / f"{key}.cfg"
        cfg.write_text(f"problem_id = 1\nN = 4\nM = 4\n{key} = {value}\n",
                       encoding="utf-8")
        out = tmp_path / f"out-{key}"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        if not np.isnan(value):
            assert err == (f"error: invalid value for key '{key}': {value!r} "
                           f"in '{value}' is not {words}\n")
        else:  # the list text takes only finite numbers
            assert err == f"error: invalid value for key '{key}': 'nan'\n"
        assert list(out.iterdir()) == []


@pytest.mark.parametrize("field,value", [
    ("mu", np.nan), ("nu", np.inf), ("L", np.inf), ("T", np.inf),
    ("T", np.nan), ("lam", np.inf), ("lam", np.nan)])
def test_non_finite_data_rejected_where_built(field, value):
    # Refused in __post_init__, before any sampling, assembly or LAPACK call.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            if field == "lam":
                SolverConfig(N=4, M=10, lam=value)
            else:
                dataclasses.replace(builtin_problem(1), **{field: value})


class TestLoadConfig:
    def _write(self, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(text, encoding="utf-8")
        return path

    def test_table_row_config(self, tmp_path):
        path = self._write(tmp_path, """
# accuracy comparison row
problem_id = 1
N = 4
N0 = 6
M = 10
lambda = -0.4
t_final = 0.1
""")
        problem, config = load_config(path)
        assert (problem.mu, problem.nu, problem.L) == (0.0, 1.0, 2.0)
        assert (config.N, config.N0, config.M, config.lam) == (4, 6, 10, -0.4)

    def test_odd_n_reported_by_name(self, tmp_path):
        path = self._write(tmp_path, "problem_id = 1\nN = 5\nM = 10\n")
        with pytest.raises(ConfigError, match="N"):
            load_config(path)

    def test_lambda_defaults(self, tmp_path):
        path = self._write(tmp_path, "problem_id = 2\nN = 4\nM = 8\n")
        _, config = load_config(path)
        assert config.lam == -0.4
        assert config.N0 == 6

    def test_unknown_key_rejected(self, tmp_path):
        path = self._write(tmp_path, "problem_id = 1\nN = 4\nM = 8\nfoo = 1\n")
        with pytest.raises(ConfigError, match="unknown key 'foo'"):
            load_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = self._write(tmp_path, "problem_id = 1\nN = 4\nN = 6\nM = 8\n")
        with pytest.raises(ConfigError, match="duplicate key 'N'"):
            load_config(path)

    def test_missing_required_key_reported(self, tmp_path):
        path = self._write(tmp_path, "problem_id = 1\nN = 4\n")
        with pytest.raises(ConfigError, match="missing required key 'M'"):
            load_config(path)

    def test_invalid_value_reported_with_key(self, tmp_path):
        path = self._write(tmp_path, "problem_id = 1\nN = four\nM = 8\n")
        with pytest.raises(ConfigError, match="invalid value for key 'N'"):
            load_config(path)

    def test_problem_id_conflicts_rejected(self, tmp_path):
        path = self._write(tmp_path, "problem_id = 1\nmu = 3\nN = 4\nM = 8\n")
        with pytest.raises(ConfigError, match="problem_id"):
            load_config(path)

    def test_custom_problem(self, tmp_path):
        path = self._write(tmp_path, """
mu = 1.0
nu = 1.0
L = 2.0
T = 0.2
u0 = first_harmonic
N = 50
M = 4
""")
        problem, config = load_config(path)
        # The sampler's exact solution, the advected harmonic.
        x = np.linspace(0.0, 2.0, 17)[:, None]
        t = np.linspace(0.0, 0.2, 9)
        w = 2.0 * np.pi / 2.0
        assert np.array_equal(problem.exact(x, t), np.exp(-1.0 * w ** 2 * t)
                              * np.sin(w * (x - 1.0 * t)))
        assert np.array_equal(problem.exact_dx(x, t), w * np.exp(-1.0 * w ** 2 * t)
                              * np.cos(w * (x - 1.0 * t)))
        assert problem.mu == 1.0
        assert float(problem.u0(0.5)) == pytest.approx(1.0)
        # The sampler's own trace u(0, t) of the advected harmonic.
        assert float(problem.g(0.1)) == pytest.approx(
            -np.exp(-np.pi ** 2 * 0.1) * np.sin(np.pi * 0.1), rel=1e-15)
        assert config.N == 50

    def test_negative_nu_refused_by_name(self):
        pairs = {"mu": "0.5", "nu": "-0.1", "L": "2", "T": "1",
                 "u0": "first_harmonic", "N": "8", "M": "4"}
        with pytest.raises(ConfigError, match=r"nu must be nonnegative; got -0\.1"):
            config_from_pairs(pairs)

    def test_custom_problem_unknown_sampler(self, tmp_path):
        path = self._write(tmp_path,
                           "mu = 1\nnu = 1\nL = 2\nT = 1\nu0 = bump\nN = 4\nM = 4\n")
        with pytest.raises(ConfigError, match="u0"):
            load_config(path)

    def test_custom_zero_period_refused(self, tmp_path):
        # The sampler's u0 and trace divide by L; ADProblem refuses L = 0
        # before either is called.
        path = self._write(tmp_path, "mu = 1\nnu = 1\nL = 0\nT = 1\n"
                                     "u0 = first_harmonic\nN = 4\nM = 4\n")
        with pytest.raises(ConfigError, match="L must be positive"):
            load_config(path)

    def test_horizon_override(self, tmp_path):
        path = self._write(tmp_path, "problem_id = 1\nT = 0.1\nN = 4\nM = 8\n")
        problem, _ = load_config(path)
        assert problem.T == 0.1

    def test_bad_t_final_rejected(self, tmp_path):
        path = self._write(tmp_path, "problem_id = 1\nN = 4\nM = 8\nt_final = -1\n")
        with pytest.raises(ConfigError, match="t_final"):
            load_config(path)

    @pytest.mark.parametrize("key,value", [
        ("mu", "nan"), ("nu", "inf"), ("L", "inf"), ("T", "nan"), ("T", "-inf")])
    def test_non_finite_custom_value_rejected(self, tmp_path, key, value):
        pairs = {"mu": "1", "nu": "1", "L": "2", "T": "0.2"}
        pairs[key] = value
        text = "".join(f"{k} = {v}\n" for k, v in pairs.items())
        path = self._write(tmp_path, text + "u0 = first_harmonic\n"
                                            "N = 4\nM = 4\n")
        with pytest.raises(ConfigError, match=f"invalid value for key '{key}'"):
            load_config(path)

    @pytest.mark.parametrize("key,value", [
        ("T", "inf"), ("t_final", "inf"), ("t_final", "nan"), ("lambda", "inf")])
    def test_non_finite_builtin_value_rejected(self, tmp_path, key, value):
        path = self._write(tmp_path, f"problem_id = 1\nN = 4\nM = 8\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=f"invalid value for key '{key}'"):
            load_config(path)

    def test_t_final_returned_from_one_parse(self, tmp_path):
        path = self._write(tmp_path, "problem_id = 2\nN = 4\nM = 8\nt_final = 0.5\n")
        problem, _ = config_from_pairs(parse_config_pairs(path))
        assert problem.T == 0.5
        path = self._write(tmp_path, "problem_id = 2\nN = 4\nM = 8\n")
        problem, _ = config_from_pairs(parse_config_pairs(path))
        assert problem.T == 1.0

    def test_g_key_refused_as_unknown(self, tmp_path):
        path = self._write(tmp_path, "mu = 0\nnu = 1\nL = 2\nT = 1\n"
                                     "u0 = first_harmonic\ng = zero\nN = 4\nM = 4\n")
        with pytest.raises(ConfigError, match="unknown key 'g'"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.cfg")

    def test_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "bom.cfg"
        path.write_text("problem_id = 2\nN = 4\nM = 8\n", encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert parse_config_pairs(path) == {"problem_id": "2", "N": "4", "M": "8"}

    def test_non_utf8_file_refused_by_name(self, tmp_path):
        path = tmp_path / "latin1.cfg"
        path.write_text("problem_id = 1\nN = 4\nM = 8\n# d\u00e9j\u00e0 vu\n",
                        encoding="latin-1")
        with pytest.raises(ConfigError, match=rf"^cannot read config file "
                                              rf"{re.escape(str(path))}: "
                                              r"'utf-8' codec can't decode"):
            parse_config_pairs(path)

    def test_malformed_line(self, tmp_path):
        path = self._write(tmp_path, "problem_id 1\n")
        with pytest.raises(ConfigError, match="key=value"):
            load_config(path)
