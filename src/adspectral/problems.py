"""Problem definitions, built-in test problems, and config file ingestion."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .fourier import InitialSpectrum, dft_coefficients
from .gegenbauer import LAMBDA_MIN_GUARD

COMPAT_TOL = 1e-12

DEFAULT_LAMBDA = -0.4

class ConfigError(ValueError):
    """Raised for unreadable, malformed, or invalid configuration files."""


@dataclass(frozen=True)
class ADProblem:
    """Periodic advection-diffusion problem data.

    u_t + mu u_x = nu u_xx on [0, L] x [0, T], initial data u0, boundary
    value g(t) = u(0, t) = u(L, t), and optionally the exact solution and
    its spatial derivative.
    """

    mu: float
    nu: float
    L: float
    T: float
    u0: Callable
    g: Callable
    exact: Optional[Callable] = None
    exact_dx: Optional[Callable] = None
    # spectrum's results by N0; a copy made by replace starts empty.
    _spectra: dict = field(default_factory=dict, init=False, compare=False,
                           repr=False)

    def __post_init__(self):
        for name in ("mu", "nu", "L", "T"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite; got {value}")
        if self.nu < 0:
            raise ValueError(f"nu must be nonnegative; got {self.nu}")
        if not self.L > 0:
            raise ValueError(f"L must be positive; got {self.L}")
        if not self.T > 0:
            raise ValueError(f"T must be positive; got {self.T}")
        gap = abs(float(self.u0(0.0)) - float(self.g(0.0)))
        if gap > COMPAT_TOL:
            raise ValueError(
                f"initial and boundary data incompatible: |u0(0) - g(0)| = {gap:.3e}"
            )

    def with_horizon(self, T: float) -> "ADProblem":
        return replace(self, T=T)

    def spectrum(self, N0: int) -> InitialSpectrum:
        """The DFT of u0 sampled at the N0 equispaced points L j / N0 of [0, L).

        u0 is sampled and transformed on the first call for each N0; later
        calls return the same read-only spectrum. A refused u0 is not kept.
        """
        if N0 not in self._spectra:
            x0 = self.L * np.arange(N0) / N0
            self._spectra[N0] = dft_coefficients(self.u0(x0), N0)
        return self._spectra[N0]

    def times(self, t) -> np.ndarray:
        """t as a 1-D float array, a scalar as an array of one; ValueError
        for any other shape or for a time outside [0, T]."""
        times = np.atleast_1d(np.asarray(t, dtype=float))
        if times.ndim > 1:
            raise ValueError(
                f"t must be a scalar or a 1-D array; got shape {times.shape}")
        outside = times[~((times >= 0.0) & (times <= self.T))]
        if outside.size:
            raise ValueError(f"t must lie in [0, {self.T}]; got {outside[0]}")
        return times


# Per kind of N, M, lambda or repeats value: its tests, each with its words,
# for all readers alike. An M of 2.5 would be truncated; is_integer() is
# False for NaN. Fewer than 3 repeats give no robust median.
_ENTRY_RULES = {
    "N": ((lambda n: n >= 2 and n % 2 == 0, "even and >= 2"),),
    "M": ((lambda m: m >= 1, ">= 1"),
          (lambda m: float(m).is_integer(), "a whole number")),
    "lambda": ((lambda lam: lam > -0.5 + LAMBDA_MIN_GUARD,
                f"> {-0.5 + LAMBDA_MIN_GUARD}"),),
    "repeats": ((lambda r: r >= 3, ">= 3"),),
}


def bad_entry(kind: str, values):
    """(value, rule in words) for the first value breaking a rule of kind, or None."""
    for value in values:
        for valid, words in _ENTRY_RULES[kind]:
            if not valid(value):
                return value, words
    return None


def _check_rule(kind: str, value) -> None:
    bad = bad_entry(kind, [value])
    if bad:
        raise ValueError(f"{kind} must be {bad[1]}; got {value}")


@dataclass(frozen=True)
class SolverConfig:
    """Discretization parameters: N spatial modes, M + 1 time nodes, index lam."""

    N: int
    M: int
    N0: int = 0  # 0 means "default to N + 2"
    lam: float = DEFAULT_LAMBDA

    def __post_init__(self):
        # A whole float is stored as its int; numpy takes no other as a size.
        # A bool is a numbers.Real, but no size or index.
        for name in ("N", "M", "N0"):
            value = getattr(self, name)
            whole = isinstance(value, numbers.Real) and float(value).is_integer()
            if isinstance(value, bool) or not whole:
                raise ValueError(f"{name} is not a whole number; got {value!r}")
            object.__setattr__(self, name, int(value))
        _check_rule("N", self.N)
        if self.N0 == 0:
            object.__setattr__(self, "N0", self.N + 2)
        if self.N0 <= self.N or self.N0 % 2:
            raise ValueError(
                f"N0 must be even and > N = {self.N}; got {self.N0}"
            )
        _check_rule("M", self.M)
        # Any other real, a numpy scalar or a Fraction, is stored as a float,
        # so that the rule cache can key on it.
        if isinstance(self.lam, bool) or not isinstance(self.lam, numbers.Real):
            raise ValueError(f"lam is not a real number; got {self.lam!r}")
        object.__setattr__(self, "lam", float(self.lam))
        if not math.isfinite(self.lam):
            raise ValueError(f"lam must be finite; got {self.lam}")
        _check_rule("lambda", self.lam)


def _first_harmonic(mu: float, nu: float, L: float, T: float) -> ADProblem:
    # u0 = sin(w x), w = 2 pi / L, keeps its shape: u = exp(-nu w^2 t)
    # sin(w (x - mu t)), so its trace is g(t) = -exp(-nu w^2 t) sin(w mu t).
    # Each closure divides by L only when called, after ADProblem has checked L.
    def exact(x, t):
        w = 2.0 * np.pi / L
        return np.exp(-nu * w ** 2 * t) * np.sin(w * (x - mu * t))

    def exact_dx(x, t):
        w = 2.0 * np.pi / L
        return w * np.exp(-nu * w ** 2 * t) * np.cos(w * (x - mu * t))

    def g(t):
        w = 2.0 * np.pi / L
        return -np.exp(-nu * w ** 2 * t) * np.sin(w * mu * t)

    return ADProblem(mu=mu, nu=nu, L=L, T=T, u0=lambda x: exact(x, 0.0), g=g,
                     exact=exact, exact_dx=exact_dx)


# (mu, nu, T) of the built-in problems, each the first harmonic on L = 2.
_PRESETS = {1: (0.0, 1.0, 0.2), 2: (0.0, 1.0 / np.pi ** 2, 1.0),
            3: (0.01, 0.1, 0.1)}


def test_problem(pid: int) -> ADProblem:
    """Return one of the three built-in problems, first_harmonic presets."""
    if pid not in _PRESETS:
        raise ValueError(f"unknown problem id {pid}; expected 1, 2 or 3")
    mu, nu, T = _PRESETS[pid]
    return _first_harmonic(mu, nu, 2.0, T)


# Named u0 samplers for custom problems; each maps (mu, nu, L, T) to the
# problem with that u0, the trace g(t) = u(0, t) that periodicity fixes for
# it, and its exact solution.
_U0_SAMPLERS = {"first_harmonic": _first_harmonic}

# Core keys per the config file contract, plus run-level extras consumed by
# the command line front end.
KNOWN_KEYS = {
    "problem_id", "mu", "nu", "L", "T", "N", "N0", "M", "lambda", "t_final",
    "u0", "N_range", "M_range", "lambda_list", "M_list", "repeats",
}


def parse_config_pairs(path) -> dict:
    """Read a flat key=value file (one pair per line, # comments, UTF-8).

    A leading byte-order mark is skipped. A file that cannot be read, or is
    not UTF-8, raises ConfigError naming the file.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        if key in pairs:
            raise ConfigError(f"{path}:{lineno}: duplicate key '{key}'")
        if not value:
            raise ConfigError(f"{path}:{lineno}: empty value for key '{key}'")
        pairs[key] = value
    return pairs


def _get(pairs: dict, key: str, cast, required: bool = False, default=None):
    if key not in pairs:
        if required:
            raise ConfigError(f"missing required key '{key}'")
        return default
    try:
        return cast(pairs[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid value for key '{key}': {pairs[key]!r}") from exc


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def _whole(text: str):
    # An int, or a finite float that is not whole, for the rules to refuse.
    value = _finite(text)
    return int(text) if value.is_integer() else value


def _parse_range(text: str) -> list:
    # "a" | "a:b" | "a:step:b", inclusive ends, colon syntax.
    parts = text.split(":")
    if len(parts) == 1:
        return [_whole(text)]
    nums = [int(p) for p in parts]
    if len(nums) == 2:
        lo, hi, step = nums[0], nums[1], 1
    elif len(nums) == 3:
        lo, step, hi = nums
    else:
        raise ValueError(text)
    if step <= 0 or hi < lo:
        raise ValueError(text)
    return list(range(lo, hi + 1, step))


def _parse_float_list(text: str) -> list[float]:
    return [_finite(p) for p in text.split(",") if p.strip()]


def _parse_int_list(text: str) -> list:
    if ":" in text:
        return _parse_range(text)
    return [_whole(p) for p in text.split(",") if p.strip()]


# Per run-level key: its parser, to a list, and the kind of its entries. The
# values are checked before any rule is built or file written, so a bad
# entry is reported with its key rather than by the stage that refuses it.
_RUN_KEYS = {
    "N_range": (_parse_range, "N"),
    "M_range": (_parse_range, "M"),
    "M_list": (_parse_int_list, "M"),
    "lambda_list": (_parse_float_list, "lambda"),
    "repeats": (lambda text: [int(text)], "repeats"),
}


def run_value(pairs: dict, key: str, default):
    """A run-level key's value or default, as a list whose every entry
    passes the rules of its kind: N, M, lambda or, for ``repeats``, the
    one whole number of runs, at least 3."""
    parse, kind = _RUN_KEYS[key]
    text = pairs.get(key, str(default))
    try:
        values = parse(text)
    except ValueError as exc:
        raise ConfigError(f"invalid value for key '{key}': {text!r}") from exc
    bad = bad_entry(kind, values)
    if bad:
        raise ConfigError(f"invalid value for key '{key}': "
                          f"{bad[0]!r} in {text!r} is not {bad[1]}")
    return values


def load_config(path) -> tuple[ADProblem, SolverConfig]:
    """``config_from_pairs`` applied to the pairs of a config file."""
    return config_from_pairs(parse_config_pairs(path))


def _positive(pairs: dict, key: str):
    value = _get(pairs, key, _finite)
    if value is not None and not value > 0:
        raise ConfigError(f"invalid value for key '{key}': must be positive")
    return value


def config_from_pairs(pairs: dict) -> tuple[ADProblem, SolverConfig]:
    """Validate parsed key=value pairs into (problem, config).

    Built-in problems are selected with problem_id (T may be overridden);
    custom problems give mu, nu, L, T and a named u0 sampler, which builds
    the problem with its trace g and its exact solution. t_final, when
    given, is the terminal time of the run and becomes the problem's
    horizon T. Every real-valued key must be finite; mu, nu, L, T, lambda
    and t_final are rejected here, with their key named, rather than deep
    inside a linear solve. Run-level extras (sweep ranges, repeats) stay
    in the pairs for the command to read.
    """
    if "problem_id" in pairs:
        forbidden = {"mu", "nu", "L", "u0"} & pairs.keys()
        if forbidden:
            raise ConfigError(
                f"keys {sorted(forbidden)} not allowed together with problem_id"
            )
        problem = test_problem(_get(pairs, "problem_id", int, required=True))
        T = _positive(pairs, "T")
        if T is not None:
            problem = problem.with_horizon(T)
    else:
        mu = _get(pairs, "mu", _finite, required=True)
        nu = _get(pairs, "nu", _finite, required=True)
        L = _get(pairs, "L", _finite, required=True)
        T = _get(pairs, "T", _finite, required=True)
        u0_name = _get(pairs, "u0", str, required=True)
        if u0_name not in _U0_SAMPLERS:
            raise ConfigError(
                f"invalid value for key 'u0': {u0_name!r} "
                f"(known: {sorted(_U0_SAMPLERS)})"
            )
        try:
            problem = _U0_SAMPLERS[u0_name](mu, nu, L, T)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    N = _get(pairs, "N", int, required=True)
    M = _get(pairs, "M", int, required=True)
    N0 = _get(pairs, "N0", int, default=0)
    lam = _get(pairs, "lambda", _finite, default=DEFAULT_LAMBDA)
    try:
        config = SolverConfig(N=N, M=M, N0=N0, lam=lam)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    t_final = _positive(pairs, "t_final")
    if t_final is not None:
        problem = problem.with_horizon(t_final)
    return problem, config
