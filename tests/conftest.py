import numpy as np
import pytest

from adspectral import SolverConfig, mode_rate
from adspectral import solver
from adspectral import test_problem as builtin_problem
from adspectral.gegenbauer import reference_rule
from adspectral.solver import PIVOT_RTOL, _prepare

LD = np.longdouble


@pytest.fixture
def pde_residual():
    """Finite-difference residual u_t + mu u_x - nu u_xx of problem.exact.

    Fourth-order central differences with step 1e-5, evaluated in extended
    precision: plain float64 second differences carry ~1e-5 rounding noise,
    far above the transcription tolerances being checked.
    """

    def probe(problem, x, t, step=1e-5):
        h = LD(step)
        x = LD(x)
        t = LD(t)
        u = problem.exact
        ut = (-u(x, t + 2 * h) + 8 * u(x, t + h)
              - 8 * u(x, t - h) + u(x, t - 2 * h)) / (12 * h)
        ux = (-u(x + 2 * h, t) + 8 * u(x + h, t)
              - 8 * u(x - h, t) + u(x - 2 * h, t)) / (12 * h)
        uxx = (-u(x + 2 * h, t) + 16 * u(x + h, t) - 30 * u(x, t)
               + 16 * u(x - h, t) - u(x - 2 * h, t)) / (12 * h * h)
        return float(ut + problem.mu * ux - problem.nu * uxx)

    return probe


@pytest.fixture
def rates_with(monkeypatch):
    """Put chosen modes of problem 3 at N = 8, M = 6 near the pivot threshold.

    ``rates_with(ratios)`` patches solver.mode_rate so that mode n has an
    eigenvalue of modulus ratios[n] * PIVOT_RTOL * (1 + |alpha| ||TQ||), the
    threshold of the pivot test, and returns (problem, config, rates). Mode
    n takes the n-th eigenvalue r of (T/2) R, since 1 + alpha r = 0 at
    alpha = -1/r.
    """

    def patch(ratios):
        problem, config = builtin_problem(3), SolverConfig(N=8, M=6)
        _, tq, _, _ = _prepare(problem, config)
        r = np.diag(0.5 * problem.T
                    * reference_rule(config.lam, config.M)[1].schur[0])
        rates = mode_rate(problem, np.arange(1, config.N // 2 + 1))
        for n, ratio in ratios.items():
            root = -1.0 / r[n]
            norm = 1.0 + abs(root) * np.linalg.norm(tq.entries, np.inf)
            rates[n - 1] = root + ratio * PIVOT_RTOL * norm / abs(r[n])
        true_rate = solver.mode_rate
        monkeypatch.setattr(solver, "mode_rate", lambda problem, ns: (
            rates if np.ndim(ns) else true_rate(problem, ns)))
        return problem, config, rates

    return patch
