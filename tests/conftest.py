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

    ``rates_with(ratios)`` patches solver.mode_rate so that mode n has the
    real rate at which an eigenvalue of its real system I + Re(alpha) TQ has
    modulus ratios[n] * PIVOT_RTOL * (1 + |alpha| ||TQ||), the threshold of
    the pivot test, and returns (problem, config, rates). The 7 x 7 Q has
    one real eigenvalue, a 1x1 diagonal block s_jj of its real Schur factor
    (about 0.0051), and every chosen mode takes a rate near its root
    alpha = -1 / r, r = (T/2) s_jj, at which 1 + alpha r = 0.
    """

    def patch(ratios):
        problem, config = builtin_problem(3), SolverConfig(N=8, M=6)
        _, tq, _, _ = _prepare(problem, config)
        s = reference_rule(config.lam, config.M)[1].real_schur[0]
        sub = np.concatenate([[0.0], s.diagonal(-1), [0.0]])
        j = int(np.flatnonzero((sub[:-1] == 0) & (sub[1:] == 0))[0])
        r = 0.5 * problem.T * s[j, j]
        root = -1.0 / r
        norm = 1.0 + abs(root) * np.linalg.norm(tq.entries, np.inf)
        rates = mode_rate(problem, np.arange(1, config.N // 2 + 1))
        for n, ratio in ratios.items():
            rates[n - 1] = root + ratio * PIVOT_RTOL * norm / abs(r)
        true_rate = solver.mode_rate
        monkeypatch.setattr(solver, "mode_rate", lambda problem, ns: (
            rates if np.ndim(ns) else true_rate(problem, ns)))
        return problem, config, rates

    return patch
