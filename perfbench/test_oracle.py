"""The rough_modes oracle agrees with the package's closed-form variant.

Run from the repository root: python3 -m pytest perfbench/test_oracle.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from oracle import closed_form_field, semianalytic_deviation  # noqa: E402


@pytest.mark.parametrize("problem_id", [1, 2, 3])
def test_matches_sa_evaluate_u(problem_id):
    assert semianalytic_deviation(problem_id) <= 1e-12


def test_matches_exact_solution_of_problem_1():
    # u0 = sin(pi x) on L = 2 is one mode, so the closed form is the exact solution.
    N, t = 32, 0.05
    u = closed_form_field(lambda x: np.sin(np.pi * x), 0.0, 1.0, 2.0, 0.0,
                          N, N + 2, t)
    x = 2.0 * np.arange(N) / N
    assert np.max(np.abs(u - np.exp(-np.pi ** 2 * t) * np.sin(np.pi * x))) <= 1e-14
