"""Independent closed-form oracle for the periodic advection-diffusion field.

Every Fourier mode of the N0-point interpolant of u0 evolves exactly as
c_k(t) = u0_hat_k exp(-alpha_k t), alpha_k = w_k (nu w_k + i mu). The oracle
takes u0_hat from ``numpy.fft`` and synthesizes the truncated sum (|k| <= N/2,
zero-sum zero mode, trace g(t) added) with an inverse FFT, so it shares no code
with ``adspectral.fourier`` or ``adspectral.semianalytic``.
"""

from __future__ import annotations

import numpy as np


def closed_form_field(u0, mu: float, nu: float, L: float, g_t: float,
                      N: int, N0: int, t: float) -> np.ndarray:
    """u(x_j, t) at the N nodes x_j = L j / N from the N0 samples of u0."""
    samples = np.asarray(u0(L * np.arange(N0) / N0), dtype=float)
    u_hat = np.fft.fft(samples) / N0
    k = np.arange(1, N // 2 + 1)
    w = 2.0 * np.pi * k / L
    c = u_hat[k] * np.exp(-(nu * w * w + 1j * mu * w) * t)
    spectrum = np.zeros(N, dtype=complex)
    # k = N/2 and k = -N/2 land on the same grid frequency; add.at sums both.
    np.add.at(spectrum, k % N, c)
    np.add.at(spectrum, (-k) % N, np.conj(c))
    spectrum[0] = -2.0 * c.real.sum()
    return (N * np.fft.ifft(spectrum)).real + g_t


def semianalytic_deviation(problem_id: int = 1, N: int = 64, t: float = 0.1) -> float:
    """Max deviation of the oracle from ``sa_evaluate_u`` on a built-in problem."""
    from adspectral import FourierGrid, sa_evaluate_u, sa_field, test_problem

    problem = test_problem(problem_id)
    N0 = N + 2
    ours = closed_form_field(problem.u0, problem.mu, problem.nu, problem.L,
                             float(problem.g(t)), N, N0, t)
    nodes = FourierGrid(L=problem.L, N=N).nodes
    theirs = sa_evaluate_u(sa_field(problem, N, N0), nodes, t)
    return float(np.max(np.abs(ours - theirs)))
