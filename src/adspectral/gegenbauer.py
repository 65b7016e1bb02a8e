"""Gegenbauer-Gauss quadrature, barycentric interpolation, and integration matrices.

The temporal discretization rests on the Gauss nodes of the ultraspherical
weight (1 - x^2)^(lam - 1/2) on (-1, 1), the barycentric form of the Lagrange
basis at those nodes, and the first-order operational integration matrix Q
whose row l maps nodal samples f(z_j) to the primitive value at z_l:

    (Q f)_l  ~  integral of f from -1 to z_l.

All values are plain numpy arrays, frozen after construction. The cached
reference rule of a (lam, M) keeps, besides the nodes and Q, what every
solve and interpolation at the end of the interval derives from the rule
alone, each built on first use: the Lagrange row l(1) at s = 1 with the
basis; the real Schur factors of Q, the 1x1 and 2x2 diagonal blocks of S
and Z^T 1 with Q.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import eigh_tridiagonal, schur as _schur

# The quadrature degenerates as lam -> -1/2 (weight mass blows up); keep a
# small buffer above the theoretical limit.
LAMBDA_MIN_GUARD = 1e-6

# Evaluation points closer than this to a node take the nodal value directly
# (removable singularity of the barycentric ratio).
NODE_COINCIDENCE_TOL = 1e-14

# Reference rules (basis and Q) kept by reference_rule, least recently used
# evicted first. Q and its real Schur factors are O(M^3) to build and depend
# only on (lam, M); an entry at M = 64 holds about 35 kB for Q and, once a
# solve has used them, about 70 kB more for the factors Z and S. The
# Gauss-Legendre rules that build Q share this bound; one holds about 2 kB
# at M = 256.
RULE_CACHE_SIZE = 32

# Products of Lagrange values and nodal values that bary_interpolate forms
# at a time (256 kB of doubles), so that many points at a large N never
# take more than about one copy of the nodal values.
BARY_BLOCK_DOUBLES = 2 ** 15

# Doubles in one row block's Lagrange values while Q is built (256 kB): M <= 38
# takes one block. Larger blocks measured slower from M = 40 up, as each
# temporary outgrows the CPU cache.
Q_BLOCK_DOUBLES = 2 ** 15


@dataclass(frozen=True, eq=False)
class GegenbauerBasis:
    """Gauss nodes, Christoffel numbers and barycentric weights for one index.

    Attributes
    ----------
    lam : float
        Gegenbauer index, must exceed -1/2 + LAMBDA_MIN_GUARD.
    order : int
        Highest node index; the rule has order + 1 nodes.
    nodes : ndarray
        Strictly increasing, interior to (-1, 1), symmetric about 0.
    christoffel : ndarray
        Positive quadrature weights summing to the weight-function mass.
    bary_weights : ndarray
        Barycentric weights with alternating signs; the global positive scale
        is arbitrary since it cancels in the barycentric ratio.
    """

    lam: float
    order: int
    nodes: np.ndarray
    christoffel: np.ndarray
    bary_weights: np.ndarray

    @functools.cached_property
    def end_row(self) -> np.ndarray:
        """The Lagrange row l_j(1) at the end of the interval, read-only.

        The row ``bary_interpolate`` reads at t = 1, the horizon of every
        time grid: built on first use, with the same operations as any
        other row.
        """
        row = _lagrange_matrix(self, 1.0)[0]
        row.setflags(write=False)
        return row


class SchurBlocks(NamedTuple):
    """The diagonal blocks of a quasi-upper triangular Schur factor S, by kind.

    ``starts`` holds the first row i of each 2x2 block, ascending, as a
    tuple of ints; ``single`` (J,) the entries of the 1x1 blocks, in order;
    ``paired`` (K, 2) the diagonal s[i + 1, i + 1], s[i, i] of each 2x2
    block, and ``coupling`` (K, 2) its s[i, i + 1], s[i + 1, i]. The
    arrays are read-only.
    """

    starts: tuple
    single: np.ndarray
    paired: np.ndarray
    coupling: np.ndarray

    @classmethod
    def of(cls, s: np.ndarray) -> SchurBlocks:
        """The blocks of s: a nonzero s[i + 1, i] starts a 2x2 block at row i."""
        starts = np.flatnonzero(s.diagonal(-1))
        ends = starts + 1
        diagonal = s.diagonal()
        paired = np.zeros(len(s), dtype=bool)
        paired[starts] = paired[ends] = True
        blocks = cls(starts=tuple(starts.tolist()),
                     single=diagonal[~paired],
                     paired=np.stack((diagonal[ends], diagonal[starts]), axis=1),
                     coupling=np.stack((s[starts, ends], s[ends, starts]), axis=1))
        for arr in blocks[1:]:
            arr.setflags(write=False)
        return blocks


@dataclass(frozen=True, eq=False)
class IntegrationMatrix:
    """Dense first-order integration matrix at the basis nodes."""

    order: int
    entries: np.ndarray

    @functools.cached_property
    def real_schur(self) -> tuple[np.ndarray, np.ndarray]:
        """Real Schur factors (S, Z) with entries = Z S Z^T, read-only.

        S is quasi-upper triangular in LAPACK's standard form: a 1x1
        diagonal block holds a real eigenvalue, and a 2x2 block
        [[a, b], [c, a]] with b c < 0 the pair a +- i sqrt(-b c). Z is
        orthogonal. Computed on first use and kept with the matrix, so the
        cached reference rule factors each Q once.
        """
        s, z = _schur(self.entries, output="real")
        for arr in (s, z):
            arr.setflags(write=False)
        return s, z

    @functools.cached_property
    def schur_blocks(self) -> SchurBlocks:
        """The diagonal blocks of the real Schur factor S, built on first use."""
        return SchurBlocks.of(self.real_schur[0])

    @functools.cached_property
    def schur_ones(self) -> np.ndarray:
        """Z^T 1, the ones vector in the real Schur basis, read-only."""
        ones = self.real_schur[1].T.sum(axis=1)
        ones.setflags(write=False)
        return ones


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Gauss nodes mapped onto (0, T) via t = T (z + 1) / 2."""

    horizon: float
    nodes: np.ndarray


def _recurrence_offdiag(lam: float, n: int) -> tuple[float, np.ndarray]:
    # Monic three-term recurrence b-coefficients of the symmetric Jacobi
    # polynomials with alpha = beta = lam - 1/2, plus the total weight mass
    # b_0 = integral of (1 - x^2)^(lam - 1/2) over (-1, 1).
    a = lam - 0.5
    b0 = 2.0 ** (2.0 * a + 1.0) * math.gamma(a + 1.0) ** 2 / math.gamma(2.0 * a + 2.0)
    m = np.arange(1.0, n + 1.0)
    s = 2.0 * m + 2.0 * a
    with np.errstate(invalid="ignore"):
        b = 4.0 * m * (m + a) ** 2 * (m + 2.0 * a) / (s * s * (s * s - 1.0))
    # The m = 1 term is 0/0 at a = -1/2 (Chebyshev); its reduced form
    # 1 / (3 + 2a) holds for every a > -1.
    b[0] = 1.0 / (3.0 + 2.0 * a)
    return b0, b


def build_basis(lam: float, order: int) -> GegenbauerBasis:
    """Build the Gauss rule and barycentric weights for index ``lam``.

    Nodes and Christoffel numbers come from the Golub-Welsch symmetric
    tridiagonal eigensolve of the Jacobi recurrence with alpha = beta =
    lam - 1/2. Barycentric weights use the trigonometric form
    (-1)^l sin(arccos z_l) sqrt(w_l).

    Parameters
    ----------
    lam : float
        Gegenbauer index, > -1/2 + LAMBDA_MIN_GUARD. An index whose weight
        mass overflows in its gamma function terms (above about 85.3)
        raises ValueError.
    order : int
        Highest node index, >= 1; yields order + 1 nodes.
    """
    if not lam > -0.5 + LAMBDA_MIN_GUARD:
        raise ValueError(
            f"lam must exceed {-0.5 + LAMBDA_MIN_GUARD}; got {lam}"
        )
    if order < 1:
        raise ValueError(f"order must be >= 1; got {order}")

    try:
        b0, b = _recurrence_offdiag(lam, order)
    except OverflowError:
        b0 = math.inf
    if not math.isfinite(b0):
        raise ValueError(
            f"lam = {lam} is too large: the gamma function terms of its weight "
            f"mass 2^(2 lam) Gamma(lam + 1/2)^2 / Gamma(2 lam + 1) overflow "
            f"(lam above about 85.3)")

    nodes, vectors = eigh_tridiagonal(np.zeros(order + 1), np.sqrt(b))
    weights = b0 * vectors[0, :] ** 2

    # The exact rule is symmetric about 0; enforce it to kill the last few
    # ulps of eigensolver asymmetry.
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])

    bary = (-1.0) ** np.arange(order + 1) * np.sin(np.arccos(nodes)) * np.sqrt(weights)

    for arr in (nodes, weights, bary):
        arr.setflags(write=False)
    return GegenbauerBasis(lam=lam, order=order, nodes=nodes,
                           christoffel=weights, bary_weights=bary)


def bary_interpolate(basis: GegenbauerBasis, nodal_values, t):
    """Evaluate the Lagrange interpolant of the nodal values at t in [-1, 1].

    ``nodal_values`` has the node axis first, shape (order + 1, ...). A
    scalar t gives the value, shape ``nodal_values.shape[1:]``; a 1-D array
    of points gives one row per point, shape (len(t), ...), from one
    Lagrange matrix; each value sums weight times nodal value in node
    order, so it does not depend on the shape asked for, as a BLAS
    product's last bits do. Uses the second barycentric form; a point
    within NODE_COINCIDENCE_TOL of a node takes the nodal value itself. A
    lone point t = 1 reads the basis's ``end_row``.
    """
    values = np.asarray(nodal_values)
    if values.shape[:1] != (basis.order + 1,):
        raise ValueError(
            f"expected {basis.order + 1} nodal values, got shape {values.shape}"
        )
    if np.ndim(t) > 1:
        raise ValueError(
            f"t must be a scalar or a 1-D array; got shape {np.shape(t)}")
    points = np.asarray(t, dtype=float)
    rows = (basis.end_row[None] if points.size == 1 and points.item() == 1.0
            else _lagrange_matrix(basis, points))
    out = values[rows.argmax(axis=1)].astype(np.result_type(rows, values))
    # The rows off the nodes take the sum, as many points at a time as fit
    # in BARY_BLOCK_DOUBLES products (at least one). Node axis outermost, in
    # C order: numpy reduces it by adding whole rows in node order, but sums
    # a lone column in pairs, so that one is accumulated, which numpy always
    # does in order.
    far = np.flatnonzero(np.count_nonzero(rows, axis=1) > 1)
    step = max(1, BARY_BLOCK_DOUBLES // max(1, values.size))
    for start in range(0, len(far), step):
        block = far[start:start + step]
        terms = np.multiply(
            rows[block].T.reshape(len(values), -1, *(1,) * (values.ndim - 1)),
            values[:, None], order="C")
        out[block] = (np.add.reduce(terms) if terms[0].size > 1
                      else np.add.accumulate(terms)[-1])
    return out[0] if np.ndim(t) == 0 else out


def _lagrange_matrix(basis: GegenbauerBasis, points) -> np.ndarray:
    # Rows are the Lagrange basis values L_j(points[p]) in barycentric form.
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    diff = pts[:, None] - basis.nodes[None, :]
    hit = np.abs(diff) < NODE_COINCIDENCE_TOL
    rows_hit = hit.any(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = basis.bary_weights[None, :] / diff
        out = ratios / ratios.sum(axis=1, keepdims=True)
    if rows_hit.any():
        out[rows_hit] = hit[rows_hit].astype(float)
    return out


@functools.lru_cache(maxsize=RULE_CACHE_SIZE)
def _gauss_legendre(npts: int) -> tuple[np.ndarray, np.ndarray]:
    # The npts-point Gauss-Legendre nodes and weights, read-only since every
    # build of Q with this point count shares them.
    glx, glw = np.polynomial.legendre.leggauss(npts)
    for arr in (glx, glw):
        arr.setflags(write=False)
    return glx, glw


def build_integration_matrix(basis: GegenbauerBasis) -> IntegrationMatrix:
    """First-order barycentric integration matrix Q at the basis nodes.

    Entry Q[l, j] is the exact integral of the Lagrange basis polynomial L_j
    from -1 to z_l, computed with a Gauss-Legendre rule of
    ceil((order + 1) / 2) + 1 points, exact for degree <= order integrands.
    The rule is cached per point count. Rows are built in blocks: one
    Lagrange evaluation at the quadrature points of every row in a block,
    with at most Q_BLOCK_DOUBLES values, so order <= 38 is one block. Each
    row takes the same operations as on its own, so Q does not depend on
    the block size.
    """
    npts = (basis.order + 2) // 2 + 1
    glx, glw = _gauss_legendre(npts)
    size = basis.order + 1
    half = 0.5 * (basis.nodes + 1.0)
    pts = -1.0 + half[:, None] * (glx + 1.0)
    entries = np.empty((size, size))
    rows = max(1, Q_BLOCK_DOUBLES // (npts * size))
    for start in range(0, size, rows):
        block = slice(start, start + rows)
        lagrange = _lagrange_matrix(basis, pts[block].ravel())
        entries[block] = half[block, None] * (glw @ lagrange.reshape(-1, npts, size))
    entries.setflags(write=False)
    return IntegrationMatrix(order=basis.order, entries=entries)


@functools.lru_cache(maxsize=RULE_CACHE_SIZE)
def reference_rule(lam: float, order: int) -> tuple[GegenbauerBasis, IntegrationMatrix]:
    """The basis and Q on (-1, 1) for index ``lam``, built once per (lam, order).

    The arrays are read-only, so callers share them; scale Q to a horizon
    with shift_integration_matrix.
    """
    basis = build_basis(lam, order)
    return basis, build_integration_matrix(basis)


def shift_integration_matrix(qmat: IntegrationMatrix, horizon: float) -> IntegrationMatrix:
    """Scale Q by T/2, giving the integration matrix on the shifted nodes in (0, T)."""
    if not horizon > 0.0:
        raise ValueError(f"horizon must be positive; got {horizon}")
    entries = 0.5 * horizon * qmat.entries
    entries.setflags(write=False)
    return IntegrationMatrix(order=qmat.order, entries=entries)


def time_grid(basis: GegenbauerBasis, horizon: float) -> TimeGrid:
    """Map the basis nodes onto (0, T)."""
    if not horizon > 0.0:
        raise ValueError(f"horizon must be positive; got {horizon}")
    nodes = 0.5 * horizon * (basis.nodes + 1.0)
    nodes.setflags(write=False)
    return TimeGrid(horizon=horizon, nodes=nodes)
