"""Hermitian discretizations on truncated domains.

Two families of operators are built here:

* 2-D Cartesian Dirichlet grids carrying Peierls link phases, realizing the
  magnetic Schroedinger operator (with or without the confining |y|^2/16
  term) for either the physical potential A or its rescaled version A_s;
* 1-D staggered radial grids in the measure r dr for the angular-momentum
  channels of the singular flux-line operator and its finite-size surrogates.

Link phases integrate A exactly along edges (3-point Gauss), which keeps the
discrete operator Hermitian and gauge-covariant: multiplying the phases by a
lattice gradient of any function leaves the spectrum unchanged.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal

from .errors import ResolutionCapError
from .field import is_finite_real, vector_potential

# 3-point Gauss-Legendre on [0, 1]
_GL3_NODES = np.array([0.5 - math.sqrt(0.15), 0.5, 0.5 + math.sqrt(0.15)])
_GL3_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 18.0

# smallest wall radius and node count of the flux-line channel operators
RADIAL_MIN_R_MAX = 15.0
RADIAL_MIN_POINTS = 500


@dataclass(frozen=True)
class Grid2D:
    """Uniform Dirichlet grid on (-r_dom, r_dom)^2 with n interior points per axis."""

    r_dom: float
    n: int

    @property
    def h(self):
        return 2.0 * self.r_dom / (self.n + 1)

    def axis(self):
        return -self.r_dom + self.h * (np.arange(self.n) + 1.0)

    def mesh(self):
        x = self.axis()
        return np.meshgrid(x, x, indexing="ij")

    @property
    def size(self):
        return self.n * self.n

    def s_max(self, support_radius):
        """Largest self-similar time at which a field of the given support
        still covers four cells after rescaling."""
        return 2.0 * math.log(support_radius / (4.0 * self.h))


def harmonic_axis_eigh(grid):
    """Eigenpairs ``(w, V)`` of the one-axis confined operator
    T = tridiag(-1/h^2, 2/h^2 + x^2/16, -1/h^2) on ``grid.axis()``.

    Without a field the confined operator on ``grid`` is the Kronecker sum
    T (x) I + I (x) T, so its eigenvalues are w_i + w_j, with eigenvectors
    V[:, i] (x) V[:, j]; ``w`` is ascending and ``V`` orthonormal.
    """
    x = grid.axis()
    diag = 2.0 / grid.h**2 + x**2 / 16.0
    off = np.full(grid.n - 1, -1.0 / grid.h**2)
    return eigh_tridiagonal(diag, off)


def check_s_cap(grid, field, s_values):
    """Reject self-similar times whose rescaled flux tube is under-resolved."""
    if field.is_zero:
        return
    cap = grid.s_max(field.support_radius)
    bad = [s for s in s_values if s > cap + 1e-12]
    if bad:
        raise ResolutionCapError(
            f"s values {bad} exceed the resolution cap s_max = {cap:.3f} "
            f"(support {field.support_radius}, h = {grid.h:.4f})")


def build_grid(r_dom, n):
    """Validated :class:`Grid2D`: a finite r_dom > 0 and an integral n >= 16."""
    if not (is_finite_real(r_dom) and r_dom > 0.0):
        raise ValueError(f"r_dom must be a positive finite number, got {r_dom!r}")
    if isinstance(n, float) and n.is_integer():
        n = int(n)
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 16:
        raise ValueError(f"n must be an integer >= 16, got {n!r}")
    return Grid2D(r_dom=float(r_dom), n=int(n))


@dataclass(frozen=True)
class LinkPhases:
    """Edge phase angles Q = int_edge A . dl on the two edge families.

    ``qh[i, j]`` is the angle on the edge from node (i, j) to (i+1, j),
    ``qv[i, j]`` from (i, j) to (i, j+1).  The unit-modulus link factors are
    exp(i q); zero field gives q identically zero.
    """

    grid: Grid2D
    qh: np.ndarray
    qv: np.ndarray

    def gauge_transformed(self, chi):
        """New phases with the lattice gradient of chi (shape (n, n)) added."""
        chi = np.asarray(chi, dtype=float)
        if chi.shape != (self.grid.n, self.grid.n):
            raise ValueError("chi must be a lattice function on the grid")
        return LinkPhases(grid=self.grid,
                          qh=self.qh + (chi[1:, :] - chi[:-1, :]),
                          qv=self.qv + (chi[:, 1:] - chi[:, :-1]))

    def plaquette_fluxes(self):
        """Counterclockwise phase sums around each cell, ~ h^2 B(center)."""
        return (self.qh[:, :-1] + self.qv[1:, :] - self.qh[:, 1:] - self.qv[:-1, :])


def peierls_phases(grid, field, s=None):
    """Edge phases on ``grid`` of the transverse-gauge potential A of ``field``
    (s is None) or of its rescaling A_s.

    Each edge integral uses 3-point Gauss quadrature of A . dl along the
    straight edge.
    """
    n, h = grid.n, grid.h
    x = grid.axis()
    X, Y = np.meshgrid(x, x, indexing="ij")
    qh = np.zeros((n - 1, n))
    for gx, gw in zip(_GL3_NODES, _GL3_WEIGHTS):
        pts = np.stack([X[:-1, :] + gx * h, Y[:-1, :]], axis=-1)
        qh += gw * vector_potential(field, pts, s)[..., 0] * h
    qv = np.zeros((n, n - 1))
    for gx, gw in zip(_GL3_NODES, _GL3_WEIGHTS):
        pts = np.stack([X[:, :-1], Y[:, :-1] + gx * h], axis=-1)
        qv += gw * vector_potential(field, pts, s)[..., 1] * h
    return LinkPhases(grid=grid, qh=qh, qv=qv)


@dataclass
class DiscreteOperator:
    """Hermitian operator on the flattened grid, kept as a sparse matrix."""

    grid: Grid2D
    matrix: sp.csr_matrix

    @property
    def dimension(self):
        return self.matrix.shape[0]

    def apply(self, v):
        return self.matrix @ v

    def shifted(self, sigma):
        """Operator plus sigma * identity (used by shift-invariance tests)."""
        mat = (self.matrix + sigma * sp.identity(self.dimension, dtype=self.matrix.dtype)).tocsr()
        return DiscreteOperator(grid=self.grid, matrix=mat)


def assemble_magnetic(phases, harmonic):
    """Five-point Peierls stencil on ``phases.grid``; adds |y|^2/16 on the
    diagonal when harmonic.

    Hopping from node a to neighbor b carries -exp(-i Q_ab)/h^2 with Q_ab the
    edge phase in the a -> b direction, which is the Hermitian transporter
    convention for (-i grad - A)^2.
    """
    grid = phases.grid
    n, h = grid.n, grid.h
    X, Y = grid.mesh()
    diag = np.full(grid.size, 4.0 / h**2)
    if harmonic:
        diag = diag + (X**2 + Y**2).ravel() / 16.0

    # a vanishing gauge keeps the operator real symmetric, which halves the
    # cost of the zero-field baselines
    real = not (np.any(phases.qh) or np.any(phases.qv))
    dtype = np.float64 if real else np.complex128
    idx = np.arange(grid.size).reshape(n, n)
    rows, cols, vals = [], [], []
    for q, (ra, ca) in ((phases.qh, (idx[:-1, :], idx[1:, :])),
                        (phases.qv, (idx[:, :-1], idx[:, 1:]))):
        hop = (np.ones(q.size) if real else np.exp(-1j * q.ravel())) / h**2
        r_, c_ = ra.ravel(), ca.ravel()
        rows += [r_, c_]
        cols += [c_, r_]
        vals += [-hop, -np.conj(hop)]
    rows.append(np.arange(grid.size))
    cols.append(np.arange(grid.size))
    vals.append(diag.astype(dtype))
    matrix = sp.csr_matrix(
        (np.concatenate(vals).astype(dtype), (np.concatenate(rows), np.concatenate(cols))),
        shape=(grid.size, grid.size))
    return DiscreteOperator(grid=grid, matrix=matrix)


# ---------------------------------------------------------------------------
# radial channels


def _centrifugal_fitted(mu, r, dr):
    """Diagonal discretization of mu^2/r^2 whose stencil annihilates r^mu.

    Plain node sampling of the centrifugal term loses accuracy for fractional
    mu because the eigenfunctions behave like r^mu at the origin; fitting the
    diagonal to the exact local power restores clean second-order eigenvalue
    convergence.  Reduces to zero for mu = 0 and stays nonnegative.
    """
    if mu == 0.0:
        return np.zeros_like(r)
    m_pts = r.size
    re_p = (np.arange(m_pts) + 1.0) * dr
    re_m = np.arange(m_pts) * dr
    term_p = re_p * ((r + dr) / r) ** mu - re_p
    term_m = np.zeros_like(r)
    term_m[1:] = re_m[1:] * ((r[1:] - dr) / r[1:]) ** mu - re_m[1:]
    return (term_p + term_m) / (r * dr**2)


@dataclass
class RadialOperator:
    """Staggered-grid channel operator in the weighted space L2((0, R), r dr).

    Discretizes -(1/r) d/dr r d/dr + V(r) with V = (m + flux)^2 / r^2 + r^2/16
    (or a finite-size surrogate of the centrifugal part) on nodes
    r_k = (k + 1/2) dr with a Dirichlet wall at R_max.  ``sym_diag``/``sym_off``
    hold the similarity-transformed symmetric tridiagonal used for solves.
    """

    m: int
    flux: float
    r_max: float
    m_points: int
    r: np.ndarray
    dr: float
    potential: np.ndarray
    sym_diag: np.ndarray
    sym_off: np.ndarray

    @property
    def weights(self):
        """Quadrature weights of the discrete weighted inner product."""
        return self.r * self.dr

    def apply(self, v):
        """Matvec in the original (non-symmetrized) representation."""
        sq = np.sqrt(self.r)
        w = sq * v
        out = self.sym_diag * w
        out[:-1] += self.sym_off * w[1:]
        out[1:] += self.sym_off * w[:-1]
        return out / sq

    def lowest(self, k=1, eigenvectors=False):
        """The k smallest eigenpairs; vectors are unit in the weighted norm."""
        if not eigenvectors:
            vals = eigh_tridiagonal(self.sym_diag, self.sym_off, select="i",
                                    select_range=(0, k - 1), eigvals_only=True)
            return np.asarray(vals)
        vals, vecs = eigh_tridiagonal(self.sym_diag, self.sym_off, select="i",
                                      select_range=(0, k - 1))
        sq = np.sqrt(self.r)
        outv = []
        for j in range(vals.size):
            u = vecs[:, j] / sq
            u = u / math.sqrt(float(np.sum(np.abs(u) ** 2 * self.weights)))
            if u[np.argmax(np.abs(u))] < 0:
                u = -u
            outv.append(u)
        return np.asarray(vals), outv


def _radial_from_potential(m, flux, r_max, m_points, potential, r, dr):
    diag = 2.0 / dr**2 + potential
    redge = (np.arange(m_points - 1) + 1.0) * dr
    off = -redge / (dr**2 * np.sqrt(r[:-1] * r[1:]))
    return RadialOperator(m=m, flux=flux, r_max=r_max, m_points=m_points, r=r,
                          dr=dr, potential=potential, sym_diag=diag, sym_off=off)


def assemble_radial(m, flux, r_max, m_points):
    """Channel operator of the singular flux line: V = (m + flux)^2/r^2 + r^2/16."""
    if r_max < RADIAL_MIN_R_MAX:
        raise ValueError(f"r_max must be >= {RADIAL_MIN_R_MAX}, got {r_max}")
    if m_points < RADIAL_MIN_POINTS:
        raise ValueError(f"m_points must be >= {RADIAL_MIN_POINTS}, got {m_points}")
    dr = r_max / m_points
    r = (np.arange(m_points) + 0.5) * dr
    mu = abs(m + flux)
    potential = _centrifugal_fitted(mu, r, dr) + r**2 / 16.0
    return _radial_from_potential(int(m), float(flux), float(r_max), int(m_points),
                                  potential, r, dr)


def assemble_radial_channel(m, alpha_of_r, r_max, m_points, harmonic=True):
    """Channel operator for a finite-size radial field with angular profile
    alpha(r): V = (m + alpha(r))^2 / r^2 (+ r^2/16).

    The singular m^2/r^2 part is discretized with the fitted diagonal; the
    remaining (2 m alpha + alpha^2)/r^2 is smooth near the origin because
    alpha vanishes quadratically there.
    """
    dr = r_max / m_points
    r = (np.arange(m_points) + 0.5) * dr
    a = np.asarray(alpha_of_r(r), dtype=float)
    potential = _centrifugal_fitted(abs(m), r, dr) + (2.0 * m * a + a**2) / r**2
    if harmonic:
        potential = potential + r**2 / 16.0
    return _radial_from_potential(int(m), float("nan"), float(r_max), int(m_points),
                                  potential, r, dr)
