"""Smallest eigenvalues of the assembled operators: the lambda(s) curve, its
limit estimate, the variational upper bound, the Hardy constant and the
infimum gap above 1/2."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.integrate import quad
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from .discretize import (DiscreteOperator, assemble_magnetic, build_grid, check_s_cap,
                         harmonic_axis_eigh, peierls_phases)
from .errors import SolverConvergenceError
from .field import alpha_batch, alpha_infinity, beta_of

DIAMAGNETIC_SLACK = 1e-9    # floor tolerance of the discrete diamagnetic bound
DEGENERACY_FLUX_TOL = 1e-6  # half-integer detection for block solves
C_B_SPACING = 0.5           # widest s step the infimum gap samples


@dataclass(frozen=True)
class SpectralSample:
    """One point of the lambda(s) curve with solver diagnostics."""

    s: float
    lam: float
    residual: float
    iterations: int
    r_dom: float
    n: int


@dataclass(frozen=True)
class HardyEstimate:
    """Variational Hardy constant on one truncated grid."""

    c_est: float
    r_dom: float
    n: int


class _CountingSolve:
    def __init__(self, solve):
        self.solve = solve
        self.count = 0

    def __call__(self, v):
        self.count += 1
        return self.solve(v)


def _factor(matrix):
    """Sparse LU of ``matrix``, columns ordered by minimum degree on A + A^T.

    The five-point Peierls stencil is structurally symmetric, so the
    symmetric ordering fits it; COLAMD, scipy's default, orders for A^T A
    and roughly doubles the fill.  Pivoting stays at its default:
    ``diag_pivot_thresh=0`` gave the same fill and factored more slowly.
    """
    return splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A")


def smallest_eigs(op, k, tol=1e-8, seed=0):
    """k smallest eigenpairs of a Hermitian positive definite operator.

    ARPACK's implicitly restarted Lanczos iteration in shift-invert mode
    about 0, each step one solve with the sparse LU of the operator (see
    ``_factor``), started from a seeded random vector.  Every residual
    ``|L v - lam v| / |v|`` is checked against ``tol`` explicitly.  Returns
    ``(pairs, worst_residual, solve_count)`` where ``pairs`` lists
    (eigenvalue, eigenvector) ascending, each eigenvector's largest-modulus
    component rotated to the positive real axis, and ``solve_count`` is the
    number of LU solves.
    """
    dim = op.dimension
    if k < 1:
        raise ValueError("k must be >= 1")
    if k >= dim:
        raise ValueError(f"k = {k} must be smaller than the dimension {dim}")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    lu = _factor(op.matrix)
    counting = _CountingSolve(lu.solve)
    opinv = LinearOperator(op.matrix.shape, matvec=counting, dtype=op.matrix.dtype)
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(dim)
    if np.issubdtype(op.matrix.dtype, np.complexfloating):
        v0 = v0 + 1j * rng.standard_normal(dim)
    ncv = min(dim - 1, max(2 * k + 1, 24))
    try:
        vals, vecs = eigsh(op.matrix, k=k, sigma=0.0, which="LM", OPinv=opinv,
                           v0=v0, ncv=ncv, maxiter=400, tol=0.0)
    except Exception as exc:
        raise SolverConvergenceError(f"shift-inverted eigensolve failed: {exc}") from exc
    order = np.argsort(vals)
    vals = vals[order]
    vecs = vecs[:, order]
    pairs = []
    worst = 0.0
    for j in range(k):
        v = vecs[:, j]
        res = float(np.linalg.norm(op.apply(v) - vals[j] * v) / np.linalg.norm(v))
        worst = max(worst, res)
        if res > tol:
            raise SolverConvergenceError(
                f"eigenpair {j} residual {res:.2e} exceeds tol {tol:.2e}")
        pivot = np.argmax(np.abs(v))
        phase = v[pivot] / abs(v[pivot])
        pairs.append((float(vals[j]), v / phase))
    return pairs, worst, counting.count


def _diamagnetic_floor(grid):
    """Zero-field lambda(0) on ``grid``: the floor every lambda(s) there obeys.

    Without a field the confined operator is the Kronecker sum T (x) I + I (x) T
    of one tridiagonal T per axis (``harmonic_axis_eigh``), so its lowest
    eigenvalue is exactly twice that of T.
    """
    w, _ = harmonic_axis_eigh(grid)
    return 2.0 * float(w[0])


def lambda_curve(field, s_values, grid, tol=1e-8, seed=0):
    """Lowest eigenvalue of the rescaled confined operator at each s.

    Every sample is checked against the discrete diamagnetic floor: the
    same-grid zero-field eigenvalue minus a round-off slack.
    """
    s_values = [float(s) for s in s_values]
    if any(s < 0 for s in s_values):
        raise ValueError("s values must be >= 0")
    check_s_cap(grid, field, s_values)
    beta = beta_of(field)
    k = 2 if abs(beta - 0.5) < DEGENERACY_FLUX_TOL else 1
    lam_floor = _diamagnetic_floor(grid)
    samples = []
    for s in s_values:
        op = assemble_magnetic(peierls_phases(grid, field, s=s), harmonic=True)
        pairs, residual, iterations = smallest_eigs(op, k=k, tol=tol, seed=seed)
        lam = pairs[0][0]
        if lam < lam_floor - DIAMAGNETIC_SLACK:
            raise SolverConvergenceError(
                f"lambda({s}) = {lam:.8f} violates the diamagnetic floor "
                f"{lam_floor:.8f}")
        samples.append(SpectralSample(s=s, lam=lam, residual=residual,
                                      iterations=iterations, r_dom=grid.r_dom, n=grid.n))
    return samples


def lambda_limit_estimate(samples):
    """Extrapolated limit of lambda(s): linear fit in e^{-s/2} on the tail.

    The raw final sample is the model-free companion; acceptance checks use
    it directly, the extrapolation only sharpens the reported limit.
    """
    if len(samples) < 3:
        raise ValueError("need at least 3 samples to extrapolate")
    ss = [smp.s for smp in samples]
    if any(b <= a for a, b in zip(ss, ss[1:])):
        raise ValueError("samples must have strictly increasing s")
    tail = samples[-3:]
    x = np.array([math.exp(-smp.s / 2.0) for smp in tail])
    y = np.array([smp.lam for smp in tail])
    design = np.vstack([x, np.ones_like(x)]).T
    (_, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    return float(intercept)


def variational_upper_bound(field, s, n, r_infinity=30.0, theta_points=64):
    """Rayleigh quotient of the logarithmically cut off trial state.

    The trial function is the confined ground profile e^{-r^2/8} times the
    cutoff vanishing like log(n^2 r)/log(n) on [1/n^2, 1/n], carrying the
    angular phase e^{i int_0^theta alpha_inf}; an upper bound for lambda(s)
    up to quadrature error by the variational principle.
    """
    if n < 2:
        raise ValueError("cutoff index n must be >= 2")
    ln = math.log(n)
    lo, hi = 1.0 / n**2, 1.0 / n
    breakpoints = sorted({lo, hi, min(field.support_radius * math.exp(-s / 2.0), r_infinity / 2)})

    def phi2(r):
        return math.exp(-r * r / 4.0)

    def eta(r):
        if r <= lo:
            return 0.0
        if r >= hi:
            return 1.0
        return math.log(n * n * r) / ln

    def eta_prime(r):
        if lo < r < hi:
            return 1.0 / (r * ln)
        return 0.0

    def dphi(r):
        return -(r / 4.0) * math.exp(-r * r / 8.0)

    def radial_kinetic(r):
        return (dphi(r) * eta(r) + math.exp(-r * r / 8.0) * eta_prime(r)) ** 2 * r

    def harmonic_term(r):
        return phi2(r) * eta(r) ** 2 * r**3 / 16.0

    def norm_term(r):
        return phi2(r) * eta(r) ** 2 * r

    pts = [p for p in breakpoints if 0 < p < r_infinity]
    t1, _ = quad(radial_kinetic, 0.0, r_infinity, points=pts, limit=400,
                 epsabs=1e-12, epsrel=1e-10)
    t3, _ = quad(harmonic_term, 0.0, r_infinity, points=pts, limit=400,
                 epsabs=1e-12, epsrel=1e-10)
    den, _ = quad(norm_term, 0.0, r_infinity, points=pts, limit=400,
                  epsabs=1e-12, epsrel=1e-10)

    # angular mismatch |alpha_inf(theta) - alpha(e^{s/2} r, theta)|^2 / r
    nodes, weights = np.polynomial.legendre.leggauss(theta_points)
    thetas = math.pi * (nodes + 1.0)
    w_theta = math.pi * weights
    a_inf = alpha_infinity(field, thetas)
    scale = math.exp(s / 2.0)

    def mismatch(r):
        vals = alpha_batch(field, np.full_like(thetas, scale * r), thetas)
        return float(np.sum(w_theta * (a_inf - vals) ** 2)) * phi2(r) * eta(r) ** 2 / r

    support_scaled = field.support_radius / scale
    t2, _ = quad(mismatch, lo, max(support_scaled, hi) * 1.001,
                 points=[p for p in (hi, support_scaled) if lo < p], limit=400,
                 epsabs=1e-11, epsrel=1e-9)

    numerator = 2.0 * math.pi * (t1 + t3) + t2
    return numerator / (2.0 * math.pi * den)


def hardy_constant(field, r_dom, n, seed=0):
    """Variational constant of the weighted bound H_B >= c / (1 + |x|^2).

    Smallest generalized eigenvalue of L v = c W v, with L the magnetic
    Laplacian without the confining term and W multiplication by
    w = 1 / (1 + |x|^2), on the truncated Dirichlet grid of half-width
    ``r_dom`` with ``n`` points per axis.  With D = diag(sqrt(1 + |x|^2)) =
    W^{-1/2}, D L D is Hermitian with the same five-point pattern and the
    same eigenvalues, so its lowest eigenvalue comes from ``smallest_eigs``.
    """
    grid = build_grid(r_dom, n)
    op = assemble_magnetic(peierls_phases(grid, field), harmonic=False)
    X, Y = grid.mesh()
    d = sp.diags(np.sqrt(1.0 + (X**2 + Y**2).ravel()))
    scaled = DiscreteOperator(grid=grid, matrix=(d @ op.matrix @ d).tocsr())
    pairs, _, _ = smallest_eigs(scaled, k=1, seed=seed)
    return HardyEstimate(c_est=pairs[0][0], r_dom=grid.r_dom, n=grid.n)


def dense_s_grid(s_values):
    """Evenly spaced s over the range of ``s_values``, ``C_B_SPACING`` apart at most."""
    lo, hi = min(s_values), max(s_values)
    count = max(2, int(math.ceil((hi - lo) / C_B_SPACING)) + 1)
    return list(np.linspace(lo, hi, count))


def c_b_estimate(field, s_grid, grid, seed=0):
    """Infimum gap inf_s lambda(s) - 1/2 over the sampled grid, floored at 0."""
    s_grid = sorted(float(s) for s in s_grid)
    if len(s_grid) < 2:
        raise ValueError("s_grid needs at least two points")
    spacing = max(b - a for a, b in zip(s_grid, s_grid[1:]))
    if spacing > C_B_SPACING + 1e-12:
        raise ValueError(f"s_grid spacing {spacing} exceeds {C_B_SPACING}")
    samples = lambda_curve(field, s_grid, grid, seed=seed)
    return max(0.0, min(smp.lam for smp in samples) - 0.5)
