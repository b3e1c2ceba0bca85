"""Smallest eigenvalues of the assembled operators: the lambda(s) curve, its
limit estimate, the Hardy constant and the infimum gap above 1/2."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, eigsh, lobpcg, splu

from .discretize import (DiscreteOperator, assemble_magnetic, build_grid, check_s_cap,
                         harmonic_axis_eigh, mirror_fold, peierls_phases)
from .errors import SolverConvergenceError
from .evolve import carried_generator
from .field import beta_of

DIAMAGNETIC_SLACK = 1e-9    # floor tolerance of the discrete diamagnetic bound
SHIFT_BELOW_FLOOR = 0.05    # lambda_curve's shift-invert shift sits this far below the floor
DEGENERACY_FLUX_TOL = 1e-6  # half-integer detection for block solves
C_B_SPACING = 0.5           # widest s step the infimum gap samples
LOBPCG_TOL_FRACTION = 0.1   # LOBPCG's residual tolerance as a share of lambda_curve's tol
LOBPCG_MAXITER = 20         # LOBPCG iterations before a sample falls back to a fresh factor
# Share of a seeded random block, columns of unit norm, in the LOBPCG start
# of every later sample of a lambda(s) curve; the rest is the previous
# sample's eigenvectors.  Radial fields split the lattice operator into four
# symmetry classes, and when the ground state moves to another class between
# two samples, a start inside the old class converges to a true eigenpair
# that is not the lowest and passes the residual and floor checks.  The
# random part pulls the block to the lowest class only while START_NOISE
# times the gap stays above LOBPCG's tolerance, so it must not be small.
# Radial steps R 3 at r_dom 7: without it flux 0.7, 0.9 and 1.3 (n=128,
# s = 0..3.5) and flux 0.9 (n=64, s = 0..2) gave wrong lambdas (0.749195
# for 0.742666 at flux 0.9, n=64, s=2); 0.1, 0.03, 0.01 and 1e-3 gave the
# eigsh ones, but 1e-3 with other draws missed flux 0.7 at s=3 (0.735953
# for 0.735582).  0.1 costs 0 to 2 LU solves per sample over 0.01.
START_NOISE = 0.1


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
    """``solve`` that counts the right-hand sides it is given: one per vector,
    one per column of a block."""

    def __init__(self, solve):
        self.solve = solve
        self.count = 0

    def __call__(self, v):
        self.count += v.shape[1] if v.ndim == 2 else 1
        return self.solve(v)


def _factor(matrix, sigma):
    """Sparse LU of ``matrix - sigma I``, columns ordered by minimum degree on A + A^T.

    The five-point Peierls stencil is structurally symmetric, so the
    symmetric ordering fits it; COLAMD, scipy's default, orders for A^T A
    and roughly doubles the fill.  Pivoting stays at its default:
    ``diag_pivot_thresh=0`` gave the same fill and factored more slowly.
    """
    return splu((matrix - sigma * sp.eye(*matrix.shape)).tocsc(), permc_spec="MMD_AT_PLUS_A")


def _random_block(rng, shape, dtype):
    """Standard normal draws of ``shape``, with a complex part for complex ``dtype``."""
    block = rng.standard_normal(shape)
    if np.issubdtype(dtype, np.complexfloating):
        block = block + 1j * rng.standard_normal(shape)
    return block


def _checked_pairs(matrix, vals, vecs, tol):
    """Ascending (eigenvalue, eigenvector) pairs and the worst residual
    ``|L v - lam v| / |v|``, or ``None`` pairs when a residual exceeds ``tol``.

    Each eigenvector's largest-modulus component is rotated to the positive
    real axis.
    """
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    pairs = []
    worst = 0.0
    for j in range(len(vals)):
        v = vecs[:, j]
        res = float(np.linalg.norm(matrix @ v - vals[j] * v) / np.linalg.norm(v))
        worst = max(worst, res)
        if res > tol:
            return None, worst
        pivot = np.argmax(np.abs(v))
        phase = v[pivot] / abs(v[pivot])
        pairs.append((float(vals[j]), v / phase))
    return pairs, worst


def _check_eigs_args(dim, k, tol, sigma):
    if k < 1:
        raise ValueError("k must be >= 1")
    if k >= dim:
        raise ValueError(f"k = {k} must be smaller than the dimension {dim}")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma}")


def _shift_invert(matrix, lu, k, tol, seed, sigma):
    """``smallest_eigs`` of ``matrix`` with ``lu`` the factor of ``L - sigma I``."""
    counting = _CountingSolve(lu.solve)
    opinv = LinearOperator(matrix.shape, matvec=counting, dtype=matrix.dtype)
    v0 = _random_block(np.random.default_rng(seed), matrix.shape[0], matrix.dtype)
    ncv = min(matrix.shape[0] - 1, max(2 * k + 1, 24))
    try:
        vals, vecs = eigsh(matrix, k=k, sigma=sigma, which="LM", OPinv=opinv,
                           v0=v0, ncv=ncv, maxiter=400, tol=0.0)
    except Exception as exc:
        raise SolverConvergenceError(f"shift-inverted eigensolve failed: {exc}") from exc
    pairs, worst = _checked_pairs(matrix, vals, vecs, tol)
    if pairs is None:
        raise SolverConvergenceError(f"eigenpair residual {worst:.2e} exceeds tol {tol:.2e}")
    return pairs, worst, counting.count


def smallest_eigs(op, k, tol=1e-8, seed=0, sigma=0.0):
    """k smallest eigenpairs of a Hermitian positive definite operator.

    ARPACK's implicitly restarted Lanczos iteration in shift-invert mode
    about ``sigma``, each step one solve with the sparse LU of
    ``L - sigma I`` (see ``_factor``), started from a seeded random vector.
    ``sigma`` must lie below the spectrum, so that the eigenvalues nearest
    it are the smallest; a shift just below the lowest eigenvalue makes the
    wanted ones dominate the inverse and spares ARPACK its restarts.  Every
    residual ``|L v - lam v| / |v|`` of the unshifted operator is checked
    against ``tol`` explicitly.  Returns
    ``(pairs, worst_residual, solve_count)`` where ``pairs`` lists
    (eigenvalue, eigenvector) ascending, each eigenvector's largest-modulus
    component rotated to the positive real axis, and ``solve_count`` is the
    number of LU solves.
    """
    _check_eigs_args(op.dimension, k, tol, sigma)
    return _shift_invert(op.matrix, _factor(op.matrix, sigma), k, tol, seed, sigma)


def _preconditioned_eigs(matrix, lu, sigma, previous, tol, rng):
    """Smallest eigenpairs of ``matrix`` by LOBPCG on ``L - sigma I``, preconditioned
    by ``lu``, the factor of a nearby operator shifted by the same ``sigma``.

    Starts from the ``previous`` eigenvectors plus ``START_NOISE`` of a random
    block drawn from ``rng``.  Returns ``(pairs, worst_residual, solve_count)``
    like ``smallest_eigs``, with ``None`` pairs when a residual misses
    LOBPCG's tolerance.
    """
    dtype = matrix.dtype
    start = np.column_stack([v for _, v in previous])
    noise = _random_block(rng, start.shape, dtype)
    start = start + START_NOISE * noise / np.linalg.norm(noise, axis=0)
    counting = _CountingSolve(lu.solve)
    precond = LinearOperator(matrix.shape, matvec=counting, matmat=counting, dtype=dtype)

    def apply_shifted(v):       # L - sigma I, never formed; one product per block
        return matrix @ v - sigma * v

    shifted = LinearOperator(matrix.shape, matvec=apply_shifted, matmat=apply_shifted,
                             dtype=dtype)
    lobpcg_tol = LOBPCG_TOL_FRACTION * tol
    try:
        with warnings.catch_warnings():
            # an unconverged exit warns; the residual check below catches it
            warnings.simplefilter("ignore", UserWarning)
            vals, vecs = lobpcg(shifted, start, M=precond, tol=lobpcg_tol,
                                maxiter=LOBPCG_MAXITER, largest=False)
    except (ValueError, np.linalg.LinAlgError):
        # a failed Rayleigh-Ritz eigh inside LOBPCG
        return None, math.inf, counting.count
    pairs, worst = _checked_pairs(matrix, np.asarray(vals) + sigma, vecs, lobpcg_tol)
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

    ``L(s)`` comes from ``carried_generator``: assembled at the first s and
    rewritten in place near the rescaled support after that.  Every sample
    is checked against the discrete diamagnetic floor, the same-grid
    zero-field eigenvalue minus a round-off slack, which also places the
    shift ``sigma`` ``SHIFT_BELOW_FLOOR`` beneath it at every s.  The curve
    makes one sparse LU: the first sample is a shift-invert solve on the
    factor of ``L(s_0) - sigma I``.  ``L(s)`` changes only inside the
    rescaled support, so that factor stays a close approximate inverse of
    every later ``L(s) - sigma I``, on which those samples run LOBPCG,
    preconditioned by it, from the previous sample's eigenvectors plus a
    seeded random part (``START_NOISE``, whose comment says why it is
    needed).  A sample whose LOBPCG residual misses
    ``LOBPCG_TOL_FRACTION * tol``, or that falls below the floor, is solved
    again by shift-invert on a fresh factor, which the later samples then use.

    A field with B(-x, y) = B(x, y) (``field.mirror_symmetric``: every
    component centred on the y-axis, so every radial field) makes ``L(s)``
    commute with the antiunitary u -> conj(u o R), R the mirror x -> -x of
    the grid.  Each ``generator_at(s)`` is then folded by
    ``discretize.mirror_fold`` into a real symmetric matrix of the same
    size, unitarily equivalent to ``L(s)``, and the factor, eigsh (ARPACK's
    symmetric ``dsaupd``), LOBPCG and the ``START_NOISE`` draws all run in
    float64; the fold raises ``errors.SymmetryError`` if the operator departs
    from its mirror image by more than rounding.  The carried generator
    itself stays complex, and every other field (off-centre, or centred off
    the y-axis) and the zero field run on ``L(s)`` as it is.
    """
    s_values = [float(s) for s in s_values]
    if any(s < 0 for s in s_values):
        raise ValueError("s values must be >= 0")
    check_s_cap(grid, field, s_values)
    k = 2 if abs(beta_of(field) - 0.5) < DEGENERACY_FLUX_TOL else 1
    lam_floor = _diamagnetic_floor(grid)
    sigma = lam_floor - SHIFT_BELOW_FLOOR
    _check_eigs_args(grid.size, k, tol, sigma)
    rng = np.random.default_rng(seed)
    generator_at = carried_generator(grid, field)
    # a zero field's generator is real already
    fold = mirror_fold(grid) if field.mirror_symmetric and not field.is_zero else None
    lu = None
    samples = []
    for s in s_values:
        matrix = generator_at(s)
        if fold is not None:
            matrix = fold(matrix)
        pairs, iterations = None, 0
        if lu is not None:
            pairs, residual, iterations = _preconditioned_eigs(matrix, lu, sigma, previous,
                                                               tol, rng)
            if pairs is not None and pairs[0][0] < lam_floor - DIAMAGNETIC_SLACK:
                pairs = None
        if pairs is None:
            lu = _factor(matrix, sigma)
            pairs, residual, solves = _shift_invert(matrix, lu, k, tol, seed=seed, sigma=sigma)
            iterations += solves
        lam = pairs[0][0]
        if lam < lam_floor - DIAMAGNETIC_SLACK:
            raise SolverConvergenceError(
                f"lambda({s}) = {lam:.8f} violates the diamagnetic floor {lam_floor:.8f}")
        samples.append(SpectralSample(s=s, lam=lam, residual=residual,
                                      iterations=iterations, r_dom=grid.r_dom, n=grid.n))
        previous = pairs
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


def infimum_gap(samples):
    """Gap min lambda - 1/2 over the ``SpectralSample``s, floored at 0."""
    return max(0.0, min(smp.lam for smp in samples) - 0.5)
