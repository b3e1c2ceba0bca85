"""Independent oracles that only the tests call.

``cn_step`` takes one Crank-Nicolson step by a direct sparse solve, sharing
no code with ``evolve_selfsimilar``'s CG loop: the checks of the Pade map
run through it, stepping it on a fresh generator at each midpoint
reproduces the self-similar runs, and stepping it on the fixed generator
reproduces the physical norm curves that ``evolve_physical`` takes from one
Lanczos quadrature.
``alpha_node_by_node`` evaluates ``alpha_batch``'s off-centre quadrature
rule one ray and one node at a time, through the profile function at
Cartesian nodes, as the exact reference for the blocked kernel.
``variational_upper_bound`` bounds lambda(s) from above by a Rayleigh
quotient computed with adaptive quadrature, independent of any grid, from
the far-field ``alpha_infinity``.
``assemble_by_diagonals`` builds the five-point Peierls stencil as five
diagonals through ``scipy.sparse.diags``, the reference for the CSR arrays
that ``assemble_magnetic`` writes in place.
"""

import math
from dataclasses import replace

import numpy as np
import scipy.sparse as sp
from scipy.integrate import quad
from scipy.sparse.linalg import spsolve

from magheat.field import _GL64_UNIT, _GL64_WEIGHTS, _profile_sq, alpha_batch


def cn_step(op, state, dt):
    """One Crank-Nicolson step of u' = -L u, (I + dt/2 L) u' = (I - dt/2 L) u
    solved by sparse LU; unconditionally stable and norm non-increasing for
    Hermitian positive semidefinite L."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    half = dt / 2.0
    eye = sp.identity(op.matrix.shape[0], dtype=op.matrix.dtype, format="csc")
    values = spsolve((eye + half * op.matrix).tocsc(), (eye - half * op.matrix) @ state.values)
    return replace(state, values=values, time=state.time + dt)


def assemble_by_diagonals(phases, harmonic):
    """``assemble_magnetic``'s matrix from its five diagonals: offset 0 holds
    4/h^2 (+ |x|^2/16), offsets +-n the hops along ``qh`` and +-1 those along
    ``qv``; the +-1 diagonals hold a zero where a row of nodes ends
    (j = n - 1), and the DIA -> CSR conversion drops it.  A zero gauge gives
    a real matrix."""
    grid = phases.grid
    n, h = grid.n, grid.h
    X, Y = grid.mesh()
    diag = np.full(grid.size, 4.0 / h**2)
    if harmonic:
        diag = diag + (X**2 + Y**2).ravel() / 16.0
    real = not (np.any(phases.qh) or np.any(phases.qv))

    def hop(q):
        return (np.ones(q.shape) if real else np.exp(-1j * q)) / h**2

    hop_h = hop(phases.qh).ravel()
    hop_v = np.pad(hop(phases.qv), ((0, 0), (0, 1))).ravel()[:-1]
    return sp.diags([diag, -hop_h, -hop_h.conj(), -hop_v, -hop_v.conj()],
                    [0, n, -n, 1, -1], format="csr",
                    dtype=np.float64 if real else np.complex128)


def alpha_infinity(field, theta):
    """Limit of alpha(r, theta) as r -> infinity, attained at the support radius."""
    return alpha_batch(field, field.support_radius, theta)


def alpha_node_by_node(field, r, theta):
    """alpha(r, theta) of a field of off-centre components by the 64-node
    Gauss-Legendre rule over each ray's chord [t0, t0 + w] through the
    component disc, node by node: the point tau (cos, sin), tau = t0 + w x,
    goes through ``_profile_sq`` and the weighted terms are summed exactly
    (``math.fsum``).  The same rule as ``alpha_batch``, with no quadratic in
    x and no moment products.  The chord ends come from b^2 - |c|^2 + R^2,
    where the kernel takes the distance of the centre to the ray's line; the
    two differ by rounding, which a bump vanishing at the rim does not feel."""
    values = []
    for ri, ti in zip(np.broadcast_to(r, np.shape(theta)), theta):
        cos_t, sin_t = math.cos(ti), math.sin(ti)
        terms = []
        for comp in field.components:
            cx, cy = comp.center
            assert (cx, cy) != (0.0, 0.0), "centred components have closed forms"
            b = cx * cos_t + cy * sin_t
            disc = b * b - (cx * cx + cy * cy - comp.radius**2)
            if comp.amplitude == 0.0 or not disc > 0.0:
                continue
            t0 = max(b - math.sqrt(disc), 0.0)
            w = min(b + math.sqrt(disc), ri) - t0
            if not w > 0.0:
                continue
            for x, weight in zip(_GL64_UNIT, _GL64_WEIGHTS):
                tau = t0 + w * x
                u2 = ((tau * cos_t - cx) ** 2 + (tau * sin_t - cy) ** 2) / comp.radius**2
                profile = float(_profile_sq(comp.profile, np.array(u2)))
                terms.append(0.5 * comp.amplitude * w * weight * profile * tau)
        values.append(math.fsum(terms))
    return np.array(values)


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
