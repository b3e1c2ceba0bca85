"""Independent oracles that only the tests call.

``cn_step`` takes one step of the package's Crank-Nicolson loop,
``_crank_nicolson``, with a fixed generator and no preconditioner: the
checks of that loop's Pade map run through it, and stepping it reproduces
the physical norm curves that ``evolve_physical`` takes from one Lanczos
quadrature.
``variational_upper_bound`` bounds lambda(s) from above by a Rayleigh
quotient computed with adaptive quadrature, independent of any grid, from
the far-field ``alpha_infinity``.
"""

import math
from dataclasses import replace

import numpy as np
from scipy.integrate import quad

from magheat.evolve import _crank_nicolson
from magheat.field import alpha_batch


def cn_step(op, state, dt):
    """One Crank-Nicolson step of u' = -L u; unconditionally stable and norm
    non-increasing for Hermitian positive semidefinite L."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    values = _crank_nicolson(state.values, state.time, dt, dt, lambda _: op.matrix,
                             lambda v, _: v)[-1]
    return replace(state, values=values, time=state.time + dt)


def alpha_infinity(field, theta):
    """Limit of alpha(r, theta) as r -> infinity, attained at the support radius."""
    return alpha_batch(field, field.support_radius, theta)


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
