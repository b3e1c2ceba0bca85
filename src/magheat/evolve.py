"""Heat-equation time stepping in physical and self-similar variables.

The physical frame evolves the autonomous magnetic heat equation; the
self-similar frame evolves the non-autonomous confined equation whose
generator is assembled once and updated in place at the midpoint of every
step.  Both step through one unconditionally stable Crank-Nicolson driver
with conjugate-gradient solves, norm non-increasing for positive
semidefinite generators; I +- dt/2 L is applied matrix-free from the
generator L, never formed.  Both frames precondition their solves by the
zero-field Crank-Nicolson operator, inverted by one fast diagonalization:
dense eigenvectors of the frame's axis operator on one axis, folded by
parity into two half-size bases, and one factored tridiagonal solve along
the other.  The frames differ only in that axis operator, which carries
the confining x^2/16 in self-similar variables.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs, zpttrs
from scipy.sparse.linalg import LinearOperator, cg
from scipy.special import logsumexp

from .discretize import (Grid2D, assemble_magnetic, axis_parity_eigh, axis_tridiagonal,
                         check_s_cap, peierls_phases, rewrite_hops)
from .errors import BoundaryContaminationError, ConfigError, SolverConvergenceError

CG_RTOL = 1e-10
BOUNDARY_MASS_TOL = 1e-8
BOUNDARY_RINGS = 2          # cells next to the wall that boundary_mass counts
MAX_DS = 0.05               # largest self-similar step


@dataclass
class StateVector:
    """Complex state on the interior nodes of one grid, tagged with its frame."""

    grid: Grid2D
    values: np.ndarray
    time: float
    frame: str                  # "physical" | "self-similar"

    def norm(self):
        return float(np.linalg.norm(self.values)) * self.grid.h

    def boundary_mass(self):
        """Fraction of the squared norm within ``BOUNDARY_RINGS`` cells of the wall."""
        n, k = self.grid.n, BOUNDARY_RINGS
        v2 = np.abs(self.values.reshape(n, n)) ** 2
        total = float(v2.sum())
        if total == 0.0:
            return 0.0
        rows = slice(k, n - k)      # total minus the inside could round below zero
        ring = v2[:k].sum() + v2[n - k:].sum() + v2[rows, :k].sum() + v2[rows, n - k:].sum()
        return float(ring) / total


@dataclass(frozen=True)
class TrajectoryPoint:
    time: float
    l2_norm: float
    k_norm: float | None
    boundary_mass: float


@dataclass
class NormTrajectory:
    """Norm time series of one evolution run."""

    frame: str
    points: list[TrajectoryPoint]

    @property
    def times(self):
        return np.array([p.time for p in self.points])

    @property
    def l2_norms(self):
        return np.array([p.l2_norm for p in self.points])

    @property
    def k_norms(self):
        return np.array([math.nan if p.k_norm is None else p.k_norm for p in self.points])


def gaussian_state(grid, width=1.0, center=(0.0, 0.0), frame="physical", time=0.0,
                   normalized=True, odd=False):
    """Gaussian (optionally first-excited-like odd) initial datum on a grid.

    The default width-1 profile decays fast enough to lie in the weighted
    space; widths below 2 keep that property.
    """
    X, Y = grid.mesh()
    vals = np.exp(-((X - center[0]) ** 2 + (Y - center[1]) ** 2) / (2.0 * width**2))
    if odd:
        vals = (X - center[0]) * vals
    vals = vals.ravel().astype(complex)
    state = StateVector(grid=grid, values=vals, time=float(time), frame=frame)
    if normalized:
        state.values /= state.norm()
    return state


def weighted_norm(state):
    """Norm against the Gaussian weight e^{|x|^2/4}, via log-sum accumulation."""
    X, Y = state.grid.mesh()
    r2 = (X**2 + Y**2).ravel()
    mod = np.abs(state.values)
    mask = mod > 0.0
    if not np.any(mask):
        return 0.0
    logs = r2[mask] / 4.0 + 2.0 * np.log(mod[mask]) + 2.0 * math.log(state.grid.h)
    peak = int(np.argmax(logs))
    n = state.grid.n
    ix, iy = np.divmod(np.flatnonzero(mask)[peak], n)
    if min(ix, iy, n - 1 - ix, n - 1 - iy) < 2:
        warnings.warn("weighted-norm integrand still grows at the domain boundary",
                      RuntimeWarning, stacklevel=2)
    return float(math.exp(0.5 * logsumexp(logs)))


def step_count(span, step):
    """round(span / step), the number of steps; a ConfigError when not finite."""
    ratio = span / step
    if not math.isfinite(ratio):
        raise ConfigError(f"step count round({span} / {step}) is not finite")
    return round(ratio)


def _fast_diagonalization(grid, dt, harmonic):
    """P^{-1} for P = I + dt/2 (T (x) I + I (x) T), the zero-field
    Crank-Nicolson operator of ``assemble_magnetic(.., harmonic)`` on ``grid``.

    T = tridiag(-1/h^2, 2/h^2 + q, -1/h^2) is the axis operator
    (``axis_tridiagonal``), q = x^2/16 with ``harmonic`` and 0 without, and
    T = V diag(w) V^T.  Applying V^T to axis 0 of r = vec(R) splits P into n
    independent blocks, (1 + dt/2 w_i) I + dt/2 T for mode i, each symmetric
    positive definite and tridiagonal along axis 1.  Stacked, they form one
    tridiagonal of size n^2 whose off-diagonal is zero where a row of nodes
    ends; it is factored once as L D L^T (LAPACK ?pttrf), so P^{-1} r is
    V (pttrs(V^T R)).  T commutes with the flip of the axis, so V is never
    formed: its even and odd columns come from two half-size eigenbases
    (``axis_parity_eigh``), and V^T R is those bases applied to the sum and
    the difference of R's top rows and its flipped bottom rows (the centre
    row of an odd axis joins the even sum), the even modes stacked first.
    V x unfolds the same way: four half-size dense products and one
    tridiagonal solve per apply.  The bases are real, so complex data go
    through them as their interleaved real view, of shape (n, 2n): one real
    product per half and side, without copying the parts apart.
    """
    n, half = grid.n, dt / 2.0
    (w_even, U_even), (w_odd, U_odd) = axis_parity_eigh(grid, harmonic)
    m, ne = n // 2, w_even.size
    # the 1/sqrt(2) of every folded row, so that fold and unfold are sums
    E, O = U_even.copy(), U_odd * math.sqrt(0.5)
    E[:m] *= math.sqrt(0.5)
    w = np.concatenate([w_even, w_odd])
    axis_diag, _ = axis_tridiagonal(grid, harmonic)
    off = np.full(n * n - 1, -half / grid.h**2)
    off[n - 1::n] = 0.0         # no coupling across the end of a row
    d, e, info = dpttrf((1.0 + half * (w[:, None] + axis_diag)).ravel(), off,
                        overwrite_d=1, overwrite_e=1)
    if info != 0:
        raise SolverConvergenceError(f"preconditioner factor failed (pttrf info={info})")
    e_complex = e.astype(complex)     # zpttrs takes a Hermitian, complex off-diagonal
    work = np.empty(2 * n * n)        # the folded rows, reused by every apply

    def apply(r):
        R = r.view(np.float64).reshape(n, -1)
        folded = work[:R.size].reshape(R.shape)
        top, bottom = R[:m], R[::-1][:m]
        np.add(top, bottom, out=folded[:m])
        folded[m:ne] = R[m:ne]          # the centre row of an odd axis
        np.subtract(top, bottom, out=folded[ne:])
        modes = np.empty_like(R)
        np.matmul(E.T, folded[:ne], out=modes[:ne])
        np.matmul(O.T, folded[ne:], out=modes[ne:])
        if np.iscomplexobj(r):
            x, _ = zpttrs(d, e_complex, modes.view(complex).reshape(-1, 1), overwrite_b=1)
        else:
            x, _ = dpttrs(d, e, modes.reshape(-1, 1), overwrite_b=1)
        x = x.view(np.float64).reshape(n, -1)
        np.matmul(E, x[:ne], out=folded[:ne])
        np.matmul(O, x[ne:], out=folded[ne:])
        # unfold into the solve's own array, which the apply returns
        np.add(folded[:m], folded[ne:], out=x[:m])
        x[m:ne] = folded[m:ne]
        np.subtract(folded[:m], folded[ne:], out=x[::-1][:m])
        return x.view(r.dtype).ravel()

    return LinearOperator((grid.size, grid.size), dtype=np.float64, matvec=apply)


def _cn_solver(matrix, dt, precondition):
    """CG solve of (I + dt/2 L) out = (I - dt/2 L) values, warm-started at values
    and preconditioned by ``precondition`` (an approximate inverse of I + dt/2 L).
    Both sides are applied matrix-free, as v +- dt/2 (L v): no matrix but L."""
    half = dt / 2.0
    plus = LinearOperator(matrix.shape, dtype=matrix.dtype,
                          matvec=lambda v: v + half * (matrix @ v))

    def solve(values):
        out, info = cg(plus, values - half * (matrix @ values), x0=values, rtol=CG_RTOL,
                       atol=0.0, M=precondition)
        if info != 0:
            raise SolverConvergenceError(f"Crank-Nicolson CG failed (info={info})")
        return out

    return solve


def _crank_nicolson(values, t, span, dt, matrix_at, record, precondition=None):
    """Crank-Nicolson steps of u' = -L(t) u over ``span`` from ``t``; returns
    ``record(values, t)`` at the start and after each step.  The solver is
    rebuilt only when ``matrix_at(t_mid)`` returns a new matrix object; it
    reads the matrix at every solve, so a matrix that ``matrix_at`` rewrites
    in place keeps its solver.  Every CG solve takes ``precondition`` as its
    preconditioner."""
    n_steps = step_count(span, dt)
    points = [record(values, t)]
    matrix = None
    for _ in range(n_steps):
        current = matrix_at(t + dt / 2.0)
        if current is not matrix:
            matrix, solve = current, _cn_solver(current, dt, precondition)
            # real data under a real generator stay real
            if not np.iscomplexobj(matrix) and not np.any(np.imag(values)):
                values = np.ascontiguousarray(values.real)
        values = solve(values)
        t += dt
        points.append(record(values, t))
    return points


def cn_step(op, state, dt):
    """One Crank-Nicolson step of u' = -L u; unconditionally stable and norm
    non-increasing for Hermitian positive semidefinite L."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    values = _crank_nicolson(state.values, state.time, dt, dt, lambda _: op.matrix,
                             lambda v, _: v)[-1]
    return replace(state, values=values, time=state.time + dt)


def evolve_physical(field, u0, t_final, dt):
    """Evolve the magnetic heat equation in physical variables.

    Records the plain norm at every step and the weighted norm of the initial
    datum; aborts with a diagnostic when mass reaches the Dirichlet wall.
    Every CG solve is preconditioned by the free Crank-Nicolson operator,
    inverted by fast diagonalization: exact without a field, where CG stops
    after one iteration per step.
    """
    if u0.frame != "physical":
        raise ValueError("initial state must be in the physical frame")
    if t_final <= 0.0 or dt <= 0.0:
        raise ValueError("t_final and dt must be positive")
    grid = u0.grid
    matrix = assemble_magnetic(peierls_phases(grid, field), harmonic=False).matrix

    def record(values, t):
        state = StateVector(grid=grid, values=values, time=t, frame="physical")
        bm = state.boundary_mass()
        if bm > BOUNDARY_MASS_TOL:
            raise BoundaryContaminationError(
                f"boundary mass {bm:.2e} exceeded {BOUNDARY_MASS_TOL:.0e} at t = {t:.3f}; "
                "enlarge the domain")
        return TrajectoryPoint(time=t, l2_norm=state.norm(), k_norm=None, boundary_mass=bm)

    points = _crank_nicolson(u0.values, u0.time, t_final - u0.time, dt, lambda _: matrix,
                             record, precondition=_fast_diagonalization(grid, dt, False))
    points[0] = replace(points[0], k_norm=weighted_norm(u0))
    return NormTrajectory(frame="physical", points=points)


def evolve_selfsimilar(field, v0, s_final, ds):
    """Evolve the confined non-autonomous equation in self-similar variables.

    The generator is taken at the midpoint of every step (second order in
    ds).  It is assembled once, at the first step; a zero field's does not
    depend on s.  After the first step only the edge phases near the
    rescaled support are recomputed, in place (``peierls_phases`` with
    ``previous``): beyond radius R e^{-s/2}, R the support radius, the
    rescaled potential is already the Aharonov-Bohm far field of the same
    flux, which does not depend on s, so every other edge keeps its phase.
    ``rewrite_hops`` then rewrites the hop entries of those edges in the
    generator's CSR data, the same matrix object, so the Crank-Nicolson
    driver keeps its solver.  Every CG solve is preconditioned by the
    zero-field Crank-Nicolson operator, inverted by fast diagonalization:
    exact without a field, and close while the rescaled field shrinks
    towards a flux line.
    The recorded weighted norm is the plain norm of the evolved
    representative, which coincides with the weighted norm of the solution in
    the original representation; the companion plain norm divides the weight
    back out.
    """
    if v0.frame != "self-similar":
        raise ValueError("initial state must be in the self-similar frame")
    if ds <= 0.0 or ds > MAX_DS:
        raise ValueError(f"ds must lie in (0, {MAX_DS}]")
    if s_final <= v0.time:
        raise ValueError("s_final must exceed the initial time")
    grid = v0.grid
    check_s_cap(grid, field, [s_final])
    X, Y = grid.mesh()
    inv_weight = np.exp(-(X**2 + Y**2).ravel() / 8.0)
    phases = generator = None

    def matrix_at(s):
        nonlocal phases, generator
        if generator is None:
            phases = peierls_phases(grid, field, s=s)
            generator = assemble_magnetic(phases, harmonic=True).matrix
        elif not field.is_zero:
            s_prev = phases.s
            phases = peierls_phases(grid, field, s=s, previous=phases)
            rewrite_hops(generator, phases, field, s_prev)
        return generator

    def record(values, s):
        state = StateVector(grid=grid, values=values, time=s, frame="self-similar")
        plain = float(np.linalg.norm(values * inv_weight)) * grid.h
        return TrajectoryPoint(time=s, l2_norm=plain, k_norm=state.norm(),
                               boundary_mass=state.boundary_mass())

    points = _crank_nicolson(v0.values, v0.time, s_final - v0.time, ds, matrix_at, record,
                             precondition=_fast_diagonalization(grid, ds, True))
    return NormTrajectory(frame="self-similar", points=points)


def energy_bound_check(trajectory, lambda_samples, slack=1e-3):
    """Verify |v(s)| <= |v(0)| exp(-int_0^s (lambda - slack)) along a run.

    ``lambda_samples`` come from the spectral module on the same grid; the
    integral uses trapezoid interpolation of the sampled curve.  Returns the
    worst signed margin (negative = violated) and a pass flag.
    """
    if trajectory.frame != "self-similar":
        raise ValueError("energy bound applies to self-similar runs")
    ss = np.array([smp.s for smp in lambda_samples])
    ls = np.array([smp.lam for smp in lambda_samples])
    times = trajectory.times
    norms = trajectory.k_norms
    lam_at = np.interp(times, ss, ls)
    integral = np.concatenate([[0.0], np.cumsum(
        0.5 * (lam_at[1:] + lam_at[:-1] - 2.0 * slack) * np.diff(times))])
    bound = norms[0] * np.exp(-integral)
    # the first sample is tight by construction; report the closest later
    # approach while still flagging a violation anywhere
    margin = float(np.min((bound - norms)[1:])) if times.size > 1 \
        else float(bound[0] - norms[0])
    return margin, bool(margin >= 0.0)
