"""Heat-equation time stepping in physical and self-similar variables.

The physical frame evolves the autonomous magnetic heat equation; the
self-similar frame evolves the non-autonomous confined equation whose
generator is refreshed at the midpoint of every step.  Both step through one
unconditionally stable Crank-Nicolson driver with conjugate-gradient solves,
norm non-increasing for positive semidefinite generators; the self-similar
solves are preconditioned by the zero-field operator.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.interpolate import RegularGridInterpolator
from scipy.sparse.linalg import LinearOperator, cg
from scipy.special import logsumexp

from .discretize import (Grid2D, assemble_magnetic, check_s_cap, harmonic_axis_eigh,
                         peierls_phases)
from .errors import (BoundaryContaminationError, ConfigError, FrameMapError,
                     SolverConvergenceError)

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
        inner = float(v2[k:n - k, k:n - k].sum())
        return (total - inner) / total


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


def physical_domain_radius(t_final, width, support_radius=0.0):
    """Domain half-width keeping Gaussian-data boundary mass below tolerance.

    The evolved Gaussian has variance width^2 + 2t, so the mass beyond radius
    R decays like exp(-R^2 / (width^2 + 2t)); the field support is added on
    top.  (A bare multiple of sqrt(t) under-sizes the domain for tight
    boundary tolerances.)
    """
    spread = math.sqrt((width**2 + 2.0 * t_final) * math.log(1.0 / BOUNDARY_MASS_TOL))
    return spread + support_radius


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


def _fast_diagonalization(grid, dt):
    """P^{-1} for P = I + dt/2 (T (x) I + I (x) T), the zero-field confined
    Crank-Nicolson operator on ``grid``.

    With T = V diag(w) V^T (``harmonic_axis_eigh``), P^{-1} r is
    V ((V^T R V) / (1 + dt/2 (w_i + w_j))) V^T for r = vec(R): four dense
    n x n products.  ``V`` is real, so complex data go through as their real
    and imaginary parts; numpy would otherwise promote ``V`` to complex and
    double the cost of each product.
    """
    w, V = harmonic_axis_eigh(grid)
    scale = 1.0 / (1.0 + (dt / 2.0) * (w[:, None] + w[None, :]))
    n = grid.n

    def solve_real(R):
        return V @ ((V.T @ R @ V) * scale) @ V.T

    def apply(r):
        R = r.reshape(n, n)
        if not np.iscomplexobj(r):
            return solve_real(R).ravel()
        out = np.empty((n, n), dtype=r.dtype)
        out.real = solve_real(R.real)
        out.imag = solve_real(R.imag)
        return out.ravel()

    return LinearOperator((grid.size, grid.size), matvec=apply, dtype=np.float64)


def _cn_solver(matrix, dt, precondition):
    """CG solve of (I + dt/2 L) out = (I - dt/2 L) values, warm-started at values
    and preconditioned by ``precondition`` (an approximate inverse of I + dt/2 L)."""
    eye = sp.identity(matrix.shape[0], dtype=matrix.dtype, format="csr")
    plus = (eye + (dt / 2.0) * matrix).tocsr()
    minus = (eye - (dt / 2.0) * matrix).tocsr()

    def solve(values):
        out, info = cg(plus, minus @ values, x0=values, rtol=CG_RTOL, atol=0.0,
                       M=precondition)
        if info != 0:
            raise SolverConvergenceError(f"Crank-Nicolson CG failed (info={info})")
        return out

    return solve


def _crank_nicolson(values, t, span, dt, matrix_at, record, precondition=None):
    """Crank-Nicolson steps of u' = -L(t) u over ``span`` from ``t``; returns
    ``record(values, t)`` at the start and after each step.  The solver is
    rebuilt when ``matrix_at(t_mid)`` returns a new matrix; every CG solve
    takes ``precondition`` as its preconditioner."""
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
                             record)
    points[0] = replace(points[0], k_norm=weighted_norm(u0))
    return NormTrajectory(frame="physical", points=points)


def evolve_selfsimilar(field, v0, s_final, ds):
    """Evolve the confined non-autonomous equation in self-similar variables.

    The generator is rebuilt at the midpoint of every step (second order in
    ds), except for a zero field, whose generator does not depend on s and is
    built once.  Every CG solve is preconditioned by the zero-field
    Crank-Nicolson operator, inverted by fast diagonalization: exact without
    a field, and close while the rescaled field shrinks towards a flux line.
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
    built = None

    def matrix_at(s):
        nonlocal built
        if built is None or not field.is_zero:
            built = assemble_magnetic(peierls_phases(grid, field, s=s), harmonic=True)
        return built.matrix

    def record(values, s):
        state = StateVector(grid=grid, values=values, time=s, frame="self-similar")
        plain = float(np.linalg.norm(values * inv_weight)) * grid.h
        return TrajectoryPoint(time=s, l2_norm=plain, k_norm=state.norm(),
                               boundary_mass=state.boundary_mass())

    points = _crank_nicolson(v0.values, v0.time, s_final - v0.time, ds, matrix_at, record,
                             precondition=_fast_diagonalization(grid, ds))
    return NormTrajectory(frame="self-similar", points=points)


def frame_map(state, direction, target_grid=None):
    """Change of space-time frame by bilinear interpolation.

    ``to-self-similar`` sends u(. , t) to e^{s/2} u(e^{s/2} y, t) with
    s = log(1 + t); ``to-physical`` inverts it.  Raises when the rescaling
    would push visible mass off the source grid.
    """
    if direction not in ("to-self-similar", "to-physical"):
        raise ValueError(f"unknown direction {direction!r}")
    grid = state.grid
    target = target_grid if target_grid is not None else grid
    if direction == "to-self-similar":
        if state.frame != "physical":
            raise ValueError("state must be physical")
        s = math.log(1.0 + state.time)
        scale = math.exp(s / 2.0)
        new_time, new_frame, amp = s, "self-similar", scale
    else:
        if state.frame != "self-similar":
            raise ValueError("state must be self-similar")
        t = math.exp(state.time) - 1.0
        scale = math.exp(-state.time / 2.0)
        new_time, new_frame, amp = t, "physical", scale
    reach = scale * target.r_dom
    if reach < grid.r_dom:
        n = grid.n
        v2 = np.abs(state.values.reshape(n, n)) ** 2
        X, Y = grid.mesh()
        outside = (np.maximum(np.abs(X), np.abs(Y)) > reach).ravel()
        lost = float(v2.ravel()[outside].sum() / max(v2.sum(), 1e-300))
        if lost > 1e-8:
            raise FrameMapError(
                f"change of frame loses {lost:.2e} of the mass off-grid")
    axis = grid.axis()
    interp = RegularGridInterpolator((axis, axis),
                                     state.values.reshape(grid.n, grid.n),
                                     bounds_error=False, fill_value=0.0)
    TX, TY = target.mesh()
    pts = np.stack([scale * TX.ravel(), scale * TY.ravel()], axis=-1)
    vals = amp * interp(pts)
    return StateVector(grid=target, values=vals.astype(complex), time=new_time,
                       frame=new_frame)


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
