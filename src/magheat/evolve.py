"""Heat-equation time stepping in physical and self-similar variables.

The physical frame evolves the autonomous magnetic heat equation; the
self-similar frame evolves the non-autonomous confined equation whose
generator is refreshed at the midpoint of every step.  Both use the
unconditionally stable Crank-Nicolson scheme with conjugate-gradient solves,
which is norm non-increasing for positive semidefinite generators.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.interpolate import RegularGridInterpolator
from scipy.sparse.linalg import cg
from scipy.special import logsumexp

from .discretize import Grid2D, assemble_magnetic, check_s_cap, peierls_phases
from .errors import BoundaryContaminationError, FrameMapError, SolverConvergenceError
from .field import GaugeField

CG_RTOL = 1e-10
BOUNDARY_MASS_TOL = 1e-8
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

    def boundary_mass(self, rings=2):
        """Fraction of the squared norm within ``rings`` cells of the wall."""
        n = self.grid.n
        v2 = np.abs(self.values.reshape(n, n)) ** 2
        total = float(v2.sum())
        if total == 0.0:
            return 0.0
        inner = float(v2[rings:n - rings, rings:n - rings].sum())
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


def physical_domain_radius(t_final, width, support_radius=0.0,
                           boundary_tol=BOUNDARY_MASS_TOL):
    """Domain half-width keeping Gaussian-data boundary mass below tolerance.

    The evolved Gaussian has variance width^2 + 2t, so the mass beyond radius
    R decays like exp(-R^2 / (width^2 + 2t)); the field support is added on
    top.  (A bare multiple of sqrt(t) under-sizes the domain for tight
    boundary tolerances.)
    """
    spread = math.sqrt((width**2 + 2.0 * t_final) * math.log(1.0 / boundary_tol))
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


class _CrankNicolson:
    """Cached (I + dt/2 L) / (I - dt/2 L) pair with warm-started CG solves.

    A real generator acting on complex data is solved per real component,
    which keeps the cheap real path of the zero-field baselines."""

    def __init__(self, op, dt):
        n = op.dimension
        self.real_matrix = not np.issubdtype(op.matrix.dtype, np.complexfloating)
        eye = sp.identity(n, dtype=op.matrix.dtype, format="csr")
        self.plus = (eye + (dt / 2.0) * op.matrix).tocsr()
        self.minus = (eye - (dt / 2.0) * op.matrix).tocsr()
        self.guess = None

    def _solve(self, rhs, x0):
        out, info = cg(self.plus, rhs, x0=x0, rtol=CG_RTOL, atol=0.0)
        if info != 0:
            raise SolverConvergenceError(f"Crank-Nicolson CG failed (info={info})")
        return out

    def step(self, values):
        if self.guess is None:
            self.guess = values
        if self.real_matrix and np.iscomplexobj(values):
            rhs = self.minus @ values
            out = self._solve(rhs.real, self.guess.real).astype(complex)
            if np.any(values.imag):
                out += 1j * self._solve(rhs.imag, np.ascontiguousarray(self.guess.imag))
            self.guess = out
            return out
        rhs = self.minus @ values
        out = self._solve(rhs, self.guess)
        self.guess = out
        return out


def cn_step(op, state, dt):
    """One Crank-Nicolson step of u' = -L u; unconditionally stable and norm
    non-increasing for Hermitian positive semidefinite L."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    stepper = _CrankNicolson(op, dt)
    return StateVector(grid=state.grid, values=stepper.step(state.values),
                       time=state.time + dt, frame=state.frame)


def evolve_physical(field, u0, t_final, dt, boundary_tol=BOUNDARY_MASS_TOL):
    """Evolve the magnetic heat equation in physical variables.

    Records the plain norm at every step and the weighted norm of the initial
    datum; aborts with a diagnostic when mass reaches the Dirichlet wall.
    """
    if u0.frame != "physical":
        raise ValueError("initial state must be in the physical frame")
    if t_final <= 0.0 or dt <= 0.0:
        raise ValueError("t_final and dt must be positive")
    grid = u0.grid
    phases = peierls_phases(grid, GaugeField(field), s=None)
    op = assemble_magnetic(grid, phases, harmonic=False)
    stepper = _CrankNicolson(op, dt)

    bm = u0.boundary_mass()
    if bm > boundary_tol:
        raise BoundaryContaminationError(
            f"initial boundary mass {bm:.2e} exceeds {boundary_tol:.0e}")
    points = [TrajectoryPoint(time=u0.time, l2_norm=u0.norm(),
                              k_norm=weighted_norm(u0), boundary_mass=bm)]
    values = u0.values.copy()
    t = u0.time
    n_steps = int(round((t_final - u0.time) / dt))
    for _ in range(n_steps):
        values = stepper.step(values)
        t += dt
        state = StateVector(grid=grid, values=values, time=t, frame="physical")
        bm = state.boundary_mass()
        if bm > boundary_tol:
            raise BoundaryContaminationError(
                f"boundary mass {bm:.2e} exceeded {boundary_tol:.0e} at t = {t:.3f}; "
                "enlarge the domain")
        points.append(TrajectoryPoint(time=t, l2_norm=state.norm(), k_norm=None,
                                      boundary_mass=bm))
    return NormTrajectory(frame="physical", points=points)


def evolve_selfsimilar(field, v0, s_final, ds):
    """Evolve the confined non-autonomous equation in self-similar variables.

    The generator is rebuilt at the midpoint of every step (second order in
    ds), except for a zero field, whose generator does not depend on s and is
    built once.  The recorded weighted norm is the plain norm of the evolved
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
    gauge = GaugeField(field)
    X, Y = grid.mesh()
    inv_weight = np.exp(-(X**2 + Y**2).ravel() / 8.0)

    def record(state):
        k_norm = state.norm()
        plain = float(np.linalg.norm(state.values * inv_weight)) * grid.h
        return TrajectoryPoint(time=state.time, l2_norm=plain, k_norm=k_norm,
                               boundary_mass=state.boundary_mass())

    points = [record(v0)]
    values = v0.values.copy()
    s = v0.time
    n_steps = int(round((s_final - v0.time) / ds))
    stepper = None
    for _ in range(n_steps):
        if stepper is None or not field.is_zero:
            phases = peierls_phases(grid, gauge, s=s + ds / 2.0)
            op = assemble_magnetic(grid, phases, harmonic=True)
            stepper = _CrankNicolson(op, ds)
        values = stepper.step(values)
        s += ds
        points.append(record(StateVector(grid=grid, values=values, time=s,
                                          frame="self-similar")))
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
