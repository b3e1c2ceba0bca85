"""Heat-equation time stepping in physical and self-similar variables.

Both frames use Crank-Nicolson, unconditionally stable and norm
non-increasing for positive semidefinite generators.  The self-similar
frame evolves the non-autonomous confined equation; its generator, shared
with ``lambda_curve``, is assembled once and updated in place at the
midpoint of every step, as the real W L W^H for a mirror-symmetric field.
``evolve_selfsimilar`` steps it in one loop of CG solves, I + dt/2 L
applied matrix-free from the generator L, preconditioned by the zero-field
Crank-Nicolson operator.  That operator is inverted by one fast
diagonalization: dense eigenvectors of the confined axis operator on one
axis, split by parity into two half-size bases, and one factored
tridiagonal solve along the other.  The physical frame's generator is fixed,
so its k-th Crank-Nicolson state is r(dt L)^k u_0, r(z) = (1 - z/2)/(1 + z/2):
every recorded norm and boundary mass comes from one Lanczos run on L, by
Gauss quadrature, with no linear solve on the grid; for a mirror-symmetric
field and a datum that folds to a vector real up to a factor i, that run is
on the real W L W^H.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import get_blas_funcs
from scipy.linalg.lapack import dpttrf, dpttrs, zpttrs
from scipy.sparse.linalg import LinearOperator, cg

from .discretize import (Grid2D, assemble_magnetic, check_s_cap, harmonic_axis_parity_eigh,
                         harmonic_axis_tridiagonal, peierls_phases, rewrite_hops)
from .errors import BoundaryContaminationError, ConfigError, SolverConvergenceError

CG_RTOL = 1e-10
BOUNDARY_MASS_TOL = 1e-8
BOUNDARY_RINGS = 2          # cells next to the wall that boundary_mass counts
MAX_DS = 0.05               # largest self-similar step
LANCZOS_CHECK = 10          # Lanczos steps between two physical norm curves
LANCZOS_RTOL = 1e-13        # relative change between two norm curves that ends a Lanczos run
LANCZOS_MAX_STEPS = 2000    # Lanczos steps within which the norm curve must settle
_CN_ROW_BLOCK = 256         # rows c_k per block of the Lanczos curve and ring-mass passes


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
        return _ring_share(self.values, _ring_nodes(self.grid))


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
    # log-sum-exp shifted by the largest term, so no term overflows
    top = logs[peak]
    return float(math.exp(0.5 * (top + math.log(np.sum(np.exp(logs - top))))))


def step_count(span, step):
    """round(span / step), the number of steps; a ConfigError when not finite."""
    ratio = span / step
    if not math.isfinite(ratio):
        raise ConfigError(f"step count round({span} / {step}) is not finite")
    return round(ratio)


def _fast_diagonalization(grid, dt, folded=False):
    """P^{-1} for P = I + dt/2 (T (x) I + I (x) T), the zero-field
    Crank-Nicolson operator of the confined generator on ``grid``, on node
    vectors, or with ``folded`` on vectors in the coordinates of
    ``discretize.assemble_magnetic(folded=True)``.

    T = tridiag(-1/h^2, 2/h^2 + x^2/16, -1/h^2) is the axis operator
    (``harmonic_axis_tridiagonal``) and T = V diag(w) V^T.  Applying V^T to
    axis 0 of r = vec(R) splits P into n independent blocks,
    (1 + dt/2 w_i) I + dt/2 T for mode i, each symmetric positive definite
    and tridiagonal along axis 1.  Stacked, they form one tridiagonal of
    size n^2 whose off-diagonal is zero where a row of nodes ends; it is
    factored once as L D L^T (LAPACK ?pttrf), so P^{-1} r is V (pttrs(V^T R)).
    T commutes with the flip of the axis, so V is never formed: its even and
    odd columns come from two half-size eigenbases
    (``harmonic_axis_parity_eigh``), whose coordinates are those of the
    folded basis, a_p and the centre row for the even modes, b_p for the odd
    ones (P is real, so the 1/i of b_p passes through).  One core applies
    the two bases, the even modes stacked first, solves and applies them
    back.  A folded vector feeds it its a, centre and b rows as they are; a
    node vector the sum and the difference of R's top rows and its flipped
    bottom rows, the (a, b) coordinates times sqrt(2), taken out by scaling
    the top rows of the bases (the centre row of an odd axis joins the even
    sum as it is), and is unfolded the same way.  The bases are real, so
    complex data go through them as their interleaved real view: one real
    product per half and side, without copying the parts apart.
    """
    n, half = grid.n, dt / 2.0
    (w_even, E), (w_odd, O) = harmonic_axis_parity_eigh(grid)
    m, ne = n // 2, w_even.size
    if not folded:
        # the 1/sqrt(2) of every node-basis fold row, so that fold and unfold are sums
        E[:m] *= math.sqrt(0.5)
        O *= math.sqrt(0.5)
    w = np.concatenate([w_even, w_odd])
    axis_diag, _ = harmonic_axis_tridiagonal(grid)
    off = np.full(n * n - 1, -half / grid.h**2)
    off[n - 1::n] = 0.0         # no coupling across the end of a row
    d, e, info = dpttrf((1.0 + half * (w[:, None] + axis_diag)).ravel(), off,
                        overwrite_d=1, overwrite_e=1)
    if info != 0:
        raise SolverConvergenceError(f"preconditioner factor failed (pttrf info={info})")
    e_complex = e.astype(complex)     # zpttrs takes a Hermitian, complex off-diagonal
    work = np.empty(2 * n * n)        # the even and odd rows, reused by every apply

    def solve(parts):
        """The core: ``parts``, the even rows over the odd ones, each n or 2n
        (a complex view) wide, overwritten by their image under P^{-1}; the
        solve's own array, free again, is returned."""
        modes = np.empty_like(parts)
        np.matmul(E.T, parts[:ne], out=modes[:ne])
        np.matmul(O.T, parts[ne:], out=modes[ne:])
        if modes.shape[1] == 2 * n:
            x, _ = zpttrs(d, e_complex, modes.view(complex).reshape(-1, 1), overwrite_b=1)
        else:
            x, _ = dpttrs(d, e, modes.reshape(-1, 1), overwrite_b=1)
        x = x.view(np.float64).reshape(parts.shape)
        np.matmul(E, x[:ne], out=parts[:ne])
        np.matmul(O, x[ne:], out=parts[ne:])
        return x

    def apply_nodes(r):
        R = r.view(np.float64).reshape(n, -1)
        parts = work[:R.size].reshape(R.shape)
        top, bottom = R[:m], R[::-1][:m]
        np.add(top, bottom, out=parts[:m])
        parts[m:ne] = R[m:ne]           # the centre row of an odd axis
        np.subtract(top, bottom, out=parts[ne:])
        x = solve(parts)
        # unfold into the solve's own array, which the apply returns
        np.add(parts[:m], parts[ne:], out=x[:m])
        x[m:ne] = parts[m:ne]
        np.subtract(parts[:m], parts[ne:], out=x[::-1][:m])
        return x.view(r.dtype).ravel()

    def apply_folded(r):
        flat = r.view(np.float64)
        k = flat.size // (n * n)        # 1, or 2 for complex data
        top = 2 * m * n * k             # the interleaved a_p, b_p; the centre row follows
        pairs = flat[:top].reshape(m, n, 2, k)
        parts = work[:flat.size].reshape(n, n * k)
        parts[:m].reshape(m, n, k)[...] = pairs[:, :, 0]
        parts[m:ne] = flat[top:].reshape(-1, n * k)
        parts[ne:].reshape(m, n, k)[...] = pairs[:, :, 1]
        out = solve(parts).reshape(-1)
        out_pairs = out[:top].reshape(pairs.shape)
        out_pairs[:, :, 0] = parts[:m].reshape(m, n, k)
        out_pairs[:, :, 1] = parts[ne:].reshape(m, n, k)
        out[top:] = parts[m:ne].ravel()
        return out.view(r.dtype)

    return LinearOperator((grid.size, grid.size), dtype=np.float64,
                          matvec=apply_folded if folded else apply_nodes)


def _real_form(values):
    """``values`` as a float64 vector when they are real up to a factor i,
    else None.  Purely imaginary data are rotated by -i: every record, norm
    and ring share is blind to a global phase."""
    if not np.iscomplexobj(values):
        return values
    if not np.any(values.imag):
        return np.ascontiguousarray(values.real)
    if not np.any(values.real):
        return np.ascontiguousarray(values.imag)
    return None


def _working_values(matrix, values):
    """``values`` in the generator's arithmetic: under a real generator, data
    real up to a factor i step as real (``_real_form``)."""
    real = None if np.iscomplexobj(matrix) else _real_form(values)
    return values if real is None else real


def _fold_values(grid, values):
    """W u, ``values`` in the coordinates of ``assemble_magnetic(folded=True)``:
    (u_p + u_Rp)/sqrt(2) and (u_p - u_Rp)/(i sqrt(2)) interleaved for each
    top-half node p and its mirror Rp, then the centre row of an odd grid as
    it is.  A mirror-symmetric real u folds to a real vector, exactly, and an
    antisymmetric one to an imaginary vector."""
    n = grid.n
    m = n // 2
    u = values.reshape(n, n)
    top, bottom = u[:m], u[::-1][:m]
    out = np.empty(grid.size, dtype=complex)
    pairs = out[:2 * m * n].reshape(m, n, 2)
    pairs[..., 0] = (top + bottom) * math.sqrt(0.5)
    pairs[..., 1] = (top - bottom) * (-1j * math.sqrt(0.5))
    out[2 * m * n:] = u[m:n - m].ravel()
    return out


def _folded_nodes(grid):
    """The node of each folded coordinate: p for a_p and b_p, then the
    centre row."""
    n = grid.n
    m = n // 2
    return np.concatenate([np.repeat(np.arange(m * n), 2), np.arange(m * n, (n - m) * n)])


def _ring_share(values, ring):
    """Fraction of the squared norm of ``values`` at the indices ``ring``."""
    v2 = np.abs(values.ravel()) ** 2
    total = float(v2.sum())
    if total == 0.0:
        return 0.0
    # the ring itself, not total minus the inside, which could round below zero
    return float(v2[ring].sum()) / total


def _ring_nodes(grid, folded=False):
    """Flat indices of the nodes within ``BOUNDARY_RINGS`` cells of the wall,
    or with ``folded`` of the folded coordinates at those nodes
    (``_folded_nodes``): the ring is even in x, so it folds coordinate by
    coordinate."""
    n, k = grid.n, BOUNDARY_RINGS
    ring = np.ones((n, n), dtype=bool)
    ring[k:n - k, k:n - k] = False
    ring = ring.ravel()
    return np.flatnonzero(ring[_folded_nodes(grid)] if folded else ring)


def _tridiagonal_cn(alpha, beta, dt, n_steps):
    """Rows c_k = r(dt T)^k e_1, k = 0..n_steps, of Crank-Nicolson on the Lanczos
    tridiagonal T = tridiag(beta, alpha, beta), with one ?pttrf factor.
    |c_k| is the Gauss quadrature of |r(dt L)^k u_0| / |u_0|; stepped, it
    settles to 1e-15 as T grows, where the eigen form sum_j S_1j^2
    r(dt theta_j)^{2k} stalls at a few 1e-13.  Returns ``blocks``: each call
    steps the rows afresh and yields them ``_CN_ROW_BLOCK`` at a time, in one
    reused array, so no pass holds more than that many rows."""
    half = dt / 2.0
    # ?pttrf takes one off-diagonal entry even for a 1 x 1 matrix
    d, e, info = dpttrf(1.0 + half * alpha, half * beta if beta.size else np.zeros(1))
    if info != 0:
        raise SolverConvergenceError(f"Lanczos tridiagonal factor failed (pttrf info={info})")
    diagonal, off = 1.0 - half * alpha, half * beta

    def blocks():
        block = np.empty((min(n_steps + 1, _CN_ROW_BLOCK), alpha.size))
        c = np.zeros(alpha.size)
        c[0] = 1.0
        filled = 0
        for k in range(n_steps + 1):
            if k:
                rhs = diagonal * c
                rhs[:-1] -= off * c[1:]
                rhs[1:] -= off * c[:-1]
                c, _ = dpttrs(d, e, rhs, overwrite_b=1)
            block[filled] = c
            filled += 1
            if filled == block.shape[0] or k == n_steps:
                yield block[:filled]
                filled = 0

    return blocks


def _lanczos_norms(matrix, values, dt, n_steps, ring):
    """Norms |u_k| and ring fractions |u_k[ring]|^2 / |u_k|^2 of the states
    u_k = r(dt L)^k u_0, k = 0..n_steps, from one Lanczos run on L.

    Without reorthogonalization the Gauss quadrature stays accurate in
    finite precision (Golub & Strakos 1994).  The run stops once two curves
    ``LANCZOS_CHECK`` steps apart agree to ``LANCZOS_RTOL`` at every k, or at
    an exact breakdown.  ``Q_ring`` keeps the ring entries of each Lanczos
    vector, so the ring of u_k is |u_0| Q_ring^T c_k and one Gram matrix gives
    every ring mass.  The states converge more slowly than their norms: at
    the stop the ring shares |u_k[ring]| / |u_k| are a few 1e-10 from
    stepped Crank-Nicolson, far below what ``BOUNDARY_MASS_TOL`` needs.
    Every check reduces the rows c_k block by block to their norms, and the
    last one steps them once more for the ring masses, so beyond the curves
    themselves the memory is ``_CN_ROW_BLOCK`` x m + m^2 whatever n_steps.
    """
    norm0 = float(np.linalg.norm(values))
    if norm0 == 0.0:
        return np.zeros(n_steps + 1), np.zeros(n_steps + 1)
    q = (values / norm0).astype(np.result_type(matrix.dtype, values.dtype), copy=False)
    axpy, nrm2, scal = get_blas_funcs(("axpy", "nrm2", "scal"), (q,))
    Q_ring = np.empty((LANCZOS_MAX_STEPS, ring.size), dtype=q.dtype)
    alpha, beta = np.empty(LANCZOS_MAX_STEPS), np.empty(LANCZOS_MAX_STEPS)
    curve = None
    for m in range(1, LANCZOS_MAX_STEPS + 1):
        Q_ring[m - 1] = q[ring]
        w = matrix @ q          # the one new vector of the step; the rest is in place
        if m > 1:
            w = axpy(q_prev, w, a=-beta[m - 2])
        alpha[m - 1] = np.vdot(q, w).real
        w = axpy(q, w, a=-alpha[m - 1])
        beta[m - 1] = nrm2(w)
        breakdown = beta[m - 1] <= np.finfo(float).eps * abs(alpha[m - 1])
        if breakdown or m % LANCZOS_CHECK == 0:
            blocks = _tridiagonal_cn(alpha[:m], beta[:m - 1], dt, n_steps)
            previous = curve
            curve = np.concatenate([np.linalg.norm(c, axis=1) for c in blocks()])
            if breakdown or (previous is not None
                             and np.all(np.abs(curve - previous) <= LANCZOS_RTOL * curve)):
                rows = Q_ring[:m].view(np.float64)   # Re(a^H b) is the dot of the real views
                gram = rows @ rows.T
                ring_mass = np.concatenate([np.sum((c @ gram) * c, axis=1) for c in blocks()])
                fraction = np.divide(np.maximum(ring_mass, 0.0), curve**2,
                                     out=np.zeros_like(curve), where=curve > 0.0)
                return norm0 * curve, fraction
        q_prev, q = q, scal(1.0 / beta[m - 1], w)
    raise SolverConvergenceError(
        f"Lanczos norm curve did not settle within {LANCZOS_MAX_STEPS} steps")


def evolve_physical(field, u0, t_final, dt):
    """Evolve the magnetic heat equation in physical variables.

    Records the plain norm of the Crank-Nicolson states at every step and
    the weighted norm of the initial datum; aborts with a diagnostic at the
    first step whose mass reaches the Dirichlet wall.  The generator L does
    not change, so the k-th state is r(dt L)^k u_0 and every norm and ring
    mass comes from one Lanczos run on L (``_lanczos_norms``), with no
    linear solve on the grid.
    For a nonzero mirror-symmetric field (``_carries_folded``) whose datum
    folds by W to a vector real up to a factor i (``_fold_values``,
    ``_real_form``), as the centred and the x-odd Gaussian do, the run is on
    the real W L W^H of ``assemble_magnetic(folded=True)``, in float64, with
    the ring folded coordinate by coordinate; W is unitary, so every norm and
    ring share is that of the node basis.  Any other datum keeps the complex
    stencil: a real matrix on complex vectors is slower than it.
    """
    if u0.frame != "physical":
        raise ValueError("initial state must be in the physical frame")
    if t_final <= 0.0 or dt <= 0.0:
        raise ValueError("t_final and dt must be positive")
    grid = u0.grid
    n_steps = step_count(t_final - u0.time, dt)
    values = _real_form(_fold_values(grid, u0.values)) if _carries_folded(field) else None
    folded = values is not None
    matrix = assemble_magnetic(peierls_phases(grid, field), harmonic=False,
                               folded=folded).matrix
    if not folded:
        values = _working_values(matrix, u0.values)
    norms, fractions = _lanczos_norms(matrix, values, dt, n_steps, _ring_nodes(grid, folded))
    points, t = [], u0.time
    for norm, bm in zip(norms, fractions):
        if bm > BOUNDARY_MASS_TOL:
            raise BoundaryContaminationError(
                f"boundary mass {bm:.2e} exceeded {BOUNDARY_MASS_TOL:.0e} at t = {t:.3f}; "
                "enlarge the domain")
        points.append(TrajectoryPoint(time=t, l2_norm=float(norm) * grid.h, k_norm=None,
                                      boundary_mass=float(bm)))
        t += dt
    points[0] = replace(points[0], k_norm=weighted_norm(u0))
    return NormTrajectory(frame="physical", points=points)


def _carries_folded(field):
    """True when ``carried_generator`` carries W L W^H for ``field``."""
    return field.mirror_symmetric and not field.is_zero


def carried_generator(grid, field):
    """``generator_at(s)``: the confined generator L(s) of ``field`` on ``grid``, one
    matrix object for any s in any order.  The first call assembles it (a zero
    field's does not depend on s); each later one recomputes in place the edge
    phases near the rescaled support (``peierls_phases`` with ``previous``) and
    has ``rewrite_hops`` write their hops into the CSR data.  A nonzero
    mirror-symmetric field (``field.mirror_symmetric``) is carried as the real
    W L(s) W^H of ``assemble_magnetic(folded=True)``, never as a complex
    matrix; every other field as L(s) itself."""
    phases = generator = None

    def generator_at(s):
        nonlocal phases, generator
        if generator is None:
            phases = peierls_phases(grid, field, s=s)
            generator = assemble_magnetic(phases, harmonic=True,
                                          folded=_carries_folded(field)).matrix
        elif not field.is_zero:
            phases, s_prev = peierls_phases(grid, field, s=s, previous=phases), phases.s
            rewrite_hops(generator, phases, field, s_prev)
        return generator

    return generator_at


def evolve_selfsimilar(field, v0, s_final, ds):
    """Evolve the confined non-autonomous equation in self-similar variables.

    Each Crank-Nicolson step takes the generator at its midpoint (second
    order in ds) from ``carried_generator``, one matrix object rewritten in
    place, and makes one CG solve for the increment d = u' - u,
    (I + ds/2 L) d = -ds L u, from d = 0, so L u is formed once; I + ds/2 L
    is applied matrix-free, as v + ds/2 (L v).  CG stops at |residual| <
    CG_RTOL |u - ds/2 L u|, the rule of a solve for u' started at u, whose
    residuals are the same vectors.  Every solve is preconditioned by the
    zero-field Crank-Nicolson operator, inverted by fast diagonalization:
    exact without a field, and close while the rescaled field shrinks
    towards a flux line.
    A nonzero mirror-symmetric field's generator is carried as W L W^H, so
    the run folds its datum by the same W (``_fold_values``) and steps in
    those coordinates, preconditioned in them too; a datum that folds to a
    vector real up to a factor i (a real one even or odd in x) steps in
    float64 (``_working_values``).  The records need
    no unfolding: W is unitary, and the Gaussian weight and the wall ring
    are even in x, so each folds to a weight per coordinate.
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
    folded = _carries_folded(field)
    X, Y = grid.mesh()
    inv_weight = np.exp(-(X**2 + Y**2).ravel() / 8.0)
    if folded:
        inv_weight = inv_weight[_folded_nodes(grid)]
    ring = _ring_nodes(grid, folded)

    def record(values, s):
        plain = float(np.linalg.norm(values * inv_weight)) * grid.h
        return TrajectoryPoint(time=s, l2_norm=plain,
                               k_norm=float(np.linalg.norm(values)) * grid.h,
                               boundary_mass=_ring_share(values, ring))

    precondition = _fast_diagonalization(grid, ds, folded)
    generator_at = carried_generator(grid, field)
    half = ds / 2.0
    values = _fold_values(grid, v0.values) if folded else v0.values
    s = v0.time
    points = [record(values, s)]
    for _ in range(step_count(s_final - s, ds)):
        matrix = generator_at(s + half)
        values = _working_values(matrix, values)
        plus = LinearOperator(matrix.shape, dtype=matrix.dtype,
                              matvec=lambda v: v + half * (matrix @ v))
        rhs = matrix @ values
        atol = CG_RTOL * np.linalg.norm(values - half * rhs)
        rhs *= -ds
        step, info = cg(plus, rhs, rtol=0.0, atol=atol, M=precondition)
        if info != 0:
            raise SolverConvergenceError(f"Crank-Nicolson CG failed (info={info})")
        step += values
        values = step
        s += ds
        points.append(record(values, s))
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
