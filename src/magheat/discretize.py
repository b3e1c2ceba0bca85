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
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal

from .errors import ResolutionCapError, SymmetryError
from .field import _transverse_components, is_finite_real

# 3-point Gauss-Legendre on [0, 1]
_GL3_NODES = np.array([0.5 - math.sqrt(0.15), 0.5, 0.5 + math.sqrt(0.15)])
_GL3_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 18.0

# smallest wall radius and node count of the flux-line channel operators
RADIAL_MIN_R_MAX = 15.0
RADIAL_MIN_POINTS = 500

# points per block of the phase and stencil builds: every temporary of a
# build is a few arrays of this many numbers (256 kB of doubles), whatever
# the grid
_BLOCK_POINTS = 1 << 15

# largest phase defect, in radians, that a folded build takes for rounding:
# the radial step and bump and the dipole pair on the y-axis showed at most
# 1.1e-16 over s = 0..4.5 at n = 64..448, and a gauge transform by 1e-9 chi
# is caught
MIRROR_TOL = 1e-12


@dataclass(frozen=True)
class Grid2D:
    """Uniform Dirichlet grid on (-r_dom, r_dom)^2 with n interior points per axis."""

    r_dom: float
    n: int

    @property
    def h(self):
        return 2.0 * self.r_dom / (self.n + 1)

    def axis(self):
        # h (i - (n - 1)/2) rather than -r_dom + h (i + 1): the same nodes, with
        # x_{n-1-i} = -x_i exactly, so a function even in x is sampled even
        return self.h * (np.arange(self.n) - (self.n - 1) / 2.0)

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
    return eigh_tridiagonal(*harmonic_axis_tridiagonal(grid))


def harmonic_axis_tridiagonal(grid):
    """Diagonal and off-diagonal of the one-axis confined operator
    T = tridiag(-1/h^2, 2/h^2 + x^2/16, -1/h^2) on ``grid.axis()``."""
    diag = 2.0 / grid.h**2 + grid.axis() ** 2 / 16.0
    off = np.full(grid.n - 1, -1.0 / grid.h**2)
    return diag, off


def harmonic_axis_parity_eigh(grid):
    """Eigenpairs of ``harmonic_axis_tridiagonal``'s T, split by parity in x.

    T's diagonal is even in x, so T commutes with the flip J of the axis and
    each eigenvector is even or odd.  With m = n // 2 an even eigenvector is
    fixed by its top m nodes and the centre node of an odd axis, an odd one
    by its top m nodes; this returns ``((w_e, U_e), (w_o, U_o))``, the
    eigenpairs of the half-size tridiagonals those nodes satisfy.  For even
    n both are T's top m x m block, with -1/h^2 (even) or +1/h^2 (odd) added
    to the last diagonal entry: the mirror node holds +-u_{m-1}.  For odd n
    the even block is the top (m+1) x (m+1) block with the centre coupling
    -sqrt(2)/h^2, the symmetric form of the centre row's 2 u_{m-1}, and the
    odd block the plain top m x m one.  The orthonormal eigenvectors of T
    are then [U_e; J U_e]/sqrt(2) and [U_o; -J U_o]/sqrt(2) for even n,
    [U_e[:m]/sqrt(2); U_e[m]; J U_e[:m]/sqrt(2)] and [U_o; 0; -J U_o]/sqrt(2)
    for odd n.
    """
    h = grid.h
    m, centre = divmod(grid.n, 2)
    diag, off = harmonic_axis_tridiagonal(grid)
    even_diag, odd_diag = diag[:m + centre].copy(), diag[:m].copy()
    even_off = off[:m + centre - 1].copy()
    if centre:
        even_off[-1] *= math.sqrt(2.0)
    else:
        even_diag[-1] -= 1.0 / h**2
        odd_diag[-1] += 1.0 / h**2
    return eigh_tridiagonal(even_diag, even_off), eigh_tridiagonal(odd_diag, off[:m - 1])


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
    """Validated :class:`Grid2D`: a finite r_dom > 0 and an integral n >= 16,
    with a finite positive 1/h^2 and r_dom^2/16, the stencil's largest
    coefficients."""
    if not (is_finite_real(r_dom) and r_dom > 0.0):
        raise ValueError(f"r_dom must be a positive finite number, got {r_dom!r}")
    if isinstance(n, float) and n.is_integer():
        n = int(n)
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 16:
        raise ValueError(f"n must be an integer >= 16, got {n!r}")
    grid = Grid2D(r_dom=float(r_dom), n=int(n))
    h2, wall = grid.h * grid.h, grid.r_dom * grid.r_dom / 16.0
    if not (h2 > 0.0 and 0.0 < 1.0 / h2 < math.inf and 0.0 < wall < math.inf):
        raise ValueError(f"r_dom = {r_dom!r} with n = {n} gives h = {grid.h!r}, "
                         "whose 1/h^2 or r_dom^2/16 is not a finite positive number")
    return grid


@dataclass(frozen=True)
class LinkPhases:
    """Edge phase angles Q = int_edge A . dl on the two edge families.

    ``qh[i, j]`` is the angle on the edge from node (i, j) to (i+1, j),
    ``qv[i, j]`` from (i, j) to (i, j+1).  The unit-modulus link factors are
    exp(i q); zero field gives q identically zero.  ``s`` is the self-similar
    time of A_s, None for the physical potential.
    """

    grid: Grid2D
    qh: np.ndarray
    qv: np.ndarray
    s: float | None = None

    def gauge_transformed(self, chi):
        """New phases with the lattice gradient of chi (shape (n, n)) added."""
        chi = np.asarray(chi, dtype=float)
        if chi.shape != (self.grid.n, self.grid.n):
            raise ValueError("chi must be a lattice function on the grid")
        return replace(self, qh=self.qh + (chi[1:, :] - chi[:-1, :]),
                       qv=self.qv + (chi[:, 1:] - chi[:, :-1]))

    def plaquette_fluxes(self):
        """Counterclockwise phase sums around each cell, ~ h^2 B(center)."""
        return (self.qh[:, :-1] + self.qv[1:, :] - self.qh[:, 1:] - self.qv[:-1, :])


def _carried_box(grid, field, s, s_prev):
    """``(nodes, edges)``: slices of ``grid.axis()`` bounding the box whose
    edges a carried phase update from ``s_prev`` to ``s`` recomputes, the
    nodes with |x| below R e^{-min(s, s_prev)/2} + h (R the support radius)
    and the edges between two of them."""
    cut = field.support_radius * math.exp(-min(s, s_prev) / 2.0)
    near = np.flatnonzero(np.abs(grid.axis()) < cut + grid.h)
    return slice(near[0], near[-1] + 1), slice(near[0], near[-1])


def _row_blocks(rows, width):
    """Sub-slices of the slice ``rows`` (with a stop), each at most
    ``_BLOCK_POINTS`` points of rows ``width`` long, and at least one row."""
    step = max(1, _BLOCK_POINTS // width)
    for start in range(rows.start, rows.stop, step):
        yield slice(start, min(start + step, rows.stop))


def peierls_phases(grid, field, s=None, previous=None):
    """Edge phases on ``grid`` of the transverse-gauge potential A of ``field``
    (s is None) or of its rescaling A_s.

    Each edge integral uses 3-point Gauss quadrature of A . dl along the
    straight edge: of A_x on the ``qh`` edges, of A_y on the ``qv`` edges.
    The edges are taken in blocks of whole rows, at most ``_BLOCK_POINTS``
    edges each (one row if a row is longer), so no temporary spans the grid.
    An edge's arithmetic does not depend on its block, except that an
    off-centre component's ``alpha_batch`` may round it by a few ulp.

    ``previous``, phases of the same field on ``grid`` at another
    self-similar time, is updated in place and returned with ``s``: only the
    edges near the rescaled support are recomputed.  Beyond radius
    R e^{-s/2} (R the support radius) A_s is the Aharonov-Bohm far field
    alpha_inf(theta)/|y| e_theta, the same for every s, so an edge whose
    Gauss points all lie beyond that radius at both times keeps its phase up
    to the rounding of e^{s/2}.  The recomputed edges are those joining two
    nodes with |x| and |y| below the larger radius plus h, a box that holds
    every edge with a Gauss point inside that radius.
    """
    n, h = grid.n, grid.h
    x = grid.axis()
    if previous is None:
        qh, qv = np.zeros((n - 1, n)), np.zeros((n, n - 1))
        nodes, edges = slice(0, n), slice(0, n - 1)
    else:
        if previous.grid != grid or s is None or previous.s is None:
            raise ValueError("previous must hold self-similar phases on the same grid")
        qh, qv = previous.qh, previous.qv
        nodes, edges = _carried_box(grid, field, s, previous.s)
        qh[edges, nodes] = 0.0
        qv[nodes, edges] = 0.0
    # qh[i, j] runs from (x_i, x_j) along x, qv[i, j] from (x_i, x_j) along y
    for q, rows, cols, axis in ((qh, edges, nodes, 0), (qv, nodes, edges, 1)):
        y = x[cols]
        for block in _row_blocks(rows, y.size):
            xb, out = x[block, None], q[block, cols]
            for gx, gw in zip(_GL3_NODES, _GL3_WEIGHTS):
                ends = (xb + gx * h, y) if axis == 0 else (xb, y + gx * h)
                (a,) = _transverse_components(field, *ends, s, (axis,))
                out += gw * a * h
    return LinkPhases(grid=grid, qh=qh, qv=qv, s=s)


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


def _edge_slots(ptr, n, i, j, axis):
    """CSR positions ``(ahead, back)`` of the edge from node k = i n + j to
    k + n (axis 0) or k + 1 (axis 1): of the entry (k, k + n) or (k, k + 1)
    and of its mirror in row k + n or k + 1.

    Row k of the five-point pattern holds the columns k - n, k - 1, k, k + 1,
    k + n, each where it exists, so positions follow from ``ptr`` alone: the
    +n entry is last in row k and its mirror first in row k + n; the +1 entry
    sits one place before the row's +n entry (last when i = n - 1) and its
    mirror one place after row k + 1's -n entry (first when i = 0).
    """
    k = i * n + j
    if axis == 0:
        return ptr[k + 1] - 1, ptr[k + n]
    return ptr[k + 1] - 1 - (i < n - 1), ptr[k + 1] + (i > 0)


def _write_hops(data, ptr, phases, box_h, box_v, indices=None):
    """Write -exp(-i Q)/h^2 of the ``qh`` edges in ``box_h`` and the ``qv``
    edges in ``box_v`` (pairs of slices of the phase arrays) at their
    ``_edge_slots`` in ``data``, and the conjugates at the mirrors; a real
    ``data`` belongs to a zero gauge, whose hops are all -1/h^2.  With
    ``indices``, a full build's, the column of every entry written goes
    there too."""
    n, h = phases.grid.n, phases.grid.h
    for axis, q, box in ((0, phases.qh, box_h), (1, phases.qv, box_v)):
        i, j = np.ogrid[box]
        ahead, back = _edge_slots(ptr, n, i, j, axis)
        if indices is not None:
            k = i * n + j
            indices[ahead] = k + (n if axis == 0 else 1)
            indices[back] = k
        angles = q[box]
        hop = (np.exp(-1j * angles) if np.iscomplexobj(data) else np.ones(angles.shape)) / h**2
        data[ahead] = -hop
        data[back] = -hop.conj()


def _node_diagonal(grid, i, j, harmonic):
    """The stencil's diagonal at nodes (i, j): 4/h^2, plus |x|^2/16 when harmonic."""
    x, h = grid.axis(), grid.h
    return 4.0 / h**2 + (x[i]**2 + x[j]**2) / 16.0 if harmonic else 4.0 / h**2


def assemble_magnetic(phases, harmonic, folded=False):
    """Five-point Peierls stencil on ``phases.grid``; adds |x|^2/16 at node x
    on the diagonal when harmonic.

    Hopping from node a to neighbor b carries -exp(-i Q_ab)/h^2 with Q_ab the
    edge phase in the a -> b direction, which is the Hermitian transporter
    convention for (-i grad - A)^2.  Node (i, j) sits at flat index i n + j,
    so the ``qh`` edges couple k and k +- n and the ``qv`` edges k and k +- 1
    within a row of nodes.  The CSR arrays are allocated once at their final
    size, ``indptr`` from the pattern's row counts, and written in blocks of
    rows of nodes, at most ``_BLOCK_POINTS`` nodes each: the diagonal, then
    by ``_write_hops`` the hops and columns of the edges leaving the block.
    ``folded`` builds the real operator W L W^H of a mirror-symmetric field
    instead (``_assemble_folded``).
    """
    grid = phases.grid
    if folded:
        return DiscreteOperator(grid=grid, matrix=_assemble_folded(phases, harmonic))
    n = grid.n

    # a vanishing gauge keeps the operator real symmetric, which halves the
    # cost of the zero-field baselines
    real = not (np.any(phases.qh) or np.any(phases.qv))

    # row k holds 5 entries, one fewer for each wall next to its node
    ptr = np.empty(grid.size + 1, dtype=np.int32)
    ptr[0] = 0
    counts = ptr[1:].reshape(n, n)
    counts[...] = 5
    counts[[0, -1], :] -= 1
    counts[:, [0, -1]] -= 1
    np.cumsum(ptr, out=ptr)
    data = np.empty(ptr[-1], dtype=np.float64 if real else np.complex128)
    indices = np.empty(ptr[-1], dtype=np.int32)

    for rows in _row_blocks(slice(0, n), n):
        i, j = np.ogrid[rows, 0:n]
        k = i * n + j
        diag = ptr[k] + (i > 0) + (j > 0)     # after the row's -n and -1 entries
        indices[diag] = k
        data[diag] = _node_diagonal(grid, i, j, harmonic)
        _write_hops(data, ptr, phases, (slice(rows.start, min(rows.stop, n - 1)), slice(0, n)),
                    (rows, slice(0, n - 1)), indices)
    matrix = sp.csr_matrix((data, indices, ptr), shape=(grid.size, grid.size))
    return DiscreteOperator(grid=grid, matrix=matrix)


def _assemble_folded(phases, harmonic):
    """W L W^H as a real CSR matrix, for ``phases`` of a mirror-symmetric field.

    With B(-x, y) = B(x, y) the transverse gauge gives ``qh[n-2-i, j] =
    qh[i, j]`` and ``qv[n-1-i, j] = -qv[i, j]``, so the node mirror
    R: (i, j) -> (n-1-i, j) satisfies L[Rp, Rq] = conj(L[p, q]): L commutes
    with the antiunitary u -> conj(u o R).  The unitary W that takes each
    node p of the top m = n // 2 rows and its mirror to a_p = (u_p + u_Rp)/sqrt(2)
    and b_p = (u_p - u_Rp)/(i sqrt(2)), and each centre-row node of an odd
    grid to itself, c_p = u_p, maps the vectors that map fixes to real ones,
    so W L W^H is real symmetric, of L's size and spectrum.  Its coordinates
    are a_p, b_p interleaved in node order (2p, 2p + 1), then the centre row
    (2 m n + j).  An entry z = L[p, q] = x + i y between top nodes fills the
    pairs (x, -y) of row a_p and (y, x) of row b_p at the columns a_q, b_q,
    the diagonal's zero y included; so rows a_p and b_p hold one pair per
    top node among p and its neighbours.  The edges across the mirror line
    fold onto the top half: on an even grid z = L[p, Rp] of the last top row
    adds [[x, y], [y, -x]] to p's diagonal pair, on an odd grid z = L[p, q]
    to the centre node q below p gives sqrt(2) x at (a_p, c_q) and
    sqrt(2) y at (b_p, c_q), and a centre-row hop keeps x.  The bottom
    half's phases only enter the mirror check.  ``_write_folded_rows``
    writes the rows of blocks of top rows of nodes, at most
    ``_BLOCK_POINTS`` nodes each, the centre row with the last block;
    ``rewrite_hops`` writes the rows of its box with it.
    """
    grid = phases.grid
    n = grid.n
    m, centre = divmod(n, 2)
    ptr = _folded_indptr(n)
    data = np.empty(ptr[-1])
    indices = np.empty(ptr[-1], dtype=np.int32)
    for rows in _row_blocks(slice(0, m + centre), n):
        _write_folded_rows(data, ptr, phases, rows, slice(0, n), harmonic, indices)
    return sp.csr_matrix((data, indices, ptr), shape=(grid.size, grid.size))


# slots of row a_p (and of row b_p) of a top node p in a folded build: a
# pair for each of p - n, p - 1, p, p + 1 and p + n, then on an odd grid
# the centre column
_FOLDED_SLOTS = 11


def _folded_indptr(n):
    """``indptr`` of ``_assemble_folded`` on an n x n grid: rows a_p and b_p
    hold a pair for p and for each top neighbour of p, and on an odd grid
    the last top row adds its centre neighbour; a centre row holds a_q, b_q
    of the top node above it, itself and its centre neighbours."""
    m, centre = divmod(n, 2)
    i, j = np.ogrid[0:m, 0:n]
    top = 2 * (1 + (i > 0) + (j > 0) + (j < n - 1) + (i < m - 1)) + centre * (i == m - 1)
    jc = np.arange(centre * n)
    ptr = np.zeros(n * n + 1, dtype=np.int32)
    np.cumsum(np.concatenate([np.repeat(top.ravel(), 2), 3 + (jc > 0) + (jc < n - 1)]),
              out=ptr[1:])
    return ptr


def _hops(angles, h):
    """The hops -exp(-i Q)/h^2 of edges of phase Q, bit for bit those of
    ``_write_hops``."""
    hop = np.exp(-1j * angles) / h**2
    return np.negative(hop, out=hop)


def _check_mirror(phases, box_h, box_v):
    """Raise :class:`SymmetryError` unless ``qh[n-2-i, j] = qh[i, j]`` on the
    ``qh`` edges in ``box_h`` and ``qv[n-1-i, j] = -qv[i, j]`` on the ``qv``
    edges in ``box_v``, each to ``MIRROR_TOL``."""
    n = phases.grid.n
    worst = 0.0
    for q, (rows, cols), shift, sign in ((phases.qh, box_h, 1, -1.0),
                                         (phases.qv, box_v, 0, 1.0)):
        a, b = rows.start, rows.stop
        if a < b and cols.start < cols.stop:
            mirror = q[n - shift - b:n - shift - a, cols][::-1]
            worst = max(worst, float(np.abs(q[rows, cols] + sign * mirror).max()))
    if not worst <= MIRROR_TOL:
        raise SymmetryError(
            f"phases depart from their mirror image by {worst:.3e} > {MIRROR_TOL:.0e}: "
            "the field is not symmetric under x -> -x")


def _padded_hops(q, rows, lo, hi, h):
    """``_hops`` of ``q[rows, lo:hi]``, with zero angles where ``lo`` or
    ``hi`` falls off ``q``'s columns."""
    angles = np.zeros((rows.stop - rows.start, hi - lo))
    inside = slice(max(lo, 0), min(hi, q.shape[1]))
    angles[:, inside.start - lo:inside.stop - lo] = q[rows, inside]
    return _hops(angles, h)


def _write_folded_rows(data, ptr, phases, rows, cols, harmonic, indices=None):
    """Write ``_assemble_folded``'s rows of the nodes in ``rows`` x ``cols``
    (slices of the grid's rows and columns; only top and centre rows are
    written), with their columns into ``indices`` when given, after
    ``_check_mirror`` of every edge at those nodes.  An entry's value
    depends on the phases alone, so rewriting a node whose edges did not
    change writes the same bits.

    A node with all four neighbours in the top half has 20 entries, the
    pairs of p - n, p - 1, p, p + 1 and p + n in row a_p, then in row b_p;
    so on a row of nodes between the first and the last top row, the
    entries of the nodes off the walls form a (rows, nodes, 2, 10) view of
    ``data``, which ``_fill_folded`` writes slot by slot.  The first and
    last top rows, the two wall columns and the centre row go through
    ``_write_folded_masked``.
    """
    grid = phases.grid
    n = grid.n
    m, centre = divmod(n, 2)
    i0, i1, j0, j1 = rows.start, min(rows.stop, m), cols.start, cols.stop
    _check_mirror(phases, (slice(max(i0 - 1, 0), min(rows.stop, m)), cols),
                  (slice(i0, min(rows.stop, m + centre)),
                   slice(max(j0 - 1, 0), min(j1, n - 1))))
    inner_rows, inner_cols = slice(max(i0, 1), min(i1, m - 1)), slice(max(j0, 1), min(j1, n - 1))
    if inner_rows.start < inner_rows.stop and inner_cols.start < inner_cols.stop:
        span = 20 * n - 8       # the entries of one such row of nodes
        lo, hi = (16 + 20 * (c - 1) for c in (inner_cols.start, inner_cols.stop))
        shape = (inner_rows.stop - inner_rows.start, inner_cols.stop - inner_cols.start, 2, 10)
        first = ptr[2 * inner_rows.start * n]

        def inner(out):
            rows_of = out[first:first + shape[0] * span].reshape(shape[0], span)
            return np.reshape(rows_of[:, lo:hi], shape, copy=False)

        _fill_folded(inner(data), phases, inner_rows, inner_cols, harmonic)
        if indices is not None:
            i, j = np.ogrid[inner_rows, inner_cols]
            inner(indices)[...] = (2 * (i * n + j))[..., None, None] + np.array(
                [-2 * n, 1 - 2 * n, -2, -1, 0, 1, 2, 3, 2 * n, 2 * n + 1])
    edge_rows = [slice(i0, min(i1, 1)), slice(max(i0, m - 1), i1)]
    edge_cols = [slice(j0, min(j1, 1)), slice(max(j0, n - 1), j1)]
    for box in ([(r, cols) for r in edge_rows] + [(inner_rows, c) for c in edge_cols]):
        if all(s.start < s.stop for s in box):
            _write_folded_masked(data, ptr, phases, *box, harmonic, indices)
    if centre and rows.start <= m < rows.stop:
        _write_folded_masked(data, ptr, phases, slice(m, m + 1), cols, harmonic, indices)


def _fill_folded(out, phases, rows, cols, harmonic):
    """Fill ``out[r, c, 0 or 1, slot]`` with the entries of row a_p or b_p of
    the top node p = (rows.start + r, cols.start + c): slots 0-9 the pairs of
    p - n, p - 1, p, p + 1 and p + n, and on the last top row of an odd grid
    slot 10 the centre column.  A slot of a missing neighbour gets the
    values of a zero phase, for the caller to drop.  The pairs (x, -y) and
    (y, x) of z = L[p, q] = x + i y are written as the complex numbers
    conj(z) and i conj(z)."""
    grid = phases.grid
    n = grid.n
    m, centre = divmod(n, 2)
    i = np.arange(rows.start, rows.stop)[:, None]
    # the hops L[k, k + n] on the qh rows above and below the nodes and
    # L[k, k + 1] on the qv columns left and right of them
    zh = _padded_hops(phases.qh.T, cols, rows.start - 1, rows.stop, grid.h).T
    zv = _padded_hops(phases.qv, rows, cols.start - 1, cols.stop, grid.h)
    d = np.broadcast_to(_node_diagonal(grid, i, np.arange(cols.start, cols.stop), harmonic),
                        out.shape[:2])
    pairs = out[..., :10].view(np.complex128)
    a, b = pairs[:, :, 0], pairs[:, :, 1]
    # L[p, p - n] and L[p, p - 1] are the conjugates of their edges' hops
    for slot, z in ((0, zh[:-1]), (1, zv[:, :-1]), (3, np.conjugate(zv[:, 1:])),
                    (4, np.conjugate(zh[1:]))):
        a[..., slot] = z
        np.multiply(z, 1j, out=b[..., slot])
    a[..., 2], b[..., 2] = d, d * 1j
    if rows.stop == m:          # the mirror-line edges of the last top row
        x, y = zh[-1].real, zh[-1].imag
        if centre:
            out[-1, :, 0, 10], out[-1, :, 1, 10] = math.sqrt(2.0) * x, math.sqrt(2.0) * y
        else:
            a[-1, :, 2], b[-1, :, 2] = (d[-1] + x) + 1j * y, y + 1j * (d[-1] - x)


def _write_folded_masked(data, ptr, phases, rows, cols, harmonic, indices=None):
    """``_write_folded_rows`` for a box of top rows, or of the centre row,
    where neighbours may be missing: the entries are filled into a dense
    block of slots per node and the missing ones masked out."""
    grid = phases.grid
    n = grid.n
    m, centre = divmod(n, 2)
    j = np.arange(cols.start, cols.stop)
    if rows.start == m:
        # the centre row: a_q, b_q of the node q above, then the centre nodes
        # j - 1, j, j + 1; each hop to a centre node keeps its real part
        z = _hops(phases.qh[m - 1, cols], grid.h)
        xv = _padded_hops(phases.qv, rows, cols.start - 1, cols.stop, grid.h).real
        block = np.stack([math.sqrt(2.0) * z.real, math.sqrt(2.0) * z.imag, xv[0, :-1],
                          np.broadcast_to(_node_diagonal(grid, m, j, harmonic), j.shape),
                          xv[0, 1:]], axis=1)
        keep = np.ones(block.shape, dtype=bool)
        keep[:, 2], keep[:, 4] = j > 0, j < n - 1
        c, q = 2 * m * n + j, (m - 1) * n + j
        at = slice(ptr[c[0]], ptr[c[-1] + 1])
        col = np.stack([2 * q, 2 * q + 1, c - 1, c, c + 1], axis=1)
    else:
        i = np.arange(rows.start, rows.stop)[:, None]
        block = np.empty((i.size, j.size, 2, _FOLDED_SLOTS))
        _fill_folded(block, phases, rows, cols, harmonic)
        keep = np.zeros((i.size, j.size, _FOLDED_SLOTS), dtype=bool)
        keep[..., 0:2] = (i > 0)[..., None]
        keep[..., 2:4] = (j > 0)[:, None]
        keep[..., 4:6] = True
        keep[..., 6:8] = (j < n - 1)[:, None]
        keep[..., 8:10] = (i < m - 1)[..., None]
        keep[..., 10] = bool(centre) & (i == m - 1)
        keep = np.broadcast_to(keep[:, :, None], block.shape)
        at = _row_spans(ptr, 2 * (i[:, 0] * n + cols.start), 2 * (i[:, 0] * n + cols.stop))
        p = (i * n + j)[..., None]
        col = np.empty(keep.shape[:2] + keep.shape[3:], dtype=np.int64)
        col[..., :10] = 2 * (p + np.repeat([-n, -1, 0, 1, n], 2)) + np.tile([0, 1], 5)
        col[..., 10] = 2 * m * n + j
        col = np.broadcast_to(col[:, :, None], block.shape)
    data[at] = block[keep]
    if indices is not None:
        indices[at] = col[keep]


def _row_spans(ptr, starts, stops):
    """The positions ``ptr[starts[r]]`` up to ``ptr[stops[r]]`` of every r in
    turn: a slice when they join up."""
    lo, hi = ptr[starts], ptr[stops]
    if np.array_equal(lo[1:], hi[:-1]):
        return slice(lo[0], hi[-1])
    lengths = hi - lo
    return np.repeat(lo - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())


def rewrite_hops(matrix, phases, field, s_prev):
    """Bring ``matrix``, the confined generator of ``field`` on ``phases.grid``
    as ``assemble_magnetic(harmonic=True)`` builds it, up to date with
    ``phases``, carried from ``s_prev`` by ``peierls_phases(previous=...)``:
    the hop entries of the edges in the box it recomputed are rewritten in
    place by the writer of the full build, at positions found from
    ``indptr`` for the box only; the pattern and every other entry are
    kept, and the values are ``assemble_magnetic``'s, bit for bit.  A real
    ``matrix`` is a folded build (a zero gauge's real one never changes),
    whose rows of the box's nodes are written again: every edge of the box
    joins two of its nodes.
    """
    nodes, edges = _carried_box(phases.grid, field, phases.s, s_prev)
    if np.iscomplexobj(matrix.data):
        _write_hops(matrix.data, matrix.indptr, phases, (edges, nodes), (nodes, edges))
    else:
        _write_folded_rows(matrix.data, matrix.indptr, phases, nodes, nodes, harmonic=True)


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

    def lowest(self, k=1):
        """The k smallest eigenvalues."""
        return np.asarray(eigh_tridiagonal(self.sym_diag, self.sym_off, select="i",
                                           select_range=(0, k - 1), eigvals_only=True))


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
