import math

import numpy as np
import pytest

import magheat as mh


def test_build_grid_spacing():
    assert mh.build_grid(16.0, 255).h == pytest.approx(0.125, abs=1e-15)
    assert mh.build_grid(8.0, 127).h == pytest.approx(0.125, abs=1e-15)
    # Dirichlet convention: interior nodes exclude the walls
    g = mh.build_grid(1.0, 16)
    ax = g.axis()
    assert ax.min() > -1.0 and ax.max() < 1.0
    assert np.allclose(np.diff(ax), g.h)
    with pytest.raises(ValueError):
        mh.build_grid(4.0, 8)
    with pytest.raises(ValueError):
        mh.build_grid(-1.0, 64)
    assert mh.build_grid(4.0, 32.0) == mh.build_grid(4.0, 32)


@pytest.mark.parametrize("r_dom, n", [
    (math.nan, 32), (math.inf, 32), ("7", 32), (None, 32), (True, 32),
    pytest.param(10**400, 32, id="int-beyond-float-32"),
    (4.0, 32.5), (4.0, "32"), (4.0, math.nan), (4.0, math.inf), (4.0, True),
    # h^2 underflows to 0, or r_dom^2/16 overflows
    (1e-300, 32), (1e200, 32)])
def test_build_grid_rejects_malformed(r_dom, n):
    with pytest.raises(ValueError):
        mh.build_grid(r_dom, n)


def test_zero_field_phases(zero_field):
    grid = mh.build_grid(4.0, 24)
    phases = mh.peierls_phases(grid, zero_field)
    assert np.all(phases.qh == 0.0)
    assert np.all(phases.qv == 0.0)


@pytest.mark.parametrize("s", [None, 1.5])
def test_phases_match_the_two_component_quadrature(step_half, bump_field, offset_bump, s):
    # oracle: 3-point Gauss sums of A . dl over both components of
    # vector_potential, each edge family reading one; the one-component
    # phases do the same arithmetic, so they agree bit for bit
    nodes = np.array([0.5 - math.sqrt(0.15), 0.5, 0.5 + math.sqrt(0.15)])
    weights = np.array([5.0, 8.0, 5.0]) / 18.0
    grid = mh.build_grid(4.0, 40)
    n, h = grid.n, grid.h
    X, Y = grid.mesh()
    for field in (step_half, bump_field, offset_bump):
        qh, qv = np.zeros((n - 1, n)), np.zeros((n, n - 1))
        for gx, gw in zip(nodes, weights):
            pts = np.stack([X[:-1, :] + gx * h, Y[:-1, :]], axis=-1)
            qh += gw * mh.vector_potential(field, pts, s)[..., 0] * h
            pts = np.stack([X[:, :-1], Y[:, :-1] + gx * h], axis=-1)
            qv += gw * mh.vector_potential(field, pts, s)[..., 1] * h
        phases = mh.peierls_phases(grid, field, s)
        assert np.array_equal(phases.qh, qh) and np.array_equal(phases.qv, qv)


def test_plaquette_flux_fourth_order(bump_field):
    # plaquette phase sums reproduce the cell flux h^2 B(center) at O(h^4)
    worst = []
    for n in (48, 96):
        grid = mh.build_grid(3.0, n)
        phases = mh.peierls_phases(grid, bump_field)
        plaq = phases.plaquette_fluxes()
        ax = grid.axis()
        cx = 0.5 * (ax[:-1] + ax[1:])
        CX, CY = np.meshgrid(cx, cx, indexing="ij")
        expected = grid.h**2 * bump_field.eval(CX, CY)
        worst.append(np.max(np.abs(plaq - expected)))
    order = math.log(worst[0] / worst[1]) / math.log(2.0)
    assert order > 3.5


def test_concentrated_flux_winding(step_half):
    # far beyond the resolution cap the whole flux threads the central cells
    grid = mh.build_grid(6.0, 64)
    s = grid.s_max(step_half.support_radius) + 1.0
    phases = mh.peierls_phases(grid, step_half, s=s)
    plaq = phases.plaquette_fluxes()
    ax = grid.axis()
    cx = 0.5 * (ax[:-1] + ax[1:])
    CX, CY = np.meshgrid(cx, cx, indexing="ij")
    inside = np.hypot(CX, CY) < 4.0 * grid.h
    total = float(plaq[inside].sum())
    assert total == pytest.approx(2.0 * math.pi * 0.5, rel=1e-3)


@pytest.mark.parametrize("field_name", ["step_half", "offset_bump", "dipole"])
def test_phases_carried_over_increasing_s_match_fresh_ones(field_name, request):
    # far-field edges keep their phase from the step before; every s must
    # still match a fresh computation up to the rounding of e^{s/2}
    field = request.getfixturevalue(field_name)
    grid = mh.build_grid(6.0, 60)
    phases = None
    for s in (0.0, 0.05, 0.4, 1.0, 2.2):
        phases = mh.peierls_phases(grid, field, s, previous=phases)
        fresh = mh.peierls_phases(grid, field, s)
        assert phases.s == s
        scale = max(np.abs(fresh.qh).max(), np.abs(fresh.qv).max())
        np.testing.assert_allclose(phases.qh, fresh.qh, rtol=0.0, atol=1e-14 * scale)
        np.testing.assert_allclose(phases.qv, fresh.qv, rtol=0.0, atol=1e-14 * scale)
    with pytest.raises(ValueError, match="previous"):
        mh.peierls_phases(mh.build_grid(5.0, 60), field, 3.0, previous=phases)
    with pytest.raises(ValueError, match="previous"):
        mh.peierls_phases(grid, field, None, previous=phases)


@pytest.mark.parametrize("field_name", ["step_half", "offset_bump", "dipole"])
def test_phases_carried_back_to_a_smaller_s_match_fresh_ones(field_name, request):
    # a lambda(s) curve may take its s values in any order: a step back to a
    # smaller s recomputes the larger box of that s
    field = request.getfixturevalue(field_name)
    grid = mh.build_grid(6.0, 60)
    phases = None
    for s in (2.2, 1.0, 0.4, 1.5, 0.05, 0.0):
        phases = mh.peierls_phases(grid, field, s, previous=phases)
        fresh = mh.peierls_phases(grid, field, s)
        scale = max(np.abs(fresh.qh).max(), np.abs(fresh.qv).max())
        np.testing.assert_allclose(phases.qh, fresh.qh, rtol=0.0, atol=1e-14 * scale)
        np.testing.assert_allclose(phases.qv, fresh.qv, rtol=0.0, atol=1e-14 * scale)


@pytest.mark.parametrize("field_name", ["step_half", "offset_bump", "dipole"])
def test_carried_phases_recompute_every_edge_inside_the_rescaled_support(field_name,
                                                                         request):
    # poison the previous phases: an edge with a Gauss point inside
    # R e^{-s_prev/2} that is not recomputed stays NaN
    field = request.getfixturevalue(field_name)
    grid = mh.build_grid(6.0, 60)
    s_prev, s = 0.3, 0.8
    previous = mh.peierls_phases(grid, field, s_prev)
    previous.qh[:], previous.qv[:] = np.nan, np.nan
    phases = mh.peierls_phases(grid, field, s, previous=previous)
    fresh = mh.peierls_phases(grid, field, s)
    cut = field.support_radius * math.exp(-s_prev / 2.0)
    x, h = grid.axis(), grid.h
    gauss = x[:-1, None] + h * np.array([0.5 - math.sqrt(0.15), 0.5, 0.5 + math.sqrt(0.15)])
    # Gauss-point radii of each qh edge (i, j); the qv edges are the transpose
    radii = np.hypot(gauss[:, None, :], x[None, :, None])
    inner = radii.min(axis=-1) < cut
    assert np.any(inner & (radii.max(axis=-1) >= cut))     # edges straddling the cut
    for q, q_fresh, inside in ((phases.qh, fresh.qh, inner), (phases.qv, fresh.qv, inner.T)):
        np.testing.assert_allclose(q[inside], q_fresh[inside], rtol=0.0,
                                   atol=1e-14 * np.abs(q_fresh).max())


def test_assemble_hermitian_and_psd(offset_bump, rng):
    grid = mh.build_grid(6.0, 40)
    phases = mh.peierls_phases(grid, offset_bump)
    op = mh.assemble_magnetic(phases, harmonic=True)
    u = rng.standard_normal(op.dimension) + 1j * rng.standard_normal(op.dimension)
    v = rng.standard_normal(op.dimension) + 1j * rng.standard_normal(op.dimension)
    lhs = np.vdot(u, op.apply(v))
    rhs = np.conj(np.vdot(v, op.apply(u)))
    scale = np.linalg.norm(u) * np.linalg.norm(v) * 4.0 / grid.h**2
    assert abs(lhs - rhs) / scale < 1e-12
    quad_form = np.vdot(v, op.apply(v))
    assert abs(quad_form.imag) / abs(quad_form) < 1e-12
    assert quad_form.real > 0.0


@pytest.mark.parametrize("harmonic", [False, True])
@pytest.mark.parametrize("s", [None, 1.3])
def test_assemble_stencil_entries(offset_bump, zero_field, s, harmonic):
    # every entry against a matrix built node by node; conjugated hops (B -> -B,
    # the same spectrum) or a +-1 diagonal that wraps across a row end fail here
    grid = mh.build_grid(3.0, 16)
    n, h = grid.n, grid.h
    x = grid.axis()
    phases = mh.peierls_phases(grid, offset_bump, s=s)
    expected = np.zeros((grid.size, grid.size), dtype=complex)
    for i in range(n):
        for j in range(n):
            a = i * n + j
            expected[a, a] = 4.0 / h**2 + harmonic * (x[i] ** 2 + x[j] ** 2) / 16.0
            edges = []
            if i + 1 < n:
                edges.append((a + n, phases.qh[i, j]))
            if j + 1 < n:
                edges.append((a + 1, phases.qv[i, j]))
            for b, q in edges:
                expected[a, b] = -np.exp(-1j * q) / h**2
                expected[b, a] = -np.exp(1j * q) / h**2
    matrix = mh.assemble_magnetic(phases, harmonic).matrix
    assert matrix.nnz == 5 * n**2 - 4 * n
    np.testing.assert_allclose(matrix.toarray(), expected, rtol=0.0, atol=1e-13)
    free = mh.assemble_magnetic(mh.peierls_phases(grid, zero_field, s=s), harmonic).matrix
    assert free.dtype == np.float64
    assert free.nnz == 5 * n**2 - 4 * n


@pytest.mark.parametrize("n", [16, 17, 48])
@pytest.mark.parametrize("harmonic", [False, True])
@pytest.mark.parametrize("field_name", ["zero_field", "step_half", "offset_bump", "dipole"])
def test_assembly_matches_the_diagonal_build_byte_for_byte(request, field_name, harmonic, n):
    # the CSR arrays written in place are those of scipy's DIA -> CSR
    # conversion of the five diagonals: same values, dtypes and pattern
    from oracles import assemble_by_diagonals

    field = request.getfixturevalue(field_name)
    grid = mh.build_grid(6.0, n)
    for s in (None, 1.3):
        phases = mh.peierls_phases(grid, field, s)
        matrix = mh.assemble_magnetic(phases, harmonic).matrix
        expected = assemble_by_diagonals(phases, harmonic)
        assert type(matrix) is type(expected) and matrix.shape == expected.shape
        for name in ("data", "indices", "indptr"):
            got, want = getattr(matrix, name), getattr(expected, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("field_name", ["step_half", "bump_field", "offset_bump", "dipole"])
def test_blocked_builds_match_one_row_blocks(monkeypatch, request, field_name):
    # blocks of one row each (the budget below a row) against the default
    # blocks, which hold the whole n = 48 grid: the full build, a carried box
    # and the assembly.  Centred fields match bit for bit.  Off-centre ones
    # match to a few ulp: alpha_batch's moment product is one BLAS GEMM per
    # ray block, whose last bit depends on where a ray sits in the block.
    from magheat import discretize

    field = request.getfixturevalue(field_name)
    grid = mh.build_grid(6.0, 48)

    def builds():
        fresh = mh.peierls_phases(grid, field, 0.4)
        carried = mh.peierls_phases(grid, field, 0.4,
                                    previous=mh.peierls_phases(grid, field, 1.5))
        return fresh, carried, mh.assemble_magnetic(fresh, harmonic=True).matrix

    assert 2 * grid.n**2 <= discretize._BLOCK_POINTS
    wide = builds()
    monkeypatch.setattr(discretize, "_BLOCK_POINTS", grid.n // 3)
    narrow = builds()
    assert wide[2].indices.tobytes() == narrow[2].indices.tobytes()
    assert wide[2].indptr.tobytes() == narrow[2].indptr.tobytes()
    pairs = [(a.qh, b.qh) for a, b in zip(wide[:2], narrow[:2])]
    pairs += [(a.qv, b.qv) for a, b in zip(wide[:2], narrow[:2])]
    pairs += [(wide[2].data.view(np.float64), narrow[2].data.view(np.float64))]
    for a, b in pairs:
        if all(comp.center == (0.0, 0.0) for comp in field.components):
            assert a.tobytes() == b.tobytes()
        else:
            np.testing.assert_array_max_ulp(a, b, maxulp=4)


@pytest.mark.parametrize("field_name", ["zero_field", "step_half", "offset_bump"])
def test_generator_build_peaks_near_its_output(request, field_name):
    # phases and assembly hold no full-grid temporary: their traced peak
    # stays within half of what they return (a DIA -> CSR build peaked at
    # about 2.7 times that)
    import tracemalloc

    field = request.getfixturevalue(field_name)
    grid = mh.build_grid(6.0, 256)
    tracemalloc.start()
    try:
        phases = mh.peierls_phases(grid, field, 1.0)
        matrix = mh.assemble_magnetic(phases, harmonic=True).matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(a.nbytes for a in (phases.qh, phases.qv, matrix.data, matrix.indices,
                                  matrix.indptr))
    assert peak < 1.5 * kept


def test_free_stencil_symbol(zero_field):
    # interior rows act on plane waves with the 4 sin^2 / h^2 symbol
    grid = mh.build_grid(4.0, 64)
    phases = mh.peierls_phases(grid, zero_field)
    op = mh.assemble_magnetic(phases, harmonic=False)
    X, Y = grid.mesh()
    h = grid.h
    for kx, ky in ((0.8, 0.0), (1.3, -0.9)):
        wave = np.exp(1j * (kx * X + ky * Y)).ravel()
        out = op.apply(wave).reshape(grid.n, grid.n)
        symbol = (4 * math.sin(kx * h / 2) ** 2 + 4 * math.sin(ky * h / 2) ** 2) / h**2
        interior = (slice(4, -4), slice(4, -4))
        ratio = out[interior] / wave.reshape(grid.n, grid.n)[interior]
        assert np.max(np.abs(ratio - symbol)) < 1e-10
        # and the symbol approximates |k|^2 at second order
        assert symbol == pytest.approx(kx**2 + ky**2, abs=2 * h**2 * (kx**2 + ky**2) ** 2)


def test_lho_smallest_small_grid(zero_field):
    grid = mh.build_grid(12.0, 96)
    phases = mh.peierls_phases(grid, zero_field)
    op = mh.assemble_magnetic(phases, harmonic=True)
    pairs, _, _ = mh.smallest_eigs(op, k=1)
    assert pairs[0][0] == pytest.approx(0.5, abs=2e-3)


def test_lho_refinement_second_order(zero_field):
    errs = []
    for n in (32, 64, 128):
        grid = mh.build_grid(12.0, n)
        phases = mh.peierls_phases(grid, zero_field)
        op = mh.assemble_magnetic(phases, harmonic=True)
        pairs, _, _ = mh.smallest_eigs(op, k=1)
        errs.append(abs(pairs[0][0] - 0.5))
    for a, b in zip(errs, errs[1:]):
        assert 2.6 < a / b < 5.6


def test_diamagnetic_floor(step_half):
    grid = mh.build_grid(8.0, 72)
    phases0 = mh.peierls_phases(grid, mh.make_field("radial-step", {"b0": 0.0, "r": 1.0}))
    lam0 = mh.smallest_eigs(mh.assemble_magnetic(phases0, True), k=1)[0][0][0]
    for s in (0.0, 1.0, 2.0):
        phases = mh.peierls_phases(grid, step_half, s=s)
        lam = mh.smallest_eigs(mh.assemble_magnetic(phases, True), k=1)[0][0][0]
        assert lam >= lam0 - 1e-9


def test_harmonic_axis_eigh_diagonalizes_the_zero_field_operator(zero_field):
    from magheat.discretize import harmonic_axis_eigh

    grid = mh.build_grid(6.0, 24)
    w, V = harmonic_axis_eigh(grid)
    h, x = grid.h, grid.axis()
    T = (np.diag(2.0 / h**2 + x**2 / 16.0) - np.diag(np.full(grid.n - 1, 1.0 / h**2), 1)
         - np.diag(np.full(grid.n - 1, 1.0 / h**2), -1))
    scale = np.abs(w).max()
    assert np.all(np.diff(w) > 0.0)
    assert np.abs(V.T @ V - np.eye(grid.n)).max() <= 1e-12
    assert np.abs(T @ V - V * w).max() <= 1e-12 * scale
    # the assembled zero-field confined operator is the Kronecker sum of T
    phases = mh.peierls_phases(grid, zero_field)
    L0 = mh.assemble_magnetic(phases, harmonic=True).matrix.toarray()
    eye = np.eye(grid.n)
    assert np.abs(L0 - np.kron(T, eye) - np.kron(eye, T)).max() <= 1e-12 * scale


def test_discrete_gauge_invariance(step_half, rng):
    grid = mh.build_grid(6.0, 48)
    phases = mh.peierls_phases(grid, step_half)
    op = mh.assemble_magnetic(phases, harmonic=True)
    vals = np.array([p[0] for p in mh.smallest_eigs(op, k=6)[0]])
    chi = rng.standard_normal((grid.n, grid.n)) * 2.0
    op2 = mh.assemble_magnetic(phases.gauge_transformed(chi), harmonic=True)
    vals2 = np.array([p[0] for p in mh.smallest_eigs(op2, k=6)[0]])
    assert np.max(np.abs(vals - vals2)) < 1e-10


def _dense_mirror_unitary(n):
    """The fold's W, entry by entry: rows a_p, b_p of each top-half node p =
    (i, j), i < n // 2, interleaved in node order, then the centre row."""
    m, centre = divmod(n, 2)
    w = np.zeros((n * n, n * n), dtype=complex)
    for i in range(m):
        for j in range(n):
            p, mirror = i * n + j, (n - 1 - i) * n + j
            w[2 * p, [p, mirror]] = 1.0 / math.sqrt(2.0)
            w[2 * p + 1, [p, mirror]] = np.array([1.0, -1.0]) / (1j * math.sqrt(2.0))
    for j in range(n * centre):
        w[2 * m * n + j, m * n + j] = 1.0
    return w


@pytest.mark.parametrize("s", [None, 1.3])
@pytest.mark.parametrize("n", [16, 17])
@pytest.mark.parametrize("kind, params", [
    ("radial-step", {"b0": 1.0, "r": 1.0}),
    ("radial-bump", {"b0": 1.0, "r": 1.0}),
    ("dipole-pair", {"b0": 1.0, "r": 0.5, "center": [0.0, 1.5]})])
def test_mirror_fold_matches_the_dense_unitary(kind, params, n, s):
    # oracle: W L W^H formed densely; it must be real to rounding, the fold
    # its real part, and the spectrum that of L
    from scipy.linalg import eigvalsh

    from magheat.discretize import mirror_fold

    field = mh.make_field(kind, params)
    assert field.mirror_symmetric
    grid = mh.build_grid(4.0, n)
    L = mh.assemble_magnetic(mh.peierls_phases(grid, field, s=s), harmonic=True).matrix
    folded = mirror_fold(grid)(L)
    assert folded.dtype == np.float64 and folded.shape == L.shape
    assert abs(folded - folded.T).max() == 0.0
    w = _dense_mirror_unitary(n)
    dense = w @ L.toarray() @ w.conj().T
    scale = abs(L).max()
    assert np.abs(dense.imag).max() <= 1e-15 * scale
    assert np.abs(dense.real - folded.toarray()).max() <= 1e-15 * scale
    assert np.allclose(eigvalsh(folded.toarray()), eigvalsh(L.toarray()), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n", [16, 17])
def test_mirror_fold_rejects_an_asymmetric_operator(step_half, offset_bump, rng, n):
    # a gauge transform keeps the spectrum but breaks the mirror relation of
    # the phases; an off-centre field breaks it in the field itself
    from magheat.discretize import mirror_fold
    from magheat.errors import SymmetryError

    grid = mh.build_grid(4.0, n)
    phases = mh.peierls_phases(grid, step_half, s=1.3)
    fold = mirror_fold(grid)
    fold(mh.assemble_magnetic(phases, harmonic=True).matrix)
    chi = rng.standard_normal((n, n))
    for asymmetric in (phases.gauge_transformed(chi), phases.gauge_transformed(1e-9 * chi),
                       mh.peierls_phases(grid, offset_bump, s=1.3)):
        with pytest.raises(SymmetryError, match="mirror image"):
            fold(mh.assemble_magnetic(asymmetric, harmonic=True).matrix)


# ---------------------------------------------------------------------------
# radial channels


def test_radial_oscillator_levels():
    op = mh.assemble_radial(0, 0.0, 20.0, 4000)
    assert op.lowest(k=1)[0] == pytest.approx(0.5, abs=1e-5)


def test_radial_half_flux_degenerate_pair():
    v0 = mh.assemble_radial(0, 0.5, 20.0, 4000).lowest(k=1)[0]
    v1 = mh.assemble_radial(-1, 0.5, 20.0, 4000).lowest(k=1)[0]
    assert v0 == pytest.approx(0.75, abs=1e-5)
    assert v1 == pytest.approx(0.75, abs=1e-5)


def test_radial_validation():
    with pytest.raises(ValueError):
        mh.assemble_radial(0, 0.5, 10.0, 4000)
    with pytest.raises(ValueError):
        mh.assemble_radial(0, 0.5, 20.0, 100)


def test_radial_weighted_symmetry_and_potential(rng):
    op = mh.assemble_radial(1, 0.3, 20.0, 800)
    v = rng.standard_normal(800)
    w = rng.standard_normal(800)
    lhs = np.sum(v * op.apply(w) * op.weights)
    rhs = np.sum(op.apply(v) * w * op.weights)
    assert abs(lhs - rhs) < 1e-9 * abs(lhs)
    assert np.all(op.potential >= op.r**2 / 16.0 - 1e-12)


def test_radial_channel_surrogate_matches_ab_limit(step_half):
    # as s grows the finite-size channel approaches the singular-flux level
    from magheat.discretize import assemble_radial_channel

    def alpha_of(r, s):
        rr = np.exp(s / 2) * np.asarray(r)
        return 0.5 * np.minimum(rr, 1.0) ** 2

    gaps = []
    for s in (2.0, 4.0, 6.0):
        lam = min(
            assemble_radial_channel(m, lambda r: alpha_of(r, s), 18.0, 2000).lowest(k=1)[0]
            for m in (-1, 0, 1))
        gaps.append(abs(lam - 0.75))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.02


def test_radial_two_dim_consistency(step_half):
    # 2-D eigenvalue approaches the radial-channel minimum as s grows
    field = mh.make_field("radial-step", {"b0": 2 * 0.5 / 4.0, "r": 2.0})
    grid = mh.build_grid(6.0, 160)
    s = 3.5
    assert s < grid.s_max(field.support_radius)
    sample = mh.lambda_curve(field, [s], grid)[0]

    from magheat.discretize import assemble_radial_channel

    def alpha_of(r):
        rr = np.exp(s / 2) * np.asarray(r)
        return 0.5 * np.minimum(rr, 2.0) ** 2 / 4.0

    lam_rad = min(assemble_radial_channel(m, alpha_of, 18.0, 3000).lowest(k=1)[0]
                  for m in (-1, 0, 1))
    assert abs(sample.lam - lam_rad) < 5e-3

