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
    (4.0, 32.5), (4.0, "32"), (4.0, math.nan), (4.0, math.inf), (4.0, True)])
def test_build_grid_rejects_malformed(r_dom, n):
    with pytest.raises(ValueError):
        mh.build_grid(r_dom, n)


def test_zero_field_phases(zero_field):
    grid = mh.build_grid(4.0, 24)
    phases = mh.peierls_phases(grid, zero_field)
    assert np.all(phases.qh == 0.0)
    assert np.all(phases.qv == 0.0)


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


def test_radial_eigenvector_normalization():
    op = mh.assemble_radial(0, 0.5, 20.0, 1000)
    vals, vecs = op.lowest(k=2, eigenvectors=True)
    for u in vecs:
        assert np.sum(np.abs(u) ** 2 * op.weights) == pytest.approx(1.0, abs=1e-12)


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

