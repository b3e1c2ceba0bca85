import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

import magheat as mh
from magheat.errors import ResolutionCapError
from magheat.spectral import infimum_gap
from oracles import variational_upper_bound


def test_smallest_eigs_lho_cluster(zero_field):
    grid = mh.build_grid(16.0, 128)
    phases = mh.peierls_phases(grid, zero_field)
    op = mh.assemble_magnetic(phases, harmonic=True)
    pairs, residual, _ = mh.smallest_eigs(op, k=3, tol=1e-8)
    vals = [p[0] for p in pairs]
    assert vals[0] == pytest.approx(0.5, abs=1e-3)
    assert vals[1] == pytest.approx(1.0, abs=2e-3)
    assert vals[2] == pytest.approx(1.0, abs=2e-3)
    assert residual <= 1e-8
    assert vals == sorted(vals)


def test_smallest_eigs_shift_invariance(zero_field):
    grid = mh.build_grid(8.0, 48)
    phases = mh.peierls_phases(grid, zero_field)
    op = mh.assemble_magnetic(phases, harmonic=True)
    base = [p[0] for p in mh.smallest_eigs(op, k=2)[0]]
    matrix = op.matrix + 0.7 * sp.identity(op.dimension, format="csr")
    shifted_op = mh.DiscreteOperator(grid=grid, matrix=matrix)
    shifted = [p[0] for p in mh.smallest_eigs(shifted_op, k=2)[0]]
    assert np.allclose(np.array(shifted) - np.array(base), 0.7, atol=1e-9)


def test_smallest_eigs_validation(zero_field):
    grid = mh.build_grid(8.0, 24)
    phases = mh.peierls_phases(grid, zero_field)
    op = mh.assemble_magnetic(phases, harmonic=True)
    with pytest.raises(ValueError):
        mh.smallest_eigs(op, k=0)
    with pytest.raises(ValueError):
        mh.smallest_eigs(op, k=op.dimension)


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
def test_smallest_eigs_rejects_non_finite_shift(zero_field, sigma):
    grid = mh.build_grid(8.0, 24)
    op = mh.assemble_magnetic(mh.peierls_phases(grid, zero_field), harmonic=True)
    with pytest.raises(ValueError, match="sigma"):
        mh.smallest_eigs(op, k=1, sigma=sigma)


@pytest.mark.parametrize("s", [0.0, 2.0])
def test_smallest_eigs_floor_shift_matches_zero_shift(step_half, s):
    # lambda_curve's shift just below the diamagnetic floor finds the same
    # eigenvalues as the shift about 0
    grid = mh.build_grid(5.0, 128)   # resolution cap s_max = 2.34
    op = mh.assemble_magnetic(mh.peierls_phases(grid, step_half, s=s), harmonic=True)
    sigma = mh.spectral._diamagnetic_floor(grid) - mh.spectral.SHIFT_BELOW_FLOOR
    base = [p[0] for p in mh.smallest_eigs(op, k=2)[0]]
    shifted = [p[0] for p in mh.smallest_eigs(op, k=2, sigma=sigma)[0]]
    assert np.allclose(shifted, base, rtol=0.0, atol=1e-12)


def test_lambda_curve_floor_shift_needs_one_lanczos_pass():
    # lambda-halfflux's field and grid at s = 2: about 0, seeds 1 and 2 took a
    # second Lanczos pass (46 LU solves); below the floor every seed takes one
    field = mh.make_field("radial-step", {"b0": 2 * 0.5 / 9.0, "r": 3.0})
    grid = mh.build_grid(7.0, 128)
    for seed in range(4):
        (sample,) = mh.lambda_curve(field, [2.0], grid, seed=seed)
        assert sample.iterations <= 25, (seed, sample.iterations)


def test_radial_low_flux_level():
    op = mh.assemble_radial(0, 0.3, 20.0, 4000)
    assert op.lowest(k=1)[0] == pytest.approx(0.65, abs=1e-4)


def test_lambda_curve_zero_field(zero_field):
    grid = mh.build_grid(12.0, 96)
    samples = mh.lambda_curve(zero_field, [0.0, 1.0, 3.0], grid)
    for smp in samples:
        assert smp.lam == pytest.approx(0.5, abs=1e-3)
        assert smp.residual <= 1e-8


@pytest.mark.parametrize("r_dom, n", [(6.0, 24), (8.0, 64)])
def test_diamagnetic_floor_matches_eigensolve(zero_field, r_dom, n):
    # the separable floor against a 2-D eigensolve of the assembled operator
    grid = mh.build_grid(r_dom, n)
    phases = mh.peierls_phases(grid, zero_field)
    op = mh.assemble_magnetic(phases, harmonic=True)
    pairs, _, _ = mh.smallest_eigs(op, k=1)
    assert mh.spectral._diamagnetic_floor(grid) == pytest.approx(pairs[0][0], abs=1e-10)


def test_shift_invert_solves_factor_through_one_path(monkeypatch, step_half):
    # every factorization goes through the module-level splu (which traced
    # benchmark runs rebind) with the symmetric minimum-degree ordering
    real_splu = mh.spectral.splu
    calls = []

    def recording_splu(matrix, **kwargs):
        calls.append(kwargs)
        return real_splu(matrix, **kwargs)

    monkeypatch.setattr(mh.spectral, "splu", recording_splu)
    expected = {"permc_spec": "MMD_AT_PLUS_A"}
    grid = mh.build_grid(4.0, 48)   # resolution cap s_max = 0.85
    mh.lambda_curve(step_half, [0.0], grid)
    assert calls == [expected]
    calls.clear()
    mh.lambda_curve(step_half, [0.0, 0.25, 0.5], grid)
    assert calls == [expected]   # one factor per curve
    calls.clear()
    mh.hardy_constant(step_half, 4.25, 16)
    assert calls == [expected]


@pytest.mark.parametrize("flux, n", [
    pytest.param(flux, 64, id=str(flux)) for flux in (0.9, 0.5, 0.7, 1.3)] + [
    pytest.param(0.9, 65, id="0.9-odd")])
def test_lambda_curve_matches_a_fresh_factor_at_every_s(flux, n):
    # later samples run LOBPCG preconditioned by the first sample's factor;
    # at flux 0.9 the ground state changes symmetry class between s = 1.5 and
    # s = 2, where a start from the previous eigenvector alone converges to
    # 0.749195 instead of 0.742666; half flux solves the degenerate pair (k=2);
    # 0.7 and 1.3 are the other class-crossing fluxes, and the odd grid folds
    # a centre row.  The reference is a fresh shift-invert solve of the
    # complex operator, the curve's own runs on the folded real one.
    field = mh.make_field("radial-step", {"b0": 2 * flux / 9.0, "r": 3.0})
    grid = mh.build_grid(7.0, n)
    s_values = [0.0, 0.5, 1.0, 1.5, 2.0]
    sigma = mh.spectral._diamagnetic_floor(grid) - mh.spectral.SHIFT_BELOW_FLOOR
    k = 2 if flux == 0.5 else 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        samples = mh.lambda_curve(field, s_values, grid)
    for smp, s in zip(samples, s_values):
        op = mh.assemble_magnetic(mh.peierls_phases(grid, field, s=s), harmonic=True)
        pairs, _, _ = mh.smallest_eigs(op, k=k, sigma=sigma)
        assert smp.lam == pytest.approx(pairs[0][0], rel=1e-10, abs=0.0), s
        assert smp.residual <= 1e-8


@pytest.mark.parametrize("field_name, dtype", [
    ("step_half", np.float64), ("offset_bump", np.complex128), ("dipole", np.complex128)])
def test_lambda_curve_factors_mirror_symmetric_fields_in_real_arithmetic(
        monkeypatch, request, field_name, dtype):
    # a field with B(-x, y) = B(x, y) is folded into a real operator; the
    # offset bump and the dipole pair on the x-axis keep the complex one
    field = request.getfixturevalue(field_name)
    seen = []
    real_splu = mh.spectral.splu

    def spying_splu(matrix, **kwargs):
        seen.append(matrix.dtype)
        return real_splu(matrix, **kwargs)

    monkeypatch.setattr(mh.spectral, "splu", spying_splu)
    grid = mh.build_grid(4.0, 48)   # resolution cap s_max = 0.85 for step_half
    samples = mh.lambda_curve(field, [0.0, 0.25], grid)
    assert seen == [dtype]
    assert field.mirror_symmetric == (dtype == np.float64)
    assert all(smp.residual <= 1e-8 for smp in samples)


def _stalled_lobpcg(A, X, **kwargs):
    return np.ones(X.shape[1]), X


def _broken_lobpcg(A, X, **kwargs):
    raise ValueError("eigh has failed in lobpcg postprocessing")


@pytest.mark.parametrize("fake_lobpcg", [_stalled_lobpcg, _broken_lobpcg])
def test_lambda_curve_falls_back_to_a_fresh_factor(monkeypatch, step_half, fake_lobpcg):
    # a LOBPCG that returns its start block unchanged misses the residual
    # check at every later s, and one that raises gives no pairs; each such s
    # is then solved by eigsh on its own factor of the carried generator,
    # folded into a real matrix since the field is mirror-symmetric
    from magheat.evolve import carried_generator

    grid = mh.build_grid(4.0, 48)   # resolution cap s_max = 0.85
    s_values = [0.0, 0.25, 0.5]
    expected = mh.lambda_curve(step_half, s_values, grid)
    factors = []
    real_splu = mh.spectral.splu

    def recording_splu(matrix, **kwargs):
        factors.append(matrix)
        return real_splu(matrix, **kwargs)

    monkeypatch.setattr(mh.spectral, "splu", recording_splu)
    monkeypatch.setattr(mh.spectral, "lobpcg", fake_lobpcg)
    sigma = mh.spectral._diamagnetic_floor(grid) - mh.spectral.SHIFT_BELOW_FLOOR
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        samples = mh.lambda_curve(step_half, s_values, grid)
    assert len(factors) == len(s_values)
    generator_at = carried_generator(grid, step_half)
    for smp, ref, s in zip(samples, expected, s_values):
        op = mh.DiscreteOperator(grid=grid, matrix=generator_at(s))
        assert op.matrix.dtype == np.float64
        pairs, residual, solves = mh.smallest_eigs(op, k=2, sigma=sigma)
        assert smp.lam == pairs[0][0] and smp.residual == residual
        # the fake LOBPCG made no solves; eigsh's are counted
        assert smp.iterations == solves
        assert smp.lam == pytest.approx(ref.lam, rel=1e-10, abs=0.0)
        # the complex operator of the same phases has the same eigenvalues
        op = mh.assemble_magnetic(mh.peierls_phases(grid, step_half, s=s), harmonic=True)
        assert smp.lam == pytest.approx(mh.smallest_eigs(op, k=2, sigma=sigma)[0][0][0],
                                        rel=1e-10, abs=0.0)


def test_lambda_curve_resolution_cap(step_half):
    grid = mh.build_grid(8.0, 64)
    cap = grid.s_max(step_half.support_radius)
    with pytest.raises(ResolutionCapError):
        mh.lambda_curve(step_half, [cap + 0.5], grid)


def test_lambda_limit_estimate_constant():
    samples = [mh.SpectralSample(s=float(s), lam=0.5, residual=0.0, iterations=1,
                                 r_dom=8.0, n=64) for s in (1, 2, 3, 4)]
    assert mh.lambda_limit_estimate(samples) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        mh.lambda_limit_estimate(samples[:2])


def test_lambda_limit_estimate_linear_model():
    # exact e^{-s/2} decay is reproduced to round-off
    lam_inf, c = 0.75, -0.6
    samples = [mh.SpectralSample(s=s, lam=lam_inf + c * math.exp(-s / 2),
                                 residual=0.0, iterations=1, r_dom=8.0, n=64)
               for s in (3.0, 4.0, 5.0, 6.0)]
    assert mh.lambda_limit_estimate(samples) == pytest.approx(lam_inf, abs=1e-12)


def test_variational_bound_zero_field_cutoff_decay(zero_field):
    values = [variational_upper_bound(zero_field, 0.0, n) for n in (4, 16, 64)]
    for v in values:
        assert v >= 0.5
    assert values[0] > values[1] > values[2]
    # excess tracks the 1/(2 log n) cutoff penalty
    assert values[2] - 0.5 == pytest.approx(1 / (2 * math.log(64)), rel=1e-3)
    with pytest.raises(ValueError):
        variational_upper_bound(zero_field, 0.0, 1)


def test_variational_bound_decreases_in_s():
    f1 = mh.make_field("scaled-to-flux", {"target": 1.0, "r": 1.0})
    vals = [variational_upper_bound(f1, s, 8) for s in (2.0, 6.0, 10.0)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] == pytest.approx(0.5 + 1 / (2 * math.log(8)), abs=5e-3)


def test_variational_bound_dominates_lambda(step_half):
    grid = mh.build_grid(8.0, 96)
    for s in (0.0, 0.5):
        lam = mh.lambda_curve(step_half, [s], grid)[0].lam
        for n in (4, 8, 32):
            assert variational_upper_bound(step_half, s, n) >= lam


def test_lambda_limit_estimate_half_flux_tail():
    field = mh.make_field("radial-step", {"b0": 2 * 0.5 / 9.0, "r": 3.0})
    grid = mh.build_grid(7.0, 400)
    samples = mh.lambda_curve(field, [4.0, 5.0, 6.0], grid)
    assert mh.lambda_limit_estimate(samples) == pytest.approx(0.75, abs=0.03)


def test_lambda_limit_estimate_beta_point_three():
    field = mh.make_field("scaled-to-flux", {"target": 1.3, "r": 3.0})
    grid = mh.build_grid(7.0, 400)
    samples = mh.lambda_curve(field, [4.0, 5.0, 6.0], grid)
    assert mh.lambda_limit_estimate(samples) == pytest.approx(0.65, abs=0.03)


def test_lambda_curve_integer_flux_decreasing_toward_half():
    field = mh.make_field("scaled-to-flux", {"target": 1.0, "r": 3.5})
    grid = mh.build_grid(7.8, 368)
    samples = mh.lambda_curve(field, [2.0, 4.0, 6.0], grid)
    lams = [s.lam for s in samples]
    assert all(l > 0.5 for l in lams)
    assert lams[0] > lams[1] > lams[2]


def test_hardy_zero_field_decreases(zero_field):
    # h = 0.5; r_dom = 4.25 is the smallest half-width with n >= 16
    ests = [mh.hardy_constant(zero_field, r_dom, int(2 * r_dom / 0.5) - 1)
            for r_dom in (4.25, 8.0, 16.0)]
    cs = [e.c_est for e in ests]
    assert cs[0] > cs[1] > cs[2] > 0.0


def test_hardy_half_flux_uniformly_positive(step_half):
    ests = [mh.hardy_constant(step_half, r_dom, int(2 * r_dom / 0.5) - 1)
            for r_dom in (4.25, 8.0, 16.0)]
    assert min(e.c_est for e in ests) > 0.05


@pytest.mark.parametrize("field_name", ["step_half", "zero_field", "offset_bump"])
@pytest.mark.parametrize("r_dom, n", [(4.25, 16), (6.0, 24)])
def test_hardy_constant_matches_dense_generalized_eigh(request, field_name, r_dom, n):
    # oracle: LAPACK's dense generalized eigensolver on the pair (L, diag(w))
    from scipy.linalg import eigh

    field = request.getfixturevalue(field_name)
    grid = mh.build_grid(r_dom, n)
    phases = mh.peierls_phases(grid, field)
    op = mh.assemble_magnetic(phases, harmonic=False)
    X, Y = grid.mesh()
    w = 1.0 / (1.0 + (X**2 + Y**2).ravel())
    expected = eigh(op.matrix.toarray(), np.diag(w), eigvals_only=True,
                    subset_by_index=(0, 0))[0]
    assert mh.hardy_constant(field, r_dom, n).c_est == pytest.approx(expected, abs=1e-10)


def test_hardy_constant_rejects_degenerate_grid(step_half):
    # the grid goes through build_grid, so n = 1 no longer yields an estimate
    with pytest.raises(ValueError, match="n must be"):
        mh.hardy_constant(step_half, 4.0, 1)


def test_hardy_ab_radial_comparison():
    # the flux-line analogue: channel operators dominate beta^2 / r^2
    from scipy.linalg import eigh

    for flux in (0.3, 0.5):
        beta = abs(flux - round(flux))
        worst = math.inf
        for m in (-2, -1, 0, 1):
            op = mh.assemble_radial(m, flux, 20.0, 800)
            tri = (np.diag(op.sym_diag) + np.diag(op.sym_off, 1)
                   + np.diag(op.sym_off, -1))
            w = np.diag(1.0 / op.r**2)
            vals = eigh(tri, w, eigvals_only=True)
            worst = min(worst, vals[0])
        assert worst >= beta**2 * (1 - 1e-6)


def test_infimum_gap_zero_field(zero_field):
    grid = mh.build_grid(10.0, 80)
    gap = infimum_gap(mh.lambda_curve(zero_field, [0.0, 0.5, 1.0], grid))
    assert gap == pytest.approx(0.0, abs=2e-3)


def test_infimum_gap_half_flux_positive(step_half):
    grid = mh.build_grid(10.0, 128)
    cap = grid.s_max(step_half.support_radius)
    s_grid = list(np.arange(0.0, cap, 0.5))
    assert infimum_gap(mh.lambda_curve(step_half, s_grid, grid)) > 0.01


def test_infimum_gap_integer_flux_vanishes():
    # a wide weak unit-flux bump: the sampled infimum gap sits at zero
    field = mh.make_field("scaled-to-flux", {"target": 1.0, "r": 100.0})
    grid = mh.build_grid(12.0, 96)
    s_grid = list(np.arange(0.0, 4.01, 0.5))
    gap = infimum_gap(mh.lambda_curve(field, s_grid, grid))
    assert gap == pytest.approx(0.0, abs=2e-3)


def test_lambda_limit_flux_periodicity():
    # fields one flux quantum apart share beta, hence the limit estimate
    grid = mh.build_grid(7.0, 400)
    est = {}
    for target in (0.3, 1.3):
        field = mh.make_field("scaled-to-flux", {"target": target, "r": 3.0})
        samples = mh.lambda_curve(field, [4.0, 5.0, 6.0], grid)
        est[target] = mh.lambda_limit_estimate(samples)
    assert abs(est[0.3] - est[1.3]) < 2 * 0.03


def test_eigenvector_harmonic_localization(zero_field):
    grid = mh.build_grid(16.0, 160)
    phases = mh.peierls_phases(grid, zero_field)
    op = mh.assemble_magnetic(phases, harmonic=True)
    pairs, _, _ = mh.smallest_eigs(op, k=1)
    vec = pairs[0][1]
    X, Y = grid.mesh()
    outside = (np.hypot(X, Y) > 12.0).ravel()
    mass = float(np.sum(np.abs(vec[outside]) ** 2) / np.sum(np.abs(vec) ** 2))
    assert mass < 1e-6
