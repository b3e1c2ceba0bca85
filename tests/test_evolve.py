import math

import numpy as np
import pytest
import scipy.sparse as sp

import magheat as mh
from magheat.discretize import DiscreteOperator
from magheat.errors import BoundaryContaminationError, FrameMapError, ResolutionCapError
from magheat.evolve import energy_bound_check


def _scalar_operator(grid, sigma):
    mat = (sigma * sp.identity(grid.size, dtype=complex)).tocsr()
    return DiscreteOperator(grid=grid, matrix=mat)


def test_cn_step_identity_free():
    grid = mh.build_grid(4.0, 16)
    state = mh.gaussian_state(grid, 1.0)
    out = mh.cn_step(_scalar_operator(grid, 0.0), state, 0.1)
    assert np.array_equal(out.values, state.values)
    assert out.time == pytest.approx(0.1)


def test_cn_step_scalar_pade():
    grid = mh.build_grid(4.0, 16)
    state = mh.gaussian_state(grid, 1.0)
    sigma, dt = 0.8, 0.2
    out = mh.cn_step(_scalar_operator(grid, sigma), state, dt)
    factor = (1 - sigma * dt / 2) / (1 + sigma * dt / 2)
    assert np.allclose(out.values, factor * state.values, rtol=1e-10)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_cn_contraction_random_psd(seed):
    # exact algebraic property of the Pade(1,1) map on [0, inf)
    rng = np.random.default_rng(seed)
    grid = mh.build_grid(4.0, 16)
    diag = rng.uniform(0.0, 50.0, grid.size)
    op = DiscreteOperator(grid=grid, matrix=sp.diags(diag).astype(complex).tocsr())
    state = mh.StateVector(
        grid=grid,
        values=rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size),
        time=0.0, frame="physical")
    for dt in (0.01, 0.3, 5.0):
        out = mh.cn_step(op, state, dt)
        assert out.norm() <= state.norm() * (1 + 1e-12)


def test_cn_real_generator_on_complex_data(zero_field, rng):
    # a real generator on complex data steps both parts at once, as if each
    # part were stepped on its own
    grid = mh.build_grid(6.0, 32)
    op = mh.assemble_magnetic(mh.peierls_phases(grid, zero_field), harmonic=True)
    assert not np.iscomplexobj(op.matrix)
    re, im = rng.standard_normal((2, grid.size))

    def step(values):
        state = mh.StateVector(grid=grid, values=values, time=0.0, frame="physical")
        return mh.cn_step(op, state, 0.1).values

    both = step(re + 1j * im)
    apart = step(re) + 1j * step(im)
    assert np.iscomplexobj(both)
    assert np.linalg.norm(both - apart) <= 1e-9 * np.linalg.norm(apart)


def _spy(monkeypatch, name, seen, record):
    import magheat.evolve as ev

    inner = getattr(ev, name)

    def spy(*args, **kwargs):
        seen.append(record(*args))
        return inner(*args, **kwargs)

    monkeypatch.setattr(ev, name, spy)


def _run(frame, field, steps):
    grid = mh.build_grid(6.0, 64)
    if frame == "physical":
        return mh.evolve_physical(field, mh.gaussian_state(grid, 1.0), 0.1 * steps, 0.1)
    v0 = mh.gaussian_state(grid, 1.0, frame="self-similar")
    return mh.evolve_selfsimilar(field, v0, 0.05 * steps, 0.05)


@pytest.mark.parametrize("frame", ["physical", "self-similar"])
def test_cg_dtype_follows_the_generator(monkeypatch, zero_field, step_half, frame):
    # zero-field runs solve in real arithmetic, fielded runs in complex
    seen = []
    _spy(monkeypatch, "cg", seen, lambda matrix, rhs: rhs.dtype)
    for field, dtype in ((zero_field, np.float64), (step_half, np.complex128)):
        seen.clear()
        _run(frame, field, 3)
        assert seen == [np.dtype(dtype)] * 3


def _cg_calls(monkeypatch):
    """Spy on ``magheat.evolve.cg``: one dict per call with its preconditioner,
    its iteration count and its solution."""
    import magheat.evolve as ev

    inner, calls = ev.cg, []

    def spy(*args, **kwargs):
        call = {"M": kwargs.get("M"), "iters": 0}

        def tick(_):
            call["iters"] += 1

        call["out"], info = inner(*args, callback=tick, **kwargs)
        calls.append(call)
        return call["out"], info

    monkeypatch.setattr(ev, "cg", spy)
    return calls


def test_selfsimilar_preconditioner_exact_without_field(monkeypatch, zero_field):
    # P is the zero-field Crank-Nicolson operator itself, so CG stops after
    # one iteration on every step
    calls = _cg_calls(monkeypatch)
    _run("self-similar", zero_field, 10)
    assert [c["iters"] for c in calls] == [1] * 10


def test_selfsimilar_preconditioned_step_matches_direct_solve(monkeypatch, step_half):
    from scipy.sparse.linalg import spsolve

    calls = _cg_calls(monkeypatch)
    grid = mh.build_grid(6.0, 64)
    v0 = mh.gaussian_state(grid, 1.0, frame="self-similar")
    mh.evolve_selfsimilar(step_half, v0, 0.05, 0.05)
    (call,) = calls
    assert call["M"] is not None
    # one Crank-Nicolson step with the generator at the midpoint s = ds/2
    phases = mh.peierls_phases(grid, step_half, s=0.025)
    L = mh.assemble_magnetic(phases, harmonic=True).matrix
    eye = sp.identity(grid.size, format="csc")
    direct = spsolve((eye + 0.025 * L).tocsc(), (eye - 0.025 * L) @ v0.values)
    assert np.linalg.norm(call["out"] - direct) <= 1e-9 * np.linalg.norm(direct)
    # the physical frame stays unpreconditioned
    calls.clear()
    _run("physical", step_half, 2)
    assert len(calls) == 2 and all(c["M"] is None for c in calls)


def test_generator_rebuilt_only_when_it_changes(monkeypatch, zero_field, step_half):
    seen = []
    _spy(monkeypatch, "assemble_magnetic", seen, lambda *args: None)
    for frame, field, builds in (("physical", step_half, 1), ("self-similar", zero_field, 1),
                                 ("self-similar", step_half, 3)):
        seen.clear()
        _run(frame, field, 3)
        assert len(seen) == builds, (frame, field.is_zero)


def test_infinite_step_count_rejected(zero_field):
    grid = mh.build_grid(6.0, 32)
    with pytest.raises(ValueError, match="not finite"):
        mh.evolve_physical(zero_field, mh.gaussian_state(grid, 0.5), 1e308, 1e-300)
    with pytest.raises(ValueError, match="not finite"):
        mh.evolve_selfsimilar(zero_field, mh.gaussian_state(grid, 0.5, frame="self-similar"),
                              1e308, 0.05)


def test_frame_map_explicit_target_grid():
    src = mh.build_grid(12.0, 160)
    dst = mh.build_grid(6.0, 96)
    u = mh.gaussian_state(src, 1.0)
    u.time = 2.0
    ss = mh.frame_map(u, "to-self-similar", target_grid=dst)
    assert ss.grid == dst
    # the coarser target resamples the state, so the norm identity holds at
    # the coarser grid's interpolation error, not the matched-grid 1e-3
    assert abs(ss.norm() - u.norm()) / u.norm() < 5e-3


def test_cn_ground_state_decay_order(zero_field):
    # one unit of time at two step sizes: second-order approach to e^{-lam}
    grid = mh.build_grid(8.0, 64)
    phases = mh.peierls_phases(grid, zero_field)
    op = mh.assemble_magnetic(phases, harmonic=True)
    lam, vec = mh.smallest_eigs(op, k=1)[0][0]
    errs = []
    for dt in (0.1, 0.05):
        state = mh.StateVector(grid=grid, values=vec.astype(complex), time=0.0,
                               frame="physical")
        n0 = state.norm()
        for _ in range(int(round(1.0 / dt))):
            state = mh.cn_step(op, state, dt)
        errs.append(abs(state.norm() / n0 - math.exp(-lam)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)


def test_evolve_physical_free_matches_oracle(zero_field):
    grid = mh.build_grid(22.0, 351)
    u0 = mh.gaussian_state(grid, 1.5)
    traj = mh.evolve_physical(zero_field, u0, 8.0, 0.1)
    oracle = mh.free_gaussian_norm(traj.times, 1.5) / mh.free_gaussian_norm(0.0, 1.5)
    rel = np.abs(traj.l2_norms / traj.l2_norms[0] / oracle - 1.0)
    assert rel.max() < 1e-3
    assert np.all(np.diff(traj.l2_norms) <= 1e-14)


def test_evolve_physical_contraction_with_field(step_half):
    grid = mh.build_grid(16.0, 160)
    u0 = mh.gaussian_state(grid, 1.0)
    traj = mh.evolve_physical(step_half, u0, 2.0, 0.1)
    assert np.all(np.diff(traj.l2_norms) <= 1e-14)
    assert traj.points[0].k_norm is not None
    assert traj.points[1].k_norm is None


def test_evolve_physical_zero_data(zero_field):
    grid = mh.build_grid(8.0, 48)
    u0 = mh.gaussian_state(grid, 1.0, normalized=False)
    u0.values[:] = 0.0
    traj = mh.evolve_physical(zero_field, u0, 1.0, 0.1)
    assert np.all(traj.l2_norms == 0.0)


def test_evolve_physical_boundary_abort(zero_field):
    grid = mh.build_grid(6.0, 48)
    u0 = mh.gaussian_state(grid, 1.5)
    with pytest.raises(BoundaryContaminationError):
        mh.evolve_physical(zero_field, u0, 30.0, 0.25)


def test_evolve_selfsimilar_ground_state_rate(zero_field):
    grid = mh.build_grid(8.0, 96)
    phases = mh.peierls_phases(grid, zero_field)
    op = mh.assemble_magnetic(phases, harmonic=True)
    lam, vec = mh.smallest_eigs(op, k=1)[0][0]
    v0 = mh.StateVector(grid=grid, values=vec.astype(complex), time=0.0,
                        frame="self-similar")
    traj = mh.evolve_selfsimilar(zero_field, v0, 2.0, 0.05)
    ratio = traj.k_norms[-1] / traj.k_norms[0]
    assert ratio == pytest.approx(math.exp(-lam * 2.0), rel=2e-4)


def test_evolve_selfsimilar_cap(step_half):
    grid = mh.build_grid(8.0, 64)
    v0 = mh.gaussian_state(grid, 1.0, frame="self-similar")
    with pytest.raises(ResolutionCapError):
        mh.evolve_selfsimilar(step_half, v0, 4.0, 0.05)
    with pytest.raises(ValueError):
        mh.evolve_selfsimilar(step_half, v0, 0.5, 0.2)


def test_energy_bound_along_run(step_half):
    field = mh.make_field("radial-step", {"b0": 2 * 0.5 / 4.0, "r": 2.0})
    grid = mh.build_grid(7.0, 128)
    s_final = min(2.0, grid.s_max(field.support_radius))
    v0 = mh.gaussian_state(grid, math.sqrt(4.0 / 3.0), frame="self-similar")
    traj = mh.evolve_selfsimilar(field, v0, s_final, 0.05)
    s_grid = list(np.linspace(0.0, s_final, 5))
    lam = mh.lambda_curve(field, s_grid, grid)
    margin, ok = energy_bound_check(traj, lam)
    assert ok, f"energy bound violated by {margin}"


def test_frame_map_identity_at_zero(zero_field):
    grid = mh.build_grid(8.0, 64)
    u = mh.gaussian_state(grid, 1.2)
    ss = mh.frame_map(u, "to-self-similar")
    assert ss.time == 0.0
    assert np.allclose(ss.values, u.values, atol=1e-13)


def test_frame_map_norm_preserved_and_roundtrip(zero_field):
    grid = mh.build_grid(12.0, 192)
    u = mh.gaussian_state(grid, 1.2)
    u.time = 1.7  # generic time: scale factor incommensurate with the grid
    ss = mh.frame_map(u, "to-self-similar")
    assert ss.time == pytest.approx(math.log(2.7))
    assert abs(ss.norm() - u.norm()) / u.norm() < 1e-3
    back = mh.frame_map(ss, "to-physical")
    assert back.time == pytest.approx(1.7)
    assert np.max(np.abs(back.values - u.values)) < 5e-3


def test_frame_map_off_grid_error():
    grid = mh.build_grid(6.0, 64)
    u = mh.gaussian_state(grid, 2.0, normalized=False)
    u.frame = "self-similar"
    u.time = 4.0  # e^{s} - 1 blows the support past the physical grid
    with pytest.raises(FrameMapError):
        mh.frame_map(u, "to-physical")


def test_weighted_norm_cases(zero_field):
    grid = mh.build_grid(18.0, 256)
    X, Y = grid.mesh()
    # e^{-r^2/4} profile: squared weighted norm is the Gaussian integral 4 pi
    u = mh.StateVector(grid=grid, values=np.exp(-(X**2 + Y**2) / 4).ravel().astype(complex),
                       time=0.0, frame="physical")
    assert mh.weighted_norm(u) == pytest.approx(math.sqrt(4 * math.pi), rel=1e-10)
    # narrow bump at the origin: weight is ~1 there
    v = mh.StateVector(grid=grid, values=np.exp(-(X**2 + Y**2) / 0.02).ravel().astype(complex),
                       time=0.0, frame="physical")
    assert mh.weighted_norm(v) == pytest.approx(v.norm(), rel=5e-3)
    assert mh.weighted_norm(u) >= u.norm()


def test_physical_domain_radius_rule():
    from magheat.evolve import physical_domain_radius

    r = physical_domain_radius(50.0, 1.5, support_radius=1.0)
    assert 40.0 < r < 50.0
    # the returned radius indeed keeps the evolved Gaussian tail below tol
    var = 1.5**2 + 2 * 50.0
    assert math.exp(-((r - 1.0) ** 2) / var) <= 1e-8 * 1.0001


def test_weighted_norm_boundary_warning():
    grid = mh.build_grid(8.0, 64)
    X, Y = grid.mesh()
    flat = mh.StateVector(grid=grid, values=np.ones(grid.size, dtype=complex),
                          time=0.0, frame="physical")
    with pytest.warns(RuntimeWarning):
        mh.weighted_norm(flat)
