import math

import numpy as np
import pytest
import scipy.sparse as sp

import magheat as mh
from magheat.discretize import DiscreteOperator
from magheat.errors import (BoundaryContaminationError, ResolutionCapError,
                            SolverConvergenceError)
from magheat.evolve import BOUNDARY_RINGS, MAX_DS, energy_bound_check
from oracles import cn_step, mirror_unitary


def _scalar_operator(grid, sigma):
    mat = (sigma * sp.identity(grid.size, dtype=complex)).tocsr()
    return DiscreteOperator(grid=grid, matrix=mat)


def test_cn_step_identity_free():
    grid = mh.build_grid(4.0, 16)
    state = mh.gaussian_state(grid, 1.0)
    out = cn_step(_scalar_operator(grid, 0.0), state, 0.1)
    assert np.array_equal(out.values, state.values)
    assert out.time == pytest.approx(0.1)


def test_cn_step_scalar_pade():
    grid = mh.build_grid(4.0, 16)
    state = mh.gaussian_state(grid, 1.0)
    sigma, dt = 0.8, 0.2
    out = cn_step(_scalar_operator(grid, sigma), state, dt)
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
        out = cn_step(op, state, dt)
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
        return cn_step(op, state, 0.1).values

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


def _run(frame, field, steps, datum="gaussian"):
    # ``datum`` names one of theorem_report's physical initial data
    from magheat.decay import _initial_state

    grid = mh.build_grid(6.0, 64)
    if frame == "physical":
        return mh.evolve_physical(field, _initial_state(datum, grid, 1.0), 0.1 * steps, 0.1)
    v0 = mh.gaussian_state(grid, 1.0, frame="self-similar")
    return mh.evolve_selfsimilar(field, v0, 0.05 * steps, 0.05)


def _record_lanczos(monkeypatch, seen):
    """Record in ``seen`` the dtype of every vector the physical Lanczos run
    applies the generator to."""
    import magheat.evolve as ev

    inner = ev._lanczos_norms

    class Recording:
        def __init__(self, matrix):
            self.matrix, self.dtype = matrix, matrix.dtype

        def __matmul__(self, v):
            seen.append(v.dtype)
            return self.matrix @ v

    monkeypatch.setattr(ev, "_lanczos_norms",
                        lambda matrix, *args: inner(Recording(matrix), *args))


@pytest.mark.parametrize("frame", ["physical", "self-similar"])
def test_cg_dtype_follows_the_generator(monkeypatch, zero_field, step_half, offset_bump,
                                        frame):
    # zero-field runs work in real arithmetic; both frames use a
    # mirror-symmetric field's generator as the real W L W^H, so a centred
    # datum, and in the physical frame the x-odd one, which folds to an
    # imaginary vector, run in real arithmetic there too; the off-centre bump
    # runs in complex, and so does the physical frame's shifted datum, which
    # does not fold to a real vector and keeps the complex stencil: every CG
    # right-hand side in the self-similar frame; the physical frame makes no
    # CG solve, and every vector its Lanczos run applies L to has the dtype
    solved, applied = [], []
    _spy(monkeypatch, "cg", solved, lambda matrix, rhs: rhs.dtype)
    _record_lanczos(monkeypatch, applied)
    cases = {"physical": ((zero_field, "gaussian", np.float64),
                          (step_half, "gaussian", np.float64),
                          (step_half, "odd", np.float64),
                          (offset_bump, "gaussian", np.complex128),
                          (step_half, "shifted", np.complex128)),
             "self-similar": ((zero_field, "gaussian", np.float64),
                              (step_half, "gaussian", np.float64),
                              (offset_bump, "gaussian", np.complex128))}
    for field, datum, dtype in cases[frame]:
        solved.clear()
        applied.clear()
        # one physical step: the shifted datum reaches the wall at the second
        _run(frame, field, 3 if frame == "self-similar" else 1, datum)
        if frame == "physical":
            assert solved == []
            assert applied and set(applied) == {np.dtype(dtype)}
        else:
            assert solved == [np.dtype(dtype)] * 3
            assert applied == []


def test_selfsimilar_cg_operands_are_real_for_mirror_symmetric_data(monkeypatch, step_half,
                                                                   offset_bump):
    # the operator, the right-hand side and the preconditioner's output of
    # every CG solve: float64 for the half-flux step and the centred datum,
    # which fold to a real generator and a real vector, and for the x-odd
    # datum, which folds to an imaginary vector and steps rotated by -i;
    # complex for the offset bump, whose generator stays complex
    import magheat.evolve as ev

    inner, seen = ev.cg, []

    def spy(A, b, **kwargs):
        seen.append((A.dtype, b.dtype, kwargs["M"].matvec(b).dtype))
        return inner(A, b, **kwargs)

    monkeypatch.setattr(ev, "cg", spy)
    grid = mh.build_grid(6.0, 64)
    real, cplx = np.dtype(np.float64), np.dtype(complex)
    for field, odd, dtypes in ((step_half, False, (real, real, real)),
                               (offset_bump, False, (cplx, cplx, cplx)),
                               (step_half, True, (real, real, real))):
        seen.clear()
        v0 = mh.gaussian_state(grid, 1.0, frame="self-similar", odd=odd)
        mh.evolve_selfsimilar(field, v0, 0.1, 0.05)
        assert seen == [dtypes] * 2, (field.kind, odd)


def _cg_calls(monkeypatch):
    """Spy on ``magheat.evolve.cg``: one dict per call with its preconditioner,
    its iteration count and a copy of its solution, which the caller may
    update in place."""
    import magheat.evolve as ev

    inner, calls = ev.cg, []

    def spy(*args, **kwargs):
        call = {"M": kwargs.get("M"), "iters": 0}

        def tick(_):
            call["iters"] += 1

        out, info = inner(*args, callback=tick, **kwargs)
        call["out"] = out.copy()
        calls.append(call)
        return out, info

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
    # CG solves for the increment from the state before the step, in the
    # folded coordinates W u of the mirror-symmetric field
    w = mirror_unitary(grid.n)
    step = w @ v0.values + call["out"]
    assert np.linalg.norm(step - w @ direct) <= 1e-9 * np.linalg.norm(direct)


def test_physical_preconditioned_step_matches_direct_solve(monkeypatch, step_half):
    # one physical Crank-Nicolson step, now read from the Lanczos quadrature
    # with no CG solve: its norm and ring share against a direct sparse solve
    from scipy.sparse.linalg import spsolve

    calls = _cg_calls(monkeypatch)
    grid = mh.build_grid(6.0, 64)
    u0 = mh.gaussian_state(grid, 1.0)
    traj = mh.evolve_physical(step_half, u0, 0.1, 0.1)
    assert calls == []
    L = mh.assemble_magnetic(mh.peierls_phases(grid, step_half), harmonic=False).matrix
    eye = sp.identity(grid.size, format="csc")
    direct = mh.StateVector(
        grid=grid, values=spsolve((eye + 0.05 * L).tocsc(), (eye - 0.05 * L) @ u0.values),
        time=0.1, frame="physical")
    assert traj.l2_norms[1] == pytest.approx(direct.norm(), rel=1e-9, abs=0.0)
    share = math.sqrt(traj.points[1].boundary_mass)
    assert abs(share - math.sqrt(direct.boundary_mass())) <= 1e-9


@pytest.mark.parametrize("harmonic", [True])     # the confined generator, the only one
@pytest.mark.parametrize("n", [16, 17, 18])
def test_fast_diagonalization_inverts_the_zero_field_operator(zero_field, rng, n, harmonic):
    # n = 16 and 18: even axes, folded into two m x m halves, with m even and
    # odd; n = 17: an odd axis, whose centre row joins the even half and
    # where a tridiagonal block ending one node early or late would show;
    # on node vectors and on the folded coordinates, against the folded
    # zero-field build there
    from magheat.evolve import _fast_diagonalization

    grid, dt = mh.build_grid(4.0, n), 0.3
    re, im = rng.standard_normal((2, grid.size))
    for folded in (False, True):
        L = mh.assemble_magnetic(mh.peierls_phases(grid, zero_field), harmonic=harmonic,
                                 folded=folded).matrix
        P = sp.identity(grid.size, format="csr") + (dt / 2.0) * L
        apply = _fast_diagonalization(grid, dt, folded).matvec
        for r in (re, re + 1j * im):
            out = apply(r)
            assert out.dtype == r.dtype
            assert np.linalg.norm(P @ out - r) <= 1e-12 * np.linalg.norm(r), folded


@pytest.mark.parametrize("harmonic", [True])     # the confined generator, the only one
@pytest.mark.parametrize("dt", [0.3, MAX_DS])
@pytest.mark.parametrize("n", [16, 17, 18])
def test_preconditioner_matches_full_diagonalization(rng, n, dt, harmonic):
    # independent oracle: T = V diag(w) V^T on both axes, so
    # P^{-1} r = V ((V^T R V) / (1 + dt/2 (w_i + w_j))) V^T for r = vec(R),
    # with the confining x^2/16 on T's diagonal
    from scipy.linalg import eigh_tridiagonal

    from magheat.evolve import _fast_diagonalization

    grid = mh.build_grid(4.0, n)
    confinement = harmonic * grid.axis() ** 2 / 16.0
    w, V = eigh_tridiagonal(2.0 / grid.h**2 + confinement, np.full(n - 1, -1.0 / grid.h**2))
    scale = 1.0 / (1.0 + (dt / 2.0) * (w[:, None] + w[None, :]))
    apply = _fast_diagonalization(grid, dt).matvec
    re, im = rng.standard_normal((2, n, n))
    for R in (re, re + 1j * im):
        expected = (V @ ((V.T @ R @ V) * scale) @ V.T).ravel()
        out = apply(R.ravel())
        assert out.dtype == R.dtype
        assert np.linalg.norm(out - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize("evolve", [{"frame": "self-similar", "s_final": 0.1, "ds": 0.05},
                                    {"frame": "physical", "t_final": 0.2, "dt": 0.1}],
                         ids=["self-similar", "physical"])
def test_preconditioner_factor_failure_is_typed(monkeypatch, capsys, tmp_path, evolve):
    # P, and in the physical frame I + dt/2 T of the Lanczos tridiagonal, is
    # positive definite, so its LDL^T factor cannot fail; if it reports
    # failure anyway the run stops with a solver error (exit 1), not a wrong
    # inverse or a wrong norm curve
    import magheat.evolve as ev
    from magheat.cli import main
    from magheat.harness import ZERO_FIELD, ExperimentConfig

    physical = evolve["frame"] == "physical"
    monkeypatch.setattr(ev, "dpttrf", lambda d, e, **_: (d, e, 1))
    with pytest.raises(SolverConvergenceError, match="info=1"):
        if physical:
            ev._tridiagonal_cn(np.full(3, 2.0), np.full(2, -1.0), 0.1, 4)
        else:
            ev._fast_diagonalization(mh.build_grid(4.0, 16), 0.1)
    cfg = ExperimentConfig(kind="evolve", label="factor", field=ZERO_FIELD,
                           grid={"r_dom": 4.0, "n": 16}, evolve=evolve)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json())
    assert main(["evolve", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
    failed = "Lanczos tridiagonal" if physical else "preconditioner"
    assert f"{failed} factor failed" in capsys.readouterr().err


@pytest.mark.parametrize("datum", ["gaussian", "shifted", "odd"])
@pytest.mark.parametrize("field_name", ["zero_field", "step_half", "offset_bump"])
def test_lanczos_matches_crank_nicolson_stepping(request, field_name, datum):
    # the quadrature against 40 stepped Crank-Nicolson states, each one CG
    # solve (rtol 1e-10) with the same generator, for the initial data of
    # theorem_report; the wall is close, so the ring holds up to 0.1-0.3% of the
    # mass and every ring share |u_k[ring]| / |u_k| means something
    from magheat.decay import _initial_state
    from magheat.evolve import _lanczos_norms, _ring_nodes, _working_values

    field = request.getfixturevalue(field_name)
    grid, dt, steps = mh.build_grid(6.0, 64), 0.1, 40
    state = _initial_state(datum, grid, 1.0)
    op = mh.assemble_magnetic(mh.peierls_phases(grid, field), harmonic=False)
    norms, fractions = _lanczos_norms(op.matrix, _working_values(op.matrix, state.values),
                                      dt, steps, _ring_nodes(grid))
    stepped = [state]
    for _ in range(steps):
        stepped.append(cn_step(op, stepped[-1], dt))
    assert np.allclose(norms * grid.h, [u.norm() for u in stepped], rtol=1e-9, atol=0.0)
    shares = np.sqrt([u.boundary_mass() for u in stepped])
    assert shares.max() > 0.02
    assert np.all(np.abs(np.sqrt(fractions) - shares) <= 1e-9)


def test_lanczos_breakdown_ends_the_run_exactly(monkeypatch, rng):
    # a datum on one eigenvector spans an invariant Krylov space: beta = 0
    # after the first step, and the curve is |r(dt sigma)|^k to rounding
    from magheat.evolve import _lanczos_norms

    checks = []
    _spy(monkeypatch, "_tridiagonal_cn", checks, lambda alpha, *_: alpha.size)
    diag = rng.uniform(0.5, 50.0, 256)
    values = np.zeros(256, dtype=complex)
    values[17] = 3.0 - 4.0j
    dt, steps = 0.3, 25
    norms, fractions = _lanczos_norms(sp.diags(diag).tocsr(), values, dt, steps,
                                      np.arange(10, 20))
    factor = abs((1.0 - dt / 2.0 * diag[17]) / (1.0 + dt / 2.0 * diag[17]))
    assert checks == [1]
    assert np.allclose(norms, 5.0 * factor ** np.arange(steps + 1), rtol=1e-12, atol=0.0)
    assert np.allclose(fractions, 1.0, rtol=1e-12)


def test_lanczos_memory_does_not_grow_with_steps_times_krylov_size(monkeypatch, step_half):
    # a long run on a small grid: the rows c_k are reduced block by block, so
    # the peak grows with the step count by the curves alone, a few doubles
    # per step, where an (n_steps + 1) x m table of rows takes m per step
    import tracemalloc

    from magheat.evolve import _lanczos_norms, _ring_nodes, _working_values

    sizes = []
    _spy(monkeypatch, "_tridiagonal_cn", sizes, lambda alpha, *_: alpha.size)
    grid = mh.build_grid(6.0, 16)
    matrix = mh.assemble_magnetic(mh.peierls_phases(grid, step_half), harmonic=False).matrix
    values = _working_values(matrix, mh.gaussian_state(grid, 1.0).values)
    peaks = {}
    for steps in (10, 4000):
        tracemalloc.start()
        try:
            norms, _ = _lanczos_norms(matrix, values, 0.01, steps, _ring_nodes(grid))
            peaks[steps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert norms.shape == (steps + 1,)
    assert sizes[-1] >= 32
    assert peaks[4000] - peaks[10] < 16 * 8 * (4000 - 10)


def test_lanczos_steps_on_the_benchmark_grid(monkeypatch, step_half):
    # the evolve-physical benchmark run (r_dom 16, n 255, dt 0.1, 20 steps):
    # its norm curve settles after 120 Lanczos steps
    checks = []
    _spy(monkeypatch, "_tridiagonal_cn", checks, lambda alpha, *_: alpha.size)
    grid = mh.build_grid(16.0, 255)
    traj = mh.evolve_physical(step_half, mh.gaussian_state(grid, 1.5), 2.0, 0.1)
    assert len(traj.points) == 21
    assert checks == list(range(10, checks[-1] + 1, 10))
    assert checks[-1] <= 130


def test_lanczos_cap_is_a_solver_error(monkeypatch, capsys, tmp_path, step_half):
    # a norm curve that has not settled within LANCZOS_MAX_STEPS stops the run
    # with a solver error (exit 1), not a curve of unknown accuracy
    import magheat.evolve as ev
    from magheat.cli import main
    from magheat.harness import ExperimentConfig

    monkeypatch.setattr(ev, "LANCZOS_MAX_STEPS", 25)
    grid = mh.build_grid(6.0, 64)
    with pytest.raises(SolverConvergenceError, match="within 25 steps"):
        mh.evolve_physical(step_half, mh.gaussian_state(grid, 1.0), 1.0, 0.1)
    cfg = ExperimentConfig(kind="evolve", label="cap", field=step_half.descriptor(),
                           grid={"r_dom": 6.0, "n": 64},
                           evolve={"frame": "physical", "t_final": 1.0, "dt": 0.1})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json())
    assert main(["evolve", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
    assert "did not settle within 25 steps" in capsys.readouterr().err


def test_boundary_abort_at_the_stepped_time(zero_field):
    # the run stops at the first step whose stepped state has more than
    # BOUNDARY_MASS_TOL of its mass in the ring, and names that time
    from magheat.evolve import BOUNDARY_MASS_TOL

    grid, dt = mh.build_grid(10.0, 48), 0.25
    op = mh.assemble_magnetic(mh.peierls_phases(grid, zero_field), harmonic=False)
    state = mh.gaussian_state(grid, 1.0)
    while state.boundary_mass() <= BOUNDARY_MASS_TOL:
        state = cn_step(op, state, dt)
    assert 1.0 < state.time < 10.0
    with pytest.raises(BoundaryContaminationError, match=f"at t = {state.time:.3f};"):
        mh.evolve_physical(zero_field, mh.gaussian_state(grid, 1.0), 10.0, dt)


def test_evolve_physical_free_matches_dst_crank_nicolson(zero_field):
    # independent oracle: the free Dirichlet Laplacian is diagonal in the
    # DST-I basis, with eigenvalues
    # lam = (4 / h^2) (sin^2(pi k / 2(n+1)) + sin^2(pi l / 2(n+1))),
    # so m Crank-Nicolson steps multiply mode (k, l) by ((1 - dt lam/2) / (1 + dt lam/2))^m
    from scipy.fft import dstn

    grid, dt, steps = mh.build_grid(12.0, 64), 0.1, 20
    u0 = mh.gaussian_state(grid, 1.0)
    traj = mh.evolve_physical(zero_field, u0, dt * steps, dt)
    n, h = grid.n, grid.h
    s2 = np.sin(np.pi * np.arange(1, n + 1) / (2 * (n + 1))) ** 2
    lam = (4.0 / h**2) * (s2[:, None] + s2[None, :])
    mult = (1.0 - dt / 2.0 * lam) / (1.0 + dt / 2.0 * lam)
    modes = dstn(u0.values.real.reshape(n, n), type=1, norm="ortho")
    exact = [h * np.linalg.norm(modes * mult**m) for m in range(steps + 1)]
    assert np.allclose(traj.l2_norms, exact, rtol=1e-9, atol=0.0)
    # every state's ring, as a share of its norm, to 1e-9
    states = [mh.StateVector(grid=grid, values=dstn(modes * mult**m, type=1, norm="ortho"),
                             time=0.0, frame="physical") for m in range(steps + 1)]
    shares = np.sqrt([u.boundary_mass() for u in states])
    assert np.all(np.abs(np.sqrt([p.boundary_mass for p in traj.points]) - shares) <= 1e-9)


def test_generator_rebuilt_only_when_it_changes(monkeypatch, zero_field, step_half):
    # a fielded self-similar run rewrites its generator in place after the
    # first step, so every run makes one full assembly
    seen = []
    _spy(monkeypatch, "assemble_magnetic", seen, lambda *args: None)
    for frame, field in (("physical", step_half), ("self-similar", zero_field),
                         ("self-similar", step_half)):
        seen.clear()
        _run(frame, field, 3)
        assert len(seen) == 1, (frame, field.is_zero)


@pytest.mark.parametrize("n", [48, 49])
def test_selfsimilar_steps_match_direct_solves_on_fresh_generators(monkeypatch, offset_bump,
                                                                   step_half, n):
    # every self-similar step is one CG solve, and the run's norms are those
    # of direct Crank-Nicolson solves on the complex generator assembled
    # afresh at each step's midpoint (agreeing to a few 1e-14): for the
    # offset bump in node coordinates, for the half-flux step (on a smaller
    # domain, for its resolution cap) and a dipole pair on the y-axis in the
    # folded ones, real for the centred datum and imaginary for the x-odd one;
    # the odd grid has a centre row
    dipole_y = mh.make_field("dipole-pair", {"b0": 1.0, "r": 0.5, "center": [0.0, 1.5]})
    solves = []
    _spy(monkeypatch, "cg", solves, lambda *args: None)
    ds, steps = 0.05, 4
    for field, r_dom, odd in ((offset_bump, 6.0, False), (step_half, 3.0, False),
                              (step_half, 3.0, True), (dipole_y, 6.0, False)):
        solves.clear()
        grid = mh.build_grid(r_dom, n)
        v0 = mh.gaussian_state(grid, 1.0, frame="self-similar", odd=odd)
        traj = mh.evolve_selfsimilar(field, v0, ds * steps, ds)
        assert len(solves) == steps
        X, Y = grid.mesh()
        inv_weight = np.exp(-(X**2 + Y**2).ravel() / 8.0)
        state, oracle = v0, []
        for k in range(steps + 1):
            if k:
                phases = mh.peierls_phases(grid, field, s=state.time + ds / 2.0)
                state = cn_step(mh.assemble_magnetic(phases, harmonic=True), state, ds)
            oracle.append((state.norm(), np.linalg.norm(state.values * inv_weight) * grid.h,
                           state.boundary_mass()))
        k_norms, l2_norms, masses = np.array(oracle).T
        # the records of the folded runs weigh each coordinate by its node's weight
        assert np.max(np.abs(traj.k_norms / k_norms - 1.0)) <= 1e-10, (field.kind, odd)
        assert np.max(np.abs(traj.l2_norms / l2_norms - 1.0)) <= 1e-10, (field.kind, odd)
        got = np.array([p.boundary_mass for p in traj.points])
        assert np.max(np.abs(got / masses - 1.0)) <= 1e-8, (field.kind, odd)


@pytest.mark.parametrize("n", [48, 49])
def test_physical_folded_runs_match_the_complex_stencil(monkeypatch, step_half, n):
    # a physical run of a mirror-symmetric field takes its Lanczos quadrature
    # on the real W L W^H when its datum folds to a vector real up to a factor
    # i (the centred Gaussian, and the x-odd one, rotated by -i), and on the
    # complex stencil otherwise (the shifted one); its norms, ring shares and
    # weighted norm agree with a run on the complex stencil (a few 1e-15 in
    # practice), for the half-flux step and a dipole pair on the y-axis; the
    # odd grid has a centre row
    import magheat.evolve as ev
    from magheat.decay import _initial_state

    dipole_y = mh.make_field("dipole-pair", {"b0": 1.0, "r": 0.5, "center": [0.0, 1.5]})
    inner, folds = ev.assemble_magnetic, []

    def spy(phases, harmonic, folded=False):
        folds.append(folded)
        return inner(phases, harmonic, folded)

    monkeypatch.setattr(ev, "assemble_magnetic", spy)
    grid = mh.build_grid(8.0, n)
    for field in (step_half, dipole_y):
        for datum in ("gaussian", "shifted", "odd"):
            u0 = _initial_state(datum, grid, 1.0)
            folds.clear()
            got = mh.evolve_physical(field, u0, 0.5, 0.1)
            with monkeypatch.context() as patch:
                patch.setattr(ev, "_carries_folded", lambda field: False)
                want = mh.evolve_physical(field, u0, 0.5, 0.1)
            assert folds == [datum != "shifted", False], (field.kind, datum)
            a, b = (np.array([p.l2_norm for p in traj.points]
                             + [p.boundary_mass for p in traj.points]
                             + [traj.points[0].k_norm]) for traj in (got, want))
            assert np.all(b > 0.0)
            assert np.max(np.abs(a / b - 1.0)) <= 1e-10, (field.kind, datum)


def _check_carried_generator(monkeypatch, request, field_name, n, run, calls):
    # after every call but the first of the carried generator, the CSR arrays
    # equal assemble_magnetic of the same carried phases, bit for bit, folded
    # for the mirror-symmetric fields, and the matrix object stays the same
    import magheat.evolve as ev
    from magheat.discretize import _carried_box

    grid = mh.build_grid(6.0, n)
    if field_name == "wide_bump":
        # support radius 8 on (-6, 6)^2: the recomputed box is the whole
        # grid, so the rows along the wall take the rewrite too
        field = mh.make_field("radial-bump", {"b0": 0.05, "r": 8.0})
        assert _carried_box(grid, field, 0.2, 0.2) == (slice(0, n), slice(0, n - 1))
    else:
        field = request.getfixturevalue(field_name)
    inner, rewritten = ev.rewrite_hops, []

    def spy(matrix, phases, *args):
        inner(matrix, phases, *args)
        fresh = mh.assemble_magnetic(phases, harmonic=True,
                                     folded=field.mirror_symmetric).matrix
        rewritten.append((id(matrix), all(np.array_equal(getattr(matrix, name),
                                                         getattr(fresh, name))
                                          for name in ("data", "indices", "indptr"))))

    monkeypatch.setattr(ev, "rewrite_hops", spy)
    run(field, grid)
    assert len(rewritten) == calls - 1
    assert len({matrix for matrix, _ in rewritten}) == 1
    assert all(same for _, same in rewritten)


_CARRIED_FIELDS = ["step_half", "offset_bump", "dipole", "wide_bump"]


@pytest.mark.parametrize("n", [96, 97])
@pytest.mark.parametrize("field_name", _CARRIED_FIELDS)
def test_generator_rewritten_in_place_matches_a_fresh_assembly(monkeypatch, request,
                                                               field_name, n):
    # evolve_selfsimilar's four steps
    def run(field, grid):
        v0 = mh.gaussian_state(grid, 1.0, frame="self-similar")
        mh.evolve_selfsimilar(field, v0, 0.2, 0.05)

    _check_carried_generator(monkeypatch, request, field_name, n, run, calls=4)


@pytest.mark.parametrize("n", [96, 97])
@pytest.mark.parametrize("field_name", _CARRIED_FIELDS)
def test_lambda_curve_generator_rewritten_in_place_matches_a_fresh_assembly(
        monkeypatch, request, field_name, n):
    # lambda_curve's five samples, in an order that also goes back:
    # _carried_box takes min(s, s_prev), so a step to a smaller s recomputes
    # the larger box of that s
    def run(field, grid):
        mh.lambda_curve(field, [0.2, 0.1, 0.0, 0.15, 0.05], grid)

    _check_carried_generator(monkeypatch, request, field_name, n, run, calls=5)


def test_selfsimilar_step_forms_no_matrix_beyond_the_generator(step_half):
    # a fielded run's peak allocation is its one assembly, about 4 times the
    # generator's data array at n = 96 (5.0 with the state and the
    # preconditioner's tridiagonal factor and work rows); later steps rewrite
    # the generator in place, where rebuilding it at every step took these
    # four steps to 6.2, and forming I +- dt/2 L as two more sparse matrices
    # took a single step to 6.5
    import tracemalloc

    grid = mh.build_grid(6.0, 96)
    v0 = mh.gaussian_state(grid, 1.0, frame="self-similar")
    mh.evolve_selfsimilar(step_half, v0, 0.1, 0.05)    # lazy imports and caches
    L = mh.assemble_magnetic(mh.peierls_phases(grid, step_half, s=0.025), harmonic=True)
    tracemalloc.start()
    try:
        mh.evolve_selfsimilar(step_half, v0, 0.2, 0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5.5 * L.matrix.data.nbytes


def test_infinite_step_count_rejected(zero_field):
    grid = mh.build_grid(6.0, 32)
    with pytest.raises(ValueError, match="not finite"):
        mh.evolve_physical(zero_field, mh.gaussian_state(grid, 0.5), 1e308, 1e-300)
    with pytest.raises(ValueError, match="not finite"):
        mh.evolve_selfsimilar(zero_field, mh.gaussian_state(grid, 0.5, frame="self-similar"),
                              1e308, 0.05)


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
            state = cn_step(op, state, dt)
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


def test_boundary_mass_is_the_ring_fraction(zero_field):
    # the quick suite's self-similar run, where the total minus the inside
    # rounded below zero (-2.2e-16 at s = 0, -1.2e-16 at s = 0.05)
    grid = mh.build_grid(8.0, 64)
    traj = mh.evolve_selfsimilar(zero_field, mh.gaussian_state(grid, 1.1547,
                                                               frame="self-similar"), 0.2, 0.05)
    assert all(p.boundary_mass >= 0.0 for p in traj.points)
    n, k = grid.n, BOUNDARY_RINGS
    ring = np.ones((n, n), dtype=bool)
    ring[k:n - k, k:n - k] = False
    state = mh.gaussian_state(grid, 4.0)
    v2 = np.abs(state.values.reshape(n, n)) ** 2
    assert state.boundary_mass() == pytest.approx(v2[ring].sum() / v2.sum(), rel=1e-12)


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


def test_weighted_norm_boundary_warning():
    grid = mh.build_grid(8.0, 64)
    X, Y = grid.mesh()
    flat = mh.StateVector(grid=grid, values=np.ones(grid.size, dtype=complex),
                          time=0.0, frame="physical")
    with pytest.warns(RuntimeWarning):
        mh.weighted_norm(flat)
