import numpy as np
import pytest

import magheat as mh
from magheat.evolve import NormTrajectory, TrajectoryPoint


def _physical_traj(times, norms):
    return NormTrajectory(frame="physical", points=[
        TrajectoryPoint(time=t, l2_norm=n, k_norm=None, boundary_mass=0.0)
        for t, n in zip(times, norms)])


def _selfsim_traj(times, norms):
    return NormTrajectory(frame="self-similar", points=[
        TrajectoryPoint(time=t, l2_norm=n, k_norm=n, boundary_mass=0.0)
        for t, n in zip(times, norms)])


def test_fit_polynomial_exact_power_law():
    t = np.linspace(0.5, 60, 400)
    fit = mh.fit_polynomial_rate(_physical_traj(t, (1 + t) ** -0.5), (10, 50))
    assert fit.exponent == pytest.approx(0.5, abs=1e-6)
    assert fit.residual < 1e-12
    assert fit.exponent_stderr < 1e-8


def test_fit_exponential_exact():
    s = np.linspace(0, 8, 300)
    fit = mh.fit_exponential_rate(_selfsim_traj(s, np.exp(-0.65 * s)), (4, 8))
    assert fit.exponent == pytest.approx(0.65, abs=1e-8)


def test_fit_validation():
    t = np.linspace(0, 60, 200)
    traj = _physical_traj(t, (1 + t) ** -0.5)
    with pytest.raises(ValueError):
        mh.fit_polynomial_rate(traj, (59.9, 60.0))      # too few samples
    with pytest.raises(ValueError):
        mh.fit_exponential_rate(traj, (10, 50))         # wrong frame
    bad = _physical_traj(t, np.concatenate([[-1.0], (1 + t[1:]) ** -0.5]))
    with pytest.raises(ValueError):
        mh.fit_polynomial_rate(bad, (0, 60))


def test_fit_window_shift_stability():
    # slow transient whose instantaneous rate rises toward the asymptote:
    # shifting the fit window later never reduces gamma beyond its stderr
    t = np.linspace(0.5, 80, 2000)
    rate = 0.75 - 0.25 * np.exp(-t / 8.0)
    log_n = -np.concatenate([[0.0], np.cumsum(
        0.5 * (rate[1:] / (1 + t[1:]) + rate[:-1] / (1 + t[:-1])) * np.diff(t))])
    fits = [mh.fit_polynomial_rate(_physical_traj(t, np.exp(log_n)), (a, a + 25))
            for a in (10, 25, 40)]
    for f1, f2 in zip(fits, fits[1:]):
        assert f2.exponent >= f1.exponent - f1.exponent_stderr


def test_selfsimilar_zero_field_slope_late_window(zero_field):
    # generic data relax onto the confined ground mode: slope -> 1/2
    grid = mh.build_grid(8.0, 96)
    v0 = mh.gaussian_state(grid, 1.2, frame="self-similar")
    traj = mh.evolve_selfsimilar(zero_field, v0, 8.0, 0.05)
    fit = mh.fit_exponential_rate(traj, (4.0, 8.0))
    assert fit.exponent == pytest.approx(0.5, abs=0.03)


def test_fit_consistency_across_frames():
    # one field, one datum, both frames: the plain norm of the rescaled
    # solution matches the physical norm at s = log(1 + t), so the fitted
    # rates agree up to discretization
    field = mh.make_field("radial-step", {"b0": 2 * 0.5 / 1.5**2, "r": 1.5})
    grid_ph = mh.build_grid(20.0, 319)
    u0 = mh.gaussian_state(grid_ph, 1.0)
    traj_ph = mh.evolve_physical(field, u0, 12.0, 0.1)
    gamma = mh.fit_polynomial_rate(traj_ph, (3.0, 12.0))

    grid_ss = mh.build_grid(8.0, 160)
    v0 = mh.gaussian_state(grid_ss, np.sqrt(4.0 / 3.0), frame="self-similar")
    s_hi = np.log(13.0)
    assert s_hi < grid_ss.s_max(field.support_radius)
    traj_ss = mh.evolve_selfsimilar(field, v0, s_hi, 0.05)
    window = (np.log(4.0), s_hi)
    times = traj_ss.times
    mask = (times >= window[0]) & (times <= window[1])
    slope = -np.polyfit(times[mask], np.log(traj_ss.l2_norms[mask]), 1)[0]
    combined = 3 * (gamma.exponent_stderr + 1e-3) + 0.02
    assert abs(gamma.exponent - slope) < max(combined, 0.03)


def test_theorem_report_zero_field(zero_field):
    cfg = mh.ReportConfig(
        ss_r_dom=8.0, ss_n=72, s_values=(0.0, 0.75, 1.5), s_final=1.5,
        ds=0.05, phys_r_dom=18.0, phys_n=143, t_final=8.0, dt=0.1,
        width=1.2, fit_window=(2.0, 8.0), ss_fit_window=(0.5, 1.5),
        initial_data=("gaussian",))
    report = mh.theorem_report(zero_field, cfg)
    assert report["beta"] == 0.0
    assert report["target_rate"] == 0.5
    assert abs(report["gamma_min"] - 0.5) < 0.12  # short-run transient allowed
    assert report["c_b"] == pytest.approx(0.0, abs=2e-3)
    assert report["lambda_limit"]["raw_last"] == pytest.approx(0.5, abs=2e-3)
    for name in ("lambda_floor", "c_b_sign", "energy_bound", "global_bound"):
        assert report["flags"][name], name


def test_theorem_report_half_flux_flags(step_half):
    cfg = mh.ReportConfig(
        ss_r_dom=8.0, ss_n=128, s_values=(0.0, 0.4, 0.8), s_final=0.8,
        ds=0.05, phys_r_dom=18.0, phys_n=143, t_final=8.0, dt=0.1,
        width=1.2, fit_window=(2.0, 8.0), ss_fit_window=(0.25, 0.8),
        initial_data=("gaussian",), gamma_tol=0.2, lambda_tol=0.3)
    report = mh.theorem_report(step_half, cfg)
    assert report["beta"] == pytest.approx(0.5, abs=1e-10)
    assert report["c_b"] > 1e-3
    assert report["flags"]["energy_bound"]
    assert report["flags"]["global_bound"]
    assert report["flags"]["c_b_sign"]
    # short windows cannot see the asymptotic rate, but the gap must show
    assert report["gamma_min"] > 0.5


def test_theorem_report_integer_flux_wide_bump():
    # unit-flux wide bump: free-like rate, vanishing infimum gap, limit ~ 1/2
    field = mh.make_field("scaled-to-flux", {"target": 1.0, "r": 100.0})
    cfg = mh.ReportConfig(
        ss_r_dom=10.0, ss_n=80, s_values=(0.0, 0.75, 1.5), s_final=1.5,
        ds=0.05, phys_r_dom=18.0, phys_n=143, t_final=8.0, dt=0.1,
        width=1.2, fit_window=(2.0, 8.0), ss_fit_window=(0.5, 1.5),
        initial_data=("gaussian",), gamma_tol=0.12)
    report = mh.theorem_report(field, cfg)
    assert report["beta"] == pytest.approx(0.0, abs=1e-10)
    assert abs(report["gamma_min"] - 0.5) < 0.12
    assert report["c_b"] == pytest.approx(0.0, abs=2e-3)
    assert report["lambda_limit"]["raw_last"] == pytest.approx(0.5, abs=5e-3)
    assert report["pass"]


def test_theorem_report_solves_each_s_once(monkeypatch, zero_field):
    # s_values (0, 1, 2) and the c_b grid (0, 0.5, ..., 2) share one curve
    import magheat.spectral as spectral

    seen = []
    inner = spectral.smallest_eigs

    def counted(*args, **kwargs):
        seen.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(spectral, "smallest_eigs", counted)
    cfg = mh.ReportConfig(
        ss_r_dom=6.0, ss_n=32, s_values=(0.0, 1.0, 2.0), s_final=1.0, ds=0.05,
        phys_r_dom=12.0, phys_n=48, t_final=1.0, dt=0.1, width=1.0,
        fit_window=(0.1, 1.0), ss_fit_window=(0.4, 1.0), initial_data=("gaussian",))
    report = mh.theorem_report(zero_field, cfg)
    assert len(seen) == 5
    assert [smp["s"] for smp in report["lambda_curve"]] == [0.0, 1.0, 2.0]
