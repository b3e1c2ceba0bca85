"""Decay-rate extraction and the headline comparison report.

Physical-frame trajectories yield polynomial rates (slope of log |u| against
log(1+t)); self-similar trajectories yield exponential rates (slope of
-log |v| against s).  ``theorem_report`` bundles the flux data, the lambda(s)
curve, decay fits over several initial data and the global-bound check into
one pass/fail record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discretize import build_grid
from .evolve import (energy_bound_check, evolve_physical, evolve_selfsimilar,
                     gaussian_state)
from .field import beta_of, total_flux
from .spectral import dense_s_grid, infimum_gap, lambda_curve, lambda_limit_estimate

INITIAL_DATA = ("gaussian", "shifted", "odd")   # names _initial_state knows
MIN_FIT_SAMPLES = 10                             # samples a rate fit needs in its window


@dataclass(frozen=True)
class DecayFit:
    """Least-squares decay exponent over one fit window."""

    frame: str
    exponent: float
    fit_window: tuple[float, float]
    residual: float
    exponent_stderr: float


def _fit_line(x, y):
    design = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ coef
    ssr = float(np.sum((y - fitted) ** 2))
    m = x.size
    var = ssr / (m - 2) if m > 2 else 0.0
    denom = float(np.sum((x - x.mean()) ** 2))
    stderr = math.sqrt(var / denom) if denom > 0 else math.inf
    return float(coef[0]), math.sqrt(ssr / m), stderr


def _window_samples(times, norms, window):
    """The times and norms of the samples a rate fit uses.

    A sample is in ``window`` when it lies within 1e-6 of the sample spacing
    of its ends, the rule by which configs are validated: the runs accumulate
    their times step by step, so a sample meant to sit on an end may miss it
    by a rounding error.  Fewer than ``MIN_FIT_SAMPLES`` samples, or a
    non-positive or non-finite norm among them (NaN included), is a
    ``ValueError``.
    """
    slack = 1e-6 * (times[-1] - times[0]) / max(times.size - 1, 1)
    mask = (times >= float(window[0]) - slack) & (times <= float(window[1]) + slack)
    if int(mask.sum()) < MIN_FIT_SAMPLES:
        raise ValueError(f"need >= {MIN_FIT_SAMPLES} samples in the window, "
                         f"found {int(mask.sum())}")
    if not np.all((norms[mask] > 0.0) & (norms[mask] < np.inf)):
        raise ValueError("trajectory contains non-positive or non-finite norms in the window")
    return times[mask], norms[mask]


def fit_polynomial_rate(traj, window):
    """Polynomial rate of a physical run: minus the slope of log |u| vs log(1+t)."""
    if traj.frame != "physical":
        raise ValueError("polynomial rates apply to physical-frame trajectories")
    times, norms = _window_samples(traj.times, traj.l2_norms, window)
    slope, residual, stderr = _fit_line(np.log1p(times), np.log(norms))
    return DecayFit(frame="physical", exponent=-slope,
                    fit_window=(float(window[0]), float(window[1])),
                    residual=residual, exponent_stderr=stderr)


def fit_exponential_rate(traj, window):
    """Exponential rate of a self-similar run: slope of -log |v| vs s."""
    if traj.frame != "self-similar":
        raise ValueError("exponential rates apply to self-similar trajectories")
    times, norms = _window_samples(traj.times, traj.k_norms, window)
    slope, residual, stderr = _fit_line(times, np.log(norms))
    return DecayFit(frame="self-similar", exponent=-slope,
                    fit_window=(float(window[0]), float(window[1])),
                    residual=residual, exponent_stderr=stderr)


@dataclass
class ReportConfig:
    """Knobs of the headline comparison; defaults target desk-scale runs."""

    # self-similar / spectral grid
    ss_r_dom: float = 8.0
    ss_n: int = 128
    s_values: tuple = (0.0, 1.0, 2.0, 3.0, 4.0)
    s_final: float = 4.0
    ds: float = 0.05
    # physical runs
    phys_r_dom: float = 24.0
    phys_n: int = 383
    t_final: float = 12.0
    dt: float = 0.1
    width: float = 1.5
    fit_window: tuple = (4.0, 12.0)
    ss_fit_window: tuple = (2.0, 4.0)
    initial_data: tuple = INITIAL_DATA
    # tolerances
    gamma_tol: float = 0.05
    lambda_tol: float = 0.05
    c_b_tol: float = 1e-3
    energy_slack: float = 1e-3
    floor_tol: float = 1e-3
    seed: int = 0


def _initial_state(name, grid, width):
    if name == "gaussian":
        return gaussian_state(grid, width)
    if name == "shifted":
        return gaussian_state(grid, width, center=(1.0, 0.5))
    if name == "odd":
        return gaussian_state(grid, width, odd=True)
    raise ValueError(f"unknown initial datum {name!r}")


def theorem_report(field, config=None):
    """Assemble the decay-rate comparison for one field.

    Returns a JSON-ready dict: flux data, lambda(s) samples with the limit
    estimate (extrapolated and raw), the infimum gap, per-datum polynomial
    fits (their minimum is the operator-norm proxy), the self-similar slope,
    the energy-bound and global-bound checks, and pass/fail flags.
    """
    cfg = config if config is not None else ReportConfig()
    flux = total_flux(field)
    beta = beta_of(field)
    target = (1.0 + beta) / 2.0

    grid_ss = build_grid(cfg.ss_r_dom, cfg.ss_n)
    dense = dense_s_grid(cfg.s_values)
    curve = {smp.s: smp for smp in lambda_curve(
        field, sorted({*map(float, cfg.s_values), *dense}), grid_ss, seed=cfg.seed)}
    samples = [curve[float(s)] for s in cfg.s_values]
    lam_extrap = lambda_limit_estimate(samples)
    lam_raw = samples[-1].lam
    c_b = infimum_gap(curve[s] for s in dense)

    grid_ph = build_grid(cfg.phys_r_dom, cfg.phys_n)
    gamma_fits = {}
    global_bound_ok = True
    global_bound_margin = math.inf
    for name in cfg.initial_data:
        u0 = _initial_state(name, grid_ph, cfg.width)
        traj = evolve_physical(field, u0, cfg.t_final, cfg.dt)
        fit = fit_polynomial_rate(traj, cfg.fit_window)
        gamma_fits[name] = fit
        k0 = traj.points[0].k_norm
        rate = c_b + 0.5 - cfg.c_b_tol
        ratio = traj.l2_norms / (k0 * (1.0 + traj.times) ** (-rate))
        margin = float(1.0 - ratio.max())
        global_bound_margin = min(global_bound_margin, margin)
        global_bound_ok = global_bound_ok and bool(ratio.max() <= 1.0 + 1e-12)

    v0 = gaussian_state(grid_ss, math.sqrt(4.0 / 3.0), frame="self-similar")
    ss_traj = evolve_selfsimilar(field, v0, cfg.s_final, cfg.ds)
    ss_fit = fit_exponential_rate(ss_traj, cfg.ss_fit_window)
    eb_margin, eb_ok = energy_bound_check(ss_traj, samples, slack=cfg.energy_slack)

    gamma_min = min(f.exponent for f in gamma_fits.values())
    flags = {
        "rate": bool(gamma_min >= target - cfg.gamma_tol),
        "lambda_limit": bool(abs(lam_raw - target) <= cfg.lambda_tol),
        "lambda_floor": bool(all(s.lam >= 0.5 - cfg.floor_tol for s in samples)),
        "c_b_sign": bool((c_b > cfg.c_b_tol) == (beta > 0.05)),
        "energy_bound": bool(eb_ok),
        "global_bound": bool(global_bound_ok),
    }
    return {
        "field": field.descriptor(),
        "total_flux": flux,
        "beta": beta,
        "target_rate": target,
        "lambda_curve": [
            {"s": s.s, "lambda": s.lam, "residual": s.residual,
             "iterations": s.iterations, "n": s.n, "r_dom": s.r_dom}
            for s in samples],
        "lambda_limit": {"extrapolated": lam_extrap, "raw_last": lam_raw},
        "c_b": c_b,
        "gamma_fits": {
            name: {"exponent": f.exponent, "stderr": f.exponent_stderr,
                   "residual": f.residual, "window": list(f.fit_window)}
            for name, f in gamma_fits.items()},
        "gamma_min": gamma_min,
        "selfsimilar_slope": {"exponent": ss_fit.exponent,
                              "stderr": ss_fit.exponent_stderr,
                              "residual": ss_fit.residual,
                              "window": list(ss_fit.fit_window)},
        "energy_bound_margin": eb_margin,
        "global_bound_margin": global_bound_margin,
        "flags": flags,
        "pass": bool(all(flags.values())),
        "tolerances": {"gamma": cfg.gamma_tol, "lambda": cfg.lambda_tol,
                       "c_b": cfg.c_b_tol, "energy_slack": cfg.energy_slack},
    }
