"""Experiment harness: configuration, dispatch, persistence, suites.

Each run consumes one :class:`ExperimentConfig`.  Its kind's runner computes
the summary and the kind-specific CSV tables without touching the
filesystem; :func:`run` alone then writes them, each atomically, into the
output directory as CSVs, a deterministic ``summary.json`` and a
``record.json``, and returns the :class:`RunRecord`.  ``preset_suite`` names
the canned experiment lists; ``compare`` diffs two summaries numerically.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field as dc_field
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .decay import (INITIAL_DATA, MIN_FIT_SAMPLES, ReportConfig, fit_exponential_rate,
                    fit_polynomial_rate, theorem_report)
from .discretize import (RADIAL_MIN_POINTS, RADIAL_MIN_R_MAX, assemble_magnetic,
                         assemble_radial, build_grid, peierls_phases)
from .errors import ConfigError, PresetError
from .evolve import (MAX_DS, energy_bound_check, evolve_physical, evolve_selfsimilar,
                     gaussian_state, step_count)
from .exact import ab_spectrum, free_gaussian_norm, laguerre
from .field import (beta_of, field_from_descriptor, flux_at, is_finite_real, total_flux,
                    vector_potential)
from .spectral import (dense_s_grid, hardy_constant, lambda_curve,
                       lambda_limit_estimate, smallest_eigs)

OUT_DIR_ENV = "MAGHEAT_OUT"


_HARDY_SWEEP = (8.0, 16.0, 32.0)   # default hardy r_dom sweep
_HARDY_H = 0.25                     # default hardy mesh width


def _is_positive(v):
    return is_finite_real(v) and v > 0


def _is_count(v):
    return isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= 0


def _list_of(item_ok):
    return lambda v: isinstance(v, (list, tuple)) and len(v) > 0 and all(map(item_ok, v))


def _check(name, value, ok, expected, allow_none=True):
    if not ((allow_none and value is None) or ok(value)):
        raise ConfigError(f"{name} must be {expected}, got {value!r}")


def _check_entries(name, value, checks, allow_none=True):
    """``value`` is an object with keys from ``checks`` whose entries pass them.

    A check of ``None`` leaves the entry to the code that consumes it.
    """
    if allow_none and value is None:
        return
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object, got {value!r}")
    unknown = set(value) - set(checks)
    if unknown:
        raise ConfigError(f"unknown {name} entries {sorted(unknown, key=str)}; "
                          f"expected some of {sorted(checks)}")
    for key, item in value.items():
        if checks[key] is not None and not checks[key](item):
            raise ConfigError(f"invalid {name} entry {key!r}: {item!r}")


# what validate() accepts in each config object
_RADIAL = {"r_max": lambda v: is_finite_real(v) and v >= RADIAL_MIN_R_MAX,
           "m_points": lambda v: _is_count(v) and v >= RADIAL_MIN_POINTS}


def _is_window(v):
    return _list_of(is_finite_real)(v) and len(v) == 2 and v[0] < v[1]


def _is_increasing_times(v):
    """A non-empty list of strictly increasing s >= 0, as a lambda(s) curve's
    limit extrapolation and monotone-approach flag read it."""
    return (_list_of(lambda x: is_finite_real(x) and x >= 0)(v)
            and all(a < b for a, b in zip(v, v[1:])))


def _is_report_times(v):
    """Three or more increasing s >= 0, as the limit extrapolation needs."""
    return _is_increasing_times(v) and len(v) >= 3


_EVOLVE = {
    "frame": lambda v: v in ("physical", "self-similar"),
    "width": _is_positive, "t_final": _is_positive, "dt": _is_positive,
    "s_final": _is_positive, "ds": lambda v: _is_positive(v) and v <= MAX_DS,
    "oracle": lambda v: v == "free-gaussian",
    "fit_window": _is_window,
    "energy_bound": lambda v: isinstance(v, bool),
}
# what _run_evolve assumes for the entries a config leaves out
_EVOLVE_DEFAULTS = {"frame": "physical", "width": 1.5, "t_final": 10.0, "dt": 0.1,
                    "s_final": 4.0, "ds": 0.05}
# the entries that each frame never reads
_EVOLVE_UNREAD = {"physical": {"s_final", "ds", "energy_bound"},
                  "self-similar": {"t_final", "dt", "oracle"}}
# the two report grids are left to build_grid
_REPORT = {
    **dict.fromkeys(("ss_r_dom", "ss_n", "phys_r_dom", "phys_n")),
    "s_values": _is_report_times,
    **dict.fromkeys(("s_final", "t_final", "dt", "width"), _is_positive),
    "ds": lambda v: _is_positive(v) and v <= MAX_DS,
    "fit_window": _is_window, "ss_fit_window": _is_window,
    "initial_data": _list_of(lambda v: v in INITIAL_DATA),
    **dict.fromkeys(("gamma_tol", "lambda_tol", "c_b_tol", "energy_slack", "floor_tol"),
                    lambda v: is_finite_real(v) and v >= 0),
}


def _check_fit_window(name, window, span, step):
    """Reject a fit window that holds fewer of the run's times k * step,
    k = 0..step_count(span, step), than a rate fit needs.

    The runs accumulate their times step by step, so each end of the window
    is widened by 1e-6 of a step: a window the fit would accept is never
    rejected here.
    """
    last = step_count(span, step)
    lo = max(0.0, np.ceil(window[0] / step - 1e-6))
    hi = min(last, np.floor(window[1] / step + 1e-6))
    count = max(0.0, hi - lo + 1.0)
    if not count >= MIN_FIT_SAMPLES:
        raise ConfigError(f"{name} {list(window)} holds {count:.0f} samples of the time "
                          f"grid (span {span}, step {step}); the fit needs "
                          f">= {MIN_FIT_SAMPLES}")


def _check_span(name, span, step):
    """Reject a span more than 1e-6 of a step (``_check_fit_window``'s slack)
    from a whole number of steps, or with no finite step count: the run takes
    step_count(span, step) steps, so it would end elsewhere."""
    last = step_count(span, step)
    if abs(span / step - last) > 1e-6:
        raise ConfigError(f"{name} {span} is not a whole number of steps of {step}")


def _check_physical_width(name, width):
    """Reject a physical Gaussian datum of width >= 2: its weighted norm
    against e^{|x|^2/4} diverges, so it lies outside the space the theorem
    and ``k_norm_initial`` assume.  (A self-similar representative's plain
    norm is its weighted norm at any width.)"""
    if not width < 2.0:
        raise ConfigError(f"{name} of a physical run must lie in (0, 2), got {width!r}")


def _hardy_n(r_dom, h):
    """Interior points per axis of the hardy grid of half-width r_dom and mesh width h."""
    return int(round(2.0 * r_dom / h)) - 1


@dataclass
class ExperimentConfig:
    """One experiment: a kind tag plus the knobs its runner understands."""

    kind: str
    label: str
    field: dict | None = None
    grid: dict | None = None                 # {"r_dom": float, "n": int}
    s_values: list | None = None
    count: int | None = None
    fluxes: list | None = None               # spectrum-numeric targets
    radial: dict | None = None                # {"r_max": float, "m_points": int}
    sweep: list | None = None                  # hardy r_dom sweep (fixed h)
    h: float | None = None
    evolve: dict | None = None
    report: dict | None = None
    tolerances: dict = dc_field(default_factory=dict)
    seed: int = 0

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown, key=str)}")
        missing = {"kind", "label"} - set(data)
        if missing:
            raise ConfigError(f"missing required config fields: {sorted(missing)}")
        cfg = cls(**data)
        cfg.validate()
        return cfg

    def validate(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}; "
                              f"expected one of {EXPERIMENT_KINDS}")
        if not isinstance(self.label, str) or self.label in ("", ".", "..") \
                or any(c in self.label for c in "/\\"):
            raise ConfigError(f"label must be a non-empty path-safe name, got {self.label!r}")
        _check("seed", self.seed, _is_count, "a non-negative integer", allow_none=False)
        _check("count", self.count, lambda v: _is_count(v) and v >= 1, "a positive integer")
        _check("h", self.h, _is_positive, "a positive finite number")
        _check("s_values", self.s_values, _is_increasing_times,
               "a non-empty list of strictly increasing finite numbers >= 0")
        _check("fluxes", self.fluxes, _list_of(is_finite_real),
               "a non-empty list of finite numbers")
        _check("sweep", self.sweep, _list_of(_is_positive),
               "a non-empty list of positive finite numbers")
        _check_entries("tolerances", self.tolerances,
                       {k: ok for kind in _KINDS.values() for k, ok in kind.tolerances.items()},
                       allow_none=False)
        _check_entries("radial", self.radial, _RADIAL)
        _check_entries("evolve", self.evolve, _EVOLVE)
        if self.evolve is not None:
            ev = {**_EVOLVE_DEFAULTS, **self.evolve}
            frame = ev["frame"]
            unread = sorted(_EVOLVE_UNREAD[frame] & set(self.evolve))
            if unread:
                raise ConfigError(f"evolve entries {unread} are not read by the {frame} frame")
            if frame == "physical":
                _check_physical_width("evolve.width", ev["width"])
            end, by = ("t_final", "dt") if frame == "physical" else ("s_final", "ds")
            span, step = ev[end], ev[by]
            _check_span(f"evolve.{end}", span, step)
            if "fit_window" in ev:
                _check_fit_window("evolve.fit_window", ev["fit_window"], span, step)
        _check_entries("report", self.report, _REPORT)
        if self.report is not None:
            report = ReportConfig(**self.report)
            _check_physical_width("report.width", report.width)
            _check_span("report.t_final", report.t_final, report.dt)
            _check_span("report.s_final", report.s_final, report.ds)
            _check_fit_window("report.fit_window", report.fit_window,
                              report.t_final, report.dt)
            _check_fit_window("report.ss_fit_window", report.ss_fit_window,
                              report.s_final, report.ds)
            for r_dom, n in ((report.ss_r_dom, report.ss_n),
                             (report.phys_r_dom, report.phys_n)):
                try:
                    build_grid(r_dom, n)
                except ValueError as exc:
                    raise ConfigError(f"invalid report grid: {exc}") from exc
        _check_entries("grid", self.grid, dict.fromkeys(("r_dom", "n")))
        if self.grid is not None:
            self.build_grid()
        if self.kind == "hardy":
            h = self.h or _HARDY_H
            for r_dom in self.sweep or _HARDY_SWEEP:
                if not (math.isfinite(2.0 * r_dom / h) and _hardy_n(r_dom, h) >= 16):
                    raise ConfigError(f"hardy sweep entry r_dom={r_dom} at h={h}: the grid "
                                      f"needs a finite round(2 r_dom / h) - 1 >= 16 points")
        if self.field is not None:
            try:
                fld = field_from_descriptor(self.field)
            except PresetError as exc:
                raise ConfigError(f"field: {exc}") from exc
            # the free Gaussian norm is exact only where there is no field
            if (self.evolve or {}).get("oracle") and not fld.is_zero:
                raise ConfigError("evolve.oracle 'free-gaussian' needs a zero field, "
                                  f"got a {fld.kind} field")
        # after the value checks, so that a bad value is reported as such
        kind = _KINDS[self.kind]
        every_field = set().union(*(k.fields for k in _KINDS.values()))
        unread = sorted(name for name in every_field - set(kind.fields)
                        if getattr(self, name) is not None)
        unread += [f"tolerances.{key}" for key in sorted(self.tolerances)
                   if key not in kind.tolerances]
        if unread:
            raise ConfigError(f"kind {self.kind!r} does not read {unread}")
        missing = [name for name, needed in kind.fields.items()
                   if needed and getattr(self, name) is None]
        if missing:
            raise ConfigError(f"kind {self.kind!r} requires a {' and a '.join(missing)}")

    def build_field(self):
        if self.field is None:
            raise ConfigError("config has no field descriptor")
        return field_from_descriptor(self.field)

    def build_grid(self):
        if self.grid is None:
            raise ConfigError("config has no grid")
        try:
            return build_grid(self.grid["r_dom"], self.grid["n"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid grid {self.grid!r}: {exc}") from exc


@dataclass
class RunRecord:
    """Metadata of one completed run; the summary itself stays deterministic."""

    config: dict
    outputs: list
    wall_clock: float
    version: str


def _atomic_write(path, text):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(header, rows):
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if v is None:
                cells.append("")
            elif isinstance(v, float):
                cells.append(f"{v:.12e}")
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# runners: each returns (summary, tables), tables mapping a CSV file name to
# its (header, rows); none touches the filesystem


def _run_flux(cfg):
    fld = cfg.build_field()
    phi = total_flux(fld)
    beta = beta_of(fld)
    rs = fld.support_radius
    summary = {
        "total_flux": phi,
        "beta": beta,
        "support_radius": rs,
        "flux_at_support": flux_at(fld, rs),
        "flux_at_half_support": flux_at(fld, rs / 2.0),
    }
    summary["flags"] = {
        "flux_consistent": bool(abs(summary["flux_at_support"] - phi) < 1e-9),
        "beta_in_range": bool(0.0 <= beta <= 0.5 + 1e-15),
    }
    return summary, {}


def _run_gauge_check(cfg):
    fld = cfg.build_field()
    a_of = partial(vector_potential, fld)
    rng = np.random.default_rng(cfg.seed)
    tols = {"transversality": 1e-12, "hermiticity": 1e-12, "gauge_invariance": 1e-10,
            **cfg.tolerances}

    pts = rng.uniform(-2.0 * fld.support_radius, 2.0 * fld.support_radius, size=(10_000, 2))
    a_vals = a_of(pts)
    transversality = float(np.max(np.abs(np.sum(pts * a_vals, axis=1))))

    # finite-difference curl against the field, two stencils for the order
    sample = rng.uniform(-0.6 * fld.support_radius, 0.6 * fld.support_radius, size=(40, 2))
    curl_res = []
    for h in (1e-2, 5e-3):
        ex = np.array([h, 0.0])
        ey = np.array([0.0, h])
        curl = ((a_of(sample + ex)[:, 1] - a_of(sample - ex)[:, 1])
                - (a_of(sample + ey)[:, 0] - a_of(sample - ey)[:, 0])
                ) / (2.0 * h)
        curl_res.append(float(np.max(np.abs(curl - fld.eval(sample[:, 0], sample[:, 1])))))
    curl_order = math.log(curl_res[0] / max(curl_res[1], 1e-300)) / math.log(2.0) \
        if curl_res[0] > 1e-12 else 2.0

    # scaling consistency of the rescaled potential, exact as composed maps
    s_test = 1.3
    pts_s = rng.uniform(-1.0, 1.0, size=(100, 2))
    lhs = a_of(pts_s, s_test)
    rhs = math.exp(s_test / 2.0) * a_of(math.exp(s_test / 2.0) * pts_s)
    scaling = float(np.max(np.abs(lhs - rhs)))

    grid = cfg.build_grid() if cfg.grid else build_grid(6.0, 48)
    phases = peierls_phases(grid, fld)
    op = assemble_magnetic(phases, harmonic=True)
    u = rng.standard_normal(op.dimension) + 1j * rng.standard_normal(op.dimension)
    v = rng.standard_normal(op.dimension) + 1j * rng.standard_normal(op.dimension)
    herm = abs(np.vdot(u, op.apply(v)) - np.conj(np.vdot(v, op.apply(u))))
    herm = float(herm / (np.linalg.norm(u) * np.linalg.norm(v) * 4.0 / grid.h**2))

    pairs, _, _ = smallest_eigs(op, k=6, seed=cfg.seed)
    chi = rng.standard_normal((grid.n, grid.n))
    op2 = assemble_magnetic(phases.gauge_transformed(chi), harmonic=True)
    pairs2, _, _ = smallest_eigs(op2, k=6, seed=cfg.seed)
    gauge_dev = float(np.max(np.abs(np.array([p[0] for p in pairs])
                                    - np.array([p[0] for p in pairs2]))))

    summary = {
        "transversality_max": transversality,
        "curl_residuals": curl_res,
        "curl_order": curl_order,
        "scaling_consistency": scaling,
        "hermiticity_residual": herm,
        "gauge_invariance_dev": gauge_dev,
        "grid": {"r_dom": grid.r_dom, "n": grid.n},
    }
    summary["flags"] = {
        "transversality": bool(transversality < tols["transversality"]),
        "curl_second_order": bool(curl_order > 1.5 or curl_res[1] < 1e-10),
        "scaling": bool(scaling == 0.0),
        "hermiticity": bool(herm < tols["hermiticity"]),
        "gauge_invariance": bool(gauge_dev < tols["gauge_invariance"]),
    }
    return summary, {}


def _run_spectrum_exact(cfg):
    # imported here: scipy.integrate loads scipy.optimize, which no other run needs
    from scipy.integrate import quad

    count = cfg.count or 12
    fluxes = cfg.fluxes or [0.5]
    levels = {}
    tables = {}
    flags = {}
    for flux in fluxes:
        spec = ab_spectrum(flux, count)
        beta = abs(flux - round(flux))
        tables[f"spectrum_flux_{flux:+.4f}.csv"] = (
            ("value", "n", "m", "multiplicity"),
            [(lv.value, lv.n, lv.m, lv.multiplicity) for lv in spec.levels])
        levels[f"{flux:+.4f}"] = {
            "lowest": spec.levels[0].value,
            "expected_lowest": round((1.0 + beta) / 2.0, 12),
            "values": [lv.value for lv in spec.levels],
        }
        shifted = ab_spectrum(flux + 1.0, count)
        mirrored = ab_spectrum(-flux, count)
        flags[f"lowest_{flux:+.4f}"] = bool(
            spec.levels[0].value == round((1.0 + beta) / 2.0, 12))
        flags[f"periodicity_{flux:+.4f}"] = bool(
            np.allclose(spec.values, shifted.values, rtol=0, atol=1e-12)
            and np.allclose(spec.values, mirrored.values, rtol=0, atol=1e-12))

    # Laguerre orthogonality under the weight x^mu e^{-x}: adaptive quadrature
    # (the fractional-power weight defeats fixed Gauss rules near zero)
    worst = 0.0
    for mu in (0.3, 0.5, 2.0):
        for n1 in range(4):
            norm = math.gamma(n1 + mu + 1.0) / math.factorial(n1)
            for n2 in range(n1 + 1, 4):
                val, _ = quad(
                    lambda x, a=n1, b=n2, m=mu: x**m * math.exp(-x)
                    * float(laguerre(a, m, x)) * float(laguerre(b, m, x)),
                    0.0, 60.0, epsabs=1e-12, epsrel=1e-11, limit=200)
                worst = max(worst, abs(val) / norm)
    flags["laguerre_orthogonality"] = bool(worst < 1e-8)
    summary = {"tables": levels, "laguerre_orthogonality_worst": worst, "flags": flags}
    return summary, tables


def _run_spectrum_numeric(cfg):
    fluxes = cfg.fluxes or [0.0, 0.3, 0.5, 1.0, 1.3]
    count = cfg.count or 5
    rad = cfg.radial or {}
    r_max = rad.get("r_max", 20.0)
    m_points = rad.get("m_points", 4000)
    rel_tol = cfg.tolerances.get("level_rel", 1e-4)
    results = {}
    flags = {}
    tables = {}
    for flux in fluxes:
        channel_vals = []
        for m in range(-6, 7):
            op = assemble_radial(m, flux, r_max, m_points)
            for val in op.lowest(k=count):
                channel_vals.append((float(val), m))
        channel_vals.sort()
        numeric = channel_vals[:count]
        exact = ab_spectrum(flux, count)
        rel = [abs(num[0] - lv.value) / lv.value
               for num, lv in zip(numeric, exact.levels)]
        tables[f"radial_vs_exact_{flux:+.4f}.csv"] = (
            ("numeric", "exact", "m", "rel_error"),
            [(num[0], lv.value, num[1], rel_)
             for num, lv, rel_ in zip(numeric, exact.levels, rel)])
        results[f"{flux:+.4f}"] = {
            "numeric": [n[0] for n in numeric],
            "exact": [lv.value for lv in exact.levels],
            "max_rel_error": max(rel),
        }
        flags[f"match_{flux:+.4f}"] = bool(max(rel) < rel_tol)
    summary = {"levels": results, "flags": flags,
               "radial": {"r_max": r_max, "m_points": m_points}}
    return summary, tables


def _run_lambda_curve(cfg):
    fld = cfg.build_field()
    grid = cfg.build_grid()
    s_values = cfg.s_values if cfg.s_values is not None else [0.0, 2.0, 4.0, 6.0]
    samples = lambda_curve(fld, s_values, grid, seed=cfg.seed)
    beta = beta_of(fld)
    target = (1.0 + beta) / 2.0
    summary = {
        "beta": beta,
        "target_limit": target,
        "samples": [{"s": s.s, "lambda": s.lam, "iterations": s.iterations}
                    for s in samples],
        "raw_last": samples[-1].lam,
    }
    # the same-grid diamagnetic floor is enforced inside lambda_curve; an
    # absolute floor near 1/2 only applies when the config pins one (coarse
    # baselines carry larger discretization error than any fixed tolerance)
    flags = {}
    if "floor" in cfg.tolerances:
        flags["floor"] = bool(
            all(s.lam >= 0.5 - cfg.tolerances["floor"] for s in samples))
    if len(samples) >= 3:
        summary["extrapolated_limit"] = lambda_limit_estimate(samples)
    if "limit_abs" in cfg.tolerances:
        flags["limit"] = bool(abs(samples[-1].lam - target) < cfg.tolerances["limit_abs"])
    if cfg.tolerances.get("monotone_approach"):
        dist = [abs(s.lam - target) for s in samples]
        flags["monotone_approach"] = bool(
            all(b < a for a, b in zip(dist, dist[1:])))
    summary["flags"] = flags
    rows = [(s.s, s.lam, s.residual, s.iterations, s.n, s.r_dom) for s in samples]
    return summary, {"lambda_curve.csv": (("s", "lambda", "residual", "iterations", "N",
                                           "R_dom"), rows)}


def _run_hardy(cfg):
    fld = cfg.build_field()
    h = cfg.h or _HARDY_H
    estimates = []
    for r_dom in cfg.sweep or _HARDY_SWEEP:
        est = hardy_constant(fld, r_dom, _hardy_n(r_dom, h), seed=cfg.seed)
        estimates.append({"r_dom": est.r_dom, "n": est.n, "c_est": est.c_est})
    cs = [e["c_est"] for e in estimates]
    flags = {}
    if fld.is_zero:
        flags["decreasing_to_zero"] = bool(
            all(b < a for a, b in zip(cs, cs[1:])) and cs[-1] < cs[0] / 1.5)
    else:
        flags["uniformly_positive"] = bool(min(cs) > cfg.tolerances.get("positive", 0.01))
    summary = {"sweep": estimates, "flags": flags}
    return summary, {}


def _run_evolve(cfg):
    fld = cfg.build_field()
    grid = cfg.build_grid()
    ev = {**_EVOLVE_DEFAULTS, **(cfg.evolve or {})}
    frame = ev["frame"]
    width = ev["width"]
    flags = {}
    if frame == "physical":
        u0 = gaussian_state(grid, width)
        traj = evolve_physical(fld, u0, ev["t_final"], ev["dt"])
        summary = {"frame": frame, "k_norm_initial": traj.points[0].k_norm}
        if ev.get("oracle") == "free-gaussian":
            expected = free_gaussian_norm(traj.times, width) / free_gaussian_norm(0.0, width)
            rel = np.abs(traj.l2_norms / traj.l2_norms[0] / expected - 1.0)
            summary["oracle_max_rel_dev"] = float(rel.max())
            flags["oracle"] = bool(rel.max() < cfg.tolerances.get("oracle_rel", 1e-3))
        norms, rate, fit_rate = traj.l2_norms, "gamma", fit_polynomial_rate
    else:
        v0 = gaussian_state(grid, width, frame="self-similar")
        traj = evolve_selfsimilar(fld, v0, ev["s_final"], ev["ds"])
        summary = {"frame": frame}
        if ev.get("energy_bound"):
            s_grid = dense_s_grid([0.0, traj.times[-1]])
            lam_samples = lambda_curve(fld, s_grid, grid, seed=cfg.seed)
            margin, ok = energy_bound_check(traj, lam_samples)
            summary["energy_bound_margin"] = margin
            flags["energy_bound"] = bool(ok)
        norms, rate, fit_rate = traj.k_norms, "slope", fit_exponential_rate
    flags["contraction"] = bool(np.all(np.diff(norms) <= 1e-12 * norms[:-1]))
    summary["flags"] = flags
    rows = [(frame, p.time, p.l2_norm, p.k_norm, p.boundary_mass) for p in traj.points]
    tables = {"trajectory.csv": (("frame", "time", "l2_norm", "k_norm", "boundary_mass"),
                                 rows)}
    if "fit_window" in ev:
        # the stderr moves far more with solver noise than the exponent: table only
        fit = fit_rate(traj, ev["fit_window"])
        summary[rate] = fit.exponent
        tables["fit.csv"] = (("fit", "window_lo", "window_hi", "exponent", "stderr",
                              "residual"), [(rate, *fit.fit_window, fit.exponent,
                                             fit.exponent_stderr, fit.residual)])
    return summary, tables


def _run_decay_report(cfg):
    fld = cfg.build_field()
    report = theorem_report(fld, ReportConfig(**(cfg.report or {}), seed=cfg.seed))
    # each sample's eigenpair residual and each fit's stderr move with solver
    # noise, so they go to the tables only: compare reads the summary
    rows = [(s["s"], s["lambda"], s.pop("residual")) for s in report["lambda_curve"]]
    fit_rows = [(name, f["window"][0], f["window"][1], f["exponent"],
                 f.pop("stderr"), f["residual"])
                for name, f in sorted(report["gamma_fits"].items())]
    ss = report["selfsimilar_slope"]
    fit_rows.append(("selfsimilar", ss["window"][0], ss["window"][1],
                     ss["exponent"], ss.pop("stderr"), ss["residual"]))
    return report, {
        "lambda_curve.csv": (("s", "lambda", "residual"), rows),
        "fit_residuals.csv": (("fit", "window_lo", "window_hi", "exponent", "stderr",
                               "residual"), fit_rows),
    }


@dataclass(frozen=True)
class _Kind:
    """One experiment kind: the top-level fields its runner reads, True where
    it needs them (kind, label, seed and tolerances go with every kind), the
    tolerances it reads with their checks, and the runner."""

    fields: dict
    tolerances: dict
    run: object


_KINDS = {
    "flux": _Kind({"field": True}, {}, _run_flux),
    "gauge-check": _Kind({"field": True, "grid": False},
                         dict.fromkeys(("transversality", "hermiticity", "gauge_invariance"),
                                       is_finite_real),
                         _run_gauge_check),
    "spectrum-exact": _Kind({"fluxes": False, "count": False}, {}, _run_spectrum_exact),
    "spectrum-numeric": _Kind({"fluxes": False, "count": False, "radial": False},
                              {"level_rel": is_finite_real}, _run_spectrum_numeric),
    "lambda-curve": _Kind({"field": True, "grid": True, "s_values": False},
                          {"floor": is_finite_real, "limit_abs": is_finite_real,
                           "monotone_approach": lambda v: isinstance(v, bool)},
                          _run_lambda_curve),
    "hardy": _Kind({"field": True, "sweep": False, "h": False},
                   {"positive": is_finite_real}, _run_hardy),
    "evolve": _Kind({"field": True, "grid": True, "evolve": False},
                    {"oracle_rel": is_finite_real}, _run_evolve),
    "decay-report": _Kind({"field": True, "report": False}, {}, _run_decay_report),
}
EXPERIMENT_KINDS = tuple(_KINDS)


def default_out_dir():
    return Path(os.environ.get(OUT_DIR_ENV, "runs"))


def run(config, out_dir=None):
    """Execute one experiment and write its files into ``out_dir / config.label``.

    The runner computes first; only then are the directory and its files
    made, each atomically: the runner's CSVs in its order, ``summary.json``,
    then ``record.json``.  A runner that raises leaves no files.  ``out_dir``
    is resolved once, so ``RunRecord.outputs`` holds absolute paths whatever
    the working directory.
    """
    config.validate()
    base = (Path(out_dir) if out_dir is not None else default_out_dir()).resolve()
    out = base / config.label
    t0 = time.perf_counter()
    summary, tables = _KINDS[config.kind].run(config)
    summary = {"kind": config.kind, "label": config.label, "seed": config.seed,
               **summary}
    summary["pass"] = bool(all(summary["flags"].values()))
    for name, (header, rows) in tables.items():
        _atomic_write(out / name, _csv_text(header, rows))
    summary_path = out / "summary.json"
    _atomic_write(summary_path, json.dumps(summary, sort_keys=True, indent=2) + "\n")
    wall = time.perf_counter() - t0
    record = RunRecord(config=json.loads(config.to_json()),
                       outputs=[str(summary_path)] + [str(out / name) for name in tables],
                       wall_clock=wall, version=__version__)
    _atomic_write(out / "record.json",
                  json.dumps(asdict(record), sort_keys=True, indent=2) + "\n")
    return record


# ---------------------------------------------------------------------------
# canned suites


def _field_step(flux, radius):
    return {"kind": "radial-step", "params": {"b0": 2.0 * flux / radius**2, "r": radius}}


def _field_scaled(target, radius):
    return {"kind": "scaled-to-flux", "params": {"target": target, "r": radius}}


ZERO_FIELD = {"kind": "radial-step", "params": {"b0": 0.0, "r": 1.0}}
DIPOLE_FIELD = {"kind": "dipole-pair", "params": {"b0": 1.0, "r": 0.5, "center": [1.5, 0.0]}}
OFFSET_FIELD = {"kind": "offset-bump", "params": {"b0": 1.0, "r": 1.0, "center": [0.7, 0.3]}}


def preset_suite(name):
    """Canned experiment lists: ``paper-headline``, ``oracle-only``, ``quick``."""
    if name == "quick":
        return [
            ExperimentConfig(kind="flux", label="quick-flux-dipole", field=DIPOLE_FIELD),
            ExperimentConfig(kind="gauge-check", label="quick-gauge-offset",
                             field=OFFSET_FIELD, grid={"r_dom": 6.0, "n": 48}),
            ExperimentConfig(kind="spectrum-exact", label="quick-exact",
                             fluxes=[0.0, 0.3, 0.5], count=8),
            ExperimentConfig(kind="spectrum-numeric", label="quick-radial",
                             fluxes=[0.5], count=3, radial={"r_max": 15.0, "m_points": 800},
                             tolerances={"level_rel": 1e-3}),
            ExperimentConfig(kind="lambda-curve", label="quick-lho",
                             field=ZERO_FIELD, grid={"r_dom": 12.0, "n": 96},
                             s_values=[0.0],
                             tolerances={"limit_abs": 1e-3, "floor": 1e-3}),
            ExperimentConfig(kind="evolve", label="quick-evolve-ss",
                             field=ZERO_FIELD, grid={"r_dom": 8.0, "n": 64},
                             evolve={"frame": "self-similar", "s_final": 1.0,
                                     "ds": 0.05, "width": 1.1547}),
        ]
    if name == "oracle-only":
        return [
            ExperimentConfig(kind="spectrum-exact", label="oracle-exact",
                             fluxes=[0.0, 0.3, 0.5, 1.0, 1.3], count=12),
            ExperimentConfig(kind="flux", label="oracle-flux-step",
                             field=_field_step(0.5, 1.0)),
            ExperimentConfig(kind="flux", label="oracle-flux-scaled",
                             field=_field_scaled(1.3, 1.0)),
            ExperimentConfig(kind="flux", label="oracle-flux-dipole", field=DIPOLE_FIELD),
        ]
    if name == "paper-headline":
        return [
            # criterion 1
            ExperimentConfig(kind="spectrum-numeric", label="c1-radial-vs-exact",
                             fluxes=[0.0, 0.3, 0.5, 1.0, 1.3], count=5,
                             radial={"r_max": 20.0, "m_points": 4000}),
            # criterion 2 (refinement handled by compare / acceptance test)
            ExperimentConfig(kind="lambda-curve", label="c2-lho-n64",
                             field=ZERO_FIELD, grid={"r_dom": 16.0, "n": 64}, s_values=[0.0]),
            ExperimentConfig(kind="lambda-curve", label="c2-lho-n128",
                             field=ZERO_FIELD, grid={"r_dom": 16.0, "n": 128}, s_values=[0.0]),
            ExperimentConfig(kind="lambda-curve", label="c2-lho-n256",
                             field=ZERO_FIELD, grid={"r_dom": 16.0, "n": 256}, s_values=[0.0],
                             tolerances={"limit_abs": 1e-3}),
            # criterion 3
            ExperimentConfig(kind="lambda-curve", label="c3-halfflux-curve",
                             field=_field_step(0.5, 3.0), grid={"r_dom": 7.0, "n": 400},
                             s_values=[0.0, 2.0, 4.0, 6.0],
                             tolerances={"limit_abs": 0.05, "monotone_approach": True,
                                         "floor": 1e-3}),
            # criterion 4
            ExperimentConfig(kind="lambda-curve", label="c4-unitflux-curve",
                             field=_field_scaled(1.0, 100.0), grid={"r_dom": 12.0, "n": 256},
                             s_values=[0.0, 2.0, 4.0, 6.0],
                             tolerances={"limit_abs": 0.05, "floor": 1e-3}),
            # fractional beta companion: raw tail and extrapolation target 0.65
            ExperimentConfig(kind="lambda-curve", label="hl-beta03-curve",
                             field=_field_scaled(1.3, 3.0), grid={"r_dom": 7.0, "n": 400},
                             s_values=[4.0, 5.0, 6.0],
                             tolerances={"limit_abs": 0.05}),
            # criterion 5
            ExperimentConfig(kind="evolve", label="c5-free-decay",
                             field=ZERO_FIELD, grid={"r_dom": 44.0, "n": 703},
                             evolve={"frame": "physical", "t_final": 50.0, "dt": 0.1,
                                     "width": 1.5, "oracle": "free-gaussian",
                                     "fit_window": [10.0, 50.0]}),
            # criterion 6 (physical and self-similar halves) + criterion 7
            ExperimentConfig(kind="evolve", label="c6-halfflux-physical",
                             field=_field_step(0.5, 1.0), grid={"r_dom": 44.0, "n": 703},
                             evolve={"frame": "physical", "t_final": 50.0, "dt": 0.1,
                                     "width": 1.5, "fit_window": [10.0, 50.0]}),
            ExperimentConfig(kind="evolve", label="c6-halfflux-selfsimilar",
                             field=_field_step(0.5, 2.6), grid={"r_dom": 7.0, "n": 448},
                             evolve={"frame": "self-similar", "s_final": 6.0, "ds": 0.05,
                                     "width": 1.1547, "fit_window": [4.0, 6.0],
                                     "energy_bound": True}),
            # criterion 8
            ExperimentConfig(kind="hardy", label="c8-hardy-halfflux",
                             field=_field_step(0.5, 1.0), sweep=[8.0, 16.0, 32.0], h=0.25,
                             tolerances={"positive": 0.01}),
            ExperimentConfig(kind="hardy", label="c8-hardy-free",
                             field=ZERO_FIELD, sweep=[8.0, 16.0, 32.0], h=0.25),
            # criterion 9 rides on the quick suite
            *preset_suite("quick"),
        ]
    raise ConfigError(f"unknown suite {name!r}; expected paper-headline | oracle-only | quick")


def run_suite(name, out_dir=None, workers=1):
    """Run a suite; independent configs may run in separate processes."""
    configs = preset_suite(name)
    if workers <= 1:
        return [run(cfg, out_dir=out_dir) for cfg in configs]
    # the pool starts all of its workers on the first submit
    with ProcessPoolExecutor(max_workers=min(workers, len(configs))) as pool:
        futures = [pool.submit(run, cfg, out_dir) for cfg in configs]
        return [f.result() for f in futures]


# ---------------------------------------------------------------------------
# record comparison


def _walk(prefix, obj, leaves):
    if isinstance(obj, dict):
        for key in sorted(obj):
            _walk(f"{prefix}.{key}" if prefix else key, obj[key], leaves)
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            _walk(f"{prefix}[{i}]", item, leaves)
    else:
        leaves[prefix] = obj


_MISSING = object()


def compare(summary_a, summary_b, rtol=1e-9, atol=1e-12):
    """Field-by-field numeric diff of two summary dicts of the same kind.

    A key present on one side only is a diff, reported as ``"<missing>"``;
    equal values agree whatever their type, ``None`` included.
    """
    if not (math.isfinite(rtol) and rtol >= 0.0):
        raise ConfigError(f"rtol must be finite and >= 0, got {rtol}")
    if summary_a.get("kind") != summary_b.get("kind"):
        raise ConfigError(
            f"cannot compare kinds {summary_a.get('kind')!r} and {summary_b.get('kind')!r}")
    la, lb = {}, {}
    _walk("", summary_a, la)
    _walk("", summary_b, lb)
    diffs = {}
    for key in sorted(set(la) | set(lb)):
        if key in ("label", "seed"):
            continue
        va, vb = la.get(key, _MISSING), lb.get(key, _MISSING)
        if va is _MISSING or vb is _MISSING:
            diffs[key] = {"a": la.get(key, "<missing>"), "b": lb.get(key, "<missing>")}
        elif isinstance(va, bool) or isinstance(vb, bool):
            if va != vb:
                diffs[key] = {"a": va, "b": vb}
        elif isinstance(va, (int, float)) and isinstance(vb, (int, float)):
            if abs(va - vb) > atol + rtol * max(abs(va), abs(vb)):
                diffs[key] = {"a": va, "b": vb, "abs": abs(va - vb)}
        elif va != vb:
            diffs[key] = {"a": va, "b": vb}
    return diffs


def load_summary(path):
    """The summary dict stored at ``path``; a ConfigError unless it is a JSON object."""
    try:
        with open(path) as fh:
            summary = json.load(fh)
    except ValueError as exc:       # undecodable text or invalid JSON
        raise ConfigError(f"{path} is not a JSON summary: {exc}") from exc
    if not isinstance(summary, dict):
        raise ConfigError(f"{path} holds a JSON {type(summary).__name__}, not a summary")
    return summary
