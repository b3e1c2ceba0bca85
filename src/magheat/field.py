"""Compactly supported planar magnetic fields and their transverse-gauge potentials.

A field is a finite sum of components, each rotationally symmetric about its
own center, with either a sharp disc profile ("step") or a smooth compactly
supported profile ("bump").  The transverse-gauge vector potential

    A(x) = (-x2, x1) * integral_0^1 B(tau x) tau dtau

is evaluated through the angular flux function alpha(r, theta), the radial
line integral of B along the ray of direction theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev
from scipy.integrate import quad

from .errors import PresetError, QuadratureError

PRESET_KINDS = ("radial-step", "radial-bump", "offset-bump", "dipole-pair", "scaled-to-flux")

ALPHA_TOL = 1e-10   # absolute tolerance of radial line integrals
FLUX_TOL = 1e-9     # absolute tolerance of the total-flux quadrature

_GL64_NODES, _GL64_WEIGHTS = np.polynomial.legendre.leggauss(64)


def _bump_profile(u):
    """Smooth compactly supported reference profile on [0, 1)."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ui * ui))
    return out


@lru_cache(maxsize=1)
def _bump_cumulative_cheb():
    """Chebyshev interpolant of J(u)/u^2 with J(u) = int_0^u bump(v) v dv."""
    def jq_scalar(u):
        if u < 1e-8:
            return 0.5
        val, _ = quad(lambda v: float(_bump_profile(v)) * v, 0.0, u,
                      epsabs=1e-14, epsrel=1e-13, limit=200)
        return val / u**2

    def f(t):
        return np.array([jq_scalar(0.5 * (ti + 1.0)) for ti in np.atleast_1d(t)])

    return chebyshev.chebinterpolate(f, 140)


def _bump_cumulative_ratio(u):
    """J(u)/u^2 on [0, 1], clamped to u >= 1 -> J(1)."""
    u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
    return chebyshev.chebval(2.0 * u - 1.0, _bump_cumulative_cheb())


@lru_cache(maxsize=1)
def bump_flux_unit():
    """Flux of the unit bump (amplitude 1, radius 1): int_0^1 bump(v) v dv."""
    val, _ = quad(lambda v: float(_bump_profile(v)) * v, 0.0, 1.0,
                  epsabs=1e-14, epsrel=1e-13, limit=200)
    return val


@dataclass(frozen=True)
class FieldComponent:
    """One rotationally symmetric piece of a field: amplitude * profile(|x-c|/R)."""

    profile: str                      # "step" | "bump"
    amplitude: float
    radius: float
    center: tuple[float, float]

    def eval(self, x, y):
        dx = np.asarray(x, dtype=float) - self.center[0]
        dy = np.asarray(y, dtype=float) - self.center[1]
        rho = np.hypot(dx, dy)
        if self.profile == "step":
            return np.where(rho < self.radius, self.amplitude, 0.0)
        return self.amplitude * _bump_profile(rho / self.radius)

    def flux(self):
        """Contribution to (1/2pi) int B dx, i.e. amplitude * R^2 * profile moment."""
        if self.profile == "step":
            return self.amplitude * self.radius**2 / 2.0
        return self.amplitude * self.radius**2 * bump_flux_unit()


@dataclass(frozen=True)
class MagneticField:
    """Compactly supported scalar field built from a preset descriptor."""

    kind: str
    params: dict
    components: tuple[FieldComponent, ...]
    support_radius: float

    def eval(self, x, y):
        """Field value at Cartesian points; vectorized over numpy arrays."""
        out = np.zeros(np.broadcast(np.asarray(x, float), np.asarray(y, float)).shape)
        for comp in self.components:
            out = out + comp.eval(x, y)
        return out

    @property
    def is_zero(self):
        return all(c.amplitude == 0.0 for c in self.components)

    @property
    def max_abs(self):
        return sum(abs(c.amplitude) for c in self.components)

    def descriptor(self):
        """JSON-ready preset descriptor, the harness wire format."""
        return {"kind": self.kind, "params": dict(self.params)}


def make_field(kind, params):
    """Construct a preset field.

    Parameters
    ----------
    kind : str
        One of ``radial-step``, ``radial-bump``, ``offset-bump``,
        ``dipole-pair``, ``scaled-to-flux``.
    params : dict
        Per-preset real parameters: amplitude ``b0``, support radius ``r``,
        offset ``center`` and flux ``target`` where applicable.
    """
    if kind not in PRESET_KINDS:
        raise PresetError(f"unknown preset kind {kind!r}; expected one of {PRESET_KINDS}")
    p = dict(params)
    radius = float(p.get("r", 1.0))
    if not radius > 0.0:
        raise PresetError(f"support radius must be positive, got {radius}")

    if kind in ("radial-step", "radial-bump"):
        b0 = float(p.get("b0", 1.0))
        if not math.isfinite(b0):
            raise PresetError("amplitude b0 must be finite")
        profile = "step" if kind == "radial-step" else "bump"
        comps = (FieldComponent(profile, b0, radius, (0.0, 0.0)),)
        support = radius
    elif kind == "offset-bump":
        b0 = float(p.get("b0", 1.0))
        if not math.isfinite(b0):
            raise PresetError("amplitude b0 must be finite")
        cx, cy = (float(v) for v in p.get("center", (0.0, 0.0)))
        comps = (FieldComponent("bump", b0, radius, (cx, cy)),)
        support = math.hypot(cx, cy) + radius
    elif kind == "dipole-pair":
        b0 = float(p.get("b0", 1.0))
        if not math.isfinite(b0):
            raise PresetError("amplitude b0 must be finite")
        cx, cy = (float(v) for v in p.get("center", (1.5, 0.0)))
        sep = 2.0 * math.hypot(cx, cy)
        if sep <= 2.0 * radius:
            raise PresetError(
                f"dipole-pair supports overlap: center separation {sep} <= 2 r = {2*radius}")
        comps = (FieldComponent("bump", b0, radius, (cx, cy)),
                 FieldComponent("bump", -b0, radius, (-cx, -cy)))
        support = math.hypot(cx, cy) + radius
    else:  # scaled-to-flux
        target = float(p.get("target", 1.0))
        if not math.isfinite(target):
            raise PresetError("target flux must be finite")
        b0 = target / (radius**2 * bump_flux_unit())
        comps = (FieldComponent("bump", b0, radius, (0.0, 0.0)),)
        support = radius

    return MagneticField(kind=kind, params=p, components=comps, support_radius=support)


def field_from_descriptor(desc):
    """Inverse of :meth:`MagneticField.descriptor`."""
    try:
        return make_field(desc["kind"], desc["params"])
    except (KeyError, TypeError) as exc:
        raise PresetError(f"malformed field descriptor {desc!r}") from exc


# ---------------------------------------------------------------------------
# alpha(r, theta) and the flux functionals


def alpha_batch(field, r, theta):
    """Radial line integral alpha(r, theta) = int_0^r B(tau cos, tau sin) tau dtau.

    Vectorized over broadcastable arrays of (r, theta), and the one place
    alpha is computed.  Centred components have a closed form in r alone;
    off-centre ones use fixed-order Gauss-Legendre along each ray across the
    component disc, where the integrand is a smooth bump and 64 nodes sit far
    below ``ALPHA_TOL``.  cos and sin of theta are only taken when an
    off-centre component needs them; for radial fields they would double the
    cost of the gauge potential.
    """
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    r, theta = np.broadcast_arrays(r, theta)
    out = np.zeros(r.shape)
    direction = None
    for comp in field.components:
        if comp.amplitude == 0.0:
            continue
        if comp.center == (0.0, 0.0):
            rc = np.clip(r, 0.0, comp.radius)
            if comp.profile == "step":
                out += comp.amplitude * rc * rc / 2.0
            else:
                out += comp.amplitude * rc * rc * _bump_cumulative_ratio(rc / comp.radius)
            continue
        if direction is None:
            direction = np.cos(theta), np.sin(theta)
        cos_t, sin_t = direction
        cx, cy = comp.center
        b = cx * cos_t + cy * sin_t
        c = cx * cx + cy * cy - comp.radius**2
        disc = b * b - c
        has = disc > 0.0
        sq = np.sqrt(np.where(has, disc, 0.0))
        t0 = np.maximum(b - sq, 0.0)
        t1 = np.minimum(b + sq, r)
        width = np.where(has, np.maximum(t1 - t0, 0.0), 0.0)
        # map GL nodes from [-1,1] onto each [t0, t1]
        tau = t0[..., None] + (0.5 * (_GL64_NODES + 1.0)) * width[..., None]
        vals = comp.eval(tau * cos_t[..., None], tau * sin_t[..., None]) * tau
        out += 0.5 * width * (vals @ _GL64_WEIGHTS)
    return out


def alpha_infinity(field, theta):
    """Limit of alpha(r, theta) as r -> infinity, attained at the support radius."""
    return alpha_batch(field, field.support_radius, theta)


def total_flux(field):
    """Total flux (1/2pi) int B dx by 2-D quadrature over each component disc."""
    nodes_r, w_r = np.polynomial.legendre.leggauss(64)
    nodes_t, w_t = np.polynomial.legendre.leggauss(24)
    total = 0.0
    for comp in field.components:
        if comp.amplitude == 0.0:
            continue
        rho = 0.5 * (nodes_r + 1.0) * comp.radius
        wr = 0.5 * comp.radius * w_r
        phi = np.pi * (nodes_t + 1.0)
        wp = np.pi * w_t
        P, F = np.meshgrid(rho, phi, indexing="ij")
        vals = comp.eval(comp.center[0] + P * np.cos(F),
                         comp.center[1] + P * np.sin(F)) * P
        part = float(wr @ vals @ wp) / (2.0 * np.pi)
        # the profiles are radially symmetric about their centers, so the
        # 1-D closed/adaptive form is an exact cross-check on the tensor rule
        if abs(part - comp.flux()) > FLUX_TOL:
            raise QuadratureError(
                f"flux quadrature inconsistency {abs(part - comp.flux()):.2e} > {FLUX_TOL}")
        total += part
    return total


def beta_of(field):
    """Distance of the total flux to the nearest integer, in [0, 1/2]."""
    phi = total_flux(field)
    return abs(phi - round(phi))


def _theta_breakpoints(field):
    """Angular window edges of the off-center components, for panel quadrature."""
    pts = set()
    for comp in field.components:
        cx, cy = comp.center
        dist = math.hypot(cx, cy)
        if dist <= 1e-12 or comp.amplitude == 0.0:
            continue
        theta_c = math.atan2(cy, cx) % (2.0 * math.pi)
        half = math.asin(min(1.0, comp.radius / dist))
        pts.add((theta_c - half) % (2.0 * math.pi))
        pts.add((theta_c + half) % (2.0 * math.pi))
    return sorted(pts)


def flux_at(field, r):
    """Mean of alpha(r, .) over angles: the flux through the disc of radius r.

    The angular integrand is smooth between the window edges of the offset
    components; the square-root behavior at the window edges themselves keeps
    panelwise Gauss from round-off accuracy, so a high order is used to stay
    well below the flux tolerance.
    """
    edges = [0.0] + _theta_breakpoints(field) + [2.0 * math.pi]
    nodes, weights = np.polynomial.legendre.leggauss(128)
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        if b - a < 1e-14:
            continue
        theta = 0.5 * (b - a) * (nodes + 1.0) + a
        vals = alpha_batch(field, np.full_like(theta, float(r)), theta)
        total += 0.5 * (b - a) * float(np.sum(weights * vals))
    return total / (2.0 * math.pi)


# ---------------------------------------------------------------------------
# transverse gauge


@dataclass(frozen=True)
class GaugeField:
    """Transverse-gauge vector potential of a field, A(x) = (-x2, x1) g(x)."""

    source: MagneticField

    def _g(self, x, y):
        """g(x) = int_0^1 B(tau x) tau dtau = alpha(r, theta) / r^2, finite at 0."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        r = np.hypot(x, y)
        a_val = alpha_batch(self.source, r, np.arctan2(y, x))
        with np.errstate(invalid="ignore", divide="ignore"):
            g = np.where(r > 0.0, a_val / np.maximum(r, 1e-300) ** 2, 0.0)
        if np.any(r == 0.0):
            g = np.where(r == 0.0, self.source.eval(0.0, 0.0) / 2.0, g)
        return g

    def eval_batch(self, points):
        """A at an (n, 2) array of points; returns (n, 2)."""
        pts = np.asarray(points, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        g = self._g(x, y)
        return np.stack([-y * g, x * g], axis=-1)

    def eval(self, point):
        return self.eval_batch(np.asarray(point, dtype=float))

    def eval_scaled(self, s, points):
        """Rescaled potential e^{s/2} A(e^{s/2} y) of the self-similar frame."""
        factor = math.exp(s / 2.0)
        return factor * self.eval_batch(factor * np.asarray(points, dtype=float))


def gauge_field(field):
    return GaugeField(source=field)


def vector_potential(field, x):
    """Transverse-gauge A(x) at a single point."""
    return GaugeField(field).eval(np.asarray(x, dtype=float))
