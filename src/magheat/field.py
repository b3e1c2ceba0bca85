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
import numbers
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev
from scipy.integrate import quad

from .errors import PresetError, QuadratureError

# the parameters each preset takes
_PRESET_PARAMS = {
    "radial-step": ("b0", "r"),
    "radial-bump": ("b0", "r"),
    "offset-bump": ("b0", "r", "center"),
    "dipole-pair": ("b0", "r", "center"),
    "scaled-to-flux": ("target", "r"),
}
PRESET_KINDS = tuple(_PRESET_PARAMS)

ALPHA_TOL = 1e-10   # absolute tolerance of radial line integrals
FLUX_TOL = 1e-9     # absolute tolerance of the total-flux quadrature

_GL64_NODES, _GL64_WEIGHTS = np.polynomial.legendre.leggauss(64)
_GL64_UNIT = 0.5 * (_GL64_NODES + 1.0)   # the nodes mapped onto [0, 1]
_RAY_BLOCK = 1024   # rays per block of the off-centre quadrature in alpha_batch


def _profile_sq(profile, u2):
    """Reference profile as a function of u^2 = (|x - c| / R)^2.

    "step" is 1 on the open unit disc, "bump" is exp(1 - 1/(1 - u^2)) there;
    both vanish for u^2 >= 1.  Clamping 1 - u^2 at 0 instead of masking keeps
    the bump finite (exactly 0) on and beyond the rim.
    """
    u2 = np.asarray(u2, dtype=float)
    if profile == "step":
        return (u2 < 1.0).astype(float)
    with np.errstate(divide="ignore"):
        return np.exp(1.0 - 1.0 / np.maximum(1.0 - u2, 0.0))


@lru_cache(maxsize=1)
def _bump_cumulative_cheb():
    """Chebyshev interpolant of J(u)/u^2 with J(u) = int_0^u bump(v) v dv."""
    def jq_scalar(u):
        if u < 1e-8:
            return 0.5
        val, _ = quad(lambda v: float(_profile_sq("bump", v * v)) * v, 0.0, u,
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
    val, _ = quad(lambda v: float(_profile_sq("bump", v * v)) * v, 0.0, 1.0,
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
        return self.amplitude * _profile_sq(self.profile, (dx * dx + dy * dy) / self.radius**2)

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

    def descriptor(self):
        """JSON-ready preset descriptor, the harness wire format."""
        return {"kind": self.kind, "params": dict(self.params)}


def is_finite_real(value):
    """True for a finite real number; booleans and strings are not numbers here."""
    try:
        return isinstance(value, numbers.Real) and not isinstance(value, bool) \
            and math.isfinite(value)
    except OverflowError:   # an int beyond the float range
        return False


def _real(name, value):
    """``value`` as a float, or a :class:`PresetError` naming ``name``."""
    if not is_finite_real(value):
        raise PresetError(f"{name} must be a finite real number, got {value!r}")
    return float(value)


def make_field(kind, params):
    """Construct a preset field.

    Parameters
    ----------
    kind : str
        One of ``radial-step``, ``radial-bump``, ``offset-bump``,
        ``dipole-pair``, ``scaled-to-flux``.
    params : dict
        Per-preset real parameters: amplitude ``b0``, support radius ``r``,
        offset ``center`` and flux ``target`` where applicable.  A missing
        parameter takes its default; an unknown or non-numeric one is a
        :class:`PresetError`.
    """
    if kind not in PRESET_KINDS:
        raise PresetError(f"unknown preset kind {kind!r}; expected one of {PRESET_KINDS}")
    if not isinstance(params, Mapping):
        raise PresetError(f"preset parameters must be a mapping, got {params!r}")
    p = dict(params)
    unknown = set(p) - set(_PRESET_PARAMS[kind])
    if unknown:
        raise PresetError(f"unknown {kind} parameters {sorted(unknown, key=str)}; "
                          f"expected some of {_PRESET_PARAMS[kind]}")
    radius = _real("support radius r", p.get("r", 1.0))
    if not (radius > 0.0 and 0.0 < radius * radius < math.inf):
        raise PresetError(f"support radius must be positive with a finite square, got {radius}")
    if kind == "scaled-to-flux":
        b0 = _real("target flux", p.get("target", 1.0)) / (radius**2 * bump_flux_unit())
    else:
        b0 = _real("amplitude b0", p.get("b0", 1.0))
    if not math.isfinite(b0):
        raise PresetError(f"amplitude {b0} is not finite")
    cx = cy = 0.0
    if kind in ("offset-bump", "dipole-pair"):
        center = p.get("center", (0.0, 0.0) if kind == "offset-bump" else (1.5, 0.0))
        if not (isinstance(center, (list, tuple)) and len(center) == 2):
            raise PresetError(f"center must be a pair of real numbers, got {center!r}")
        cx, cy = (_real("center coordinate", v) for v in center)
    support = math.hypot(cx, cy) + radius
    if not math.isfinite(support):
        raise PresetError(f"support radius {support} is not finite")

    if kind == "dipole-pair":
        sep = 2.0 * math.hypot(cx, cy)
        if sep <= 2.0 * radius:
            raise PresetError(
                f"dipole-pair supports overlap: center separation {sep} <= 2 r = {2*radius}")
        comps = (FieldComponent("bump", b0, radius, (cx, cy)),
                 FieldComponent("bump", -b0, radius, (-cx, -cy)))
    else:
        profile = "step" if kind == "radial-step" else "bump"
        comps = (FieldComponent(profile, b0, radius, (cx, cy)),)
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
    alpha is computed.  Centred components have a closed form in r alone.
    Off-centre ones use 64-node Gauss-Legendre along each ray over its chord
    [t0, t1] through the component disc, where the integrand is a smooth bump
    and 64 nodes sit far below ``ALPHA_TOL``.  With b = c . (cos, sin) the
    integrand is evaluated in chord coordinates,
    |tau (cos, sin) - c|^2 = tau^2 - 2 b tau + |c|^2, so no Cartesian node is
    formed; rays whose chord has zero width are skipped, and the rest run in
    blocks of ``_RAY_BLOCK`` rows, so the scratch space is a few small
    (block x 64) arrays whatever the number of points.  cos and sin of theta
    are only taken when an off-centre component needs them; for radial fields
    they would double the cost of the gauge potential.
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
        c2 = cx * cx + cy * cy
        b = cx * cos_t + cy * sin_t
        disc = b * b - (c2 - comp.radius**2)
        sq = np.sqrt(np.maximum(disc, 0.0))
        t0 = np.maximum(b - sq, 0.0)
        width = np.minimum(b + sq, r) - t0
        # a NaN r is kept, so that it propagates as in the closed form
        hit = np.flatnonzero((disc > 0.0) & ~(width <= 0.0))
        b, t0, width = b.ravel(), t0.ravel(), width.ravel()
        flat = out.reshape(-1)
        for start in range(0, hit.size, _RAY_BLOCK):
            rows = hit[start:start + _RAY_BLOCK]
            tau = t0[rows, None] + width[rows, None] * _GL64_UNIT
            u2 = (tau * (tau - 2.0 * b[rows, None]) + c2) / comp.radius**2
            vals = _profile_sq(comp.profile, u2)
            vals *= tau
            flat[rows] += (0.5 * comp.amplitude) * width[rows] * (vals @ _GL64_WEIGHTS)
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


def vector_potential(field, points, s=None):
    """Transverse-gauge A(x) = (-x2, x1) g(x) at an (..., 2) array of points,
    or at a single point, with g(x) = int_0^1 B(tau x) tau dtau =
    alpha(r, theta) / r^2.

    With ``s`` given, returns the rescaled potential A_s(y) = e^{s/2}
    A(e^{s/2} y) of the self-similar frame.  At the origin A is 0.
    """
    scale = 1.0 if s is None else math.exp(s / 2.0)
    pts = scale * np.asarray(points, dtype=float)
    x, y = pts[..., 0], pts[..., 1]
    r = np.hypot(x, y)
    a_val = alpha_batch(field, r, np.arctan2(y, x))
    with np.errstate(invalid="ignore", divide="ignore"):
        g = np.where(r > 0.0, a_val / np.maximum(r, 1e-300) ** 2, 0.0)
    return scale * np.stack([-y * g, x * g], axis=-1)
