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

import numpy as np
from numpy.polynomial import chebyshev

from .errors import PresetError

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

_GL64_NODES, _GL64_WEIGHTS = np.polynomial.legendre.leggauss(64)
_GL64_UNIT = 0.5 * (_GL64_NODES + 1.0)   # the nodes mapped onto [0, 1]
# rows 1, x, x^2 at the nodes x: a ray's quadratic in x times these is its
# 1 - u^2 at every node
_GL64_POWERS = np.vstack([np.ones_like(_GL64_UNIT), _GL64_UNIT, _GL64_UNIT**2])
# columns W, W x: the rule's weights without and with the factor x of tau
_GL64_MOMENTS = np.column_stack([_GL64_WEIGHTS, _GL64_WEIGHTS * _GL64_UNIT])
# the floor of z = 1 - u^2 in the off-centre bump: below it the bump
# exp(1 - 1/z) is under e^{1 - 700}, about 2.7e-304, so the clamp moves alpha
# by less than 1e-300, and it keeps every exp off its slow underflow path
_BUMP_Z_FLOOR = 1.0 / 700.0
# rays per block of the off-centre bump quadrature, so that its one scratch
# array is 1024 x 64 doubles (0.5 MB) whatever the number of points
_RAY_BLOCK = 1024


def _profile_sq(profile, u2):
    """Reference profile as a function of u^2 = (|x - c| / R)^2.

    "step" is 1 on the open unit disc, "bump" is exp(1 - 1/(1 - u^2)) there;
    both vanish for u^2 >= 1.  Clamping 1 - u^2 at 0 instead of masking keeps
    the bump finite (exactly 0) on and beyond the rim.
    """
    out = np.empty(np.shape(u2))
    if profile == "step":
        return np.less(u2, 1.0, out=out)
    np.maximum(np.subtract(1.0, u2, out=out), 0.0, out=out)
    with np.errstate(divide="ignore"):
        np.divide(1.0, out, out=out)
    return np.exp(np.subtract(1.0, out, out=out), out=out)


def _bump_moment_ratio(u):
    """J(u)/u^2 = int_0^1 bump(u t) t dt, with J(u) = int_0^u bump(v) v dv,
    by the 64-node Gauss-Legendre rule on [0, 1]; vectorized over u."""
    t = _GL64_UNIT
    u2 = np.multiply.outer(np.square(u), t * t)
    return 0.5 * (_profile_sq("bump", u2) * t) @ _GL64_WEIGHTS


# degree-140 Chebyshev interpolant of J(u)/u^2 on [0, 1], its 141 values
# from the rule above; alpha_batch's centred closed form evaluates it
_BUMP_MOMENT_CHEB = chebyshev.chebinterpolate(
    lambda x: _bump_moment_ratio(0.5 * (x + 1.0)), 140)
# flux of the unit bump (amplitude 1, radius 1): J(1)
BUMP_FLUX_UNIT = float(_bump_moment_ratio(1.0))


def _bump_cumulative_ratio(u):
    """J(u)/u^2 on [0, 1], clamped to u >= 1 -> J(1)."""
    u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
    return chebyshev.chebval(2.0 * u - 1.0, _BUMP_MOMENT_CHEB)


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
        return self.amplitude * self.radius**2 * BUMP_FLUX_UNIT


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

    @property
    def mirror_symmetric(self):
        """True when B(-x, y) = B(x, y) by construction: every component is
        centred on the y-axis."""
        return all(c.center[0] == 0.0 for c in self.components)


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
        b0 = _real("target flux", p.get("target", 1.0)) / (radius**2 * BUMP_FLUX_UNIT)
    else:
        b0 = _real("amplitude b0", p.get("b0", 1.0))
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
    for comp in comps:
        if not math.isfinite(comp.flux()):
            raise PresetError(f"component flux {comp.flux()} is not finite "
                              f"(amplitude {comp.amplitude}, radius {comp.radius})")
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
    Off-centre ones integrate over each ray's chord [t0, t0 + w] through the
    component disc; rays whose chord has zero width are skipped.  With
    b = c . (cos, sin), p = c x (cos, sin) and disc = (R - p)(R + p), the
    chord's half-width squared, a step's chord integral is exactly
    A w (t0 + w/2).  A bump uses 64-node Gauss-Legendre over the
    chord, where the integrand is smooth and 64 nodes sit far below
    ``ALPHA_TOL``.  At tau = t0 + w x, x in [0, 1], 1 - u^2 is the quadratic
    ((disc - s0^2) - 2 s0 w x - w^2 x^2) / R^2, s0 = t0 - b, so a block of
    ``_RAY_BLOCK`` rays forms it at every node with one (rows x 3) @ (3 x 64)
    product, clamps it at ``_BUMP_Z_FLOOR`` and takes exp(-1/z) in place;
    one (rows x 64) @ (64 x 2) product with the columns W, W x then gives
    the moments m0, m1, and the ray adds (A e / 2) w (t0 m0 + w m1).  The
    scratch space is one block x 64 array, beside a few arrays of one number
    per point, whatever the number of points.
    cos and sin of theta are only taken when an off-centre component needs
    them; for radial fields they would double the cost of the gauge
    potential.
    """
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    r, theta = np.broadcast_arrays(r, theta)
    out = np.zeros(r.shape)
    flat = out.reshape(-1)
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
            direction = np.cos(theta).ravel(), np.sin(theta).ravel()
        cos_t, sin_t = direction
        cx, cy = comp.center
        b = cx * cos_t + cy * sin_t
        # disc = R^2 - p^2 from the distance p of the centre to the ray's line:
        # b^2 - |c|^2 + R^2 would lose eps (|c|/R)^2 of 1 - u^2 to cancellation
        p = cx * sin_t - cy * cos_t
        disc = (comp.radius - p) * (comp.radius + p)
        sq = np.sqrt(np.maximum(disc, 0.0))
        t0 = np.maximum(b - sq, 0.0)
        width = np.minimum(b + sq, r.ravel()) - t0
        # a NaN r is kept, so that it propagates as in the closed form
        hit = np.flatnonzero((disc > 0.0) & ~(width <= 0.0))
        if comp.profile == "step":
            t0, width = t0[hit], width[hit]
            flat[hit] += comp.amplitude * width * (t0 + 0.5 * width)
            continue
        # per block: the quadratic's coefficients, z at every node, the moments
        size = min(hit.size, _RAY_BLOCK)
        coeffs, nodes, moments = (np.empty((size, k)) for k in (3, _GL64_UNIT.size, 2))
        for start in range(0, hit.size, _RAY_BLOCK):
            rows = hit[start:start + _RAY_BLOCK]
            c, z, m = coeffs[:rows.size], nodes[:rows.size], moments[:rows.size]
            t0_r, w = t0[rows], width[rows]
            s0 = t0_r - b[rows]
            np.subtract(disc[rows], s0 * s0, out=c[:, 0])
            np.multiply(-2.0 * s0, w, out=c[:, 1])
            np.multiply(-w, w, out=c[:, 2])
            c /= comp.radius**2
            np.matmul(c, _GL64_POWERS, out=z)
            np.maximum(z, _BUMP_Z_FLOOR, out=z)
            np.divide(-1.0, z, out=z)
            np.exp(z, out=z)
            np.matmul(z, _GL64_MOMENTS, out=m)
            flat[rows] += (0.5 * math.e * comp.amplitude) * w * (t0_r * m[:, 0] + w * m[:, 1])
    return out


def total_flux(field):
    """Total flux (1/2pi) int B dx: the sum of the components' exact moments."""
    return sum(comp.flux() for comp in field.components)


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


def _transverse_components(field, x, y, s, axes):
    """Components ``axes`` (0: x, 1: y) of ``vector_potential`` at the points
    (x, y), broadcast together; the one place g is formed, so one component
    costs one.  The angle is taken only if some component is off-centre:
    ``alpha_batch`` reads it for no other."""
    scale = 1.0 if s is None else math.exp(s / 2.0)
    x, y = scale * x, scale * y
    r = np.hypot(x, y)
    centred = all(comp.center == (0.0, 0.0) for comp in field.components)
    a_val = alpha_batch(field, r, 0.0 if centred else np.arctan2(y, x))
    with np.errstate(invalid="ignore", divide="ignore"):
        g = np.where(r > 0.0, a_val / np.maximum(r, 1e-300) ** 2, 0.0)
    return [scale * (-y * g if k == 0 else x * g) for k in axes]


def vector_potential(field, points, s=None):
    """Transverse-gauge A(x) = (-x2, x1) g(x) at an (..., 2) array of points,
    or at a single point, with g(x) = int_0^1 B(tau x) tau dtau =
    alpha(r, theta) / r^2.

    With ``s`` given, returns the rescaled potential A_s(y) = e^{s/2}
    A(e^{s/2} y) of the self-similar frame.  At the origin A is 0.
    """
    pts = np.asarray(points, dtype=float)
    return np.stack(_transverse_components(field, pts[..., 0], pts[..., 1], s, (0, 1)),
                    axis=-1)
