import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.special import expn

import magheat as mh
from magheat.errors import PresetError
from magheat.field import (ALPHA_TOL, BUMP_FLUX_UNIT, FieldComponent, MagneticField,
                           _bump_cumulative_ratio, alpha_batch, flux_at)
from oracles import alpha_infinity, alpha_node_by_node


def alpha_oracle(field, r, theta):
    """Adaptive-quadrature alpha(r, theta), independent of ``alpha_batch``.

    Every component, centred ones included, is integrated along the ray over
    its intersection with the component disc, so no closed form is shared
    with the kernel under test.
    """
    if r <= 0.0:
        return 0.0
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    total = 0.0
    for comp in field.components:
        cx, cy = comp.center
        b = cx * cos_t + cy * sin_t
        disc = b * b - (cx * cx + cy * cy - comp.radius**2)
        if comp.amplitude == 0.0 or disc <= 0.0:
            continue
        t0, t1 = max(b - math.sqrt(disc), 0.0), min(b + math.sqrt(disc), r)
        if t1 <= t0:
            continue
        val, err = quad(lambda tau: float(comp.eval(tau * cos_t, tau * sin_t)) * tau,
                        t0, t1, epsabs=ALPHA_TOL * 0.1, epsrel=1e-12, limit=200)
        assert err <= ALPHA_TOL
        total += val
    return total


def test_radial_step_support():
    f = mh.make_field("radial-step", {"b0": 1.0, "r": 1.0})
    assert f.support_radius == 1.0
    assert f.eval(0.3, 0.4) == 1.0
    assert f.eval(1.2, 0.0) == 0.0


def test_support_vanishing_outside(offset_bump, dipole, rng):
    for f in (offset_bump, dipole):
        theta = rng.uniform(0, 2 * np.pi, 500)
        r = f.support_radius * (1.0 + rng.uniform(0, 3, 500))
        vals = f.eval(r * np.cos(theta), r * np.sin(theta))
        assert np.all(vals == 0.0)


def test_bump_continuity(bump_field):
    # Lipschitz sampling across the support edge
    xs = np.linspace(0.8, 1.2, 4001)
    vals = bump_field.eval(xs, np.zeros_like(xs))
    assert np.max(np.abs(np.diff(vals))) < 2e-3


def test_scaled_to_flux_independent_quadrature():
    # the total flux is the components' exact moments, so scaling to a
    # target flux meets it to rounding
    for target in (1.0, 1.3):
        for r in (1.0, 3.0, 100.0):
            f = mh.make_field("scaled-to-flux", {"target": target, "r": r})
            assert abs(mh.total_flux(f) - target) < 1e-15
    # independent oracle: Cartesian 2-D quadrature over the bounding square
    f = mh.make_field("scaled-to-flux", {"target": 1.0, "r": 1.0})
    val, err = dblquad(lambda y, x: f.eval(x, y), -1, 1, -1, 1,
                       epsabs=1e-11, epsrel=1e-11)
    assert err < 1e-9
    assert abs(val / (2 * math.pi) - 1.0) < 1e-9

    # the unit bump's flux J(1) = int_0^1 bump(v) v dv against its closed
    # form (e/2) E_2(1): 2.1e-15 apart, 1.0e-14 relative
    assert abs(BUMP_FLUX_UNIT - 0.5 * math.e * expn(2, 1)) < 1e-14
    # the interpolant of J(u)/u^2 against adaptive quadrature of J(u); the
    # degree-140 fit is worst at the rim, 4.7e-14 at u = 1
    bump = mh.make_field("radial-bump", {"b0": 1.0, "r": 1.0})
    for u in (1e-4, 0.01, 0.3, 0.7, 0.99, 1.0):
        exact, _ = quad(lambda v: float(bump.eval(v, 0.0)) * v, 0.0, u,
                        epsabs=1e-14, epsrel=1e-13, limit=200)
        assert abs(u * u * _bump_cumulative_ratio(u) - exact) < 1e-13


def test_dipole_zero_flux(dipole):
    assert abs(mh.total_flux(dipole)) < 1e-12


def test_flux_additivity(offset_bump):
    # moving a bump does not change its flux
    centered = mh.make_field("radial-bump", {"b0": 1.0, "r": 1.0})
    assert abs(mh.total_flux(offset_bump) - mh.total_flux(centered)) < 1e-9


def test_make_field_errors():
    with pytest.raises(PresetError):
        mh.make_field("no-such-preset", {})
    with pytest.raises(PresetError):
        mh.make_field("radial-step", {"b0": 1.0, "r": -2.0})
    with pytest.raises(PresetError):
        mh.make_field("dipole-pair", {"b0": 1.0, "r": 2.0, "center": [1.0, 0.0]})
    for kind, params in (("radial-step", {"b0": "a"}), ("radial-bump", {"r": math.inf}),
                         ("radial-step", {"b0": True}), ("radial-step", {"radius": 2.0}),
                         ("offset-bump", {"center": ["a", 0.0]}),
                         ("offset-bump", {"center": [1.0, 2.0, 3.0]}),
                         ("dipole-pair", {"center": "12"}), ("radial-step", "ab"),
                         ("scaled-to-flux", {"r": 1e-200}), ("scaled-to-flux", {"r": 1e200})):
        with pytest.raises(PresetError):
            mh.make_field(kind, params)


def test_alpha_batch_closed_forms(step_half):
    r = np.array([0.5, 3.0, 0.0, -0.5])
    theta = np.array([0.1, 2.0, 0.3, 0.0])
    expected = np.array([0.125, 0.5, 0.0, 0.0])
    assert np.allclose(alpha_batch(step_half, r, theta), expected, rtol=0, atol=1e-12)
    oracle = [alpha_oracle(step_half, ri, ti) for ri, ti in zip(r, theta)]
    assert np.allclose(oracle, expected, rtol=0, atol=1e-12)


def test_alpha_constant_beyond_support(offset_bump, rng):
    thetas = rng.uniform(0, 2 * np.pi, 16)
    rs = offset_bump.support_radius
    a1 = alpha_batch(offset_bump, rs, thetas)
    assert np.allclose(alpha_batch(offset_bump, 3.0 * rs, thetas), a1, rtol=0, atol=1e-12)
    assert np.array_equal(alpha_infinity(offset_bump, thetas), a1)
    oracle = [alpha_oracle(offset_bump, 3.0 * rs, th) for th in thetas]
    assert np.allclose(oracle, a1, rtol=0, atol=1e-10)


def _tangent_angles(comp):
    """Directions of the two rays from the origin tangent to a component disc."""
    cx, cy = comp.center
    half = math.asin(comp.radius / math.hypot(cx, cy))
    return math.atan2(cy, cx) - half, math.atan2(cy, cx) + half


def test_alpha_batch_matches_scalar(step_half, bump_field, offset_bump, dipole, rng):
    for f in (step_half, bump_field, offset_bump, dipole):
        r = rng.uniform(0, 1.5 * f.support_radius, 40)
        th = rng.uniform(0, 2 * np.pi, 40)
        batch = alpha_batch(f, r, th)
        scalar = np.array([alpha_oracle(f, ri, ti) for ri, ti in zip(r, th)])
        assert np.max(np.abs(batch - scalar)) < 1e-10

    # deterministic edge cases of the ray/disc geometry
    far = mh.make_field("offset-bump", {"b0": 1.0, "r": 1.0, "center": [2.0, 1.0]})
    rim = mh.make_field("offset-bump", {"b0": 1.0, "r": 1.0, "center": [1.0, 0.0]})
    cases = [(far, []), (dipole, []), (offset_bump, []), (rim, [])]
    for f, pairs in cases[:2]:
        for comp in f.components:
            for th in _tangent_angles(comp):
                # exactly tangent, and a hair inside (tiny positive discriminant)
                for dth in (0.0, 1e-9, -1e-9):
                    pairs += [(r, th + dth) for r in (2.0, f.support_radius, 10.0)]
    cases[1][1].extend([(r, th) for th in (0.5 * np.pi, 1.0, -2.0)   # rays missing both discs
                        for r in (1.0, 2.5, 9.0)])
    cases[1][1].extend([(1.2, 0.0), (1.5, 0.1), (1.7, np.pi - 0.05)])  # r inside a disc
    cases[2][1].extend([(0.3, th) for th in (0.0, 2.0, 4.0)])          # origin inside the disc
    cases[3][1].extend([(r, th) for r in (0.5, 1.0, 3.0) for th in (0.0, 1.0, 1.5, 1.6)])
    for f, pairs in cases:
        pairs += [(0.0, th) for th in (0.0, 1.0, 3.0)]
        r, th = np.array(pairs).T
        batch = alpha_batch(f, r, th)
        assert np.all(np.isfinite(batch))
        scalar = np.array([alpha_oracle(f, ri, ti) for ri, ti in pairs])
        assert np.max(np.abs(batch - scalar)) < 1e-10
        assert np.all(batch[r == 0.0] == 0.0)


def test_alpha_batch_equals_the_rule_node_by_node(offset_bump, dipole):
    # the blocked kernel forms 1 - u^2 from a quadratic in the node and folds
    # tau into moment products; a slip in either shows far below the 1e-10
    # of the adaptive oracle, so the rule itself is the reference here; the
    # seeded discs include a small one far out (|c|/R = 5.5), where a chord
    # taken from b^2 - |c|^2 + R^2 is 2e-14 off by cancellation
    far = mh.make_field("offset-bump", {"b0": 1.0, "r": 1.0, "center": [2.0, 1.0]})
    rim = mh.make_field("offset-bump", {"b0": 1.0, "r": 1.0, "center": [1.0, 0.0]})
    rng = np.random.default_rng(2024)
    seeded = [mh.make_field("offset-bump", {"b0": rng.uniform(-2.0, 2.0),
                                            "r": rng.uniform(0.2, 1.5),
                                            "center": list(rng.uniform(-2.0, 2.0, 2))})
              for _ in range(4)]
    for f in [offset_bump, dipole, rim, far] + seeded:
        support = f.support_radius
        r = list(rng.uniform(0.0, 1.5 * support, 100))
        th = list(rng.uniform(-np.pi, np.pi, 100))
        for comp in f.components:
            dist = math.hypot(*comp.center)
            angle = math.atan2(comp.center[1], comp.center[0])
            # random rays through the disc's window of directions
            half = math.asin(comp.radius / dist) if dist > comp.radius else math.pi
            r += list(rng.uniform(max(dist - comp.radius, 0.0), 1.2 * support, 60))
            th += list(angle + rng.uniform(-half, half, 60))
            if dist > comp.radius:       # tangent and grazing rays
                for th_edge in _tangent_angles(comp):
                    for dth in (0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6, 1e-3):
                        r += [support, 0.5 * (dist + support)]
                        th += [th_edge + dth] * 2
            else:                        # the origin inside the disc
                r += [0.1 * comp.radius, 0.5 * comp.radius, support]
                th += [angle + 0.5, angle + 2.0, angle - 2.5]
            for frac in (0.1, 0.5, 0.9):  # r inside the disc, near the centre ray
                r += [max(dist - comp.radius, 0.0) + frac * 2.0 * comp.radius]
                th += [angle + 0.1 * comp.radius / max(dist, 1.0)]
        r, th = np.array(r), np.array(th)
        kernel = alpha_batch(f, r, th)
        rule = alpha_node_by_node(f, r, th)
        assert np.count_nonzero(rule) > 50
        assert np.max(np.abs(kernel - rule)) <= 1e-14 * max(1.0, np.max(np.abs(rule)))


def test_alpha_batch_offcentre_step(rng):
    # an off-centre step integrates tau over the chord: (t1^2 - t0^2) / 2
    comp = FieldComponent("step", 2.0, 0.5, (1.0, 0.5))
    f = MagneticField("custom", {}, (comp,), support_radius=math.hypot(1.0, 0.5) + 0.5)
    r = rng.uniform(0.0, 2.0, 200)
    th = rng.uniform(-0.2, 1.2, 200)   # around the window [0, 0.93] of the disc
    b = np.cos(th) + 0.5 * np.sin(th)
    sq = np.sqrt(np.maximum(b * b - (1.25 - 0.25), 0.0))
    t0, t1 = np.clip(b - sq, 0.0, r), np.clip(b + sq, 0.0, r)
    expected = np.where(b * b > 1.0, comp.amplitude * (t1**2 - t0**2) / 2.0, 0.0)
    assert np.count_nonzero(expected) > 50
    assert np.max(np.abs(alpha_batch(f, r, th) - expected)) < 1e-10


def test_alpha_batch_working_set(offset_bump):
    # the off-centre quadrature runs in fixed blocks, so its scratch space does
    # not grow with the point count (a points x 64 layout needs over 500 MB here)
    rng = np.random.default_rng(7)
    r = rng.uniform(0.0, 3.0, 100_000)
    th = rng.uniform(0.0, 2 * np.pi, 100_000)
    tracemalloc.start()
    try:
        alpha_batch(offset_bump, r, th)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6


def test_peierls_phases_route_through_alpha_batch(step_half, offset_bump, monkeypatch):
    calls = []

    def counting(field, r, theta):
        calls.append(field)
        return alpha_batch(field, r, theta)

    monkeypatch.setattr(mh.field, "alpha_batch", counting)
    grid = mh.build_grid(4.0, 16)
    for f in (step_half, offset_bump):
        mh.peierls_phases(grid, f, s=1.0)
        assert f in calls


@pytest.mark.parametrize("kind, params", [
    ("radial-step", {"b0": 1.0, "r": 1.0}),
    ("radial-bump", {"b0": 1.3, "r": 0.8}),
    ("scaled-to-flux", {"target": 0.3, "r": 1.3}),
    ("offset-bump", {"b0": 1.0, "r": 1.0, "center": [0.7, 0.3]}),   # origin inside
    ("dipole-pair", {"b0": 1.0, "r": 0.5, "center": [1.5, 0.0]}),   # origin outside
])
def test_alpha_beyond_the_support_is_alpha_infinity_bit_for_bit(kind, params, rng):
    # the self-similar steps keep far-field edge phases on this identity
    field = mh.make_field(kind, params)
    centres = [math.atan2(c.center[1], c.center[0]) for c in field.components]
    theta = np.concatenate([rng.uniform(-np.pi, np.pi, 20_000),
                            np.linspace(-np.pi, np.pi, 2_001), centres])
    inf = alpha_infinity(field, theta)
    radius = field.support_radius
    for r in (radius, np.nextafter(radius, np.inf), 1.5 * radius, 1e3 * radius,
              radius * (1.0 + rng.uniform(0.0, 5.0, theta.size))):
        assert np.array_equal(alpha_batch(field, r, theta), inf)


def test_alpha_infinity_radial_step(step_half):
    for th in (0.0, 1.0, 4.0):
        assert alpha_infinity(step_half, th) == pytest.approx(0.5, abs=1e-12)


def test_alpha_infinity_dipole_mean(dipole):
    assert abs(flux_at(dipole, dipole.support_radius)) < 1e-9


def test_alpha_infinity_offset_mean_is_flux(offset_bump):
    phi = mh.total_flux(offset_bump)
    assert flux_at(offset_bump, offset_bump.support_radius) == pytest.approx(phi, abs=1e-9)
    # and alpha_inf is genuinely angle dependent
    vals = [alpha_infinity(offset_bump, th) for th in np.linspace(0, 2 * np.pi, 9)]
    assert max(vals) - min(vals) > 0.1


def test_beta_examples(step_half):
    for target, expected in ((0.5, 0.5), (1.3, 0.3), (2.0, 0.0)):
        f = mh.make_field("scaled-to-flux", {"target": target, "r": 1.0})
        assert mh.beta_of(f) == pytest.approx(expected, abs=1e-10)
    assert mh.total_flux(step_half) == pytest.approx(0.5, abs=1e-10)
    assert mh.beta_of(step_half) == pytest.approx(0.5, abs=1e-10)
    assert flux_at(step_half, 0.5) == pytest.approx(0.125, abs=1e-12)
    assert flux_at(step_half, 2.0) == pytest.approx(mh.total_flux(step_half), abs=1e-12)


def test_vector_potential_examples(step_half):
    a = mh.vector_potential(step_half, (1.0, 0.0))
    assert np.allclose(a, [0.0, 0.5], atol=1e-12)
    assert np.allclose(mh.vector_potential(step_half, (0.0, 0.0)), 0.0)


def test_transversality(offset_bump, rng):
    pts = rng.uniform(-4, 4, size=(10_000, 2))
    a_vals = mh.vector_potential(offset_bump, pts)
    assert np.max(np.abs(np.sum(pts * a_vals, axis=1))) < 1e-12


def test_curl_matches_field(offset_bump, rng):
    # finite-difference curl of A reproduces B at second order in the stencil
    pts = rng.uniform(-1.2, 1.2, size=(30, 2))
    a_of = partial(mh.vector_potential, offset_bump)
    residuals = []
    for h in (2e-2, 1e-2):
        ex, ey = np.array([h, 0.0]), np.array([0.0, h])
        curl = ((a_of(pts + ex)[:, 1] - a_of(pts - ex)[:, 1])
                - (a_of(pts + ey)[:, 0] - a_of(pts - ey)[:, 0])
                ) / (2 * h)
        residuals.append(np.max(np.abs(curl - offset_bump.eval(pts[:, 0], pts[:, 1]))))
    order = math.log(residuals[0] / residuals[1]) / math.log(2.0)
    assert order > 1.7


def test_scaled_potential_is_composition(bump_field, rng):
    pts = rng.uniform(-2, 2, size=(50, 2))
    s = 1.7
    lhs = mh.vector_potential(bump_field, pts, s)
    rhs = math.exp(s / 2) * mh.vector_potential(bump_field, math.exp(s / 2) * pts)
    assert np.array_equal(lhs, rhs)


def test_descriptor_roundtrip(dipole):
    desc = dipole.descriptor()
    rebuilt = mh.field.field_from_descriptor(desc)
    assert rebuilt == dipole
