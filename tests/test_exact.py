import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_genlaguerre

import magheat as mh


def test_laguerre_low_orders(rng):
    x = rng.uniform(0, 10, 20)
    for mu in (0.0, 0.5, 1.7):
        assert np.allclose(mh.laguerre(0, mu, x), 1.0)
        assert np.allclose(mh.laguerre(1, mu, x), 1.0 + mu - x)


def test_laguerre_against_scipy(rng):
    for n in range(8):
        mu = rng.uniform(-0.9, 4.0)
        x = rng.uniform(0, 30, 50)
        ours = mh.laguerre(n, mu, x)
        ref = eval_genlaguerre(n, mu, x)
        assert np.max(np.abs(ours - ref)) < 1e-10 * np.max(np.abs(ref) + 1)


def test_laguerre_orthogonality_quadrature():
    for mu in (0.3, 0.5, 2.0):
        for n1 in range(4):
            norm = math.gamma(n1 + mu + 1) / math.factorial(n1)
            for n2 in range(n1 + 1, 4):
                val, _ = quad(lambda x: x**mu * math.exp(-x)
                              * float(mh.laguerre(n1, mu, x))
                              * float(mh.laguerre(n2, mu, x)),
                              0, 60, epsabs=1e-12, epsrel=1e-11, limit=200)
                assert abs(val) / norm < 1e-8


def test_laguerre_validation():
    with pytest.raises(ValueError):
        mh.laguerre(-1, 0.5, 1.0)
    with pytest.raises(ValueError):
        mh.laguerre(2, -1.5, 1.0)


def test_ab_spectrum_half_flux():
    spec = mh.ab_spectrum(0.5, 6)
    assert spec.levels[0].value == 0.75
    assert spec.levels[0].multiplicity == 2
    assert {(spec.levels[0].m, spec.levels[1].m)} == {(-1, 0)}


def test_ab_spectrum_integer_flux_is_oscillator():
    spec = mh.ab_spectrum(0.0, 6)
    assert spec.values == (0.5, 1.0, 1.0, 1.5, 1.5, 1.5)
    assert mh.ab_spectrum(1.0, 6).values == spec.values


def test_ab_spectrum_flux_periodicity():
    for flux in (0.3, 0.5, 1.3, -0.7):
        base = mh.ab_spectrum(flux, 10).values
        assert mh.ab_spectrum(flux + 1.0, 10).values == base
        assert mh.ab_spectrum(-flux, 10).values == base


def test_ab_spectrum_lowest_identity():
    for flux in (0.0, 0.2, 0.5, 0.9, 1.3, 2.5, -0.4):
        beta = abs(flux - round(flux))
        assert mh.ab_spectrum(flux, 1).levels[0].value == round((1 + beta) / 2, 12)


@pytest.mark.parametrize("n,m,flux", [(0, 0, 0.5), (1, 0, 0.3), (0, -1, 0.5),
                                      (2, 1, 1.3), (0, 0, 0.0)])
def test_ab_eigenfunction_radial_ode_residual(n, m, flux):
    # high-order finite differences as the independent derivative oracle
    mu = abs(m + flux)
    energy = n + (1 + mu) / 2

    def radial(r):
        return r**mu * np.exp(-r**2 / 8) * mh.laguerre(n, mu, r**2 / 4)

    r = np.linspace(0.1, 10.0, 400)
    h = 1e-3
    stencil = np.array([-1, 16, -30, 16, -1], dtype=float) / (12 * h * h)
    d1_stencil = np.array([1, -8, 0, 8, -1], dtype=float) / (12 * h)
    offsets = np.array([-2, -1, 0, 1, 2], dtype=float) * h
    samples = radial(r[:, None] + offsets[None, :])
    d2 = samples @ stencil
    d1 = samples @ d1_stencil
    u = radial(r)
    residual = -d2 - d1 / r + (mu**2 / r**2 + r**2 / 16) * u - energy * u
    scale = np.max(np.abs(u))
    assert np.max(np.abs(residual)) < 1e-6 * scale


def test_free_gaussian_norm_properties():
    width = 1.5
    assert mh.free_gaussian_norm(0.0, width) == pytest.approx(
        math.sqrt(math.pi) * width, rel=1e-14)
    t = np.geomspace(1, 1e3, 200)
    ratio = mh.free_gaussian_norm(t, width) / t**-0.5
    assert ratio.max() / ratio.min() < 10  # bounded two-sided
    # slope of log-norm vs log t over [1e2, 1e3]; a narrow profile keeps the
    # width-induced transient below the 1e-3 window
    tt = np.geomspace(1e2, 1e3, 50)
    slope = np.polyfit(np.log(tt), np.log(mh.free_gaussian_norm(tt, 0.4)), 1)[0]
    assert slope == pytest.approx(-0.5, abs=1e-3)
    with pytest.raises(ValueError):
        mh.free_gaussian_norm(1.0, 2.5)


def test_hardy_ab_form_inequality_on_eigenfunctions():
    # <psi, L psi> = E ||psi||^2 >= beta^2 <psi, r^-2 psi> by radial quadrature
    for flux in (0.3, 0.5, 1.3):
        beta = abs(flux - round(flux))
        for n, m in ((0, 0), (1, -1), (0, 2)):
            mu = abs(m + flux)
            energy = n + (1 + mu) / 2

            def dens(r):
                return (r**mu * math.exp(-r**2 / 8)
                        * float(mh.laguerre(n, mu, r**2 / 4))) ** 2

            norm2, _ = quad(lambda r: dens(r) * r, 0, 40, epsabs=1e-13)
            hardy, _ = quad(lambda r: dens(r) / r, 0, 40, epsabs=1e-13)
            assert energy * norm2 >= beta**2 * hardy * (1 - 1e-9)
