"""Closed-form oracles: Laguerre polynomials, the exact Aharonov-Bohm
harmonic spectrum and the exact norm of a freely evolved Gaussian."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def laguerre(n, mu, x):
    """Generalized Laguerre polynomial by the three-term recurrence in n.

    Parameters
    ----------
    n : int >= 0
    mu : float > -1
    x : float or ndarray, >= 0
    """
    if n < 0:
        raise ValueError(f"Laguerre degree must be >= 0, got {n}")
    if mu <= -1.0:
        raise ValueError(f"Laguerre parameter must exceed -1, got {mu}")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if n == 0:
        return prev if prev.shape else float(prev)
    cur = 1.0 + mu - x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 + mu - x) * cur - (k + mu) * prev) / (k + 1.0)
    return cur if cur.shape else float(cur)


@dataclass(frozen=True)
class ABLevel:
    value: float
    n: int
    m: int
    multiplicity: int


@dataclass(frozen=True)
class ABSpectrum:
    """Sorted low end of the Aharonov-Bohm harmonic spectrum n + (1+|m+flux|)/2."""

    flux: float
    levels: tuple[ABLevel, ...]

    @property
    def values(self):
        return tuple(lv.value for lv in self.levels)


def ab_spectrum(flux, count):
    """The ``count`` smallest levels n + (1 + |m + flux|)/2 with labels.

    The enumeration window is chosen so the returned multiset is provably
    complete: values grow linearly in n and |m|, so every candidate below the
    cap is covered by n <= cap and |m + flux| <= 2 cap.  Values are snapped
    to 12 decimals, which makes the exact flux-periodicity identities
    (flux -> flux + 1, flux -> -flux) hold as floating-point multisets.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    flux = float(flux)
    beta = abs(flux - round(flux))
    vcap = (1.0 + beta) / 2.0 + count + 1.0
    m_lo = math.floor(-flux - 2.0 * vcap) - 1
    m_hi = math.ceil(-flux + 2.0 * vcap) + 1
    entries = []
    for m in range(m_lo, m_hi + 1):
        mu = abs(m + flux)
        base = (1.0 + mu) / 2.0
        n = 0
        while base + n <= vcap:
            entries.append((round(base + n, 12), n, m))
            n += 1
    entries.sort(key=lambda e: (e[0], e[1], e[2]))
    picked = entries[:count]
    levels = []
    for value, n, m in picked:
        mult = sum(1 for v, _, _ in entries if abs(v - value) <= 1e-9)
        levels.append(ABLevel(value=value, n=n, m=m, multiplicity=mult))
    return ABSpectrum(flux=flux, levels=tuple(levels))


def free_gaussian_norm(t, width):
    """Exact L2 norm of the freely evolved Gaussian exp(-|x|^2 / (2 width^2)).

    Admissible widths keep the initial datum in the Gaussian-weighted space,
    i.e. amplitude decay strictly faster than exp(-|x|^2/8):  width < 2.
    """
    width = float(width)
    if not 0.0 < width < 2.0:
        raise ValueError(f"width must lie in (0, 2) for weighted-space data, got {width}")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("time must be >= 0")
    return math.sqrt(math.pi) * width**2 / np.sqrt(width**2 + 2.0 * t)
