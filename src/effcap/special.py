"""Gamma-family special functions and Gauss-Laguerre quadrature.

All functions are pure and reentrant.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sps

from .errors import DomainError, NumericError

_MAX_SERIES_TERMS = 10_000


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights for integration against the weight e^{-z} on [0, inf)."""

    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, f) -> float:
        return float(np.sum(self.weights * f(self.nodes)))


def gamma_fn(x: float) -> float:
    """Gamma function for real x away from the poles at 0, -1, -2, ..."""
    if not math.isfinite(x):
        raise DomainError(f"gamma_fn requires finite x, got {x}")
    if x <= 0 and x == math.floor(x):
        raise DomainError(f"gamma_fn pole at x={x}")
    return math.gamma(x)


def confluent_1f1(a: float, b: float, z: float) -> float:
    """Confluent hypergeometric series 1F1(a, b, z).

    Straight series summation with a relative term-ratio stopping rule;
    arguments in this package are moderate so no Kummer transformations
    are applied.
    """
    if b <= 0 and b == math.floor(b):
        raise DomainError(f"confluent_1f1 pole at b={b}")
    total = 1.0
    term = 1.0
    for n in range(_MAX_SERIES_TERMS):
        term *= (a + n) / (b + n) * z / (n + 1)
        total += term
        if abs(term) <= 1e-13 * abs(total):
            return total
    raise NumericError(
        f"confluent_1f1 did not converge for a={a}, b={b}, z={z}")


@functools.lru_cache(maxsize=None)  # bounded: n is limited to [1, 256]
def gauss_laguerre(n: int) -> QuadratureRule:
    """Gauss-Laguerre rule with n points; exact for polynomials up to 2n-1.

    Nothing in src/ calls it since the Hankel entries moved to the
    trapezoidal rule. It stays only until the benchmark tracer, which
    patches it, is re-bound (ROADMAP item 2). Each rule is built once per
    process and shared by every caller, so its nodes and weights are
    read-only.
    """
    if not (1 <= n <= 256):
        raise DomainError(f"gauss_laguerre order must be in [1, 256], got {n}")
    nodes, weights = sps.roots_laguerre(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(nodes=nodes, weights=weights)
