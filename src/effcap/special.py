"""Gauss-Laguerre quadrature rules. Nothing in src/ calls them; they stay
until the benchmark tracer, which patches `gauss_laguerre`, is re-bound."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import special as sps

from .errors import DomainError


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights for integration against the weight e^{-z} on [0, inf)."""

    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, f) -> float:
        return float(np.sum(self.weights * f(self.nodes)))


@functools.lru_cache(maxsize=None)  # bounded: n is limited to [1, 256]
def gauss_laguerre(n: int) -> QuadratureRule:
    """Gauss-Laguerre rule with n points; exact for polynomials up to 2n-1.

    Each rule is built once per process and shared by every caller, so its
    nodes and weights are read-only.
    """
    if not (1 <= n <= 256):
        raise DomainError(f"gauss_laguerre order must be in [1, 256], got {n}")
    nodes, weights = sps.roots_laguerre(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(nodes=nodes, weights=weights)
