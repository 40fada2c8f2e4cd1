"""`engine.simplex_maximize` on random concave quadratics (Hypothesis;
derandomized, so that Tier-1 stays deterministic): the result is on the
simplex, its Frank-Wolfe gap is within tolerance unless the evaluations
ran out, and the optimizer's two-plane bound from the start and any
evaluated point lies above the value it returns."""

import numpy as np
import pytest

from effcap.engine import (SIMPLEX_GAP_TOL, SIMPLEX_MAX_EVALS,
                           _two_plane_bound, simplex_maximize)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

_ENTRIES = st.floats(-2.0, 2.0, allow_nan=False)


@st.composite
def _concave_quadratics(draw):
    """(c, Q) of f(p) = c.p - p^T Q p, Q = A A^T of rank 1..n, n = 2..5."""
    n = draw(st.integers(2, 5))
    r = draw(st.integers(1, n))
    a = np.array(draw(st.lists(_ENTRIES, min_size=n * r, max_size=n * r)))
    c = np.array(draw(st.lists(_ENTRIES, min_size=n, max_size=n)))
    a = a.reshape(n, r)
    return c, a @ a.T


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_concave_quadratics())
def test_simplex_maximize_on_concave_quadratics(cq):
    c, q = cq
    seen = []

    def fg(p):
        f, g = float(c @ p - p @ q @ p), c - 2.0 * (q @ p)
        seen.append((p, f, g))
        return f, g

    n = len(c)
    p, f, gap = simplex_maximize(fg, np.full(n, 1.0 / n))
    assert p.min() >= 0.0 and abs(p.sum() - 1.0) < 1e-12
    assert len(seen) <= SIMPLEX_MAX_EVALS
    if len(seen) < SIMPLEX_MAX_EVALS:
        assert gap <= SIMPLEX_GAP_TOL * max(1.0, abs(f))
    # each evaluated point's tangent plane, f(p) + g_k - g.p at the vertex
    # e_k, lies above the concave f, and so does the lower of two; the
    # 1e-12 covers the rounding of the planes and the bound
    planes = [fp + (gp - gp @ pp) for pp, fp, gp in seen]
    for v in planes:
        assert (_two_plane_bound(planes[0], v)
                >= f - 1e-12 * max(1.0, abs(f)))
