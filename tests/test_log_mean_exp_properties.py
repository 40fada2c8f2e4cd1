"""`engine._LogMeanExp` over any split of its exponents (Hypothesis;
derandomized, so that Tier-1 stays deterministic): a (rows x n) exponent
matrix added chunk by chunk gives the log_mean, se_log and, for one row
with per-sample derivatives, d_log_mean of one add of the whole matrix
within rounding. That includes splits where a later chunk raises a row's
maximum, so that the sums kept so far are rescaled."""

import numpy as np
import pytest

from effcap.engine import _LogMeanExp

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

_UNIT = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def _split_exponents(draw):
    """(x, dx, cuts): exponents x, (n,) for one row or (rows, n); dx,
    (n, 2) derivatives for one row, else None; and the column indices at
    which the chunks split."""
    rows = draw(st.integers(0, 3))  # 0: one row given as (n,)
    n = draw(st.integers(2, 40))
    scale = draw(st.sampled_from([0.1, 1.0, 5.0, 30.0, 300.0]))
    x = scale * np.array(draw(st.lists(_UNIT, min_size=max(rows, 1) * n,
                                       max_size=max(rows, 1) * n)))
    x = x.reshape(n) if rows == 0 else x.reshape(rows, n)
    dx = None
    if rows == 0:
        dx = np.array(draw(st.lists(_UNIT, min_size=2 * n,
                                    max_size=2 * n))).reshape(n, 2)
    cuts = sorted(set(draw(st.lists(st.integers(1, n - 1), min_size=1,
                                    max_size=5))))
    return x, dx, cuts


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_split_exponents())
def test_any_split_gives_the_one_add_result(case):
    x, dx, cuts = case
    whole, split = _LogMeanExp(), _LogMeanExp()
    whole.add(x, dx)
    for lo, hi in zip([0] + cuts, cuts + [x.shape[-1]]):
        split.add(x[..., lo:hi], None if dx is None else dx[lo:hi])
    n = whole.n
    assert split.n == n
    # log_mean is m + log(s1 / n) with the same m: the sums differ only by
    # the rounding of their order
    np.testing.assert_allclose(split.log_mean(), whole.log_mean(),
                               rtol=0.0, atol=1e-12)
    # se_log^2 is (s2/n - (s1/n)^2) / (n (s1/n)^2), whose difference
    # cancels digits; its rounding is relative to (s2/n) / (n (s1/n)^2)
    s1, s2 = whole.s1 / n, whole.s2 / n
    np.testing.assert_array_less(
        np.abs(np.square(split.se_log()) - np.square(whole.se_log())),
        1e-12 * s2 / (n * s1 ** 2))
    if dx is not None:
        # an exp-weighted mean of the rows of dx
        np.testing.assert_allclose(split.d_log_mean(), whole.d_log_mean(),
                                   rtol=0.0, atol=1e-12 * np.abs(dx).max())
