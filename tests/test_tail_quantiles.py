"""The tail fit's quantiles from a bounded buffer are bitwise np.quantile's,
for the whole queue and for any partition of it into chunks (Hypothesis;
derandomized, so that Tier-1 stays deterministic)."""

import numpy as np
import pytest

from effcap.channels import CHUNK
from effcap.queuesim import TAIL_QUANTILES, _tail_quantiles

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


# lengths where the quantile window meets index n - 1, and lengths about
# CHUNK multiples, where the buffer is filled and cut chunk by chunk
_QUANTILE_LENGTHS = st.one_of(
    st.integers(1, 40),
    st.sampled_from([m * CHUNK + d for m in (1, 2, 3, 7)
                     for d in (-2, -1, 0, 1, 2)]),
    st.integers(1, 4 * CHUNK))


def _quantile_trace(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "ties":
        return rng.integers(0, 4, n).astype(float)
    q = rng.exponential(1.0, n)
    if kind == "zeros":
        q[rng.random(n) < 0.65] = 0.0
    elif kind == "descending":
        # the first cut already holds the top values; nothing after passes
        q[::-1].sort()
    elif kind == "ascending":
        # every value passes the cut, so the buffer is cut again and again
        q.sort()
    elif kind == "step":
        # k - 1 large values lead and the k-th largest comes last: it lies
        # just above the first cut, the k-th largest of the first 2k values
        k = n - int(np.floor((n - 1) * TAIL_QUANTILES[0]))
        q[:] = 0.0
        q[:k - 1] = 2.0
        q[-1] = 1.0
    return q


@settings(derandomize=True, max_examples=150, deadline=None)
@given(kind=st.sampled_from(["exponential", "ties", "zeros", "descending",
                             "ascending", "step"]),
       n=_QUANTILE_LENGTHS, seed=st.integers(0, 2 ** 32 - 1))
def test_tail_quantiles_match_np_quantile_bitwise(kind, n, seed):
    q = _quantile_trace(kind, n, seed)
    levels = np.linspace(*TAIL_QUANTILES, 60)
    got = _tail_quantiles([q], n, levels)
    want = np.quantile(q, levels)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# a partition: leading chunks of 1 to 3 values, then chunk lengths taken in
# turn; a first length below CHUNK starts the rest mid-CHUNK, as the
# stationary part of a streamed queue does
_PARTITIONS = st.tuples(
    st.lists(st.integers(1, 3), max_size=4),
    st.lists(st.one_of(st.integers(1, 2 * CHUNK),
                       st.sampled_from([1, CHUNK - 1, CHUNK, CHUNK + 1])),
             min_size=1, max_size=4))


def _chunks(q, lead, lengths, max_chunks=64):
    """q cut at the lengths lead, then lengths in turn; past max_chunks the
    rest is one chunk."""
    out, start = [], 0
    for i in range(max_chunks):
        if start >= len(q):
            break
        m = lead[i] if i < len(lead) else lengths[(i - len(lead))
                                                 % len(lengths)]
        out.append(q[start:start + m])
        start += m
    return out + [q[start:]]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(kind=st.sampled_from(["exponential", "ties", "zeros", "descending",
                             "ascending", "step"]),
       n=_QUANTILE_LENGTHS, seed=st.integers(0, 2 ** 32 - 1),
       partition=_PARTITIONS)
def test_any_partition_matches_np_quantile_bitwise(kind, n, seed, partition):
    q = _quantile_trace(kind, n, seed)
    chunks = _chunks(q, *partition)
    assert sum(map(len, chunks)) == n
    levels = np.linspace(*TAIL_QUANTILES, 60)
    got = _tail_quantiles(chunks, n, levels)
    want = np.quantile(q, levels)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
