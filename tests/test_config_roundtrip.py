"""serialize_config writes every valid config so that parse_config reads
back the same keys, values and value types. The configs are drawn from the
key table in effcap.config, so a key added there is covered here."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from effcap.config import (KEYS, RunConfig, _ONLY_FOR,  # noqa: E402
                           parse_config, serialize_config)

FINITE = st.floats(allow_nan=False, allow_infinity=False)
# the sweep's SNR bounds in dB: above about 3082.5 dB, 10^(dB/10) overflows
# and the bounds rule refuses the stop
SNR_DB = st.floats(allow_nan=False, allow_infinity=False, max_value=3082.5)
FLOAT_LIST = st.lists(FINITE, min_size=1, max_size=4).map(
    # one entry reads back as a float, several as the text itself
    lambda xs: xs[0] if len(xs) == 1 else ", ".join(map(repr, xs)))
# keys whose value is checked where it is read, not by the table; a new
# one needs a generator here
FREE = {"model.h_real": FLOAT_LIST, "model.h_imag": FLOAT_LIST,
        "strategy.k_diag": FLOAT_LIST,
        "output.path": st.from_regex(r"[a-z0-9_/-]{1,12}\.csv",
                                     fullmatch=True)}


# the (key, value) that each key of one model variant or strategy needs
NEEDS = {k: need for need, keys in _ONLY_FOR.items() for k in keys}


def test_free_keys_match_table():
    assert set(FREE) == {k for k, spec in KEYS.items() if spec.check is None}


def _values(key):
    check = KEYS[key].check
    if check is None:
        return FREE[key]
    names = getattr(check, "__self__", None)  # a one-of check's names
    if isinstance(names, tuple):
        return st.sampled_from(names)
    if check(0.5):  # a number, or a positive one
        # NaN is left out: it is not equal to itself, and the domain
        # objects refuse it anyway
        return (st.integers(-10, 10**12)
                | st.floats(allow_nan=False)).filter(check)
    least = next(n for n in range(-10, 10**4) if check(n))  # an integer
    return st.integers(least, 10**12)


@st.composite
def valid_kv(draw):
    kv = {}
    theta = draw(st.sampled_from(["scenario.theta", "scenario.theta_hat"]))
    sweep = draw(st.booleans())
    for key in KEYS:
        if key.startswith("scenario.theta"):
            wanted = key == theta
        elif key.startswith("sweep."):
            wanted = sweep
        elif key in NEEDS:  # after its variant or strategy, as in KEYS
            owner, value = NEEDS[key]
            wanted = kv.get(owner, value) == value and draw(st.booleans())
            if wanted:
                kv[owner] = value
        else:
            wanted = draw(st.booleans())
        if wanted:
            kv[key] = draw(_values(key))
    if sweep:
        lo, hi = sorted(draw(st.lists(SNR_DB, min_size=2, max_size=2,
                                      unique=True)))
        kv["sweep.snr_db_start"], kv["sweep.snr_db_stop"] = lo, hi
    return kv


@settings(derandomize=True, max_examples=200, deadline=None)
@given(valid_kv())
def test_parse_of_serialize_is_identity(kv):
    cfg = RunConfig(kv)
    again = parse_config(serialize_config(cfg))
    assert again.kv == cfg.kv
    assert ({k: type(v) for k, v in again.kv.items()}
            == {k: type(v) for k, v in cfg.kv.items()})
