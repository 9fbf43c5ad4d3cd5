import math

import pytest

from udwrm import (
    BitString,
    born_string_prob,
    rate_report,
    ratio_bounds,
    rm_string_prob,
)


def test_bitstring_roundtrip():
    for v in range(16):
        b = BitString.from_int(v, 4)
        assert b.to_int() == v
        assert b.length == 4
        assert str(b) == format(v, "04b")


def test_bitstring_ones_positions():
    b = BitString.from_int(0b0110, 4)
    assert b.ones == (2, 3)
    assert b.popcount == 2


def test_bitstring_validation():
    with pytest.raises(ValueError):
        BitString(bits=())
    with pytest.raises(ValueError):
        BitString(bits=(0, 2))
    with pytest.raises(ValueError):
        BitString.from_int(16, 4)


def test_born_string_prob_product_law():
    q = 0.1
    assert born_string_prob(q, BitString.from_int(0b0101, 4)) == pytest.approx(
        q**2 * (1 - q) ** 2
    )
    total = sum(born_string_prob(q, BitString.from_int(v, 4)) for v in range(16))
    assert total == pytest.approx(1.0)


def test_rm_string_prob_all_zero_matches_born(full_model):
    b = BitString(bits=(0, 0, 0))
    r = rm_string_prob(b, full_model)
    assert r.value == pytest.approx(born_string_prob(full_model.q, b))
    assert r.log_ratio_correction == 0.0


def test_rm_string_prob_close_to_born(full_model):
    b = BitString.from_int(0b1010, 4)
    r = rm_string_prob(b, full_model)
    assert abs(r.log_ratio_correction) < 1e-3
    assert r.value == pytest.approx(born_string_prob(full_model.q, b), rel=1e-3)


def test_rm_string_prob_consistent_with_log_ratio(full_model):
    b = BitString.from_int(0b0011, 4)
    r = rm_string_prob(b, full_model)
    born = born_string_prob(full_model.q, b)
    assert r.value == pytest.approx(born * math.exp(r.log_ratio_correction), rel=1e-12)


def test_ratio_bounds_bracket_one_and_widen():
    b = BitString.from_int(0b0110, 4)
    lo, hi = ratio_bounds(b, 1e-4, 1e-4, 0.1 / 0.9)
    assert lo <= 1.0 <= hi
    lo2, hi2 = ratio_bounds(b, 1e-3, 1e-3, 0.1 / 0.9)
    assert lo2 < lo and hi2 > hi


def test_ratio_bounds_validation():
    with pytest.raises(ValueError):
        ratio_bounds(BitString(bits=(1,)), -1e-3, 0.0, 0.1)


def test_rate_report_reference_levels():
    from udwrm import accelerated, inertial

    b = BitString(bits=(0, 1, 0, 0))
    rest = rate_report(b, q=0.1, w=inertial(), omega=0.2)
    assert rest.reference == 0.0
    accel = rate_report(b, q=0.1, w=accelerated(0.1), omega=0.2)
    assert accel.reference == pytest.approx(math.exp(-2 * math.pi * 0.2 / 0.1))
    assert accel.sampled == pytest.approx(b.popcount / (b.length - b.popcount))
    assert accel.theoretical == pytest.approx(0.1 / 0.9)
