import itertools
import math

import numpy as np
import pytest

from udwrm import (
    BitString,
    BoundPair,
    GammaProfile,
    HistoryRecord,
    ResponseModel,
    WightmanKernel,
    accelerated,
    born_string_prob,
    default_schedule,
    inertial,
    loose_bounds,
    n_limit,
    rate_report,
    ratio_bounds,
    rm_string_prob,
    rm_string_table,
)
from udwrm.combinatorics import MAX_WINDOWS
from udwrm.response import ratio_from_sums
from udwrm.strings import _window_sums


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


@pytest.mark.parametrize("bits", [(True, False), (1.0, 0), (0, np.float64(1.0)), ("1", "0")])
def test_bitstring_accepts_only_integer_bits(bits):
    with pytest.raises(ValueError, match="integers 0 and 1"):
        BitString(bits=bits)


def test_bitstring_stores_a_tuple_of_ints():
    ref = BitString(bits=(1, 0, 1))
    for bits in ([1, 0, 1], np.array([1, 0, 1])):
        b = BitString(bits=bits)
        assert type(b.bits) is tuple and all(type(x) is int for x in b.bits)
        assert b == ref and hash(b) == hash(ref) and str(b) == "101"


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
    q = 0.1
    lo, hi = ratio_bounds(b, BoundPair(q * (1 - 1e-4), q * (1 + 1e-4), "loose"), q)
    assert lo <= 1.0 <= hi
    lo2, hi2 = ratio_bounds(b, BoundPair(q * (1 - 1e-3), q * (1 + 1e-3), "loose"), q)
    assert lo2 < lo and hi2 > hi
    assert ratio_bounds(b, BoundPair(q, q, "loose"), q) == (1.0, 1.0)


def test_ratio_bounds_validation():
    for lower, upper, q in [
        (0.11, 0.12, 0.1),  # q below the bound
        (0.08, 0.09, 0.1),  # q above it
        (0.0, 0.0, 0.0),
        (1.0, 1.0, 1.0),
        (0.09, 0.11, math.nan),
        (math.nan, 0.11, 0.1),
        (0.09, math.nan, 0.1),
    ]:
        with pytest.raises(ValueError):
            ratio_bounds(BitString(bits=(1,)), BoundPair(lower, upper, "loose"), q)


def test_rate_report_reference_levels():
    b = BitString(bits=(0, 1, 0, 0))
    rest = rate_report(b, q=0.1, w=inertial(), omega=0.2)
    assert rest.reference == 0.0
    accel = rate_report(b, q=0.1, w=accelerated(0.1), omega=0.2)
    assert accel.reference == pytest.approx(math.exp(-2 * math.pi * 0.2 / 0.1))
    assert accel.sampled == pytest.approx(b.popcount / (b.length - b.popcount))
    assert accel.theoretical == pytest.approx(0.1 / 0.9)


def fresh_model(kind, schedule, detector):
    kern = WightmanKernel(inertial() if kind == "inertial" else accelerated(0.1))
    return ResponseModel(kern, schedule, detector)


def per_factor_chain_law(b, model):
    """Reference chain law from the history route: each factor from the
    correction sums of its own history, on a pass of its own windows.
    Returns (value, log ratio to the Born probability)."""
    q = model.q
    log_ratio = 0.0
    ones = []
    for j, bit in enumerate(b.bits):
        if ones:
            h = HistoryRecord(excitations=ones, query=j)
            ratio, _ = ratio_from_sums(*model.correction_sums(h))
        else:
            ratio = 0.0
        if bit == 1:
            log_ratio += math.log1p(ratio)
            ones.append(j)
        else:
            log_ratio += math.log1p(-q * ratio / (1.0 - q))
    return born_string_prob(q, b) * math.exp(log_ratio), log_ratio


@pytest.fixture(scope="module")
def per_string_models(schedule, detector):
    return {kind: fresh_model(kind, schedule, detector) for kind in ("inertial", "accelerated")}


@pytest.mark.parametrize("length", [4, 5, 6])
@pytest.mark.parametrize("kind", ["inertial", "accelerated"])
def test_string_table_matches_per_string_chain_law(
    kind, length, schedule, detector, per_string_models
):
    # the table and the histories read the same chain sums, so every row is
    # the per-factor chain law bit for bit
    table = rm_string_table(length, fresh_model(kind, schedule, detector))
    assert len(table) == 1 << length
    for v, row in enumerate(table):
        value, log_ratio = per_factor_chain_law(
            BitString.from_int(v, length), per_string_models[kind]
        )
        assert (row.value, row.log_ratio_correction) == (value, log_ratio), (v, row)


@pytest.mark.parametrize("kind", ["inertial", "accelerated"])
def test_string_table_at_eight_windows(kind, schedule, detector):
    model = fresh_model(kind, schedule, detector)
    table = rm_string_table(8, model)
    total = math.fsum(row.value for row in table)
    err = math.fsum(row.abs_error for row in table)
    assert abs(total - 1.0) <= max(10.0 * err, 1e-12), (total, err)

    # the ratio bounds the string-probs table prints beside each row
    q = model.q
    gp = GammaProfile.from_kernel(model.kernel, schedule)
    # from the bound at the string's length, which the horizon lies beyond
    assert 8 < n_limit(q, gp.gamma)
    ub = loose_bounds(8, q, gp.gamma)
    for v, row in enumerate(table):
        b = BitString.from_int(v, 8)
        lo, hi = ratio_bounds(b, ub, q)
        assert lo <= row.value / born_string_prob(q, b) <= hi, (str(b), row)

    # the last factor of 11111110 conditions on a history of 7 windows,
    # which the per-factor reference reaches too, bit for bit
    b = BitString.from_int(0b11111110, 8)
    assert str(b) == "11111110"
    row = table[b.to_int()]
    assert row.value > 0.0 and row.abs_error > 0.0
    assert math.isfinite(row.log_ratio_correction) and row.log_ratio_correction != 0.0
    fresh = fresh_model(kind, schedule, detector)
    value, log_ratio = per_factor_chain_law(b, fresh)
    assert (row.value, row.log_ratio_correction) == (value, log_ratio), row

    # every chain factor of the table, (ratio, error), is its history's
    num, den, num_err, den_err = _window_sums(8, model)
    checked = 0
    for j in range(1, 8):
        for history in range(1, 1 << j):
            ones = tuple(i for i in range(j) if history >> i & 1)
            h = HistoryRecord(excitations=ones, query=j)
            full = history | 1 << j
            factor = ratio_from_sums(num[full], den[history], num_err[full], den_err[history])
            assert factor == ratio_from_sums(*fresh.correction_sums(h)), h
            checked += 1
    assert checked == 247


@pytest.mark.parametrize("kind", ["inertial", "accelerated"])
def test_rm_string_prob_is_its_table_row(kind, schedule, detector):
    for length in range(1, 9):
        table = rm_string_table(length, fresh_model(kind, schedule, detector))
        model = fresh_model(kind, schedule, detector)
        for v, row in enumerate(table):
            r = rm_string_prob(BitString.from_int(v, length), model)
            assert (r.value, r.log_ratio_correction, r.abs_error) == (
                row.value,
                row.log_ratio_correction,
                row.abs_error,
            ), (length, v, r, row)


@pytest.mark.parametrize(
    "repetitions, length, match",
    [(12, MAX_WINDOWS + 1, "MAX_WINDOWS"), (8, 9, "repetitions")],
)
def test_rm_string_prob_reach_is_checked_before_any_integral(
    detector, repetitions, length, match
):
    # past the window limit inside the repetitions, and past the repetitions
    model = fresh_model("inertial", default_schedule(repetitions=repetitions), detector)
    with pytest.raises(ValueError, match=match):
        rm_string_prob(BitString(bits=(1,) + (0,) * (length - 1)), model)
    assert model._links == {}


def test_table_pass_is_cached_whole(schedule, detector, monkeypatch):
    # a second table, each of its rows, the fraction of its whole window set
    # and the sums of the history over that set read the one cached pass and
    # its chain sums (a subset of it is a pass of its own)
    import udwrm.response

    length = schedule.repetitions
    model = fresh_model("inertial", schedule, detector)
    table = rm_string_table(length, model)

    def no_dp(*_):
        raise AssertionError("a cycle-cover pass ran after the table pass")

    def no_transform(*_):
        raise AssertionError("a subset-sum transform ran after the table pass")

    monkeypatch.setattr(udwrm.response, "cycle_cover_sums", no_dp)
    monkeypatch.setattr(udwrm.response, "subset_sums", no_transform)
    assert rm_string_table(length, model) == table
    for v, row in enumerate(table):
        assert rm_string_prob(BitString.from_int(v, length), model) == row
    value, error = model.f_fraction(range(length))
    assert math.isfinite(value) and error > 0.0
    h = HistoryRecord(excitations=tuple(range(length - 1)), query=length - 1)
    num, den, num_err, den_err = _window_sums(length, model)
    full = (1 << length) - 1
    sums = (num[full], den[full >> 1], num_err[full], den_err[full >> 1])
    assert model.correction_sums(h) == sums


def submasks(mask):
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


@pytest.mark.parametrize("kind", ["inertial", "accelerated"])
def test_chain_ratios_match_their_directly_summed_terms(kind, detector):
    # at alpha = 0.1 a history's own fractions swamp its query's: the
    # difference of the sums over h + {j} and over h lost 88 of these ratios
    # to exactly 0.0
    length = MAX_WINDOWS
    model = fresh_model(kind, default_schedule(repetitions=length), detector)
    query_sums, history_sums, query_errors, history_errors = _window_sums(length, model)
    values, *_ = model._subset_fractions(tuple(range(length)))
    checked = 0
    for j in range(1, length):
        for history in range(1, 1 << j):
            full = history | 1 << j
            ratio, _ = ratio_from_sums(
                query_sums[full], history_sums[history], query_errors[full], history_errors[history]
            )
            num = math.fsum(values[s | 1 << j] for s in submasks(history))
            den = math.fsum(values[s] for s in submasks(history))
            ref = num / (1.0 + den)
            assert (ratio == 0.0) == (num == 0.0), (j, history, ratio, num)
            assert abs(ratio - ref) <= 1e-12 * abs(ref), (j, history, ratio, ref)
            checked += 1
    assert checked == 1013


def test_string_table_length_is_capped(full_model):
    with pytest.raises(ValueError, match="table length"):
        rm_string_table(0, full_model)
    with pytest.raises(ValueError, match="table length"):
        rm_string_table(full_model.schedule.repetitions + 1, full_model)
    # a bool or a float is no length, even where its value would be one,
    # and raises before any integral
    model = ResponseModel(full_model.kernel, full_model.schedule, full_model.detector)
    for length in (True, 2.0):
        with pytest.raises(ValueError, match="table length must be an integer"):
            rm_string_table(length, model)
    assert model._links == {}
    # inside the repetitions but past the window limit, before any integral
    model = ResponseModel(full_model.kernel, default_schedule(repetitions=12), full_model.detector)
    with pytest.raises(ValueError, match="MAX_WINDOWS"):
        rm_string_table(11, model)
    assert model._links == {}
