import itertools
import math

import pytest

from udwrm import (
    BitString,
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


@pytest.fixture(scope="module")
def per_string_models(schedule, detector):
    return {kind: fresh_model(kind, schedule, detector) for kind in ("inertial", "accelerated")}


@pytest.mark.parametrize("length", [4, 5, 6])
@pytest.mark.parametrize("kind", ["inertial", "accelerated"])
def test_string_table_matches_per_string_chain_law(
    kind, length, schedule, detector, per_string_models
):
    table = rm_string_table(length, fresh_model(kind, schedule, detector))
    assert len(table) == 1 << length
    for v, row in enumerate(table):
        ref = rm_string_prob(BitString.from_int(v, length), per_string_models[kind])
        # log(P_rm / P_born) carries the correction; the value itself may
        # round differently by an ulp through exp
        assert abs(row.log_ratio_correction - ref.log_ratio_correction) <= (
            row.abs_error / row.value
        ), (v, row, ref)
        assert abs(row.value - ref.value) <= row.abs_error + math.ulp(ref.value), (v, row, ref)


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
        lo, hi = ratio_bounds(b, ub.upper / q - 1.0, 1.0 - ub.lower / q, q / (1.0 - q))
        assert lo <= row.value / born_string_prob(q, b) <= hi, (str(b), row)

    # the last factor of 11111110 conditions on a history of 7 windows,
    # which the per-string chain law reaches too
    b = BitString.from_int(0b11111110, 8)
    assert str(b) == "11111110"
    row = table[b.to_int()]
    assert row.value > 0.0 and row.abs_error > 0.0
    assert math.isfinite(row.log_ratio_correction) and row.log_ratio_correction != 0.0
    ref = rm_string_prob(b, fresh_model(kind, schedule, detector))
    assert abs(row.log_ratio_correction - ref.log_ratio_correction) <= (
        row.abs_error / row.value
    ), (row, ref)
    assert abs(row.value - ref.value) <= row.abs_error + math.ulp(ref.value), (row, ref)


def test_table_pass_caches_every_subset(schedule, detector, monkeypatch):
    import udwrm.response

    model = fresh_model("inertial", schedule, detector)
    rm_string_table(5, model)

    def no_dp(*_):
        raise AssertionError("a cycle-cover pass ran after the table pass")

    monkeypatch.setattr(udwrm.response, "cycle_cover_sums", no_dp)
    for k in range(2, 6):
        for subset in itertools.combinations(range(5), k):
            value, error = model.f_fraction(subset)
            assert math.isfinite(value) and error > 0.0
    for query in range(1, 5):
        for k in range(1, query + 1):
            for exc in itertools.combinations(range(query), k):
                model.correction_sums(HistoryRecord(excitations=exc, query=query))


def test_string_table_length_is_capped(full_model):
    with pytest.raises(ValueError, match="table length"):
        rm_string_table(0, full_model)
    with pytest.raises(ValueError, match="table length"):
        rm_string_table(full_model.schedule.repetitions + 1, full_model)
    # inside the repetitions but past the window limit, before any integral
    model = ResponseModel(full_model.kernel, default_schedule(repetitions=12), full_model.detector)
    with pytest.raises(ValueError, match="MAX_WINDOWS"):
        rm_string_table(11, model)
    assert model._links == {}
