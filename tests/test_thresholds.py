import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subscan import (
    Dims,
    DomainError,
    ValidationError,
    classify,
    compute,
    critical_value,
    vector_critical_value,
    vector_critical_value_power_law,
)

# frozen from an independent 40-digit evaluation of the closed forms
REF_A = 0.73679583493601861197
REF_A1 = 0.53962094756638228298
REF_ASTAR = 1.8531526704251663526
REF_VECTOR = 7.4024877960462792183


def test_frozen_values_1000_square():
    th = compute(Dims(1000, 1000, 10, 10), 1.0)
    assert th.A == pytest.approx(REF_A, rel=1e-14)
    assert th.A1 == pytest.approx(REF_A1, rel=1e-14)
    assert th.A2 == pytest.approx(REF_A1, rel=1e-14)
    assert th.B == pytest.approx(REF_A1, rel=1e-14)
    assert th.det_quantity == pytest.approx(0.01, rel=1e-14)
    assert critical_value(Dims(1000, 1000, 10, 10)) == pytest.approx(REF_ASTAR, rel=1e-14)


def test_zero_signal_collapses_everything():
    th = compute(Dims(200, 100, 5, 4), 0.0)
    assert (th.A, th.A1, th.A2, th.B, th.det_quantity) == (0.0, 0.0, 0.0, 0.0, 0.0)
    assert th.a_star > 0


def test_doubling_homogeneity_exact():
    dims = Dims(500, 300, 7, 5)
    one = compute(dims, 1.3)
    two = compute(dims, 2.6)
    assert two.A == 2.0 * one.A
    assert two.A1 == 2.0 * one.A1
    assert two.A2 == 2.0 * one.A2
    assert two.B == 2.0 * one.B
    assert two.det_quantity == 4.0 * one.det_quantity
    assert two.a_star == one.a_star


@settings(deadline=None, max_examples=80)
@given(
    N=st.integers(5, 5000),
    M=st.integers(5, 5000),
    n=st.integers(2, 4),
    m=st.integers(2, 4),
    a=st.floats(0.01, 50.0),
)
def test_symmetry_and_positivity_property(N, M, n, m, a):
    th = compute(Dims(N, M, n, m), a)
    sw = compute(Dims(M, N, m, n), a)
    assert (sw.A1, sw.A2, sw.A, sw.B) == (th.A2, th.A1, th.A, th.B)
    assert th.B > 0 and th.a_star > 0


def test_strictly_increasing_in_a():
    dims = Dims(300, 300, 6, 6)
    values = [compute(dims, a) for a in (0.5, 1.0, 2.0, 4.0)]
    for lo, hi in zip(values, values[1:]):
        assert hi.A > lo.A and hi.A1 > lo.A1 and hi.A2 > lo.A2 and hi.B > lo.B


def test_a_star_decreasing_in_block_size():
    # a wider planted block is easier as long as the column-identification
    # term does not bind (needs enough planted rows; with few rows the number
    # of column sets grows faster than the per-column evidence)
    stars = [critical_value(Dims(500, 500, 64, m)) for m in (4, 8, 16, 32)]
    for lo, hi in zip(stars, stars[1:]):
        assert hi < lo


def test_moderate_sparsity_above_one_ninth():
    # with n = N^P, P >= 1/9, the edge quantities attain the minimum
    N = 10**6
    for P in (1 / 9, 0.3, 0.6):
        n = round(N**P)
        th = compute(Dims(N, N, n, n), 1.0)
        assert th.A1 == th.A2
        assert th.A1 <= th.A * (1 + 1e-9)


def test_domain_guards():
    with pytest.raises(DomainError):
        compute(Dims(10, 10, 10, 2), 1.0)  # n == N
    with pytest.raises(DomainError):
        compute(Dims(10, 10, 2, 10), 1.0)  # m == M
    with pytest.raises(DomainError):
        compute(Dims(2, 10, 1, 2), 1.0)  # zero denominator: n=1 with N=2
    with pytest.raises(ValidationError):
        compute(Dims(10, 10, 2, 2), -1.0)


def test_small_side_convention_flagged():
    label = classify(Dims(50, 50, 1, 4), 1.0)
    assert label.basis["small_side_log_convention"] is True
    label = classify(Dims(50, 50, 3, 4), 1.0)
    assert label.basis["small_side_log_convention"] is False


def test_vector_critical_value_frozen():
    assert vector_critical_value(10**6, 10) == pytest.approx(REF_VECTOR, rel=1e-14)


def test_vector_critical_value_dominated_by_big_term():
    # log(n)/log(N) -> 0: the value approaches sqrt(2 log N)
    value = vector_critical_value(10**9, 2)
    assert value / math.sqrt(2 * math.log(10**9)) == pytest.approx(1.0, abs=0.2)


def test_vector_critical_value_guards():
    with pytest.raises(DomainError):
        vector_critical_value(10, 10)
    with pytest.raises(DomainError):
        vector_critical_value(10, 1)


def test_vector_power_law_consistency():
    # the closed form is the two-term value with log(n) = (1-beta) log(N)
    N = 10**8
    for beta in (0.2, 0.5, 0.8):
        direct = math.sqrt(2 * math.log(N)) + math.sqrt(2 * (1 - beta) * math.log(N))
        assert vector_critical_value_power_law(N, beta) == pytest.approx(direct, rel=1e-12)
        n = round(N ** (1.0 - beta))
        assert vector_critical_value_power_law(N, beta) == pytest.approx(
            vector_critical_value(N, n), rel=1e-3
        )
    with pytest.raises(DomainError):
        vector_critical_value_power_law(N, 1.0)


def test_classify_overwhelming_signal():
    dims = Dims(400, 400, 5, 5)
    label = classify(dims, 10.0 * critical_value(dims))
    assert label.selection == "consistent"
    assert label.detection == "distinguishable"


def test_classify_boundary_at_exact_critical():
    dims = Dims(400, 400, 5, 5)
    label = classify(dims, critical_value(dims))
    assert label.selection == "boundary"


def test_classify_selection_is_pure_function_of_B():
    dims = Dims(400, 400, 5, 5)
    a_star = critical_value(dims)
    assert classify(dims, a_star * 1.04).selection == "boundary"
    assert classify(dims, a_star * 1.06).selection == "consistent"
    assert classify(dims, a_star * 0.94).selection == "inconsistent"
    assert classify(dims, a_star * 1.2, margin=0.3).selection == "boundary"


def test_classify_indistinguishable_notes_unchecked_balance():
    dims = Dims(5000, 5000, 3, 3)
    label = classify(dims, 0.05)
    assert label.detection == "indistinguishable"
    assert "balance_condition_note" in label.basis
    assert label.basis["det_cutoffs_heuristic"] is True


def test_classify_margin_guard():
    dims = Dims(100, 100, 3, 3)
    for bad in (0.0, 0.5, -0.1):
        with pytest.raises(ValidationError):
            classify(dims, 1.0, margin=bad)


def test_classify_serializable():
    import json

    label = classify(Dims(100, 100, 3, 3), 1.0)
    parsed = json.loads(json.dumps(label.to_dict()))
    assert parsed["selection"] == label.selection
    assert parsed["basis"]["B"] == label.basis["B"]
