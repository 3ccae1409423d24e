import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kurtosis, skew

from subscan import (
    DimensionMismatchError,
    Dims,
    Observation,
    SignalSpec,
    Support,
    ValidationError,
    canonical_support,
    generate,
    generate_null,
    make_support,
)
from subscan.model import plant


def test_dims_accessors():
    d = Dims(100, 50, 10, 5)
    assert d.shape == (100, 50)


@pytest.mark.parametrize(
    "args", [(0, 5, 1, 1), (5, 0, 1, 1), (5, 5, 0, 1), (5, 5, 1, 0), (5, 5, 6, 1), (5, 5, 1, 6)]
)
def test_dims_rejects_bad_sizes(args):
    with pytest.raises(ValidationError):
        Dims(*args)


def test_make_support_direct():
    d = Dims(4, 4, 2, 2)
    s = make_support(d, [0, 1], [2, 3])
    assert s == Support(rows=(0, 1), cols=(2, 3))


def test_make_support_canonicalizes_order():
    d = Dims(4, 4, 2, 2)
    assert make_support(d, [1, 0], [3, 2]) == make_support(d, [0, 1], [2, 3])


def test_make_support_distinct_errors():
    d = Dims(4, 4, 2, 2)
    # the index rule is check_support's, for a Support built either way
    with pytest.raises(DimensionMismatchError, match="support rows must be strictly increasing"):
        make_support(d, [0, 0], [2, 3])
    with pytest.raises(DimensionMismatchError, match=r"in \[0, 4\)"):
        make_support(d, [0, 4], [2, 3])
    with pytest.raises(DimensionMismatchError, match="support cols"):
        make_support(d, [0, 1], [-1, 3])
    with pytest.raises(ValidationError, match="expected 2 row indices"):
        make_support(d, [0, 1, 2], [2, 3])
    with pytest.raises(ValidationError, match="col index must be an integer"):
        make_support(d, [0, 1], [2, 3.0])


@settings(deadline=None, max_examples=50)
@given(st.permutations(list(range(5))))
def test_make_support_order_insensitive(perm):
    d = Dims(8, 8, 5, 2)
    assert make_support(d, perm, [0, 1]) == make_support(d, sorted(perm), [0, 1])


def test_signal_spec_guards():
    with pytest.raises(ValidationError):
        SignalSpec(-1.0)
    with pytest.raises(ValidationError):
        SignalSpec(2.0, means=np.array([[1.0, 3.0]]))  # entry below a
    spec = SignalSpec(2.0, means=np.array([[2.0, 3.0]]))
    assert not spec.means.flags.writeable


def test_generate_is_deterministic():
    d = Dims(30, 30, 3, 3)
    s = canonical_support(d)
    one = generate(d, s, SignalSpec(1.5), 42)
    two = generate(d, s, SignalSpec(1.5), 42)
    assert np.array_equal(one.data, two.data)
    assert not one.data.flags.writeable


def test_generate_differs_across_seeds():
    d = Dims(10, 10, 2, 2)
    s = canonical_support(d)
    assert not np.array_equal(
        generate(d, s, SignalSpec(0.0), 1).data, generate(d, s, SignalSpec(0.0), 2).data
    )


def test_zero_signal_grand_mean():
    d = Dims(1000, 1000, 10, 10)
    obs = generate(d, canonical_support(d), SignalSpec(0.0), 7)
    assert abs(obs.data.mean()) < 4.0 / np.sqrt(1_000_000)


def test_generate_null_equals_zero_signal():
    d = Dims(25, 40, 3, 4)
    via_generate = generate(d, canonical_support(d), SignalSpec(0.0), 99)
    null = generate_null(d, 99)
    assert np.array_equal(via_generate.data, null.data)


def test_null_variance_over_million_cells():
    d = Dims(1000, 1000, 2, 2)
    obs = generate_null(d, 5)
    assert abs(obs.data.var() - 1.0) < 0.01


def test_minimal_dims_single_draw():
    obs = generate_null(Dims(1, 1, 1, 1), 3)
    assert obs.data.shape == (1, 1)
    assert np.isfinite(obs.data[0, 0])


def test_supported_and_unsupported_cell_means():
    # average the two cell populations over many seeds; law of large numbers
    d = Dims(50, 50, 5, 5)
    s = canonical_support(d)
    spec = SignalSpec(3.0)
    seeds = 10_000
    on_sum = 0.0
    off_sum = 0.0
    mask = np.zeros(d.shape, dtype=bool)
    mask[np.ix_(s.rows, s.cols)] = True
    for seed in range(seeds):
        y = generate(d, s, spec, seed).data
        on_sum += y[mask].mean()
        off_sum += y[~mask].mean()
    tol = 4.0 / np.sqrt(25 * seeds)
    assert abs(on_sum / seeds - 3.0) < tol
    assert abs(off_sum / seeds) < tol


def test_noise_moments_standard_normal():
    d = Dims(400, 400, 2, 2)
    pooled = generate_null(d, 11).data.ravel()
    assert pooled.size >= 100_000
    assert abs(skew(pooled)) < 0.05
    assert abs(kurtosis(pooled, fisher=False) - 3.0) < 0.1


def test_two_sample_separation_after_centering():
    d = Dims(80, 80, 8, 8)
    s = make_support(d, list(range(10, 18)), list(range(20, 28)))
    obs = generate(d, s, SignalSpec(2.5), 13)
    mask = np.zeros(d.shape, dtype=bool)
    mask[np.ix_(s.rows, s.cols)] = True
    on = obs.data[mask] - 2.5
    off = obs.data[~mask]
    tol = 4.0 * np.sqrt(1.0 / on.size + 1.0 / off.size)
    assert abs(on.mean() - off.mean()) < tol


def test_heterogeneous_means_table():
    d = Dims(6, 6, 2, 2)
    s = make_support(d, [1, 3], [0, 5])
    means = np.array([[2.0, 3.0], [4.0, 5.0]])
    obs = generate(d, s, SignalSpec(2.0, means=means), 21)
    noise = generate_null(d, 21)
    delta = obs.data - noise.data
    assert np.allclose(delta[np.ix_(s.rows, s.cols)], means)
    delta[np.ix_(s.rows, s.cols)] = 0.0
    assert np.all(delta == 0.0)


def test_plant_keeps_negative_zero_noise_at_zero_signal():
    d = Dims(3, 3, 2, 2)
    data = np.zeros(d.shape)
    data[0, 0] = -0.0  # inside the planted block
    data.flags.writeable = False
    null = Observation(data, d)
    planted = plant(null, canonical_support(d), SignalSpec(0.0))
    assert np.signbit(planted.data[0, 0])
    # a positive level adds on a copy and leaves the null as it was
    raised = plant(null, canonical_support(d), SignalSpec(1.0))
    assert raised.data[0, 0] == 1.0 and np.signbit(null.data[0, 0])


def test_generate_rejects_mismatched_support():
    d = Dims(10, 10, 2, 2)
    wrong = make_support(Dims(10, 10, 3, 3), [0, 1, 2], [0, 1, 2])
    with pytest.raises(DimensionMismatchError):
        generate(d, wrong, SignalSpec(1.0), 0)
    with pytest.raises(DimensionMismatchError):
        generate(d, canonical_support(d), SignalSpec(1.0, means=np.ones((3, 3))), 0)
    # every index counts: a negative last row, a repeated row, a row past N
    for rows in ((3, -1), (1, 1), (12, 1)):
        with pytest.raises(DimensionMismatchError):
            generate(d, Support(rows, (0, 1)), SignalSpec(1.0), 1)
        with pytest.raises(DimensionMismatchError):
            generate(d, Support((0, 1), rows), SignalSpec(1.0), 1)


def test_observation_rejects_bad_data():
    d = Dims(2, 2, 1, 1)
    with pytest.raises(DimensionMismatchError):
        Observation(np.zeros((3, 2)), d)
    with pytest.raises(ValidationError):
        Observation(np.array([[0.0, np.inf], [0.0, 0.0]]), d)
