import json

import numpy as np
import pytest

from subscan import (
    DimensionMismatchError,
    Dims,
    SignalSpec,
    ValidationError,
    generate,
    load_matrix,
    make_support,
    save_matrix,
)
from subscan.matrixio import default_meta_path


def test_round_trip_is_exact(tmp_path):
    d = Dims(9, 7, 2, 3)
    s = make_support(d, [1, 8], [0, 3, 6])
    obs = generate(d, s, SignalSpec(1.25), 77)
    path = tmp_path / "m.csv"
    save_matrix(obs, path, support=s, a=1.25, seed=77)
    loaded, meta = load_matrix(path)
    # 17 significant digits round-trip float64 bit for bit; tolerance 1e-12
    # relative is the contract, exactness is what we actually get
    assert np.array_equal(loaded.data, obs.data)
    assert loaded.dims == d
    assert meta["rows"] == [1, 8]
    assert meta["cols"] == [0, 3, 6]
    assert meta["a"] == 1.25
    assert meta["seed"] == 77


def test_default_meta_path(tmp_path):
    assert default_meta_path(tmp_path / "x.csv").name == "x.csv.meta.json"


def test_null_matrix_without_support(tmp_path):
    d = Dims(3, 3, 1, 1)
    obs = generate(d, make_support(d, [0], [0]), SignalSpec(0.0), 5)
    path = tmp_path / "null.csv"
    save_matrix(obs, path, support=None, a=0.0, seed=5)
    _, meta = load_matrix(path)
    assert meta["rows"] is None


def test_mismatched_metadata_raises(tmp_path):
    d = Dims(4, 4, 2, 2)
    obs = generate(d, make_support(d, [0, 1], [0, 1]), SignalSpec(1.0), 9)
    path = tmp_path / "m.csv"
    meta_path = save_matrix(obs, path, seed=9)
    meta = json.loads(meta_path.read_text())
    meta["N"] = 5
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(DimensionMismatchError):
        load_matrix(path)


def test_unreadable_metadata(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("0.0,1.0\n2.0,3.0\n")
    default_meta_path(path).write_text("{not json")
    with pytest.raises(ValidationError):
        load_matrix(path)
    default_meta_path(path).write_text(json.dumps({"N": 2, "M": 2}))
    with pytest.raises(ValidationError, match="missing key"):
        load_matrix(path)
    default_meta_path(path).write_text(json.dumps([1, 2]))
    with pytest.raises(ValidationError, match="must hold a JSON object"):
        load_matrix(path)


@pytest.mark.parametrize("dims, problem", [
    ({"N": 6.0, "M": 6, "n": 2, "m": 2}, "N must be an integer, got 6.0"),
    ({"N": 6, "M": 6, "n": 7, "m": 2}, "need n <= N, got n=7 > N=6"),
], ids=["float_N", "n_above_N"])
def test_bad_metadata_dims_name_the_file(tmp_path, dims, problem):
    path = tmp_path / "m.csv"
    path.write_text("0.0\n")
    meta_path = default_meta_path(path)
    meta_path.write_text(json.dumps(dims))
    with pytest.raises(ValidationError) as exc:
        load_matrix(path)
    assert str(exc.value) == f"malformed metadata file {meta_path}: {problem}"


def test_single_column_matrix_round_trip(tmp_path):
    d = Dims(5, 1, 2, 1)
    obs = generate(d, make_support(d, [0, 4], [0]), SignalSpec(2.0), 3)
    path = tmp_path / "thin.csv"
    save_matrix(obs, path, seed=3)
    loaded, _ = load_matrix(path)
    assert loaded.data.shape == (5, 1)
    assert np.array_equal(loaded.data, obs.data)
