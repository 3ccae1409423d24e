import json
from pathlib import Path

import numpy as np
import pytest

from subscan import Dims, SignalSpec, canonical_support, cli, generate, scan_exact, selftest
from subscan.cli import (
    EXIT_BUDGET,
    EXIT_DIMENSION,
    EXIT_DOMAIN,
    EXIT_IO,
    EXIT_OK,
    EXIT_SELFTEST,
    EXIT_USAGE,
    main,
    parse_args,
)
from subscan.errors import ValidationError
from subscan.matrixio import default_meta_path

VERBS = ["generate", "select", "classify", "calibrate", "detect", "risk", "sweep",
         "vector-risk", "maxgauss", "selftest"]


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_sweep_flags():
    cfg = parse_args(
        ["sweep", "--N", "60", "--M", "60", "--n", "6", "--m", "6",
         "--mult", "0.5,1,2", "--trials", "100", "--seed", "1"]
    )
    assert cfg.verb == "sweep"
    assert cfg.options["mult"] == [0.5, 1.0, 2.0]
    assert cfg.options["trials"] == 100
    assert cfg.options["method"] == "heuristic"  # default


def test_parse_rejects_impossible_shape():
    with pytest.raises(ValidationError, match="n <= N"):
        parse_args(["classify", "--N", "5", "--M", "5", "--n", "10", "--m", "2", "--a", "1"])


def test_parse_lists_all_problems():
    with pytest.raises(ValidationError) as err:
        parse_args(["risk", "--N", "5", "--M", "5", "--n", "10", "--m", "2"])
    message = str(err.value)
    assert "n <= N" in message and "--a is required" in message


def test_config_file_precedence(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"trials": 100, "seed": 9}))
    cfg = parse_args(
        ["maxgauss", "--J", "10", "--t", "1.0", "--trials", "500", "--config", str(config)]
    )
    assert cfg.options["trials"] == 500  # flag wins
    assert cfg.options["seed"] == 9  # config beats default


def test_classify_output_values(capsys):
    code, out, _ = run_cli(
        ["classify", "--N", "1000", "--M", "1000", "--n", "10", "--m", "10", "--a", "1"], capsys
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["tool"] == "subscan"
    assert payload["result"]["selection"] == "inconsistent"
    assert payload["result"]["basis"]["B"] == pytest.approx(0.5396209475663823, rel=1e-9)
    assert payload["config"]["margin"] == 0.05


def test_generate_then_select_matches_in_memory(tmp_path, capsys):
    matrix = tmp_path / "m.csv"
    code, out, _ = run_cli(
        ["generate", "--N", "10", "--M", "10", "--n", "2", "--m", "2",
         "--a", "1.5", "--seed", "42", "--out", str(matrix)], capsys
    )
    assert code == EXIT_OK
    out_json = tmp_path / "sel.json"
    code, _, _ = run_cli(
        ["select", "--matrix", str(matrix), "--method", "exact", "--out", str(out_json)], capsys
    )
    assert code == EXIT_OK
    result = json.loads(out_json.read_text())["result"]

    d = Dims(10, 10, 2, 2)
    obs = generate(d, canonical_support(d), SignalSpec(1.5), 42)
    expected = scan_exact(obs, 2, 2)
    assert tuple(result["support"]["rows"]) == expected.support.rows
    assert tuple(result["support"]["cols"]) == expected.support.cols
    assert result["objective"] == expected.objective


def test_select_dims_disagreement_exit_code(tmp_path, capsys):
    matrix = tmp_path / "m.csv"
    run_cli(
        ["generate", "--N", "6", "--M", "6", "--n", "2", "--m", "2",
         "--a", "1.0", "--seed", "1", "--out", str(matrix)], capsys
    )
    meta_path = tmp_path / "m.csv.meta.json"
    meta = json.loads(meta_path.read_text())
    meta["M"] = 7
    meta_path.write_text(json.dumps(meta))
    code, _, err = run_cli(["select", "--matrix", str(matrix), "--method", "exact"], capsys)
    assert code == EXIT_DIMENSION
    assert json.loads(err)["error"] == "dimension_mismatch"


def test_budget_exceeded_exit_code(tmp_path, capsys):
    matrix = tmp_path / "m.csv"
    run_cli(
        ["generate", "--N", "8", "--M", "8", "--n", "3", "--m", "3",
         "--a", "1.0", "--seed", "1", "--out", str(matrix)], capsys
    )
    code, _, err = run_cli(
        ["select", "--matrix", str(matrix), "--method", "exact", "--budget", "2"], capsys
    )
    assert code == EXIT_BUDGET
    assert json.loads(err)["error"] == "budget_exceeded"


def test_domain_error_exit_code(capsys):
    # n == N passes shape checks but the closed forms are undefined there
    code, _, err = run_cli(
        ["classify", "--N", "5", "--M", "9", "--n", "5", "--m", "2", "--a", "1"], capsys
    )
    assert code == EXIT_DOMAIN
    assert json.loads(err)["error"] == "domain"


@pytest.mark.parametrize("dims", [
    ["--N", "1" + "0" * 400, "--M", "10", "--n", "2", "--m", "2"],  # log(N / n)
    ["--N", "1" + "0" * 400, "--M", "1" + "0" * 401, "--n", "2",
     "--m", "1" + "0" * 400],  # sqrt(m) in _edge_critical
    ["--N", "1" + "0" * 200, "--M", "1" + "0" * 200, "--n", "2", "--m", "2"],  # / (N * M)
], ids=["log", "sqrt", "det"])
def test_classify_past_float_range_is_domain_error(capsys, dims):
    code, out, err = run_cli(["classify", *dims, "--a", "1"], capsys)
    assert code == EXIT_DOMAIN and out == ""
    assert json.loads(err)["error"] == "domain"


# entries whose block sums overflow float64: past Observation's bound
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", ["exact", "heuristic"])
def test_signal_past_the_sum_bound_is_usage_error(tmp_path, capsys, method):
    code, out, err = run_cli(["risk", "--N", "10", "--M", "10", "--n", "2", "--m", "2",
                              "--a", "1e308", "--trials", "2", "--method", method], capsys)
    assert code == EXIT_USAGE and out == ""
    assert "max|entry| * N * M" in json.loads(err)["detail"]
    data = np.zeros((6, 6))
    data[:2, :2] = 1e308  # the block `generate --a 1e308` wrote before the bound
    matrix = tmp_path / "huge.csv"
    np.savetxt(matrix, data, fmt="%.17g", delimiter=",")
    default_meta_path(matrix).write_text(json.dumps({"N": 6, "M": 6, "n": 2, "m": 2}))
    code, out, err = run_cli(["select", "--matrix", str(matrix), "--method", method], capsys)
    assert code == EXIT_USAGE and out == ""
    assert json.loads(err)["error"] == "validation"


def test_missing_required_flag_exit_code(capsys):
    code, _, err = run_cli(["detect", "--matrix", "whatever.csv"], capsys)
    assert code == EXIT_USAGE
    assert "--calibration is required" in json.loads(err)["detail"]


def test_risk_verb_provenance_reproduces(tmp_path, capsys):
    args = ["risk", "--N", "12", "--M", "12", "--n", "2", "--m", "2",
            "--a", "2.0", "--trials", "20", "--seed", "5", "--method", "exact"]
    code, out1, _ = run_cli(args, capsys)
    assert code == EXIT_OK
    payload = json.loads(out1)
    # re-run from the echoed config
    echoed = payload["config"]
    rerun = ["risk"]
    for key in ("N", "M", "n", "m", "a", "trials", "seed", "method"):
        rerun += [f"--{key}", str(echoed[key])]
    code, out2, _ = run_cli(rerun, capsys)
    assert json.loads(out2)["result"] == payload["result"]
    assert payload["version"]


def test_sweep_writes_csv(tmp_path, capsys):
    csv_path = tmp_path / "grid.csv"
    code, out, _ = run_cli(
        ["sweep", "--N", "12", "--M", "12", "--n", "2", "--m", "2",
         "--mult", "0.5,2.0", "--trials", "10", "--seed", "3",
         "--method", "exact", "--csv", str(csv_path)], capsys
    )
    assert code == EXIT_OK
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("a,multiplier,risk")
    assert len(lines) == 3
    payload = json.loads(out)
    assert len(payload["result"]["grid"]) == 2


def test_vector_risk_verb_with_multiplier(capsys):
    code, out, _ = run_cli(
        ["vector-risk", "--N", "500", "--n", "4", "--mult", "2.0",
         "--trials", "50", "--seed", "2"], capsys
    )
    assert code == EXIT_OK
    result = json.loads(out)["result"]
    assert result["risk"] <= 0.1
    assert result["vector_critical"] > 0


def test_vector_risk_takes_exactly_one_signal_flag(capsys):
    for extra in ([], ["--a", "3.5", "--mult", "2.0"]):
        code, _, err = run_cli(["vector-risk", "--N", "500", "--n", "4", *extra], capsys)
        assert code == EXIT_USAGE
        assert json.loads(err)["detail"] == "exactly one of --a / --mult is required"


def test_calibrate_then_detect_round_trip(tmp_path, capsys):
    calib_path = tmp_path / "calib.json"
    code, _, _ = run_cli(
        ["calibrate", "--N", "12", "--M", "12", "--n", "2", "--m", "2",
         "--alpha", "0.1", "--trials", "1000", "--seed", "4",
         "--method", "heuristic", "--restarts", "4", "--out", str(calib_path)], capsys
    )
    assert code == EXIT_OK
    matrix = tmp_path / "strong.csv"
    run_cli(
        ["generate", "--N", "12", "--M", "12", "--n", "2", "--m", "2",
         "--a", "50", "--seed", "8", "--out", str(matrix)], capsys
    )
    code, out, _ = run_cli(
        ["detect", "--matrix", str(matrix), "--calibration", str(calib_path)], capsys
    )
    assert code == EXIT_OK
    result = json.loads(out)["result"]
    assert result["reject"] is True
    assert result["thresholds"]["scan_crit"] > 0


def test_maxgauss_verb(capsys):
    code, out, _ = run_cli(
        ["maxgauss", "--J", "100", "--t", "0.5", "--trials", "200", "--seed", "6"], capsys
    )
    assert code == EXIT_OK
    assert 0.9 <= json.loads(out)["result"]["probability"] <= 1.0


def test_selftest_clean_build(capsys):
    code, out, _ = run_cli(["selftest"], capsys)
    assert code == EXIT_OK
    assert "9/9 properties passed" in out


def test_selftest_failing_property(monkeypatch, capsys):
    # test_selftest_clean_build runs the nine properties for real; here they are stubbed
    for name in ("oracle_mismatches", "column_reduction_mismatches", "shift_failures", "scale_failures",
                 "permutation_failures", "threshold_problems", "worker_dependent", "likelihood_mismatches"):
        monkeypatch.setattr(selftest, name, lambda: 0)
    monkeypatch.setattr(selftest, "wilson_failures", lambda: 1)
    code, out, _ = run_cli(["selftest"], capsys)
    assert code == EXIT_SELFTEST
    assert "FAIL - wilson interval endpoints" in out
    assert "8/9 properties passed" in out


def test_threads_flag_does_not_change_result(capsys):
    args = ["risk", "--N", "10", "--M", "10", "--n", "2", "--m", "2",
            "--a", "1.0", "--trials", "16", "--seed", "3", "--method", "exact"]
    _, out1, _ = run_cli(args + ["--threads", "1"], capsys)
    _, out4, _ = run_cli(args + ["--threads", "4"], capsys)
    assert json.loads(out1)["result"] == json.loads(out4)["result"]


def test_config_file_may_hold_lists(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"mult": [0.5, 2.0], "trials": 10, "seed": 3, "method": "exact"}))
    code, out, _ = run_cli(
        ["sweep", "--N", "12", "--M", "12", "--n", "2", "--m", "2", "--config", str(config)],
        capsys,
    )
    assert code == EXIT_OK
    assert len(json.loads(out)["result"]["grid"]) == 2


def test_config_file_typo_is_rejected(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"trails": 500}))
    code, _, err = run_cli(
        ["maxgauss", "--J", "10", "--t", "1.0", "--config", str(config)], capsys
    )
    assert code == EXIT_USAGE
    assert "trails" in json.loads(err)["detail"]


def test_malformed_multiplier_list_is_usage_error(capsys):
    code, _, err = run_cli(
        ["sweep", "--N", "12", "--M", "12", "--n", "2", "--m", "2", "--mult", "0.5,x"], capsys
    )
    assert code == EXIT_USAGE
    assert "comma-separated" in json.loads(err)["detail"]


@pytest.mark.parametrize("flag", ["--det-large", "--det-small"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_classify_rejects_non_finite_cutoffs(capsys, flag, value):
    code, out, err = run_cli(
        ["classify", "--N", "100", "--M", "100", "--n", "5", "--m", "5", "--a", "1", f"{flag}={value}"], capsys
    )
    assert code == EXIT_USAGE and out == ""
    assert "finite" in json.loads(err)["detail"]


@pytest.mark.parametrize("value", ["-1e-3", "-inf", "-0.5"])
def test_negative_numbers_parse_after_a_space(capsys, value):
    # argparse alone reads a spaced `-1e-3` or `-inf` as a flag
    head = ["classify", "--N", "100", "--M", "100", "--n", "5", "--m", "5", "--a", "1"]
    options = parse_args([*head, "--det-small", value]).options
    assert options == parse_args([*head, f"--det-small={value}"]).options
    assert options["det_small"] == float(value)
    mults = parse_args(["sweep", *head[1:9], "--mult", f"{value},1"]).options["mult"]
    assert mults == [float(value), 1.0]
    code, out, err = run_cli([*head, "--det-small", value], capsys)
    if value == "-inf":
        assert code == EXIT_USAGE and out == ""
        assert "finite" in json.loads(err)["detail"]
    else:
        assert code == EXIT_OK and json.loads(out)["config"]["det_small"] == float(value)


def test_generate_support_index_fault_is_dimension_mismatch(tmp_path, capsys):
    # a repeated or out-of-range --rows/--cols index breaks check_support's rule
    head = ["generate", "--N", "6", "--M", "6", "--n", "2", "--m", "2", "--a", "1",
            "--out", str(tmp_path / "y.csv")]
    for flags in (["--rows", "1,1"], ["--cols", "0,6"], ["--rows", "-1,2"]):
        code, out, err = run_cli([*head, *flags], capsys)
        assert code == EXIT_DIMENSION and out == ""
        payload = json.loads(err)
        assert payload["error"] == "dimension_mismatch"
        assert "must be strictly increasing indices in [0, 6)" in payload["detail"]
    assert not (tmp_path / "y.csv").exists()


def test_generate_requires_signal_level(capsys):
    code, _, err = run_cli(
        ["generate", "--N", "6", "--M", "6", "--n", "2", "--m", "2", "--seed", "1"], capsys
    )
    assert code == EXIT_USAGE
    assert "--a is required" in json.loads(err)["detail"]


def test_resolve_workers_defaults_to_one():
    from subscan.parallel import resolve_workers

    assert resolve_workers(None) == 1
    assert resolve_workers(0) == 1
    assert resolve_workers(2) == 2  # the count asked for


_NOT_UTF8 = b"\xff\xfe\x00garbage"
_META = json.dumps({"N": 2, "M": 2, "n": 1, "m": 1}).encode()


# the metadata file's other faults are in test_json_file_fault_exits_with_json;
# warnings are errors, so numpy's note on a file with no data fails the test
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("body, meta", [
    ("1,2\n3,x\n", _META), ("1,2\n3,4,5\n", _META), ("1,2\n3,4\n", _NOT_UTF8), ("", _META),
], ids=["non_numeric", "ragged", "meta_not_utf8", "empty"])
def test_unreadable_matrix_is_usage_error(tmp_path, capsys, body, meta):
    matrix = tmp_path / "bad.csv"
    matrix.write_text(body)
    (tmp_path / "bad.csv.meta.json").write_bytes(meta)
    code, out, err = run_cli(["select", "--matrix", str(matrix)], capsys)
    assert code == EXIT_USAGE and out == ""
    payload = json.loads(err)
    assert payload["error"] == "validation"
    assert str(matrix) in payload["detail"]


# --- the CLI contract: resolved options per argv, pinned with ==

_D = "--N 10 --M 12 --n 2 --m 3"
_DIMS = dict(N=10, M=12, n=2, m=3)
_BUDGET = 10_000_000

PINNED_OPTIONS = [
    (f"generate {_D} --a 1.5",
     dict(_DIMS, a=1.5, seed=0, rows=None, cols=None, meta=None, out="matrix.csv")),
    (f"generate {_D} --a 1 --seed 4 --rows 1,3 --cols 0,5,7 --meta x.json --out m.csv --threads 2",
     dict(_DIMS, a=1.0, seed=4, rows=[1, 3], cols=[0, 5, 7], meta="x.json", out="m.csv")),
    ("select --matrix m.csv",
     dict(matrix="m.csv", meta=None, n=None, m=None, method="exact", restarts=20, seed=0,
          budget=_BUDGET, out=None)),
    ("select --matrix m.csv --meta m.json --n 2 --m 2 --method heuristic --restarts 5 --seed 3"
     " --budget 100 --out s.json --threads 2",
     dict(matrix="m.csv", meta="m.json", n=2, m=2, method="heuristic", restarts=5, seed=3,
          budget=100, out="s.json")),
    (f"classify {_D} --a 1",
     dict(_DIMS, a=1.0, margin=0.05, det_large=3.0, det_small=0.1, out=None)),
    (f"classify {_D} --a 0.5 --margin 0.1 --det-large 4 --det-small 0.2 --out c.json",
     dict(_DIMS, a=0.5, margin=0.1, det_large=4.0, det_small=0.2, out="c.json")),
    (f"calibrate {_D}",
     dict(_DIMS, alpha=0.05, trials=2000, seed=0, method="heuristic", restarts=10,
          budget=_BUDGET, out="calibration.json")),
    (f"calibrate {_D} --alpha 0.2 --trials 500 --seed 1 --method exact --restarts 3"
     " --budget 1000 --out cal.json --threads 1",
     dict(_DIMS, alpha=0.2, trials=500, seed=1, method="exact", restarts=3, budget=1000,
          out="cal.json")),
    ("detect --matrix m.csv --calibration cal.json",
     dict(matrix="m.csv", calibration="cal.json", meta=None, out=None)),
    ("detect --matrix m.csv --calibration cal.json --meta m.json --out d.json --threads 2",
     dict(matrix="m.csv", calibration="cal.json", meta="m.json", out="d.json")),
    (f"risk {_D} --a 2.0",
     dict(_DIMS, a=2.0, trials=200, seed=0, method="exact", restarts=20, budget=_BUDGET,
          out=None)),
    (f"risk {_D} --a 2 --trials 20 --seed 5 --method heuristic --restarts 4 --budget 99"
     " --out r.json",
     dict(_DIMS, a=2.0, trials=20, seed=5, method="heuristic", restarts=4, budget=99,
          out="r.json")),
    (f"sweep {_D} --mult 0.5,1,2",
     dict(_DIMS, mult=[0.5, 1.0, 2.0], trials=200, seed=0, method="heuristic", restarts=20,
          budget=_BUDGET, out=None, csv=None)),
    (f"sweep {_D} --mult 1 --trials 10 --seed 3 --method exact --restarts 2 --budget 50"
     " --csv g.csv --out s.json --threads 1",
     dict(_DIMS, mult=[1.0], trials=10, seed=3, method="exact", restarts=2, budget=50,
          out="s.json", csv="g.csv")),
    ("vector-risk --N 500 --n 4 --mult 2.0",
     dict(N=500, n=4, a=None, mult=2.0, trials=200, seed=0, out=None)),
    ("vector-risk --N 500 --n 4 --a 3.5 --trials 50 --seed 2 --out v.json",
     dict(N=500, n=4, a=3.5, mult=None, trials=50, seed=2, out="v.json")),
    ("maxgauss --J 100 --t 0.5",
     dict(J=100, t=0.5, trials=400, seed=0, out=None)),
    ("maxgauss --J 100 --t 0.5 --trials 200 --seed 6 --out g.json --threads 2",
     dict(J=100, t=0.5, trials=200, seed=6, out="g.json")),
    ("selftest", {}),
    ("selftest --threads 2", {}),
]


@pytest.mark.parametrize("argv, expected", PINNED_OPTIONS, ids=[a for a, _ in PINNED_OPTIONS])
def test_resolved_options_are_pinned(argv, expected):
    options = parse_args(argv.split()).options
    assert options == expected
    # --threads changes speed, never results, so it is never echoed into the provenance
    assert "threads" not in options


def test_pinned_table_covers_every_verb():
    assert VERBS == list(cli.VERBS)
    assert sorted({argv.split()[0] for argv, _ in PINNED_OPTIONS}) == sorted(VERBS)


@pytest.mark.parametrize("verb", VERBS)
def test_verb_help_exits_zero(verb, capsys):
    with pytest.raises(SystemExit) as exc:
        main([verb, "--help"])
    assert exc.value.code == 0
    assert f"subscan {verb}" in capsys.readouterr().out


def test_version_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("subscan ")


def _config_run(tmp_path, capsys, argv, values):
    config = tmp_path / "run.json"
    config.write_bytes(values if isinstance(values, bytes) else json.dumps(values).encode())
    return run_cli(argv + ["--config", str(config)], capsys)


@pytest.mark.parametrize("argv, values, needle", [
    (["risk", "--N", "8", "--M", "8", "--n", "2", "--m", "2", "--a", "1"], {"trials": "abc"},
     "--trials must be an integer >= 1, got 'abc'"),
    (["risk", "--M", "8", "--n", "2", "--m", "2", "--a", "1"], {"N": "10"},
     "--N must be an integer, got '10'"),
    (["risk", "--N", "8", "--M", "8", "--n", "2", "--m", "2", "--a", "1"], {"trials": 5.0},
     "--trials must be an integer >= 1, got 5.0"),
    (["risk", "--N", "8", "--M", "8", "--n", "2", "--m", "2", "--a", "1"], {"seed": True},
     "--seed must be an integer, got True"),
    (["vector-risk", "--N", "500", "--n", "4"], {"mult": "x"}, "--mult must be a number, got 'x'"),
    (["sweep", "--N", "8", "--M", "8", "--n", "2", "--m", "2"], {"mult": [0.5, "x"]},
     "--mult must be a comma-separated number list"),
    (["generate", "--N", "8", "--M", "8", "--n", "2", "--m", "2", "--a", "1"], {"rows": [0, 1.5]},
     "--rows must be a comma-separated integer list"),
    (["select", "--matrix", "m.csv"], {"out": 3}, "--out must be a string, got 3"),
    (["risk", "--N", "8", "--M", "8", "--n", "2", "--m", "2", "--a", "1"],
     {"method": "brute-force"}, "--method must be one of exact, heuristic"),
    pytest.param(["risk", "--N", "8", "--M", "8", "--n", "2", "--m", "2", "--a", "1"], _NOT_UTF8,
                 "unreadable config file", id="not_utf8"),
])
def test_bad_config_value_is_usage_error(tmp_path, capsys, argv, values, needle):
    code, out, err = _config_run(tmp_path, capsys, argv, values)
    assert code == EXIT_USAGE and out == ""
    payload = json.loads(err)
    assert payload["error"] == "validation"
    assert needle in payload["detail"]


def test_config_values_echo_without_coercion(tmp_path, capsys):
    code, out, _ = _config_run(
        tmp_path, capsys, ["risk", "--N", "8", "--M", "8", "--n", "2", "--m", "2"],
        {"a": 2, "trials": 5, "seed": 3},
    )
    assert code == EXIT_OK
    config = json.loads(out)["config"]
    assert config["a"] == 2 and isinstance(config["a"], int)
    assert (config["trials"], config["seed"]) == (5, 3)


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_nonpositive_threads_flag_is_usage_error(capsys, threads):
    code, _, err = run_cli(["maxgauss", "--J", "10", "--t", "1", "--threads", threads], capsys)
    assert code == EXIT_USAGE
    assert f"--threads must be an integer >= 1, got {threads}" in json.loads(err)["detail"]


@pytest.mark.parametrize("values", [{"alpha": 0.3}, {"threads": 4}])
def test_config_keys_belong_to_their_verb(tmp_path, capsys, values):
    code, _, err = _config_run(tmp_path, capsys, ["maxgauss", "--J", "10", "--t", "1"], values)
    assert code == EXIT_USAGE
    assert next(iter(values)) in json.loads(err)["detail"]


_RISK = ["risk", "--N", "8", "--M", "8", "--n", "2", "--m", "2", "--a", "1"]
_SWEEP = ["sweep", "--N", "8", "--M", "8", "--n", "2", "--m", "2"]
_CLASSIFY = ["classify", "--N", "100", "--M", "100", "--n", "5", "--m", "5", "--a", "1"]

USAGE_FAULTS = {  # id -> (argv, part of the detail); argparse's own faults are JSON too
    "N_abc": (["risk", "--N", "abc", *_RISK[3:]], "--N must be an integer, got 'abc'"),
    "a_x": ([*_RISK[:-1], "x"], "--a must be a number, got 'x'"),
    "method_foo": ([*_RISK, "--method", "foo"], "--method must be one of exact, heuristic"),
    "risk_method_brute_force": ([*_RISK, "--method", "brute-force"], "got 'brute-force'"),
    "select_method_brute_force": (["select", "--matrix", "m.csv", "--method", "brute-force"],
                                  "got 'brute-force'"),
    "threads_abc": ([*_RISK, "--threads", "abc"], "--threads must be an integer >= 1, got 'abc'"),
    "threads_0": ([*_RISK, "--threads", "0"], "--threads must be an integer >= 1, got 0"),
    "bogus_flag": (["classify", "--bogus", "3"], "unrecognized arguments: --bogus 3"),
    "selftest_out": (["selftest", "--out", "x.json"], "unrecognized arguments: --out x.json"),
    "trials_without_value": ([*_RISK, "--trials"], "--trials: expected one argument"),
    "no_verb": ([], "required: verb"),
    "mult_empty_item": ([*_SWEEP, "--mult", "1,,2"],
                        "--mult must be a comma-separated number list, got '1,,2'"),
    "rows_empty_item": (["generate", *_SWEEP[1:], "--a", "1", "--rows", "1,,3"],
                        "--rows must be a comma-separated integer list, got '1,,3'"),
    # a fault names the flag, not the option's config key
    "det_large_x": ([*_CLASSIFY, "--det-large", "x"], "--det-large must be a number, got 'x'"),
    # flags are never abbreviated, whatever their value looks like
    "abbreviated_flag_negative_value": ([*_CLASSIFY, "--det-s", "-1e-3"],
                                        "unrecognized arguments: --det-s -1e-3"),
    "abbreviated_flag": ([*_CLASSIFY, "--marg", "0.1"], "unrecognized arguments: --marg 0.1"),
    "unknown_verb": (["bogus"], "invalid choice: 'bogus' (choose from "
                     + ", ".join(f"'{verb}'" for verb in VERBS) + ")"),
}


@pytest.mark.parametrize("argv, needle", USAGE_FAULTS.values(), ids=USAGE_FAULTS.keys())
def test_usage_fault_exits_2_with_json(argv, needle, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == EXIT_USAGE and out == ""
    payload = json.loads(err)  # one JSON object, nothing else
    assert payload["error"] == "validation"
    assert needle in payload["detail"]


def test_flag_and_config_values_share_one_check(tmp_path, capsys):
    _, _, flag_err = run_cli([*_RISK, "--method", "brute-force"], capsys)
    _, _, config_err = _config_run(tmp_path, capsys, _RISK, {"method": "brute-force"})
    assert json.loads(flag_err) == json.loads(config_err)
    assert json.loads(flag_err)["detail"] == "--method must be one of exact, heuristic, got 'brute-force'"


_CALIBRATION = {"alpha": 0.1, "scan_crit": 1.0, "linear_crit": 1.0, "trials": 1000,
                "dims": {"N": 6, "M": 6, "n": 2, "m": 2}, "seed": 0, "method": "heuristic",
                "restarts": 2}


def _detect_with_calibration(tmp_path, capsys, text):
    matrix = tmp_path / "m.csv"
    run_cli(["generate", "--N", "6", "--M", "6", "--n", "2", "--m", "2", "--a", "1",
             "--out", str(matrix)], capsys)
    calib = tmp_path / "calib.json"
    calib.write_text(text)
    code, _, err = run_cli(["detect", "--matrix", str(matrix), "--calibration", str(calib)], capsys)
    return code, json.loads(err)


# a calibration file that is a JSON object but not a calibration; the file
# faults every JSON input shares are in test_json_file_fault_exits_with_json
@pytest.mark.parametrize("text", [
    json.dumps(dict(_CALIBRATION, dims={"N": 6})),
    json.dumps(dict(_CALIBRATION, scan_crit="x")),
    json.dumps(dict(_CALIBRATION, restarts="3")),
    json.dumps({k: v for k, v in _CALIBRATION.items() if k != "scan_crit"}),
], ids=["dims_missing_keys", "scan_crit_string", "restarts_string", "missing_field"])
def test_malformed_calibration_is_usage_error(tmp_path, capsys, text):
    code, err = _detect_with_calibration(tmp_path, capsys, text)
    assert code == EXIT_USAGE
    assert "malformed calibration file" in err["detail"]


_UNREADABLE, _NOT_OBJECT = "unreadable {what} file {path}: ", "{what} file {path} must hold a JSON object"
JSON_FILE_FAULTS = {  # id -> (make the faulty file at a path, exit code, error name, in detail)
    "missing": (lambda path: None, EXIT_IO, "io", "No such file"),
    "directory": (Path.mkdir, EXIT_IO, "io", "Is a directory"),
    "not_utf8": (lambda path: path.write_bytes(_NOT_UTF8), EXIT_USAGE, "validation", _UNREADABLE),
    "not_json": (lambda path: path.write_text("{not json"), EXIT_USAGE, "validation", _UNREADABLE),
    "array": (lambda path: path.write_text("[1, 2]"), EXIT_USAGE, "validation", _NOT_OBJECT),
    "number": (lambda path: path.write_text("5"), EXIT_USAGE, "validation", _NOT_OBJECT),
    "null": (lambda path: path.write_text("null"), EXIT_USAGE, "validation", _NOT_OBJECT),
    "too_deep": (lambda path: path.write_text("[" * 100_000 + "]" * 100_000), EXIT_USAGE,
                 "validation", _UNREADABLE),
}


@pytest.mark.parametrize("fault", JSON_FILE_FAULTS)
@pytest.mark.parametrize("role", ["config", "calibration", "meta"])
def test_json_file_fault_exits_with_json(tmp_path, capsys, role, fault):
    # every JSON input goes through one reader: a file that cannot be read is
    # an I/O fault (6), content that is not a JSON object a usage fault (2)
    make, expected_code, error, needle = JSON_FILE_FAULTS[fault]
    matrix = tmp_path / "m.csv"
    generated = run_cli(["generate", "--N", "6", "--M", "6", "--n", "2", "--m", "2", "--a", "1",
                         "--out", str(matrix)], capsys)
    assert generated[0] == EXIT_OK
    path = {"config": tmp_path / "run.json", "calibration": tmp_path / "calib.json",
            "meta": default_meta_path(matrix)}[role]
    argv = {"config": [*_RISK, "--config", str(path)],
            "calibration": ["detect", "--matrix", str(matrix), "--calibration", str(path)],
            "meta": ["select", "--matrix", str(matrix)]}[role]
    path.unlink(missing_ok=True)
    make(path)
    code, out, err = run_cli(argv, capsys)
    assert code == expected_code and out == ""
    payload = json.loads(err)  # one JSON object, nothing else
    assert isinstance(payload, dict) and payload["error"] == error
    what = {"config": "config", "calibration": "calibration", "meta": "metadata"}[role]
    assert str(path) in payload["detail"] and needle.format(what=what, path=path) in payload["detail"]
