import json

import pytest

from subscan import Dims, SignalSpec, canonical_support, generate, scan_exact
from subscan.cli import (
    EXIT_BUDGET,
    EXIT_DIMENSION,
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_USAGE,
    main,
    parse_args,
)
from subscan.errors import ValidationError


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
    assert cfg.options["mult"] == "0.5,1,2"
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


def test_unknown_flag_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--bogus", "3"])
    assert exc.value.code == 2


def test_selftest_clean_build(capsys):
    code, out, _ = run_cli(["selftest"], capsys)
    assert code == EXIT_OK
    assert "9/9 properties passed" in out


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


def test_generate_requires_signal_level(capsys):
    code, _, err = run_cli(
        ["generate", "--N", "6", "--M", "6", "--n", "2", "--m", "2", "--seed", "1"], capsys
    )
    assert code == EXIT_USAGE
    assert "--a is required" in json.loads(err)["detail"]


def test_worker_env_var_default(monkeypatch):
    from subscan.parallel import resolve_workers

    monkeypatch.delenv("SUBSCAN_THREADS", raising=False)
    assert resolve_workers(None) == 1
    monkeypatch.setenv("SUBSCAN_THREADS", "6")
    assert resolve_workers(None) == 6
    assert resolve_workers(2) == 2  # explicit value wins


@pytest.mark.parametrize("body", ["1,2\n3,x\n", "1,2\n3,4,5\n"], ids=["non_numeric", "ragged"])
def test_unreadable_matrix_is_usage_error(tmp_path, capsys, body):
    matrix = tmp_path / "bad.csv"
    matrix.write_text(body)
    (tmp_path / "bad.csv.meta.json").write_text(json.dumps({"N": 2, "M": 2, "n": 1, "m": 1}))
    code, _, err = run_cli(["select", "--matrix", str(matrix)], capsys)
    assert code == EXIT_USAGE
    payload = json.loads(err)
    assert payload["error"] == "validation"
    assert str(matrix) in payload["detail"]
