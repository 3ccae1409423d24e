"""Command-line front end.

Verbs: generate, select, classify, calibrate, detect, risk, sweep,
vector-risk, maxgauss, selftest.  VERBS declares each verb's options once,
with type and default.  Every run resolves its configuration from those
defaults, then an optional --config JSON file of that verb's options, then
explicit flags (flags win), and echoes the resolved configuration into the
output payload so any result can be reproduced from its own provenance.
argparse only splits argv; each option's Kind converts its flag text, then
checks flag and config values alike.  Every usage fault exits 2 with JSON.
The worker count comes from --threads alone (default 1).

Exit codes (FAULTS maps each fault class to its code and JSON error name):
  0  success
  1  selftest found a failing property
  2  usage / validation error, including malformed JSON input file content
  3  dimension mismatch
  4  enumeration budget exceeded
  5  closed-form domain error
  6  I/O error, such as a file that cannot be read or written
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__
from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    DomainError,
    ValidationError,
)
from .matrixio import load_matrix, read_json_object, save_matrix
from .model import Dims, SignalSpec, generate, make_support
from .montecarlo import estimate_risk, max_gauss_exceedance, sweep, vector_risk
from .selector import EXACT_ENUMERATION_BUDGET, METHODS, scan
from .selector import scan_exact, scan_heuristic  # noqa: F401  perfbench's tracer rebinds these here
from .thresholds import (
    DEFAULT_DET_LARGE,
    DEFAULT_DET_SMALL,
    DEFAULT_MARGIN,
    classify,
    compute,
    vector_critical_value,
)
from . import detection, selftest

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_USAGE = 2
EXIT_DIMENSION = 3
EXIT_BUDGET = 4
EXIT_DOMAIN = 5
EXIT_IO = 6

# fault class -> (exit code, the "error" name of the JSON object on stderr)
FAULTS = {
    ValidationError: (EXIT_USAGE, "validation"),
    DimensionMismatchError: (EXIT_DIMENSION, "dimension_mismatch"),
    BudgetExceededError: (EXIT_BUDGET, "budget_exceeded"),
    DomainError: (EXIT_DOMAIN, "domain"),
    OSError: (EXIT_IO, "io"),
}

_EPILOG = f"""exit codes; a fault prints {{"error": <name>, "detail": ...}} on stderr:
  0 success; 1 selftest failure;
  {"; ".join(f"{code} {name}" for code, name in FAULTS.values())}.
A file that cannot be read is io; malformed file content is validation.
--threads sets the worker count (default 1) without changing any result.
"""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


class Kind(NamedTuple):
    """An option's value type: `convert` turns a flag's text into a value, or
    raises ValueError; `accepts` checks it, and config values, never coerced."""

    what: str
    accepts: Callable
    convert: Callable = str


INT = Kind("an integer", _is_int, int)
COUNT = Kind("an integer >= 1", lambda v: _is_int(v) and v >= 1, int)
FLOAT = Kind("a number", lambda v: _is_int(v) or isinstance(v, float), float)
TEXT = Kind("a string", lambda v: isinstance(v, str))
METHOD = Kind(f"one of {', '.join(METHODS)}", lambda v: v in METHODS)


def _list_of(noun: str, item: Kind) -> Kind:
    return Kind(f"a comma-separated {noun} list",
                lambda value: isinstance(value, list) and all(map(item.accepts, value)),
                lambda text: [item.convert(x) for x in text.split(",")])


INTS = _list_of("integer", INT)
FLOATS = _list_of("number", FLOAT)

REQUIRED = object()  # the default of an option that has none


class Option(NamedTuple):
    kind: Kind
    default: object = None
    help: str | None = None


_DIMS = {
    "N": Option(INT, REQUIRED, "matrix rows"),
    "M": Option(INT, REQUIRED, "matrix columns"),
    "n": Option(INT, REQUIRED, "submatrix rows"),
    "m": Option(INT, REQUIRED, "submatrix columns"),
}
_OUT = {"out": Option(TEXT, None, "output JSON path (default: stdout)")}
_THREADS = {"threads": Option(COUNT, None, "worker thread cap (results do not depend on it)")}


def _scan_options(method: str, restarts: int) -> dict:
    return {
        "method": Option(METHOD, method, f"scan method, {METHOD.what}"),
        "restarts": Option(COUNT, restarts),
        "seed": Option(INT, 0),
        "budget": Option(COUNT, EXACT_ENUMERATION_BUDGET),
    }


@dataclass(frozen=True)
class RunConfig:
    verb: str
    options: dict
    threads: int | None


class _Parser(argparse.ArgumentParser):
    """argparse that raises ValidationError (exit 2, JSON) on a usage fault."""

    def error(self, message):
        raise ValidationError(message)


def _flag(key: str) -> str:
    """The command-line flag of the option named `key`."""
    return "--" + key.replace("_", "-")


def _build_parser(verb, options: dict) -> argparse.ArgumentParser:
    """The full verb list, with `options` as flags (values kept as text) only
    on `verb`'s; flags are never abbreviated."""
    parser = _Parser(
        prog="subscan",
        description="Sparse submatrix selection: instances, scan selectors, "
        "thresholds, detection, and Monte Carlo risk.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"subscan {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, (help_text, _, _) in VERBS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        if name != verb:
            continue
        p.add_argument("--config", help="JSON file of this verb's option values; flags override it")
        for key, opt in options.items():
            p.add_argument(_flag(key), dest=key, help=opt.help)
    return parser


def _read_config(path, verb: str) -> dict:
    values = read_json_object(path, "config")
    unknown = sorted(set(values) - set(VERBS[verb][2]))
    if unknown:
        raise ValidationError(f"unknown config file keys for {verb}: {', '.join(unknown)}")
    return values


def _dims(opts: dict) -> Dims:
    return Dims(*(opts[key] for key in _DIMS))


def parse_args(argv) -> RunConfig:
    """Resolve defaults <- config file <- flags, then validate; raises
    ValidationError listing every violated constraint."""
    argv = list(argv)
    verb = argv[0] if argv else None  # when argv parses, its first word is the verb
    options = {**_THREADS, **VERBS[verb][2]} if verb in VERBS else {}
    # every option takes one value, so the token after one of the verb's flags
    # is its value; argparse alone reads -1e-3 or -1,2 there as a flag
    flags = set(map(_flag, options))
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] in flags and argv[i].startswith("-") and not argv[i].startswith("--"):
            argv[i - 1:i + 1] = [argv[i - 1] + "=" + argv[i]]
    args = vars(_build_parser(verb, options).parse_args(argv))
    resolved = {key: opt.default for key, opt in options.items() if opt.default is not REQUIRED}
    if args["config"]:
        resolved.update(_read_config(args["config"], verb))
    problems = {}
    for key, opt in options.items():
        if args[key] is not None:
            try:
                resolved[key] = opt.kind.convert(args[key])
            except ValueError:  # the text stays, and no number or list kind accepts it
                resolved[key] = args[key]
        value = resolved.get(key)
        if value is None and opt.default is REQUIRED:
            problems[key] = f"{_flag(key)} is required"
        elif value is not None and not opt.kind.accepts(value):
            problems[key] = f"{_flag(key)} must be {opt.kind.what}, got {value!r}"
    if _DIMS.keys() <= options.keys() - problems.keys():
        try:
            _dims(resolved)
        except ValidationError as exc:
            problems["dims"] = str(exc)
    if verb == "vector-risk" and (resolved["a"] is None) == (resolved["mult"] is None):
        problems["a"] = "exactly one of --a / --mult is required"
    if problems:
        raise ValidationError("; ".join(problems.values()))
    threads = resolved.pop("threads")
    return RunConfig(verb=verb, options=resolved, threads=threads)


def _emit(payload: dict, out_path) -> None:
    text = json.dumps(payload, indent=2)
    if out_path:
        Path(out_path).write_text(text + "\n")
    else:
        print(text)


def _load_calibration(path) -> detection.DetectionCalibration:
    raw = read_json_object(path, "calibration")
    data = raw.get("result", raw)
    # each field has the kind of the calibrate option it echoes
    kinds = dict(VERBS["calibrate"][2], scan_crit=Option(FLOAT), linear_crit=Option(FLOAT))
    try:
        values = {f.name: data[f.name] for f in fields(detection.DetectionCalibration)}
        for key, value in values.items():
            if key in kinds and not kinds[key].kind.accepts(value):
                raise TypeError(f"{key} must be {kinds[key].kind.what}, got {value!r}")
        return detection.DetectionCalibration(**dict(values, dims=Dims(**values["dims"])))
    except (TypeError, KeyError, ValueError) as exc:
        raise ValidationError(f"malformed calibration file {path}: {exc}") from exc


def _generate(opts, threads) -> dict:
    dims = _dims(opts)
    rows = range(dims.n) if opts["rows"] is None else opts["rows"]
    cols = range(dims.m) if opts["cols"] is None else opts["cols"]
    support = make_support(dims, rows, cols)
    obs = generate(dims, support, SignalSpec(opts["a"]), opts["seed"])
    meta_path = save_matrix(obs, opts["out"], support, opts["a"], opts["seed"], opts["meta"])
    return {
        "matrix": str(opts["out"]),
        "meta": str(meta_path),
        "support": support.to_dict(),
        "a": opts["a"],
        "seed": opts["seed"],
    }


def _select(opts, threads) -> dict:
    obs, meta = load_matrix(opts["matrix"], opts["meta"])
    n = opts["n"] if opts["n"] is not None else meta["n"]
    m = opts["m"] if opts["m"] is not None else meta["m"]
    started = time.perf_counter()
    res = scan(obs, n, m, opts["method"], restarts=opts["restarts"], seed=opts["seed"],
               budget=opts["budget"])
    return dict(res.to_dict(), seconds=time.perf_counter() - started)


def _classify(opts, threads) -> dict:
    dims = _dims(opts)
    label = classify(dims, opts["a"], margin=opts["margin"],
                     det_large=opts["det_large"], det_small=opts["det_small"])
    return dict(label.to_dict(), thresholds=compute(dims, opts["a"]).to_dict())


def _calibrate(opts, threads) -> dict:
    return detection.calibrate(
        _dims(opts), opts["alpha"], opts["trials"], opts["seed"], method=opts["method"],
        restarts=opts["restarts"], budget=opts["budget"], workers=threads,
    ).to_dict()


def _detect(opts, threads) -> dict:
    obs, _ = load_matrix(opts["matrix"], opts["meta"])
    calib = _load_calibration(opts["calibration"])
    res = detection.detect(obs, calib)
    thresholds = {"linear_crit": calib.linear_crit, "scan_crit": calib.scan_crit}
    return dict(res.to_dict(), thresholds=thresholds)


def _risk(opts, threads) -> dict:
    return estimate_risk(
        _dims(opts), opts["a"], opts["trials"], opts["seed"], selector_method=opts["method"],
        restarts=opts["restarts"], budget=opts["budget"], workers=threads,
    ).to_dict()


def _sweep(opts, threads) -> dict:
    result = sweep(
        _dims(opts), opts["mult"], opts["trials"], opts["seed"],
        selector_method=opts["method"], restarts=opts["restarts"], budget=opts["budget"],
        workers=threads,
    )
    if opts["csv"]:
        Path(opts["csv"]).write_text("\n".join(result.csv_rows()) + "\n")
    return result.to_dict()


def _vector_risk(opts, threads) -> dict:
    critical = vector_critical_value(opts["N"], opts["n"])
    a = opts["a"] if opts["mult"] is None else opts["mult"] * critical
    est = vector_risk(opts["N"], opts["n"], a, opts["trials"], opts["seed"], workers=threads)
    return dict(est.to_dict(), vector_critical=critical)


def _maxgauss(opts, threads) -> dict:
    prob = max_gauss_exceedance(opts["J"], opts["t"], opts["trials"], opts["seed"], workers=threads)
    return {"probability": prob}


# verb -> (help, handler, {option name -> Option}); an option's name is its
# config key, and its flag is the name with "-" for "_"
VERBS = {
    "generate": ("write a seeded instance to CSV + metadata", _generate, {
        **_DIMS,
        "a": Option(FLOAT, REQUIRED, "elevated mean on the planted block"),
        "seed": Option(INT, 0),
        "rows": Option(INTS, None, "comma-separated planted row indices (default 0..n-1)"),
        "cols": Option(INTS, None, "comma-separated planted column indices (default 0..m-1)"),
        "meta": Option(TEXT, None, "metadata path (default <out>.meta.json)"),
        "out": Option(TEXT, "matrix.csv", "matrix CSV path"),
    }),
    "select": ("run a selector on a matrix file", _select, {
        "matrix": Option(TEXT, REQUIRED, "matrix CSV path"),
        "meta": Option(TEXT, None, "metadata path (default <matrix>.meta.json)"),
        "n": Option(INT, None, "override submatrix rows from metadata"),
        "m": Option(INT, None, "override submatrix columns from metadata"),
        **_scan_options("exact", 20),
        **_OUT,
    }),
    "classify": ("selection/detection regime of an instance", _classify, {
        **_DIMS,
        "a": Option(FLOAT, REQUIRED),
        "margin": Option(FLOAT, DEFAULT_MARGIN),
        "det_large": Option(FLOAT, DEFAULT_DET_LARGE),
        "det_small": Option(FLOAT, DEFAULT_DET_SMALL),
        **_OUT,
    }),
    "calibrate": ("estimate null critical values", _calibrate, {
        **_DIMS,
        "alpha": Option(FLOAT, 0.05),
        "trials": Option(COUNT, 2000),
        **_scan_options("heuristic", 10),
        "out": Option(TEXT, "calibration.json", "output JSON path"),
    }),
    "detect": ("test a matrix file against a calibration", _detect, {
        "matrix": Option(TEXT, REQUIRED, "matrix CSV path"),
        "meta": Option(TEXT, None, "metadata path (default <matrix>.meta.json)"),
        "calibration": Option(TEXT, REQUIRED, "calibration JSON from the calibrate verb"),
        **_OUT,
    }),
    "risk": ("Monte Carlo selection risk at one signal level", _risk, {
        **_DIMS,
        "a": Option(FLOAT, REQUIRED),
        "trials": Option(COUNT, 200),
        **_scan_options("exact", 20),
        **_OUT,
    }),
    "sweep": ("risk curve over multiples of the critical level", _sweep, {
        **_DIMS,
        "mult": Option(FLOATS, REQUIRED, "comma-separated multipliers of a_star, ascending"),
        "trials": Option(COUNT, 200),
        **_scan_options("heuristic", 20),
        **_OUT,
        "csv": Option(TEXT, None, "also write the grid as a flat CSV table"),
    }),
    "vector-risk": ("selection risk in the vector case", _vector_risk, {
        "N": Option(INT, REQUIRED, "vector length"),
        "n": Option(INT, REQUIRED, "number of elevated coordinates"),
        "a": Option(FLOAT, None, "signal level"),
        "mult": Option(FLOAT, None, "signal level as a multiple of the vector critical value"),
        "trials": Option(COUNT, 200),
        "seed": Option(INT, 0),
        **_OUT,
    }),
    "maxgauss": ("P(max of J gaussians >= t*sqrt(2 log J))", _maxgauss, {
        "J": Option(INT, REQUIRED),
        "t": Option(FLOAT, REQUIRED),
        "trials": Option(COUNT, 400),
        "seed": Option(INT, 0),
        **_OUT,
    }),
    "selftest": ("check the nine release properties at acceptance scale", None, {}),
}


def run(config: RunConfig) -> int:
    """Dispatch a resolved RunConfig; returns the process exit code."""
    if config.verb == "selftest":
        return EXIT_OK if selftest.run() else EXIT_SELFTEST
    result = VERBS[config.verb][1](config.options, config.threads)
    payload = {
        "tool": "subscan",
        "version": __version__,
        "verb": config.verb,
        "config": dict(sorted(config.options.items())),
        "result": result,
    }
    # generate's --out names the matrix file; its payload goes to stdout
    _emit(payload, None if config.verb == "generate" else config.options["out"])
    return EXIT_OK


def main(argv=None) -> int:
    try:
        return run(parse_args(argv if argv is not None else sys.argv[1:]))
    except tuple(FAULTS) as exc:
        code, name = next(row for fault, row in FAULTS.items() if isinstance(exc, fault))
        print(json.dumps({"error": name, "detail": str(exc)}), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
