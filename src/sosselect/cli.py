"""Command line entry point.

Four subcommands bind the library to files:

* ``fit``       select a sparse linear model from a CSV dataset
* ``simulate``  run a seeded Monte Carlo experiment from a JSON config
* ``diagnose``  identifiability margins and restricted eigenvalues for a
                dataset with known truth
* ``bounds``    evaluate every closed-form error bound on a JSON input

Exit codes: 0 success, 1 domain errors (rank deficiency, enumeration
guards, bad files), 2 usage errors. Diagnostics go to stderr. Each
subcommand returns its result, and ``main`` renders it to stdout or the
``--out`` file (``simulate``'s ``--out`` is its directory of result files).
Predictor indices are 1-based in all user-facing input and output; the
library is 0-based internally.
"""

import argparse
import dataclasses
import errno
import json
import logging
import os
import stat
import sys

import numpy as np

from .bounds import BoundInput, bound_report, event_a_bound, exhaustive_lower_bound
from .design import Dataset, ModelSet, json_text, ls_fit, standardize
from .errors import SosSelectError
from .identify import DEFAULT_RESTARTS, TruthSpec, check_propositions
from .lasso import DEFAULT_MAX_ITER, DEFAULT_TOL, PenaltyPair, default_penalties
from .schemas import json_value
from .selection import exhaustive_gic, run_os, run_sos
from .simlab import _BUCKETS, ScenarioConfig, persist, run_experiment

log = logging.getLogger("sosselect")

_LEVELS = {"quiet": logging.WARNING, "normal": logging.INFO, "debug": logging.DEBUG}


def _emit(text: str, out: "str | None") -> None:
    text = text if text.endswith("\n") else text + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _check_out_dir(out: str) -> None:
    """Raise, before any work, the error opening ``out`` for writing would
    raise because its directory is missing or is not a directory; the file
    itself is left untouched."""
    parent = os.path.dirname(out) or "."
    try:
        is_dir = stat.S_ISDIR(os.stat(parent).st_mode)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, out) from None
    if not is_dir:
        raise OSError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), out)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _one_based(indices) -> list:
    return [int(j) + 1 for j in indices]


def _load_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        blob = json.load(fh)
    if not isinstance(blob, dict):
        raise ValueError(f"{path}: expected a JSON object at top level")
    return blob


# --------------------------------------------------------------------- fit

def _sigma2_arg(raw: str):
    """Either the literal 'auto' or a float; argparse maps failures to exit 2."""
    if raw == "auto":
        return "auto"
    return float(raw)


def _parse_response(raw: "str | None") -> "str | int | None":
    """1-based column number, or a header name, or None for the last column."""
    if raw is None:
        return None
    if raw.lstrip("+").isdigit():
        idx = int(raw)
        if idx < 1:
            raise ValueError("response column numbers start at 1")
        return idx - 1
    return raw


def _estimate_sigma2(design) -> float:
    """Full-model least squares estimate rss / (n_effective - p)."""
    dof = design.n_effective - design.p
    if dof <= 0:
        raise ValueError(
            "cannot estimate sigma2: p >= effective sample size; pass --sigma2"
        )
    fit = ls_fit(design, ModelSet.full(design.p), allow_degenerate=True)
    return fit.rss / dof


def _resolve_penalties(args, design) -> "tuple[PenaltyPair, float | None]":
    if args.penalty_r is not None:
        r = args.penalty_r
        r_l = args.penalty_rl if args.penalty_rl is not None else 2.0 * np.sqrt(r)
        return PenaltyPair(r=float(r), r_l=float(r_l)), None
    a = 0.5 if args.a is None else args.a
    if args.sigma2 in (None, "auto"):
        sigma2 = _estimate_sigma2(design)
        log.info("estimated sigma2 = %s from the full-model fit", _fmt(sigma2))
    else:
        sigma2 = args.sigma2  # a float; default_penalties rejects a negative one
    return default_penalties(design.p, sigma2, a), sigma2


def _intercept(dataset: Dataset, model: list, beta_hat, mode: str) -> "float | None":
    if mode != "practical":
        return None
    return float(np.mean(dataset.y) - np.mean(dataset.x[:, model], axis=0) @ beta_hat)


def _fit_payload(args, dataset, design, penalties, sigma2_est) -> dict:
    """The library result's JSON (``SelectionOutcome`` or
    ``ExhaustiveResult``) viewed with 1-based predictors."""
    payload = {
        "algorithm": args.algorithm,
        "mode": args.mode,
        "penalties": {"r": penalties.r, "r_l": penalties.r_l},
        "sigma2_estimate": sigma2_est,
        "screen": None,
        "ordering": None,
        "path": None,
        "enumeration": None,
    }
    if args.algorithm == "exhaustive":
        enumeration = exhaustive_gic(design, penalties.r).to_json_dict()
        model = enumeration.pop("model")
        payload["enumeration"] = enumeration
        beta = ls_fit(design, model, allow_degenerate=True).beta_hat.tolist()
    else:
        if args.algorithm == "sos":
            outcome = run_sos(
                design, penalties,
                tol=DEFAULT_TOL if args.tol is None else args.tol,
                max_iter=DEFAULT_MAX_ITER if args.max_iter is None else args.max_iter,
            )
        else:
            outcome = run_os(design, penalties)
        blob = outcome.to_json_dict()
        if blob["screen"] is not None:
            scr = blob["screen"]
            payload["screen"] = {**scr, "s0": _one_based(scr["s0"]), "s1": _one_based(scr["s1"])}
        payload["ordering"] = _one_based(blob["ordering"]["sequence"])
        path = blob["path"]
        payload["path"] = {
            "rss": path["rss_path"],
            "criterion": path["values"],
            "selected_size": path["selected_size"],
        }
        model, beta = blob["selected"], blob["refit"]["beta_hat"]
    payload["selected"] = _one_based(model)
    payload["coefficients"] = [{"predictor": j + 1, "beta": b} for j, b in zip(model, beta)]
    payload["intercept"] = _intercept(dataset, model, beta, args.mode)
    return payload


def _fit_table(payload: dict) -> str:
    lines = [f"algorithm: {payload['algorithm']} ({payload['mode']} parametrization)"]
    pen = payload["penalties"]
    lines.append(f"penalties: r={_fmt(pen['r'])} r_l={_fmt(pen['r_l'])}")
    if payload["sigma2_estimate"] is not None:
        lines.append(f"sigma2 (estimated): {_fmt(payload['sigma2_estimate'])}")
    if payload["screen"] is not None:
        scr = payload["screen"]
        lines.append(
            f"screen: |S0|={len(scr['s0'])} {scr['s0']}  "
            f"|S1|={len(scr['s1'])} {scr['s1']}"
        )
    if payload["ordering"] is not None:
        lines.append(f"ordering: {payload['ordering']}")
    sel = payload["selected"]
    lines.append(f"selected ({len(sel)}): {sel if sel else '(empty model)'}")
    if payload["intercept"] is not None:
        lines.append(f"intercept: {_fmt(payload['intercept'])}")
    if payload["coefficients"]:
        lines.append("coefficients:")
        lines.append("  predictor  beta")
        for row in payload["coefficients"]:
            lines.append(f"  {row['predictor']:<9d}  {_fmt(row['beta'])}")
    if payload["path"] is not None:
        lines.append("criterion path:")
        lines.append("  size  rss         criterion")
        for k, (rv, cv) in enumerate(zip(payload["path"]["rss"], payload["path"]["criterion"])):
            mark = " <- selected" if k == payload["path"]["selected_size"] else ""
            lines.append(f"  {k:<4d}  {_fmt(rv):<10s}  {_fmt(cv)}{mark}")
    if payload["enumeration"] is not None:
        e = payload["enumeration"]
        lines.append(
            f"enumeration: value={_fmt(e['value'])} rss={_fmt(e['rss'])} "
            f"evaluated={e['evaluated']} skipped={e['skipped']}"
        )
    return "\n".join(lines)


def _fit_tsv(payload: dict) -> str:
    """Coefficient table; the intercept, when present, is predictor 0."""
    lines = ["predictor\tbeta"]
    if payload["intercept"] is not None:
        lines.append(f"0\t{payload['intercept']!r}")
    for row in payload["coefficients"]:
        lines.append(f"{row['predictor']}\t{row['beta']!r}")
    return "\n".join(lines)


def _load_design(args):
    """The dataset named by the shared CSV flags and its standardized design."""
    dataset = Dataset.from_csv(
        args.data,
        has_header=not args.no_header,
        response=_parse_response(args.response),
    )
    return dataset, standardize(dataset, args.mode)


def _cmd_fit(args) -> "tuple[dict, dict]":
    dataset, design = _load_design(args)
    penalties, sigma2_est = _resolve_penalties(args, design)
    payload = _fit_payload(args, dataset, design, penalties, sigma2_est)
    return payload, {"table": _fit_table, "tsv": _fit_tsv}


# ---------------------------------------------------------------- simulate

def _cmd_simulate(args) -> "tuple[list, dict]":
    blob = _load_json(args.config)
    config = ScenarioConfig.from_json_dict(blob)
    if args.seed is not None:
        config = dataclasses.replace(config, master_seed=args.seed)
    log.info(
        "running %d replicates (n=%d p=%d t=%d, %s, jobs=%d)",
        config.replicates, config.n, config.p, config.t, config.algorithm, args.jobs,
    )
    summary = run_experiment(config, jobs=args.jobs)
    paths = persist(summary, args.out_dir)
    freq = summary.frequencies
    lines = ["event frequencies:"]
    for name in _BUCKETS:
        lines.append(f"  {name:<12s} {freq[name]:.4f}")
    lines.append(f"event A frequency: {summary.event_a_freq:.4f}")
    if summary.exhaustive_error is not None:
        lines.append(
            f"greedy error {summary.greedy_error:.4f} vs "
            f"exhaustive error {summary.exhaustive_error:.4f}"
        )
    lines.append("wrote:")
    for key in sorted(paths):
        lines.append(f"  {paths[key]}")
    return lines, {"table": "\n".join}


# ---------------------------------------------------------------- diagnose

def _truth_from_json(blob: dict, design) -> TruthSpec:
    extra = set(blob) - {"support", "beta", "sigma2"}
    if extra:
        raise ValueError(f"unknown truth fields: {sorted(extra)}")
    if "support" not in blob or "beta" not in blob:
        raise ValueError("truth file needs 'support' (1-based) and 'beta' arrays")
    for name in ("support", "beta"):
        if not isinstance(blob[name], list):
            raise ValueError(f"truth field {name!r} must be a list")
    support = [json_value("support", "integer", j) - 1 for j in blob["support"]]
    if any(j < 0 or j >= design.p for j in support):
        raise ValueError(f"support indices must lie in 1..{design.p}")
    beta = [json_value("beta", "number", v) for v in blob["beta"]]
    sigma2 = json_value("sigma2", "number", blob.get("sigma2", 1.0))
    return TruthSpec.from_beta(design, support, beta, sigma2=sigma2)


def _diagnose_table(blob: dict) -> str:
    lines = [f"true support: {blob['truth']['support']}"]
    lines.append(f"margin at true size (delta_t): {_fmt(blob['delta_identifiability'])}")
    lines.append(f"margin at full size (delta_p): {_fmt(blob['delta_full'])}")
    lines.append("scaled margins by model size:")
    for size, val in blob["delta_scaled"].items():
        lines.append(f"  s={size:<3s} {_fmt(val)}")
    for key in ("kappa_support", "kappa_uniform_t"):
        k = blob[key]
        lines.append(
            f"{key}: kappa^2={_fmt(k['value'])} "
            f"certified in [{_fmt(k['lower_cert'])}, {_fmt(k['upper_cert'])}] "
            f"(converged {k['converged_fraction']:.2f})"
        )
    lines.append("consistency flags:")
    for name, ok in blob["flags"].items():
        lines.append(f"  {name:<18s} {'skipped' if ok is None else 'ok' if ok else 'VIOLATED'}")
    return "\n".join(lines)


def _cmd_diagnose(args) -> "tuple[dict, dict]":
    """The report's JSON viewed with 1-based predictors."""
    design = _load_design(args)[1]
    truth = _truth_from_json(_load_json(args.truth), design)
    blob = check_propositions(design, truth, restarts=args.restarts).to_json_dict()
    blob["truth"]["support"] = _one_based(blob["truth"]["support"])
    for entry in blob["delta_pairwise"]:
        entry["model"] = _one_based(entry["model"])
    return blob, {"table": _diagnose_table}


# ------------------------------------------------------------------ bounds

def _bounds_table(blob: dict) -> str:
    lines = ["bound         value       assumptions"]
    for name, res in sorted(blob["bounds"].items()):
        status = "ok" if res["assumptions_ok"] else "FAIL: " + ",".join(res["failed_assumptions"])
        lines.append(f"{name:<12s}  {_fmt(res['value']):<10s}  {status}")
    lines.append(f"event A bound: {_fmt(blob['event_a_bound'])}")
    lines.append(f"exhaustive lower bound: {_fmt(blob['exhaustive_lower_bound'])}")
    return "\n".join(lines)


def _cmd_bounds(args) -> "tuple[dict, dict]":
    inp = BoundInput.from_json_dict(_load_json(args.input))
    blob = {
        **bound_report(inp),
        "event_a_bound": event_a_bound(inp.p, inp.r_l, inp.sigma2),
        "exhaustive_lower_bound": exhaustive_lower_bound(inp.r, inp.sigma2),
    }
    return blob, {"table": _bounds_table}


# ------------------------------------------------------------------ parser

def _add_csv_flags(sub) -> None:
    sub.add_argument("data", help="CSV file, one row per observation")
    sub.add_argument(
        "--no-header", action="store_true",
        help="the file has no header row (columns are then numbered 1..)",
    )
    sub.add_argument(
        "--response", default=None, metavar="NAME_OR_NUM",
        help="response column as header name or 1-based number (default: last)",
    )
    sub.add_argument(
        "--mode", choices=["practical", "formal"], default="practical",
        help="centered+standardized (practical) or raw unit-norm (formal)",
    )


def _add_output_flags(sub, *formats) -> None:
    sub.add_argument("--format", choices=list(formats), default="table")
    sub.add_argument("--out", default=None, help="write results here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sosselect",
        description="Sparse linear model selection via screening, ordering "
        "and penalized-criterion search, with identifiability diagnostics, "
        "error-bound evaluation and a seeded Monte Carlo lab.",
    )
    parser.add_argument(
        "--verbosity", choices=sorted(_LEVELS), default="normal",
        help="log level for diagnostics on stderr",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    fit = subs.add_parser("fit", help="select a model from a CSV dataset")
    _add_csv_flags(fit)
    pen = fit.add_mutually_exclusive_group(required=True)
    pen.add_argument(
        "--penalty-r", type=float, default=None, metavar="R",
        help="per-parameter criterion penalty (screen threshold defaults to 2*sqrt(R))",
    )
    pen.add_argument(
        "--auto-penalty", action="store_true",
        help="derive penalties from p, sigma2 and the tuning fraction a",
    )
    fit.add_argument(
        "--penalty-rl", type=float, default=None, metavar="RL",
        help="override the screening penalty (only with --penalty-r)",
    )
    fit.add_argument(
        "--a", type=float, default=None,
        help="tuning fraction in (0,1) for --auto-penalty (default 0.5)",
    )
    fit.add_argument(
        "--sigma2", type=_sigma2_arg, default=None, metavar="S2_OR_AUTO",
        help="noise variance for --auto-penalty; 'auto' estimates it from "
        "the full-model fit (default)",
    )
    fit.add_argument(
        "--algorithm", choices=["sos", "os", "exhaustive"], default="sos",
        help="screened greedy search, full-design greedy search, or "
        "exhaustive enumeration",
    )
    fit.add_argument("--tol", type=float, default=None, help="sos solver certificate tolerance")
    fit.add_argument("--max-iter", type=int, default=None, help="sos solver sweep budget")
    _add_output_flags(fit, "table", "json", "tsv")
    fit.set_defaults(handler=_cmd_fit)

    sim = subs.add_parser("simulate", help="run a Monte Carlo experiment")
    sim.add_argument("--config", required=True, help="scenario JSON file")
    sim.add_argument(
        "--out", dest="out_dir", metavar="OUT", required=True, help="output directory"
    )
    sim.add_argument("--jobs", type=int, default=1, help="worker processes")
    sim.add_argument(
        "--seed", type=int, default=None,
        help="override the config's master seed",
    )
    sim.set_defaults(handler=_cmd_simulate, out=None, format="table")

    dia = subs.add_parser(
        "diagnose", help="identifiability margins for a dataset with known truth"
    )
    _add_csv_flags(dia)
    dia.add_argument(
        "--truth", required=True,
        help="JSON file with 'support' (1-based), 'beta', optional 'sigma2'",
    )
    dia.add_argument(
        "--restarts", type=int, default=DEFAULT_RESTARTS,
        help="restart budget for the restricted-eigenvalue search",
    )
    _add_output_flags(dia, "table", "json")
    dia.set_defaults(handler=_cmd_diagnose)

    bnd = subs.add_parser("bounds", help="evaluate closed-form error bounds")
    bnd.add_argument("input", help="JSON file with the bound input quantities")
    _add_output_flags(bnd, "table", "json")
    bnd.set_defaults(handler=_cmd_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    logging.basicConfig(stream=sys.stderr, format="%(message)s")
    log.setLevel(_LEVELS[args.verbosity])
    if args.command == "fit":
        if args.penalty_rl is not None and args.penalty_r is None:
            print("usage error: --penalty-rl requires --penalty-r", file=sys.stderr)
            return 2
        if args.penalty_r is not None and (args.a is not None or args.sigma2 is not None):
            print(
                "usage error: --a and --sigma2 apply only with --auto-penalty",
                file=sys.stderr,
            )
            return 2
        if args.algorithm != "sos" and (args.tol is not None or args.max_iter is not None):
            print(
                "usage error: --tol and --max-iter apply only with --algorithm sos",
                file=sys.stderr,
            )
            return 2
    try:
        if args.out is not None:
            _check_out_dir(args.out)
        blob, renderers = args.handler(args)
        render = json_text if args.format == "json" else renderers[args.format]
        _emit(render(blob), args.out)
        return 0
    except SosSelectError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
