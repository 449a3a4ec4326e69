"""Command line front end.

Subcommands: run, sweep, census, growth, contraction, verify-lemmas,
gen-graph.  Data goes to stdout (or -o FILE) in CSV by default, JSON behind
--format json; progress and summaries go to stderr.  Exit codes:

- 0 success, also when the reader of stdout closes it early (``| head``):
  the output simply ends there, with nothing on stderr (progress lines to a
  stderr whose reader has gone are dropped the same way);
- 1 validation error (single-line diagnostic on stderr);
- 2 runtime failure, which for ``run`` includes every trial recording an
  error (the report is still written).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace

from . import harness, probkit
from .graph import check_integer, sample_gnp, save_graph
from .opinions import OpinionModel

_MODEL_NAMES = {"uniform": "uniform", "fixed": "fixed_discrepancy", "morning": "morning_evening"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want exit 1
        raise _UsageError(message)


def _to_devnull(stream) -> None:
    """Point ``stream``'s descriptor at devnull once its reader has gone, so
    that later writes, and the interpreter's final flush, fail silently."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _log(args, msg: str) -> None:
    if not args.quiet:
        try:
            print(msg, file=sys.stderr)
        except BrokenPipeError:  # progress only: the command's output goes on
            _to_devnull(sys.stderr)


def _build_parser() -> _Parser:
    parser = _Parser(prog="majdyn", description="Majority dynamics experiments on G(n, p).")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def add_common(p):
        p.add_argument("--config", help="JSON config file; explicit flags override it")
        p.add_argument("--n", type=int, help="vertex count")
        p.add_argument("--p", type=float, help="edge density")
        p.add_argument("--p-regime", choices=("lower", "upper"),
                       help="density formula instead of --p: lower = n^(-3/5) log n, upper = n^(-1/2)")
        p.add_argument("--p-coefficient", type=float, default=None,
                       help="coefficient for --p-regime (default 1)")
        p.add_argument("--trials", type=int, help="number of Monte Carlo trials")
        p.add_argument("--seed", type=int, dest="master_seed", metavar="SEED", help="master seed")
        p.add_argument("--day-cap", type=int, help="maximum simulated days")
        p.add_argument("--quenched", action="store_true", default=None,
                       help="fix one graph across all trials")
        p.add_argument("--workers", type=int, help="parallel worker processes")
        p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
        p.add_argument("-o", "--output", help="output file (default: stdout)")
        p.add_argument("-q", "--quiet", action="store_true",
                       help="suppress progress logs on stderr")
        p.add_argument("--model", choices=tuple(_MODEL_NAMES), help="initial opinion model")
        p.add_argument("--d", type=int, help="opinion sum for the fixed model")
        p.add_argument("--c", type=float,
                       help="swing coefficient for the morning model (sets model.c)")
        p.add_argument("--gamma", type=float, help="census threshold coefficient")

    p_run = sub.add_parser(
        "run", help="run one experiment and report per-trial rows",
        description="Run one experiment and report per-trial rows.  Failed trials are "
                    "rows with outcome 'error'; when every trial failed the report is "
                    "still written and the exit code is 2.")
    add_common(p_run)

    p_sweep = sub.add_parser("sweep", help="sweep a d or p grid")
    add_common(p_sweep)
    p_sweep.add_argument("--d-values", help="comma-separated opinion sums to sweep")
    p_sweep.add_argument("--p-values", help="comma-separated densities to sweep")

    p_census = sub.add_parser(
        "census", help="almost-positive excess distribution",
        description="Distribution of the day-one almost-positive excess under the swung "
                    "balanced model.  The table reads only the census, so each trial runs "
                    "one day whatever --day-cap says.")
    add_common(p_census)

    p_growth = sub.add_parser("growth", help="one-day bias amplification vs sqrt(n p)")
    add_common(p_growth)

    p_contr = sub.add_parser("contraction", help="minority decay after the bias clears a floor")
    add_common(p_contr)
    p_contr.add_argument("--bias-floor", default="auto",
                         help="integer floor, or 'auto' to derive one from a sampled jumbledness witness")

    p_verify = sub.add_parser("verify-lemmas", help="exact probability toolkit checks")
    p_verify.add_argument("--max-trials", type=int, default=200,
                          help="randomized configurations per check")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--format", choices=("csv", "json"), default="csv")
    p_verify.add_argument("-o", "--output")
    p_verify.add_argument("-q", "--quiet", action="store_true")

    p_gen = sub.add_parser("gen-graph", help="sample one graph and write the binary dump")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--p", type=float, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.add_argument("-q", "--quiet", action="store_true")

    return parser


def _config_from_args(args, model_kind: str | None = None) -> harness.ExperimentConfig:
    """The config the user wrote: the config file, then the flags over it.

    Nothing is validated or replaced here; each harness entry point checks
    the configs it runs and rejects a setting its command would replace.
    ``model_kind`` is the command's default kind: a model still of the
    default kind ``uniform`` that no ``--model`` flag named takes it,
    keeping its parameters.  An explicit ``"kind": "uniform"`` in a config
    file reads as that default too, the one case not told apart."""
    if args.config:
        cfg = harness.load_config(args.config)
    else:
        if args.n is None:
            raise ValueError("--n is required (or provide --config)")
        cfg = harness.ExperimentConfig(n=args.n, p=args.p)
    if args.p is not None and args.p_regime is not None:
        raise ValueError("--p and --p-regime are mutually exclusive")
    if args.p_coefficient is not None and args.p_regime is None:
        raise ValueError("--p-coefficient needs --p-regime")

    def given(obj, *special):
        """The flags given that are named after a field of ``obj``, by field."""
        return {f.name: getattr(args, f.name) for f in fields(obj)
                if f.name not in special and getattr(args, f.name, None) is not None}

    overrides = given(cfg, "p", "model")
    if args.p is not None:
        overrides.update(p=args.p, p_spec=None)
    if args.p_regime is not None:
        coeff = 1.0 if args.p_coefficient is None else args.p_coefficient
        maker = harness.PSpec.lower if args.p_regime == "lower" else harness.PSpec.upper
        overrides.update(p=None, p_spec=maker(coeff))
    # --model, or else --d, starts a fresh model of its kind; else a model of
    # the default kind takes the command's
    model = cfg.model
    if args.model is not None:
        model = OpinionModel(_MODEL_NAMES[args.model])
    elif args.d is not None:
        model = OpinionModel("fixed_discrepancy")
    elif model_kind is not None and model.kind == "uniform":
        model = replace(model, kind=model_kind)
    return replace(cfg, model=replace(model, **given(model)), **overrides)


def _cmd_run(args) -> int:
    cfg = _config_from_args(args)
    report = harness.run_experiment(cfg)
    errors = report.aggregates["errors"]
    _log(args, f"ran {cfg.trials} trials at n={cfg.n} p={cfg.resolved_p():.6g}; "
               f"unanimity fraction {report.aggregates['unanimity_fraction']:.3f}; errors {errors}")
    for written in harness.write_report(report, args.output or sys.stdout, args.format):
        _log(args, f"wrote {written}")
    if errors == cfg.trials:
        _log(args, f"every trial failed; first error: {report.trials[0].error}")
        return 2
    return 0


def _number(flag: str, text: str, kind: type):
    """``kind(text)``, or a ValueError that names ``flag``."""
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"{flag}: {text.strip()!r} is not {what}") from None


def _cmd_sweep(args) -> int:
    if bool(args.d_values) == bool(args.p_values):
        raise ValueError("provide exactly one of --d-values and --p-values")
    flag, text, kind = (("--d-values", args.d_values, int) if args.d_values
                        else ("--p-values", args.p_values, float))
    grid = [_number(flag, v, kind) for v in text.split(",") if v.strip()]
    if not grid:
        raise ValueError(f"{flag} is empty")
    if args.d_values:
        table = harness.bias_sweep(_config_from_args(args, model_kind="fixed_discrepancy"), grid)
    else:
        table = harness.density_sweep(_config_from_args(args), grid)
    harness.write_table(table, args.output or sys.stdout, args.format)
    return 0


def _cmd_census(args) -> int:
    table = harness.census_experiment(_config_from_args(args, model_kind="morning_evening"))
    harness.write_table(table, args.output or sys.stdout, args.format)
    return 0


def _cmd_growth(args) -> int:
    table = harness.growth_ratio_experiment(_config_from_args(args))
    harness.write_table(table, args.output or sys.stdout, args.format)
    return 0


def _cmd_contraction(args) -> int:
    cfg = _config_from_args(args)
    if args.bias_floor == "auto":
        floor = harness.auto_bias_floor(cfg)
        _log(args, f"auto bias floor: {floor}")
    else:
        floor = _number("--bias-floor", args.bias_floor, int)
    table = harness.contraction_experiment(cfg, floor)
    harness.write_table(table, args.output or sys.stdout, args.format)
    small = sum(1 for row in table.rows if row["minority_share_next"] <= 0.45)
    _log(args, f"qualifying trials: {len(table.rows)}; minority share <= 0.45 next day: "
               f"{small / len(table.rows) if table.rows else None}")
    return 0


def _cmd_verify_lemmas(args) -> int:
    check_integer("--seed", args.seed, 0)
    results = probkit.run_lemma_sweeps(max_cases=args.max_trials, seed=args.seed)
    rows = tuple(
        {"check": r.name, "cases": r.cases, "worst": r.worst, "bound": r.bound,
         "result": "PASS" if r.passed else "FAIL"}
        for r in results
    )
    harness.write_table(harness.Table(("check", "cases", "worst", "bound", "result"), rows),
                        args.output or sys.stdout, args.format)
    failed = [r.name for r in results if not r.passed]
    if failed:
        _log(args, f"FAILED checks: {', '.join(failed)}")
        return 2
    _log(args, f"all {len(results)} checks passed")
    return 0


def _cmd_gen_graph(args) -> int:
    check_integer("--seed", args.seed, 0)
    g = sample_gnp(args.n, args.p, args.seed)
    save_graph(g, args.output)
    _log(args, f"wrote {args.output}: n={g.n} edges={g.edge_count}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "census": _cmd_census,
    "growth": _cmd_growth,
    "contraction": _cmd_contraction,
    "verify-lemmas": _cmd_verify_lemmas,
    "gen-graph": _cmd_gen_graph,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        try:
            code = _COMMANDS[args.command](args)
            sys.stdout.flush()  # so a closed pipe raises here, not at exit
        except BrokenPipeError:  # stdout's reader has gone: the output ends
            _to_devnull(sys.stdout)
            return 0
        return code
    except _UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"majdyn: error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, FileNotFoundError) as exc:
        print(f"majdyn: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"majdyn: failure: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 2
        print(f"majdyn: failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
