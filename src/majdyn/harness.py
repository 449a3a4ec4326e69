"""Monte Carlo experiment harness with reproducible per-trial streams.

Trial i draws its randomness from ``SeedSequence(master_seed, spawn_key=(i,))``
split into graph / opinion / swing substreams, so results are identical for
any worker count and for repeated runs.  By default every trial samples a
fresh graph ("annealed"); ``quenched=True`` fixes one graph across trials.

Reports are plain dataclasses, and every experiment table (growth, census,
contraction, ``bias_sweep`` over d, ``density_sweep`` over p) is one
:class:`Table` of columns and rows.  One writer emits them, bit-stable, to a
path or an open text stream: ``write_report`` gives CSV (one row per trial,
aggregates in a sibling file) or one JSON document with a fixed key order,
and ``write_table(table, ...)`` gives CSV or a ``{"rows": [...]}`` document.
"""

from __future__ import annotations

import csv
import json
import math
import os
import statistics
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from .dynamics import run
from .graph import MAX_VERTICES, Graph, check_integer, check_real, estimate_jumbledness, sample_gnp
from .opinions import (
    OpinionModel,
    apply_swing,
    census,
    sample_fixed_discrepancy,
    sample_morning,
    sample_uniform,
)

SCHEMA_VERSION = 1

_GROWTH_DAYS = (0, 1, 2)
_ALPHA_QUANTILES = (0.1, 0.25, 0.5, 0.75, 0.9)


@dataclass(frozen=True)
class PSpec:
    """Density given as coefficient * n**exponent * log(n)**log_power."""

    coefficient: float = 1.0
    exponent: float = 0.0
    log_power: float = 0.0

    def resolve(self, n: int) -> float:
        check_integer("n for a regime density", n, 2)
        try:
            return self.coefficient * math.pow(n, self.exponent) * math.log(n) ** self.log_power
        except OverflowError:
            raise ValueError(f"p_spec {self} overflows a float at n={n}") from None

    @classmethod
    def lower(cls, coefficient: float = 1.0) -> "PSpec":
        """coefficient * n^(-3/5) * log n, the sparse end of the regime."""
        return cls(coefficient, -0.6, 1.0)

    @classmethod
    def upper(cls, coefficient: float = 1.0) -> "PSpec":
        """coefficient * n^(-1/2), the dense end of the regime."""
        return cls(coefficient, -0.5, 0.0)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment depends on; hashable and picklable."""

    n: int
    p: float | None = None
    p_spec: PSpec | None = None
    trials: int = 1
    master_seed: int = 0
    model: OpinionModel = field(default_factory=OpinionModel)
    gamma: float | None = None
    day_cap: int = 64
    quenched: bool = False
    # never echoed: results are worker-count independent, and reports must
    # be byte-identical either way
    workers: int = field(default=1, metadata={"echo": lambda cfg: False})

    def resolved_p(self) -> float:
        if (self.p is None) == (self.p_spec is None):
            raise ValueError("exactly one of p and p_spec must be set")
        value = self.p if self.p is not None else self.p_spec.resolve(self.n)
        check_real("p" if self.p is not None else "resolved density", value, 0, 1, lo_open=True)
        return value

    def validate(self) -> None:
        check_integer("n", self.n, 1, MAX_VERTICES)
        check_integer("trials", self.trials, 1)
        check_integer("day_cap", self.day_cap, 1)
        check_integer("workers", self.workers, 1)
        check_integer("master_seed", self.master_seed, 0)
        if self.gamma is not None:
            check_real("gamma", self.gamma, 0)
            if self.model.kind != "morning_evening":
                raise ValueError("census threshold gamma applies only to the morning_evening model")
        self.resolved_p()
        self.model.validate(self.n)


@dataclass(frozen=True)
class TrialRecord:
    """One trial's outcome; ``error`` is non-empty when the trial failed
    (failures are recorded, never fatal)."""

    index: int
    seed: int
    edge_count: int
    outcome: str
    sign: int
    period: int
    unanimity_day: int | None
    s0_bias: int
    final_bias: int
    days_simulated: int
    bias_by_day: tuple[int, ...]
    swing_count: int | None = None
    almost_positive: int | None = None
    unstable: int | None = None
    unstable_with_swing: int | None = None
    excess: int | None = None
    alpha_hat: float | None = None
    error: str = ""


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    trials: tuple[TrialRecord, ...]
    aggregates: dict


def _trial_seed_sequence(master_seed: int, index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(master_seed, spawn_key=(index,))


def _run_trial(cfg: ExperimentConfig, index: int, shared_graph: Graph | None = None) -> TrialRecord:
    ss = _trial_seed_sequence(cfg.master_seed, index)
    seed_id = int(ss.generate_state(1, np.uint64)[0])
    graph_ss, opinion_ss, swing_ss = ss.spawn(3)
    try:
        p = cfg.resolved_p()
        g = shared_graph if shared_graph is not None else sample_gnp(cfg.n, p, graph_ss)
        swing_fields, reference = {}, None
        if cfg.model.kind == "uniform":
            s0 = sample_uniform(cfg.n, opinion_ss)
        elif cfg.model.kind == "fixed_discrepancy":
            s0 = sample_fixed_discrepancy(cfg.n, cfg.model.d, opinion_ss)
        else:
            r0 = sample_morning(cfg.n, opinion_ss)
            s0, swing = apply_swing(r0, cfg.model.c, swing_ss)
            swing_fields["swing_count"] = int(swing.size)
            if cfg.gamma is not None:
                report = census(g, r0, swing, cfg.gamma, p)
                swing_fields.update(
                    almost_positive=report.almost_positive, unstable=report.unstable,
                    unstable_with_swing=report.unstable_with_swing, excess=report.excess,
                    alpha_hat=report.excess / (p * cfg.n ** 1.5),
                )
                # the swung run's first two days sum from the census's days
                reference = report.reference
        traj = run(g, s0, cfg.day_cap, reference=reference)
        out = traj.outcome
        return TrialRecord(
            index=index,
            seed=seed_id,
            edge_count=g.edge_count,
            outcome=out.kind,
            sign=out.sign,
            period=out.period,
            unanimity_day=out.day if out.kind == "unanimous" else None,
            s0_bias=traj.days[0].bias,
            final_bias=traj.days[-1].bias,
            days_simulated=len(traj.days) - 1,
            bias_by_day=tuple(d.bias for d in traj.days),
            **swing_fields,
        )
    except Exception as exc:  # per-trial failures are data, not crashes
        return TrialRecord(
            index=index, seed=seed_id, edge_count=0, outcome="error", sign=0, period=0,
            unanimity_day=None, s0_bias=0, final_bias=0, days_simulated=0,
            bias_by_day=(), error=f"{type(exc).__name__}: {exc}",
        )


def _quantile(sorted_vals: list[float], q: float) -> float:
    """Linear-interpolation quantile on a pre-sorted, non-empty list."""
    pos = q * (len(sorted_vals) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    frac = pos - lo
    return sorted_vals[lo] * (1.0 - frac) + sorted_vals[hi] * frac


def compute_aggregates(trials: tuple[TrialRecord, ...]) -> dict:
    """Deterministic ordered reduction of the per-trial rows; recomputable
    from a written report."""
    agg: dict = {}
    agg["trials"] = len(trials)
    agg["errors"] = sum(1 for t in trials if t.outcome == "error")
    unanimous = [t for t in trials if t.outcome == "unanimous"]
    agg["unanimous"] = len(unanimous)
    agg["unanimity_fraction"] = len(unanimous) / len(trials)
    days = sorted(t.unanimity_day for t in unanimous)
    agg["median_unanimity_day"] = float(statistics.median(days)) if days else None
    signed = [t for t in unanimous if t.s0_bias != 0]
    agg["sign_match_fraction"] = (
        sum(1 for t in signed if t.sign == (1 if t.s0_bias > 0 else -1)) / len(signed)
        if signed
        else None
    )
    for day in _GROWTH_DAYS:
        ratios = []
        skipped = 0
        for t in trials:
            if t.outcome == "error" or len(t.bias_by_day) <= day + 1:
                continue
            b0, b1 = t.bias_by_day[day], t.bias_by_day[day + 1]
            if b0 == 0:
                skipped += 1
                continue
            ratios.append(abs(b1) / abs(b0))
        agg[f"growth_ratio_day{day}_median"] = float(statistics.median(ratios)) if ratios else None
        agg[f"growth_ratio_day{day}_used"] = len(ratios)
        agg[f"growth_ratio_day{day}_skipped_zero_bias"] = skipped
    alphas = sorted(t.alpha_hat for t in trials if t.alpha_hat is not None)
    if alphas:
        for q in _ALPHA_QUANTILES:
            agg[f"alpha_hat_q{int(q * 100):02d}"] = _quantile(alphas, q)
        agg["positive_excess_fraction"] = sum(1 for a in alphas if a > 0) / len(alphas)
    return agg


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run all trials and reduce; deterministic for any ``workers`` value."""
    cfg.validate()
    shared: Graph | None = None
    if cfg.quenched:
        graph_ss = _trial_seed_sequence(cfg.master_seed, cfg.trials)
        shared = sample_gnp(cfg.n, cfg.resolved_p(), graph_ss)
    # a pool forks all its workers at the first submit: never more than trials
    workers = min(cfg.workers, cfg.trials)
    if workers == 1:
        records = [_run_trial(cfg, i, shared) for i in range(cfg.trials)]
    else:
        # the process pool costs its import only where it is used
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            # one chunk per worker: a quenched graph is pickled once per chunk
            records = list(
                pool.map(_run_trial, [cfg] * cfg.trials, range(cfg.trials), [shared] * cfg.trials,
                         chunksize=-(-cfg.trials // workers))
            )
    trials = tuple(records)
    return ExperimentReport(cfg, trials, compute_aggregates(trials))


@dataclass(frozen=True)
class Table:
    """An experiment table: dict rows keyed by exactly ``columns``, in order."""

    columns: tuple[str, ...]
    rows: tuple[dict, ...]


def growth_ratio_experiment(cfg: ExperimentConfig) -> Table:
    """Median |S_{t+1}| / |S_t| for t = 0, 1, 2 under iid uniform starts."""
    if cfg.model.kind != "uniform":
        raise ValueError("growth ratios are defined for the uniform model")
    report = run_experiment(cfg)
    sqrt_np = math.sqrt(cfg.n * cfg.resolved_p())
    rows = []
    for day in _GROWTH_DAYS:
        rows.append(
            {
                "day": day,
                "median_ratio": report.aggregates[f"growth_ratio_day{day}_median"],
                "sqrt_np": sqrt_np,
                "used": report.aggregates[f"growth_ratio_day{day}_used"],
                "skipped_zero_bias": report.aggregates[f"growth_ratio_day{day}_skipped_zero_bias"],
            }
        )
    return Table(("day", "median_ratio", "sqrt_np", "used", "skipped_zero_bias"), tuple(rows))


def census_experiment(cfg: ExperimentConfig) -> Table:
    """Distribution of the almost-positive excess under the swung balanced
    model; requires gamma, which only the morning_evening model takes.
    The table reads only the day-one census, so each trial runs one day
    whatever the config's day cap, which is still validated."""
    if cfg.gamma is None:
        raise ValueError("the census needs gamma")
    cfg.validate()
    agg = run_experiment(replace(cfg, day_cap=1)).aggregates
    keys = [f"alpha_hat_q{int(q * 100):02d}" for q in _ALPHA_QUANTILES]
    keys.append("positive_excess_fraction")
    return Table(("key", "value"), tuple({"key": key, "value": agg[key]} for key in keys))


def contraction_experiment(cfg: ExperimentConfig, bias_floor: int) -> Table:
    """Track the losing side's share once |bias| reaches ``bias_floor``.

    For each trial with a day t* where |S_{t*}| >= bias_floor and a simulated
    next day, records the minority share on day t*+1 and whether the minority
    count ever grew afterwards.
    """
    check_integer("bias_floor", bias_floor, 1)
    report = run_experiment(cfg)
    n = cfg.n
    rows = []
    for t in report.trials:
        if t.outcome == "error":
            continue
        t_star = next((d for d, b in enumerate(t.bias_by_day) if abs(b) >= bias_floor), None)
        if t_star is None or t_star + 1 >= len(t.bias_by_day):
            continue
        minority = tuple((n - abs(b)) // 2 for b in t.bias_by_day[t_star:])
        share_next = minority[1] / n
        monotone = all(b <= a for a, b in zip(minority[1:], minority[2:]))
        rows.append(
            {
                "trial": t.index,
                "t_star": t_star,
                "minority_share_next": share_next,
                "minority_by_day": minority,
                "monotone_after_jump": monotone,
            }
        )
    columns = ("trial", "t_star", "minority_share_next", "minority_by_day", "monotone_after_jump")
    return Table(columns, tuple(rows))


_SWEEP_COLUMNS = ("trials", "unanimity_fraction", "median_unanimity_day")


def _sweep_row(report: ExperimentReport) -> dict:
    return {
        "trials": report.config.trials,
        "unanimity_fraction": report.aggregates["unanimity_fraction"],
        "median_unanimity_day": report.aggregates["median_unanimity_day"],
    }


def _validated(configs: list[ExperimentConfig]) -> list[ExperimentConfig]:
    """A sweep's row configs, every one validated before any row runs."""
    for cfg in configs:
        cfg.validate()
    return configs


def bias_sweep(cfg: ExperimentConfig, d_values) -> Table:
    """Unanimity probability as a function of the initial opinion sum d.

    Every d reuses the same master seed, so graphs are shared across the
    sweep and rows differ only through the initial states.  Each row runs
    the fixed_discrepancy model at its d with no census, so a gamma, another
    model kind or a nonzero c or d is rejected, never replaced.
    """
    m = cfg.model
    for name, given in (("gamma", cfg.gamma is not None),
                        ("model.kind", m.kind != "fixed_discrepancy"),
                        ("model.c", m.c != 0), ("model.d", m.d != 0)):
        if given:
            raise ValueError(f"the d sweep would replace the config's {name}: "
                             "each row runs the fixed_discrepancy model with no census")
    rows = []
    for sub in _validated([replace(cfg, model=OpinionModel("fixed_discrepancy", d=d))
                           for d in d_values]):
        report = run_experiment(sub)
        unanimous = report.aggregates["unanimous"]
        positive = sum(1 for t in report.trials if t.outcome == "unanimous" and t.sign > 0)
        rows.append(
            {
                "d": sub.model.d,
                **_sweep_row(report),
                # a row with no unanimous trial has no winning sign to share out
                "positive_sign_fraction": positive / unanimous if unanimous else None,
            }
        )
    return Table(("d", *_SWEEP_COLUMNS, "positive_sign_fraction"), tuple(rows))


def density_sweep(cfg: ExperimentConfig, p_values) -> Table:
    """Unanimity probability as a function of the density p, with the
    config's model; every p reuses the same master seed.  Each row runs at
    its p, so a config that sets p or p_spec is rejected, never replaced."""
    for key in ("p", "p_spec"):
        if getattr(cfg, key) is not None:
            raise ValueError(f"the p sweep would replace the config's {key}: each row runs at one p")
    subs = _validated([replace(cfg, p=p) for p in p_values])
    rows = tuple({"p": sub.p, **_sweep_row(run_experiment(sub))} for sub in subs)
    return Table(("p", *_SWEEP_COLUMNS), rows)


def auto_bias_floor(cfg: ExperimentConfig) -> int:
    """Contraction floor ceil(8 * beta_hat / (p * sqrt(0.9))) from a sampled
    jumbledness witness over 100 subset pairs on one pilot graph."""
    cfg.validate()
    p = cfg.resolved_p()
    g = sample_gnp(cfg.n, p, _trial_seed_sequence(cfg.master_seed, cfg.trials + 1))
    beta_hat = estimate_jumbledness(g, p, pairs=100, seed=cfg.master_seed)
    return max(1, math.ceil(8.0 * beta_hat / (p * math.sqrt(0.9))))


# -- serialization ----------------------------------------------------------
#
# The config dataclasses are the one description of a config document: a
# field's annotation is its JSON type, and an ``echo`` predicate in its
# metadata, given the object that holds the field, says whether reports echo it.

_JSON_TYPES = {bool: "bool", int: "int", float: "number", str: "string"}


def config_to_dict(obj) -> dict:
    """The report echo of a config, or of its model or p_spec: the fields in
    declaration order, nested ones as objects, leaving out every None and
    every field whose ``echo`` predicate is false."""
    out: dict = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        echo = f.metadata.get("echo")
        if value is not None and (echo is None or echo(obj)):
            out[f.name] = config_to_dict(value) if is_dataclass(value) else value
    return out


def _typed(hint, value, path: str):
    """``value`` checked against the annotation ``hint``: an int is a JSON
    integer, a float a JSON integer or float (kept as given), neither ever a
    bool; null only where the annotation allows None; a dataclass from its
    JSON object."""
    kind, *rest = typing.get_args(hint) or (hint,)
    if value is None and type(None) in rest:
        return None
    if is_dataclass(kind):
        return _from_json(kind, value, path)
    if isinstance(value, (int, float) if kind is float else kind) and (
            kind is bool or not isinstance(value, bool)):
        return value
    got = json.dumps(value, default=repr)
    raise ValueError(f"{path} must be a JSON {_JSON_TYPES[kind]}, got {got}")


def _from_json(cls, data, path: str):
    """``cls`` built from the JSON object ``data``, each value checked
    against its field's annotation; an absent field takes its default."""
    if not isinstance(data, dict):
        raise ValueError(f"{path} must be a JSON object, got {json.dumps(data, default=repr)}")
    hints = typing.get_type_hints(cls)
    where = path.rpartition(".")[2]
    unknown = sorted(set(data) - set(hints))
    if unknown:
        raise ValueError(f"unknown {where} keys: {', '.join(unknown)}")
    for f in fields(cls):
        if f.name not in data and f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"{where} requires {f.name}")
    return cls(**{key: _typed(hints[key], value, f"{path}.{key}") for key, value in data.items()})


def config_from_dict(data: dict) -> ExperimentConfig:
    """Inverse of :func:`config_to_dict`, typed by the config dataclasses.

    Unknown keys are rejected.  An int field takes a JSON integer, a float
    field a JSON integer or float (stored as given, so ``1`` echoes as
    ``1``), a bool field only ``true`` or ``false``; a nested field takes a
    JSON object, and null is allowed only where the field may be None.  A
    mistyped value raises ``ValueError`` naming its path, such as
    ``config.model.d``.  A key that names no field, such as a top-level
    ``c`` (the swing coefficient is ``model.c``), is rejected.
    """
    return _from_json(ExperimentConfig, data, "config")


def _unique_keys(pairs) -> dict:
    """The dict of a JSON object's pairs; ValueError on a key that repeats."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"repeated key {key!r}")
        out[key] = value
    return out


def load_config(path) -> ExperimentConfig:
    """Read a JSON config file mirroring ExperimentConfig exactly."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        # keep the subclass (FileNotFoundError etc.) so callers can triage
        raise type(exc)(f"cannot read config from {path}: {exc}") from exc
    except ValueError as exc:  # malformed JSON, text that is not UTF-8, or a repeated key
        raise ValueError(f"invalid config file {path}: {exc}") from exc
    return config_from_dict(data)


_CSV_COLUMNS = tuple(f.name for f in fields(TrialRecord))
# the swing count and the census fields, all None when no swing was drawn
_SWING_COLUMNS = _CSV_COLUMNS[_CSV_COLUMNS.index("swing_count"):_CSV_COLUMNS.index("error")]


def trial_to_dict(t: TrialRecord) -> dict:
    """The trial's fields in declaration order; the swing and census keys
    only when the trial drew a swing, ``error`` only when it failed."""
    out = dict(vars(t), bias_by_day=list(t.bias_by_day))
    if t.swing_count is None:
        for key in _SWING_COLUMNS:
            del out[key]
    if not t.error:
        del out["error"]
    return out


def report_to_dict(report: ExperimentReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "config": config_to_dict(report.config),
        "trials": [trial_to_dict(t) for t in report.trials],
        "aggregates": report.aggregates,
    }


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, tuple):
        return " ".join(str(v) for v in value)
    return str(value)


def aggregates_path(path) -> Path:
    """Sibling file carrying the aggregate rows of a CSV report."""
    p = Path(path)
    return p.with_name(p.stem + ".aggregates" + (p.suffix or ".csv"))


def write_report(report: ExperimentReport, dest, fmt: str = "csv") -> list[Path]:
    """Write the report to ``dest``, a path or an open text stream.

    csv: one row per trial, and for a path the aggregates too, in a sibling
    ``*.aggregates.csv`` file.  json: one document.  Returns the paths
    written, which is ``[]`` for a stream.  Output is bit-stable for a fixed
    report, and a stream receives the same bytes as the file at a path.
    A failure leaves every file of an earlier report at a path as it was.
    """
    if fmt == "json":
        return _write(fmt, [(dest, report_to_dict(report), ())])
    parts = [(dest, map(vars, report.trials), _CSV_COLUMNS)]
    if not hasattr(dest, "write"):  # a path, so the aggregates go to its sibling file
        rows = ({"key": key, "value": value} for key, value in report.aggregates.items())
        parts.append((aggregates_path(dest), rows, ("key", "value")))
    return _write(fmt, parts)


def write_table(table: Table, dest, fmt: str = "csv") -> None:
    """Write ``table`` to ``dest``, a path or an open text stream: as CSV
    under its columns, or as the JSON document ``{"rows": [...]}``."""
    content = {"rows": list(table.rows)} if fmt == "json" else table.rows
    _write(fmt, [(dest, content, table.columns)])


def _write(fmt: str, parts) -> list[Path]:
    """Each (dest, content, columns) part: ``content`` as one JSON document,
    or its dict rows as CSV under ``columns``, to ``dest``, a path or an
    open text stream.  Each path is written to a temporary sibling, and the
    siblings replace their paths, the first path last, only once every part
    is written.  Returns the paths written, ``[]`` for streams."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown report format {fmt!r}")
    staged, path = [], None
    try:
        for dest, content, columns in parts:
            if hasattr(dest, "write"):
                _dump(dest, fmt, content, columns)
                continue
            path = Path(dest)
            tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            with open(tmp, "x", encoding="utf-8", newline="") as fh:  # "x" clobbers nothing
                staged.append((tmp, path))
                _dump(fh, fmt, content, columns)
        for tmp, path in reversed(staged):
            os.replace(tmp, path)
    except OSError as exc:
        if path is None:  # a stream's own failure, such as a closed pipe
            raise
        raise OSError(f"cannot write report to {path}: {exc}") from exc
    finally:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
    return [path for _, path in staged]


def _dump(fh, fmt: str, content, columns) -> None:
    if fmt == "json":
        # ``default`` runs only for what json cannot write: a numpy scalar, as its number
        json.dump(content, fh, indent=2, allow_nan=False, default=np.generic.item)
        fh.write("\n")
    else:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in content:
            writer.writerow(_csv_cell(row[col]) for col in columns)
