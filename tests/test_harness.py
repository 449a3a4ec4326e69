"""Experiment harness tests: configs, determinism, aggregates, reports.

Monte Carlo expectations are checked against exact binomial probabilities
computed from the toolkit, and aggregate rows are recomputed from the raw
trial rows.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import typing
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import CountingAdjacency
from majdyn import (
    BinomSpec,
    ExperimentConfig,
    Graph,
    OpinionModel,
    PSpec,
    bias_sweep,
    binom_diff_pmf,
    census_experiment,
    compute_aggregates,
    config_from_dict,
    config_to_dict,
    contraction_experiment,
    density_sweep,
    growth_ratio_experiment,
    load_config,
    run,
    run_experiment,
    sample_gnp,
    write_report,
)
from majdyn import harness
from majdyn.harness import aggregates_path, report_to_dict


def small_cfg(**kw):
    base = dict(n=120, p=0.05, trials=8, master_seed=7)
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_resolved_p_explicit(self):
        assert small_cfg().resolved_p() == 0.05

    def test_resolved_p_regime(self):
        cfg = ExperimentConfig(n=10**4, p_spec=PSpec.lower())
        expected = (10**4) ** -0.6 * math.log(10**4)
        assert cfg.resolved_p() == pytest.approx(expected, rel=1e-12)
        cfg = ExperimentConfig(n=400, p_spec=PSpec.upper(0.5))
        assert cfg.resolved_p() == pytest.approx(0.5 / 20.0, rel=1e-12)

    def test_rejects_both_or_neither_density(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n=10, p=0.1, p_spec=PSpec.upper()).resolved_p()
        with pytest.raises(ValueError):
            ExperimentConfig(n=10).resolved_p()

    def test_rejects_out_of_range_density(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n=10, p=1.5).validate()
        with pytest.raises(ValueError):
            ExperimentConfig(n=10**6, p_spec=PSpec(5.0, 0.0)).validate()

    @pytest.mark.parametrize("spec", [PSpec(1.0, 400.0, 0.0), PSpec(1.0, 0.0, 1e308)],
                             ids=["exponent", "log_power"])
    def test_overflowing_density_formula_names_p_spec(self, spec):
        cfg = ExperimentConfig(n=100, p_spec=spec)
        with pytest.raises(ValueError, match="^p_spec .* overflows a float at n=100$"):
            cfg.validate()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spec", [PSpec(1.0, 400.0, 0.0), PSpec(1.0, 0.0, 1e308)],
                             ids=["exponent", "log_power"])
    def test_overflowing_density_formula_names_p_spec_at_a_numpy_n(self, spec):
        # numpy's power would give inf with a RuntimeWarning, not raise
        cfg = ExperimentConfig(n=np.int64(100), p_spec=spec)
        with pytest.raises(ValueError, match="^p_spec .* overflows a float at n=100$"):
            cfg.validate()

    @pytest.mark.parametrize("n", [0, 1])
    def test_regime_density_needs_two_vertices(self, n):
        # log(1) = 0 and log(0) is undefined, so the formula has no density there
        with pytest.raises(ValueError, match=f"^n for a regime density must be at least 2, got {n}$"):
            PSpec.lower().resolve(n)

    def test_n_is_held_to_int32_vertex_ids(self):
        # validation allocates nothing, so the limit itself can be tried
        ExperimentConfig(n=2**31, p=1e-12).validate()
        ExperimentConfig(n=np.int64(2**31), p=1e-12).validate()
        with pytest.raises(ValueError, match=r"^n must lie in 1\.\.2147483648, got 2147483649$"):
            ExperimentConfig(n=2**31 + 1, p=1e-12).validate()

    @pytest.mark.parametrize("n", [100.0, True], ids=["float", "bool"])
    def test_n_must_be_an_integer(self, n):
        # else every trial would fail on n and become an error row
        with pytest.raises(ValueError, match="^n must be an integer, got "):
            ExperimentConfig(n=n, p=0.1, trials=2).validate()

    def test_validate_catches_bad_fields(self):
        with pytest.raises(ValueError):
            small_cfg(trials=0).validate()
        with pytest.raises(ValueError):
            small_cfg(day_cap=0).validate()
        with pytest.raises(ValueError, match="workers must be at least 1"):
            small_cfg(workers=0).validate()
        with pytest.raises(ValueError):
            small_cfg(gamma=-0.1).validate()
        with pytest.raises(ValueError):
            small_cfg(model=OpinionModel("uniform", c=1.0)).validate()
        with pytest.raises(ValueError):
            small_cfg(model=OpinionModel("fixed_discrepancy", d=3)).validate()

    @pytest.mark.parametrize("field, value", [
        ("gamma", math.nan), ("gamma", math.inf), ("c", math.nan), ("c", math.inf), ("c", -math.inf),
    ])
    def test_validate_rejects_non_finite_coefficients(self, field, value):
        doc = config_to_dict(small_cfg(model=OpinionModel("morning_evening", c=1.0), gamma=0.1))
        (doc["model"] if field == "c" else doc)[field] = value
        cfg = config_from_dict(json.loads(json.dumps(doc)))
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            cfg.validate()
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            run_experiment(cfg)

    @pytest.mark.parametrize("model", [OpinionModel(), OpinionModel("fixed_discrepancy", d=0)])
    def test_gamma_needs_the_census_model(self, model):
        with pytest.raises(ValueError, match="gamma applies only to the morning_evening model"):
            small_cfg(model=model, gamma=0.1).validate()
        with pytest.raises(ValueError, match="gamma"):
            config_from_dict(config_to_dict(small_cfg(model=model, gamma=0.1))).validate()
        with pytest.raises(ValueError, match="gamma"):
            run_experiment(small_cfg(model=model, gamma=0.1))
        small_cfg(model=model).validate()
        small_cfg(model=OpinionModel("morning_evening", c=1.0), gamma=0.1).validate()

    def test_round_trip_through_dict(self):
        cfg = small_cfg(
            model=OpinionModel("morning_evening", c=1.0), gamma=0.1, day_cap=16,
        )
        assert config_from_dict(config_to_dict(cfg)) == cfg
        cfg2 = ExperimentConfig(n=50, p_spec=PSpec.lower(2.0), trials=3)
        assert config_from_dict(config_to_dict(cfg2)) == cfg2
        # a JSON integer in a float field is kept, and echoed, as given
        doc = {"n": 50, "p": 1, "trials": 3, "master_seed": 0,
               "model": {"kind": "morning_evening", "c": 1}, "day_cap": 64, "quenched": False}
        assert json.dumps(config_to_dict(config_from_dict(doc))) == json.dumps(doc)

    @pytest.mark.parametrize("doc, message", [
        ({"c": 1.0, "model": {"kind": "morning_evening"}}, "unknown config keys: c"),
        ({"c": None}, "unknown config keys: c"),
        ({"model": {"kind": "uniform", "seed": 11}}, "unknown model keys: seed"),
        ({"model": {"kind": "uniform", "seed": None}}, "unknown model keys: seed"),
    ], ids=["top-level-c", "top-level-c-null", "model-seed", "model-seed-null"])
    def test_keys_without_a_field_are_unknown(self, doc, message):
        # the swing coefficient is model.c only, and a model carries no seed
        with pytest.raises(ValueError) as info:
            config_from_dict(dict({"n": 120, "p": 0.05}, **doc))
        assert str(info.value) == message

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            config_from_dict({"n": 10, "p": 0.1, "pea": 2})
        with pytest.raises(ValueError, match="unknown model keys"):
            config_from_dict({"n": 10, "p": 0.1, "model": {"kind": "uniform", "bias": 1}})

    @pytest.mark.parametrize("doc, message", [
        ({"n": 60.7}, "config.n must be a JSON int, got 60.7"),
        ({"n": 100.0}, "config.n must be a JSON int, got 100.0"),
        ({"trials": 2.9}, "config.trials must be a JSON int, got 2.9"),
        ({"trials": True}, "config.trials must be a JSON int, got true"),
        ({"trials": None}, "config.trials must be a JSON int, got null"),
        ({"quenched": "false"}, 'config.quenched must be a JSON bool, got "false"'),
        ({"quenched": 0}, "config.quenched must be a JSON bool, got 0"),
        ({"model": {"kind": 1}}, "config.model.kind must be a JSON string, got 1"),
        ({"p": "0.1"}, 'config.p must be a JSON number, got "0.1"'),
        ({"gamma": "0.1"}, 'config.gamma must be a JSON number, got "0.1"'),
        ({"model": {"kind": "fixed_discrepancy", "d": 2.0}},
         "config.model.d must be a JSON int, got 2.0"),
        ({"model": {"kind": "morning_evening", "c": False}},
         "config.model.c must be a JSON number, got false"),
        ({"model": "uniform"}, 'config.model must be a JSON object, got "uniform"'),
        ({"model": None}, "config.model must be a JSON object, got null"),
        ({"p": None, "p_spec": 1.0}, "config.p_spec must be a JSON object, got 1.0"),
        ({"p": None, "p_spec": {"coefficient": "1"}},
         'config.p_spec.coefficient must be a JSON number, got "1"'),
    ])
    def test_mistyped_value_is_rejected_by_path(self, doc, message):
        base = {"n": 60, "p": 0.1, "trials": 2, "master_seed": 1}
        with pytest.raises(ValueError) as info:
            config_from_dict(json.loads(json.dumps(dict(base, **doc))))
        assert str(info.value) == message

    def test_null_on_optional_fields(self):
        cfg = config_from_dict({"n": 60, "p": None, "p_spec": {"coefficient": 1}, "gamma": None,
                                "model": {"kind": "uniform"}})
        assert cfg == ExperimentConfig(n=60, p_spec=PSpec(1))
        with pytest.raises(ValueError, match="config requires n"):
            config_from_dict({"p": 0.1})

    @pytest.mark.parametrize("cfg, name", [
        (small_cfg(master_seed=-1), "master_seed"),
    ])
    def test_negative_seed_names_its_field(self, cfg, name):
        with pytest.raises(ValueError, match=f"^{name} must be at least 0, got -"):
            cfg.validate()

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 60, "p": 0.1, "trials": 2, "master_seed": 5}))
        cfg = load_config(path)
        assert cfg.n == 60 and cfg.trials == 2
        path.write_text("{not json")
        with pytest.raises(ValueError, match="cfg.json"):
            load_config(path)

    @pytest.mark.parametrize("text, key", [
        ('{"n": 60, "p": 0.1, "trials": 3, "trials": 1}', "trials"),
        ('{"n": 60, "p": 0.1, "model": {"kind": "fixed_discrepancy", "d": 2, "d": 4}}', "d"),
        ('{"n": 60, "p": null, "p_spec": {"exponent": -0.5, "exponent": -0.6}}', "exponent"),
    ], ids=["top-level", "model", "p_spec"])
    def test_a_repeated_key_is_refused_at_any_depth(self, tmp_path, text, key):
        # json keeps the last value, which would change the experiment unseen
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^invalid config file .*cfg.json: repeated key '{key}'$"):
            load_config(path)


class TestRunExperiment:
    def test_deterministic_repeat(self):
        a = run_experiment(small_cfg())
        b = run_experiment(small_cfg())
        assert a == b

    def test_worker_count_invariance(self):
        seq = run_experiment(small_cfg(trials=6))
        par = run_experiment(small_cfg(trials=6, workers=2))
        assert seq.trials == par.trials
        assert seq.aggregates == par.aggregates

    def test_quenched_pool_pickles_the_graph_once_per_worker(self, monkeypatch):
        calls = []
        real = Graph.__getstate__

        def getstate(graph):
            calls.append(None)
            return real(graph)

        monkeypatch.setattr(Graph, "__getstate__", getstate)
        cfg = small_cfg(trials=8, workers=2, quenched=True)
        par = run_experiment(cfg)
        assert 1 <= len(calls) <= cfg.workers
        seq = run_experiment(replace(cfg, workers=1))
        assert (par.trials, par.aggregates) == (seq.trials, seq.aggregates)

    @pytest.mark.parametrize("trials, workers, pool", [
        (1, 4, []),  # no pool at all
        (2, 500, [2, 1]),
        (3, 3, [3, 1]),
        (5, 2, [2, 3]),
    ])
    def test_pool_never_outnumbers_trials(self, monkeypatch, trials, workers, pool):
        # a fork pool starts all max_workers at the first submit; this one
        # records max_workers and chunksize and maps in-process, so no
        # process starts
        import concurrent.futures

        seen = []

        class InProcessPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                seen.append(chunksize)
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        cfg = small_cfg(trials=trials, workers=workers)
        par = run_experiment(cfg)
        assert seen == pool
        seq = run_experiment(replace(cfg, workers=1))
        assert (par.trials, par.aggregates) == (seq.trials, seq.aggregates)

    def test_trials_differ_across_indices(self):
        report = run_experiment(small_cfg(trials=6))
        assert len({t.seed for t in report.trials}) == 6
        assert len({t.edge_count for t in report.trials}) > 1

    def test_quenched_shares_one_graph(self):
        report = run_experiment(small_cfg(trials=6, quenched=True))
        assert len({t.edge_count for t in report.trials}) == 1

    def test_aggregates_recomputable(self):
        cfg = small_cfg(trials=10)
        report = run_experiment(cfg)
        assert compute_aggregates(report.trials) == report.aggregates

    def test_aggregate_fraction_definition(self):
        report = run_experiment(small_cfg(trials=10))
        unanimous = sum(1 for t in report.trials if t.outcome == "unanimous")
        assert report.aggregates["unanimity_fraction"] == unanimous / 10

    def test_complete_graph_resolves_in_two_days(self):
        # on a complete graph any nonzero start is unanimous by day 2
        cfg = ExperimentConfig(n=51, p=1.0, trials=20, master_seed=3)
        report = run_experiment(cfg)
        for t in report.trials:
            assert t.outcome == "unanimous"
            assert t.unanimity_day <= 2
            expected = 1 if t.s0_bias > 0 else -1
            assert t.sign == expected

    def test_quenched_census_bytes_across_worker_counts(self, tmp_path):
        # the swing census on one shared graph at desk scale, where the run
        # takes its first two days from the census's sums
        cfg = ExperimentConfig(
            n=10**4, p=2e-3, trials=6, master_seed=11, quenched=True,
            model=OpinionModel("morning_evening", c=1.0), gamma=0.1,
        )
        blobs = []
        for workers in (1, 2):
            report = run_experiment(replace(cfg, workers=workers))
            assert all(t.outcome != "error" for t in report.trials)
            jp, cp = tmp_path / f"w{workers}.json", tmp_path / f"w{workers}.csv"
            write_report(report, jp, "json")
            files = write_report(report, cp, "csv")
            blobs.append(jp.read_bytes() + b"".join(Path(f).read_bytes() for f in files))
        assert blobs[0] == blobs[1]

    def test_census_trial_makes_two_products_and_none_on_days_one_and_two(self, monkeypatch):
        cfg = ExperimentConfig(
            n=10**4, p=2e-3, trials=1, master_seed=5, day_cap=2,
            model=OpinionModel("morning_evening", c=1.0), gamma=0.1,
        )
        g = sample_gnp(cfg.n, cfg.p, 21)
        expected = harness._run_trial(cfg, 0, shared_graph=g)
        counter = CountingAdjacency(g._adjacency)
        g.__dict__["_adjacency"] = counter
        products = {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                before = counter.products
                out = fn(*args, **kwargs)
                products[name] = counter.products - before
                return out
            return wrapper

        monkeypatch.setattr(harness, "census", counted("census", harness.census))
        monkeypatch.setattr(harness, "run", counted("run", harness.run))
        record = harness._run_trial(cfg, 0, shared_graph=g)
        assert record == expected and record.days_simulated == 2
        assert products == {"census": 2, "run": 0}

    def test_census_fields_present_for_morning_model(self):
        cfg = small_cfg(
            model=OpinionModel("morning_evening", c=1.0), gamma=0.1, trials=4
        )
        report = run_experiment(cfg)
        for t in report.trials:
            assert t.swing_count == round(math.sqrt(cfg.n))
            assert t.almost_positive is not None
            assert t.excess == t.almost_positive - (cfg.n + 1) // 2
            assert t.alpha_hat == pytest.approx(t.excess / (0.05 * cfg.n**1.5))
        assert "alpha_hat_q50" in report.aggregates
        assert "positive_excess_fraction" in report.aggregates

    def test_unanimity_absorbing_in_bias_rows(self):
        report = run_experiment(small_cfg(trials=10, p=0.08))
        for t in report.trials:
            if t.outcome == "unanimous":
                for b in t.bias_by_day[t.unanimity_day:]:
                    assert abs(b) == small_cfg().n

    def test_monte_carlo_matches_exact_binomial(self):
        # fraction of trials with |S0| >= 20 vs the exact iid-signs law
        n, trials = 200, 400
        cfg = ExperimentConfig(n=n, p=0.01, trials=trials, master_seed=11, day_cap=4)
        report = run_experiment(cfg)
        hits = sum(1 for t in report.trials if abs(t.s0_bias) >= 20) / trials
        diff = binom_diff_pmf(BinomSpec(n, 0.5), BinomSpec(0, 0.5))
        # |2B - n| >= 20 means B >= 110 or B <= 90
        q = diff.p_ge(110) + (1.0 - diff.p_ge(91))
        assert abs(hits - q) <= 4.0 * math.sqrt(q * (1.0 - q) / trials)


class TestGrowth:
    def test_requires_uniform_model(self):
        cfg = small_cfg(model=OpinionModel("morning_evening", c=1.0))
        with pytest.raises(ValueError):
            growth_ratio_experiment(cfg)

    def test_frozen_dynamics_ratio_one(self):
        # near-empty graph: isolated vertices never move, ratios stay 1
        cfg = ExperimentConfig(n=50, p=1e-9, trials=5, master_seed=2, day_cap=8)
        table = growth_ratio_experiment(cfg)
        for row in table.rows:
            if row["median_ratio"] is not None:
                assert row["median_ratio"] == 1.0

    def test_table_shape_and_skips(self):
        table = growth_ratio_experiment(small_cfg(trials=10))
        assert [row["day"] for row in table.rows] == [0, 1, 2]
        for row in table.rows:
            assert row["sqrt_np"] == pytest.approx(math.sqrt(120 * 0.05))
            assert row["used"] + row["skipped_zero_bias"] <= 10


class TestCensusExperiment:
    def test_requires_model_and_gamma(self):
        with pytest.raises(ValueError):
            census_experiment(small_cfg(gamma=0.1))
        with pytest.raises(ValueError):
            census_experiment(small_cfg(model=OpinionModel("morning_evening", c=1.0)))

    def test_quantiles_sorted_and_fraction(self):
        cfg = small_cfg(
            n=400, trials=12, model=OpinionModel("morning_evening", c=1.0), gamma=0.2
        )
        table = census_experiment(cfg)
        values = {row["key"]: row["value"] for row in table.rows}
        quantiles = [value for key, value in values.items() if key.startswith("alpha_hat_q")]
        assert len(quantiles) == 5 and quantiles == sorted(quantiles)
        assert 0.0 <= values["positive_excess_fraction"] <= 1.0

    def test_trials_run_one_day_and_give_the_full_run_table(self, monkeypatch):
        # the table reads only the day-one census, so no trial runs past day
        # one, and the values are those of trials run to the end
        cfg = small_cfg(n=400, trials=6, model=OpinionModel("morning_evening", c=1.0), gamma=0.2)
        full = run_experiment(cfg).aggregates
        caps = []

        def spy(g, s0, day_cap, **kwargs):
            caps.append(day_cap)
            return run(g, s0, day_cap, **kwargs)

        monkeypatch.setattr(harness, "run", spy)
        table = census_experiment(cfg)
        assert caps == [1] * cfg.trials
        assert [row["value"] for row in table.rows] == [full[row["key"]] for row in table.rows]
        # the day cap it does not use is still validated
        with pytest.raises(ValueError, match="day_cap must be at least 1"):
            census_experiment(replace(cfg, day_cap=0))

    def test_excess_monotone_in_gamma(self):
        base = small_cfg(n=400, trials=8, model=OpinionModel("morning_evening", c=1.0))
        low = run_experiment(replace(base, gamma=0.05))
        high = run_experiment(replace(base, gamma=0.2))
        for lo_t, hi_t in zip(low.trials, high.trials):
            assert hi_t.excess >= lo_t.excess


class TestContraction:
    def test_complete_graph_minority_collapses_immediately(self):
        cfg = ExperimentConfig(n=51, p=1.0, trials=10, master_seed=3)
        table = contraction_experiment(cfg, bias_floor=2)
        assert len(table.rows) > 0
        for row in table.rows:
            assert row["minority_share_next"] == 0.0
        small = sum(1 for r in table.rows if r["minority_share_next"] <= 0.45)
        assert small / len(table.rows) == 1.0

    def test_gnp_two_phase_decay(self):
        cfg = ExperimentConfig(n=2000, p=0.05, trials=12, master_seed=9)
        table = contraction_experiment(cfg, bias_floor=40)
        qualifying = len(table.rows)
        assert qualifying >= 10
        small = sum(1 for r in table.rows if r["minority_share_next"] <= 0.45)
        assert small / qualifying >= 0.9
        monotone = sum(1 for r in table.rows if r["monotone_after_jump"])
        assert monotone / qualifying >= 0.9

    def test_rejects_bad_floor(self):
        with pytest.raises(ValueError):
            contraction_experiment(small_cfg(), bias_floor=0)

    def test_minority_counts_are_ints_from_t_star_on(self):
        cfg = small_cfg(n=300, p=0.1, trials=5, master_seed=5)
        table = contraction_experiment(cfg, bias_floor=10)
        assert table.rows
        biases = {t.index: t.bias_by_day for t in run_experiment(cfg).trials}
        for row in table.rows:
            minority = row["minority_by_day"]
            assert type(minority) is tuple and all(type(m) is int for m in minority)
            assert minority == tuple((300 - abs(b)) // 2 for b in biases[row["trial"]][row["t_star"]:])
            assert row["minority_share_next"] == minority[1] / 300


def fixed_cfg(**kw):
    """A bias sweep's base config: the fixed_discrepancy model at d = 0."""
    return small_cfg(model=OpinionModel("fixed_discrepancy"), **kw)


class TestBiasSweep:
    def test_full_discrepancy_always_unanimous_day_zero(self):
        cfg = fixed_cfg(trials=5)
        table = bias_sweep(cfg, [120])
        row = table.rows[0]
        assert row["unanimity_fraction"] == 1.0
        assert row["median_unanimity_day"] == 0.0
        assert row["positive_sign_fraction"] == 1.0

    def test_a_row_without_unanimous_trials_has_no_sign_share(self):
        # mean degree 0.24: isolated vertices of both signs keep them, so only
        # the unanimous start ends unanimous
        table = bias_sweep(fixed_cfg(p=0.002, trials=5), [0, 120])
        assert [(row["unanimity_fraction"], row["positive_sign_fraction"]) for row in table.rows] \
            == [(0.0, None), (1.0, 1.0)]

    def test_rejects_parity_mismatch(self):
        with pytest.raises(ValueError):
            bias_sweep(fixed_cfg(), [3])

    @pytest.mark.parametrize("cfg, name", [
        (small_cfg(model=OpinionModel("morning_evening", c=1.0), gamma=0.1), "gamma"),
        (small_cfg(model=OpinionModel("morning_evening")), "model.kind"),
        (small_cfg(model=OpinionModel("uniform")), "model.kind"),
        (small_cfg(model=OpinionModel("fixed_discrepancy", c=1.0)), "model.c"),
        (small_cfg(model=OpinionModel("fixed_discrepancy", d=4)), "model.d"),
    ], ids=["gamma", "morning-kind", "uniform-kind", "c", "d"])
    def test_rejects_a_setting_it_would_replace(self, cfg, name):
        with pytest.raises(ValueError, match=f"would replace the config's {name}:"):
            bias_sweep(cfg, [0, 2])

    def test_keeps_a_fixed_model_at_d_zero(self):
        cfg = fixed_cfg(trials=3)
        table = bias_sweep(cfg, [0, 2])
        for d, row in zip([0, 2], table.rows):
            agg = run_experiment(replace(cfg, model=replace(cfg.model, d=d))).aggregates
            assert (row["d"], row["unanimity_fraction"]) == (d, agg["unanimity_fraction"])

    def test_monotone_trend_with_shared_graphs(self):
        cfg = ExperimentConfig(n=500, p=0.05, trials=30, master_seed=17,
                               model=OpinionModel("fixed_discrepancy"))
        table = bias_sweep(cfg, [0, 10, 60])
        fracs = [row["positive_sign_fraction"] for row in table.rows]
        assert fracs[0] <= fracs[1] <= fracs[2] or fracs[2] >= 0.9


class TestDensitySweep:
    @pytest.mark.parametrize("cfg", [
        small_cfg(p=None, trials=4),
        # each row runs at its p, with the config's model and gamma
        ExperimentConfig(n=101, trials=3, master_seed=5,
                         model=OpinionModel("morning_evening", c=1.0), gamma=0.1),
    ], ids=["uniform", "census"])
    def test_rows_are_one_experiment_per_density(self, cfg):
        table = density_sweep(cfg, [0.02, 0.3])
        assert len(table.rows) == 2
        for p, row in zip([0.02, 0.3], table.rows):
            agg = run_experiment(replace(cfg, p=p)).aggregates
            assert row == {
                "p": p,
                "trials": cfg.trials,
                "unanimity_fraction": agg["unanimity_fraction"],
                "median_unanimity_day": agg["median_unanimity_day"],
            }

    def test_rejects_a_density_formula_it_would_replace(self):
        cfg = ExperimentConfig(n=200, p_spec=PSpec.upper(), trials=2)
        with pytest.raises(ValueError, match="would replace the config's p_spec"):
            density_sweep(cfg, [0.1, 0.2])

    def test_rejects_a_density_it_would_replace(self):
        with pytest.raises(ValueError, match="would replace the config's p:"):
            density_sweep(ExperimentConfig(n=200, p=0.05, trials=2), [0.1, 0.2])


@pytest.mark.parametrize("sweep, base, grid, message", [
    (bias_sweep, fixed_cfg(trials=2), [0, 2, 3], "opinion sum d=3 has the wrong parity for n=120"),
    (bias_sweep, fixed_cfg(trials=2), [0, 2, 122], "opinion sum d must lie in -120..120, got 122"),
    (density_sweep, small_cfg(p=None, trials=2), [0.05, 0.2, 2.0], r"p must lie in \(0, 1\], got 2\.0"),
], ids=["d-parity", "d-magnitude", "p-range"])
def test_sweeps_check_every_row_before_the_first_runs(monkeypatch, sweep, base, grid, message):
    runs = []

    def counted(cfg, run_experiment=harness.run_experiment):
        runs.append(cfg)
        return run_experiment(cfg)

    monkeypatch.setattr(harness, "run_experiment", counted)
    sweep(base, grid[:-1])
    assert len(runs) == len(grid) - 1
    runs.clear()
    with pytest.raises(ValueError, match=message):
        sweep(base, grid)
    assert runs == []


def _other_value(value, hint):
    """A value of the annotation ``hint`` that differs from ``value``."""
    kind = next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))
    if value is None or dataclasses.is_dataclass(kind):
        return kind()
    if kind is bool:
        return not value
    if kind is str:
        return value + "x"
    return value + (1 if kind is int else 0.5)


def _field_cases():
    for cls, owner in ((ExperimentConfig, None), (OpinionModel, "model"), (PSpec, "p_spec")):
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            yield pytest.param(owner, f.name, hints[f.name], id=f"{cls.__name__}.{f.name}")


class TestEveryFieldHasAReader:
    """Each config field, changed alone from a census config, either changes
    the trial rows or is rejected by ``validate()``; only ``workers`` may
    change neither, and it leaves the report's bytes as they were.  The
    cases come from the dataclass fields, so a new field is covered as it
    is added."""

    BASE = ExperimentConfig(n=200, p=0.05, trials=4, master_seed=7, day_cap=2,
                            model=OpinionModel("morning_evening", c=1.0), gamma=0.1)
    # the PSpec fields change against a density formula
    P_SPEC_BASE = replace(BASE, p=None, p_spec=PSpec.upper())

    @staticmethod
    def _changed(base, owner, name, hint):
        holder = base if owner is None else getattr(base, owner)
        changed = replace(holder, **{name: _other_value(getattr(holder, name), hint)})
        return changed if owner is None else replace(base, **{owner: changed})

    @staticmethod
    def _report_bytes(cfg):
        report = run_experiment(cfg)
        streams = {fmt: io.StringIO() for fmt in ("csv", "json")}
        for fmt, stream in streams.items():
            write_report(report, stream, fmt)
        return streams["csv"].getvalue() + streams["json"].getvalue()

    @pytest.mark.parametrize("owner, name, hint", _field_cases())
    def test_changing_the_field_alone_is_read(self, owner, name, hint):
        base = self.P_SPEC_BASE if owner == "p_spec" else self.BASE
        changed = self._changed(base, owner, name, hint)
        assert changed != base
        if name == "workers":
            assert self._report_bytes(changed) == self._report_bytes(base)
            return
        try:
            changed.validate()
        except ValueError:
            return
        assert run_experiment(changed).trials != run_experiment(base).trials


@pytest.mark.parametrize("make_table", [
    lambda: growth_ratio_experiment(small_cfg()),
    lambda: census_experiment(small_cfg(model=OpinionModel("morning_evening", c=1.0), gamma=0.1)),
    lambda: contraction_experiment(small_cfg(p=0.2), bias_floor=4),
    lambda: bias_sweep(fixed_cfg(trials=3), [0, 20]),
    lambda: density_sweep(small_cfg(p=None, trials=3), [0.05, 0.2]),
], ids=["growth", "census", "contraction", "d-sweep", "p-sweep"])
def test_every_row_has_exactly_the_table_columns(make_table):
    table = make_table()
    assert table.rows
    for row in table.rows:
        assert tuple(row) == table.columns


class TestWriteReport:
    def test_json_round_trip(self, tmp_path):
        report = run_experiment(small_cfg(trials=4))
        path = tmp_path / "r.json"
        (written,) = write_report(report, path, "json")
        data = json.loads(written.read_text())
        assert data == report_to_dict(report)
        assert data["schema_version"] == 1
        assert len(data["trials"]) == 4

    def test_csv_files_and_shape(self, tmp_path):
        report = run_experiment(small_cfg(trials=4))
        path = tmp_path / "r.csv"
        files = write_report(report, path, "csv")
        assert files == [path, aggregates_path(path)]
        lines = path.read_text().splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("index,seed,edge_count,outcome")
        agg = files[1].read_text().splitlines()
        assert agg[0] == "key,value"
        assert len(agg) == 1 + len(report.aggregates)

    def test_byte_stable_across_runs(self, tmp_path):
        blobs = []
        for i in range(3):
            report = run_experiment(small_cfg(trials=4))
            path = tmp_path / f"r{i}.json"
            write_report(report, path, "json")
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    def test_json_writes_numpy_scalars_as_their_numbers(self):
        # numpy integers are valid config values, and the echo keeps them as given
        cfg = small_cfg(n=np.int64(60), p=np.float32(0.1), trials=np.int64(2),
                        model=OpinionModel("fixed_discrepancy", d=np.int64(2)))
        stream = io.StringIO()
        write_report(run_experiment(cfg), stream, "json")
        config = json.loads(stream.getvalue())["config"]
        assert config["n"] == 60 and config["trials"] == 2 and config["model"]["d"] == 2
        assert config["p"] == float(np.float32(0.1))
        with pytest.raises(TypeError, match="'object' object"):
            harness.write_table(harness.Table(("a",), ({"a": object()},)), io.StringIO(), "json")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stream_gets_the_file_bytes_and_no_paths(self, tmp_path, fmt):
        report = run_experiment(small_cfg(trials=4))
        stream = io.StringIO()
        assert write_report(report, stream, fmt) == []
        path = tmp_path / f"r.{fmt}"
        write_report(report, path, fmt)
        assert stream.getvalue().encode("utf-8") == path.read_bytes()

    def test_unknown_format_rejected(self, tmp_path):
        report = run_experiment(small_cfg(trials=2))
        with pytest.raises(ValueError):
            write_report(report, tmp_path / "r.xml", "xml")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("part", ["trials", "aggregates"])
    def test_failure_mid_stream_keeps_the_old_report(self, tmp_path, fmt, part):
        class Unwritable:
            def __str__(self):
                raise RuntimeError("failed mid-stream")

        report = run_experiment(small_cfg(trials=4))
        path = tmp_path / f"r.{fmt}"
        before = {f: f.read_bytes() for f in write_report(report, path, fmt)}
        if part == "trials":
            bad = replace(report.trials[1], error=Unwritable())
            report = replace(report, trials=report.trials[:1] + (bad,) + report.trials[2:])
        else:
            report = replace(report, aggregates={"bad": Unwritable(), **report.aggregates})
        # CSV fails in its own cell, JSON as it meets an object it cannot encode
        with pytest.raises((RuntimeError, TypeError)):
            write_report(report, path, fmt)
        assert sorted(tmp_path.iterdir()) == sorted(before)
        assert {f: f.read_bytes() for f in before} == before

    def test_write_failure_carries_path(self, tmp_path):
        report = run_experiment(small_cfg(trials=2))
        with pytest.raises(OSError, match="missing"):
            write_report(report, tmp_path / "missing" / "r.json", "json")


GOLDEN_DIR = Path(__file__).parent / "data"


class TestGoldenReports:
    """Frozen byte-for-byte outputs for one pinned configuration.

    Regenerate only on a deliberate schema change:
        python3 -c "from majdyn import *; r = run_experiment(ExperimentConfig(
            n=100, p=0.1, trials=3, master_seed=42));
            write_report(r, 'tests/data/golden_run.json', 'json');
            write_report(r, 'tests/data/golden_run.csv', 'csv')"
    """

    @staticmethod
    def golden_report():
        return run_experiment(ExperimentConfig(n=100, p=0.1, trials=3, master_seed=42))

    def test_json_bytes(self, tmp_path):
        path = tmp_path / "run.json"
        write_report(self.golden_report(), path, "json")
        assert path.read_bytes() == (GOLDEN_DIR / "golden_run.json").read_bytes()

    def test_csv_bytes(self, tmp_path):
        path = tmp_path / "run.csv"
        trials_file, agg_file = write_report(self.golden_report(), path, "csv")
        assert trials_file.read_bytes() == (GOLDEN_DIR / "golden_run.csv").read_bytes()
        golden_agg = (GOLDEN_DIR / "golden_run.aggregates.csv").read_bytes()
        assert agg_file.read_bytes() == golden_agg
