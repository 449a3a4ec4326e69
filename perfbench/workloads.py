"""The three workloads: inputs made from the workload seed, one op each,
and the independent checks of every op's outputs.

Ops call majdyn through module attributes (``graph.sample_gnp``,
``cli.main``, ...), looked up at call time, so the span recorder in
``spans.py`` sees them when it is installed.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from majdyn import cli, dynamics, graph, harness, opinions, probkit

import checks


def op_seed(seed: int, workload: str, index: int) -> np.random.SeedSequence:
    """Seed stream of op ``index``; op 0 is the untimed warm-up."""
    return np.random.SeedSequence([seed, sorted(WORKLOADS).index(workload), index])


def int_seed(ss: np.random.SeedSequence) -> int:
    return int(ss.generate_state(1, np.uint32)[0])


class Workload:
    """Default: no probe after a traced op."""

    def probe_step(self, result) -> None:
        pass


class BigGraph(Workload):
    """sample_gnp -> save_graph -> load_graph -> run from an iid uniform
    start, at the ROADMAP big-trial shape (mean degree 20)."""

    N = 10**6
    P = 2e-5
    DAY_CAP = 64
    SPANS = ("graph.sample_gnp", "graph.save_graph", "graph.load_graph",
             "opinions.sample_uniform", "dynamics.run", "dynamics.majority_step")
    STEP_PROBES = 5  # warm majority_step calls after each traced op

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.dump = tmp / "graph.bin"

    def op(self, index: int):
        graph_ss, opinion_ss = op_seed(self.seed, "big_graph", index).spawn(2)
        g = graph.sample_gnp(self.N, self.P, graph_ss)
        graph.save_graph(g, self.dump)
        h = graph.load_graph(self.dump)
        s0 = opinions.sample_uniform(self.N, opinion_ss)
        traj = dynamics.run(h, s0, self.DAY_CAP)
        return g, h, s0, traj

    def probe_step(self, result) -> None:
        """Warm majority_step at n=10^6; ``run`` steps through a private
        helper, so the public step is timed here, outside the op."""
        _, h, s0, _ = result
        for _ in range(self.STEP_PROBES):
            dynamics.majority_step(h, s0)

    def check(self, index: int, result, full: bool) -> list[str]:
        g, h, s0, traj = result
        out = checks.edge_count_problems(self.N, self.P, g.edge_count)
        out += checks.same_graph_problems(g, h)
        out += checks.validate_problems(h)
        signs = s0.signs()
        if traj.days[0].bias != int(signs.sum(dtype=np.int64)):
            out.append(f"day-0 bias {traj.days[0].bias} is not the start's opinion sum")
        if full:
            out += checks.trajectory_problems(h.offsets, h.neighbors, signs, traj)
        return out


class QuenchedSwing(Workload):
    """``majdyn run --config`` on the swing-and-census experiment: one
    quenched graph, many balanced-plus-swing trials, CSV report."""

    N = 10**5
    P = 2e-4
    C = Fraction(1)
    GAMMA = 0.1
    TRIALS = 40
    SPANS = ("cli.main", "harness.run_experiment", "harness.trial", "harness.write_report",
             "graph.sample_gnp", "opinions.sample_morning", "opinions.apply_swing",
             "opinions.census", "dynamics.majority_step", "dynamics.run")

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.config = tmp / "swing.json"
        self.report = tmp / "swing.csv"
        self.aggregates = tmp / "swing.aggregates.csv"
        self.config.write_text(json.dumps({
            "n": self.N, "p": self.P, "trials": self.TRIALS, "master_seed": 0,
            "model": {"kind": "morning_evening", "c": float(self.C)}, "gamma": self.GAMMA,
            "day_cap": 64, "quenched": True, "workers": 1,
        }))

    def op(self, index: int):
        """The exit code and, on the warm-up op 0 only, the inputs and
        result of the first census call (trial 0), recorded at
        ``harness.census``; they are freed with the op's result."""
        seed = int_seed(op_seed(self.seed, "quenched_swing", index))
        argv = ["run", "--config", str(self.config), "--seed", str(seed), "-o", str(self.report), "-q"]
        if index != 0:
            return cli.main(argv), None
        original, captured = harness.census, []

        def census(g, r0, swing, gamma, p):
            result = original(g, r0, swing, gamma, p)
            if not captured:
                captured.append((g, r0.signs(), np.asarray(swing), gamma, p, result))
            return result

        harness.census = census
        try:
            return cli.main(argv), captured[0] if captured else None
        finally:
            harness.census = original

    def check(self, index: int, result, full: bool) -> list[str]:
        rc, captured = result
        if rc != 0:
            return [f"exit code {rc}"]
        rows = checks.read_rows(self.report)
        out = checks.swing_report_problems(
            rows, checks.read_aggregates(self.aggregates),
            n=self.N, p=self.P, c=self.C, trials=self.TRIALS)
        if full:
            if captured is None:
                return out + ["no census call was captured"]
            g, r0, swing, gamma, p, census = captured
            for reported in (vars(census), rows[0]):
                out += checks.census_problems(g.offsets, g.neighbors, r0, swing, gamma, p, reported)
        return out


class LemmaSweeps(Workload):
    """``majdyn verify-lemmas`` at 200 randomized cases per check; all
    time is in probkit, none in the graph code."""

    MAX_TRIALS = 200
    EXACT_TRIALS = 24  # largest binomial checked against exact fractions
    SPANS = ("cli.main", "probkit.run_lemma_sweeps")

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.table = tmp / "lemmas.csv"

    def op(self, index: int):
        seed = int_seed(op_seed(self.seed, "lemma_sweeps", index))
        return cli.main(["verify-lemmas", "--max-trials", str(self.MAX_TRIALS),
                         "--seed", str(seed), "-o", str(self.table), "-q"])

    def check(self, index: int, rc, full: bool) -> list[str]:
        out = checks.lemma_table_problems(rc, checks.read_rows(self.table), self.MAX_TRIALS)
        rng = np.random.default_rng(op_seed(self.seed, "lemma_sweeps", index).spawn(1)[0])
        n1, n2, n3 = (int(v) for v in rng.integers(1, self.EXACT_TRIALS + 1, size=3))
        p, q = (float(v) for v in rng.uniform(0.05, 0.95, size=2))
        a, b, c = probkit.BinomSpec(n1, p), probkit.BinomSpec(n2, p), probkit.BinomSpec(n3, q)
        ea, eb, ec = (checks.exact_binom(s.trials, s.prob) for s in (a, b, c))
        same = checks.exact_diff_law(ea, eb)
        out += checks.exact_pmf_problems(probkit.binom_diff_pmf(a, b), same)
        out += checks.exact_pmf_problems(probkit.binom_diff_pmf(a, c), checks.exact_diff_law(ea, ec))
        out += checks.exact_equality_problems(probkit.check_equality_prob(a, b), same)
        return out


WORKLOADS = {"big_graph": BigGraph, "quenched_swing": QuenchedSwing, "lemma_sweeps": LemmaSweeps}
