"""Self-test of the output checks: each must pass a right answer and reject
a corrupted one (one flipped sign, one count off by one, ...).

    python3 perfbench/selftest.py

Runs the three workloads' ops at small sizes; exits 0 when every checker
behaves, 1 otherwise.  Takes a few seconds.
"""

from __future__ import annotations

import probe

probe.pin_threads()

import csv  # noqa: E402
import dataclasses  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

probe.import_checkout_majdyn()

from majdyn import graph, probkit  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

FAILURES: list[str] = []


def expect(label: str, problems: list[str], should_fail: bool) -> None:
    ok = bool(problems) == should_fail
    verdict = "ok  " if ok else "FAIL"
    detail = problems[0] if problems else "accepted"
    print(f"{verdict} {label}: {detail}")
    if not ok:
        FAILURES.append(label)


class SmallGraph(workloads.BigGraph):
    N = 3000
    P = 7e-3


class SmallSwing(workloads.QuenchedSwing):
    N = 10**4
    P = 2e-3
    TRIALS = 8


def rewrite_rows(path, rows: list[dict]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def graph_checks(tmp) -> None:
    wl = SmallGraph(7, tmp)
    g, h, s0, traj = result = wl.op(0)
    expect("big_graph: right outputs", wl.check(0, result, full=True), False)
    expect("edge count 7 sigma off",
           checks.edge_count_problems(wl.N, wl.P, g.edge_count + int(7 * np.sqrt(g.edge_count))), True)
    nbrs = h.neighbors.copy()
    nbrs[0] += 1
    bad = graph.Graph(h.n, h.offsets, nbrs)
    expect("loaded graph with one neighbor id off by one", checks.same_graph_problems(g, bad), True)
    expect("asymmetric graph", checks.validate_problems(bad), True)
    signs = s0.signs()
    days = list(traj.days)
    days[1] = dataclasses.replace(days[1], bias=-days[1].bias)
    flipped = dataclasses.replace(traj, days=tuple(days))
    expect("trajectory with one day's bias sign flipped",
           checks.trajectory_problems(h.offsets, h.neighbors, signs, flipped), True)
    late = dataclasses.replace(traj, outcome=dataclasses.replace(traj.outcome, day=traj.outcome.day + 1))
    expect("outcome day off by one", checks.trajectory_problems(h.offsets, h.neighbors, signs, late), True)
    expect("trajectory cut one day short",
           checks.trajectory_problems(h.offsets, h.neighbors, signs,
                                      dataclasses.replace(traj, days=traj.days[:-1])), True)


def swing_checks(tmp) -> None:
    wl = SmallSwing(3, tmp)
    result = wl.op(0)
    rc, captured = result
    expect("quenched_swing: right outputs", wl.check(0, result, full=True), False)
    expect("warm-up op without its census capture", wl.check(0, (rc, None), full=True), True)
    rows = checks.read_rows(wl.report)
    aggregates = checks.read_aggregates(wl.aggregates)

    def report(mutate):
        bad = [dict(r) for r in rows]
        mutate(bad)
        return checks.swing_report_problems(bad, aggregates, n=wl.N, p=wl.P, c=wl.C,
                                            trials=wl.TRIALS)

    def bump(field, delta=1, row=0):
        def mutate(bad):
            bad[row][field] = str(int(bad[row][field]) + delta)
        return mutate

    def flip_s0(bad):
        bad[0]["s0_bias"] = str(-int(bad[0]["s0_bias"]))

    def negative_tilt(rows_in):
        """Every trial consistently tilted negative, aggregates included."""
        bad = [dict(r) for r in rows_in]
        half = (wl.N + 1) // 2
        for r in bad:
            r.update(almost_positive=str(half - 5), excess="-5",
                     alpha_hat=repr(-5 / (wl.P * wl.N ** 1.5)))
        agg = {k: "" if v is None else str(v) for k, v in checks.aggregates_from_rows(bad).items()}
        problems = checks.swing_report_problems(bad, agg, n=wl.N, p=wl.P, c=wl.C, trials=wl.TRIALS)
        return [p for p in problems if "positive-excess" in p]

    expect("edge_count off by one in one row", report(bump("edge_count")), True)
    expect("swing_count off by one", report(bump("swing_count")), True)
    expect("s0_bias sign flipped", report(flip_s0), True)
    expect("excess off by one", report(bump("excess")), True)
    expect("unstable_with_swing above unstable",
           report(bump("unstable_with_swing", int(rows[0]["unstable"]) + 1)), True)
    expect("day-one tilt negative in every trial", negative_tilt(rows), True)
    bad_agg = dict(aggregates, unanimous=str(int(aggregates["unanimous"]) - 1))
    expect("aggregate off by one",
           checks.swing_report_problems(rows, bad_agg, n=wl.N, p=wl.P, c=wl.C, trials=wl.TRIALS), True)
    rewrite_rows(wl.report, [dict(rows[0], error="ValueError: boom", outcome="error")] + rows[1:])
    expect("error row", wl.check(0, (rc, None), full=False), True)
    g, r0, swing, gamma, p, census = captured
    reported = dict(vars(census), almost_positive=census.almost_positive + 1)
    expect("census count off by one",
           checks.census_problems(g.offsets, g.neighbors, r0, swing, gamma, p, reported), True)


def lemma_checks(tmp) -> None:
    wl = workloads.LemmaSweeps(5, tmp)
    rc = wl.op(0)
    expect("lemma_sweeps: right outputs", wl.check(0, rc, full=True), False)
    rows = checks.read_rows(wl.table)
    expect("non-zero exit code", checks.lemma_table_problems(2, rows, wl.MAX_TRIALS), True)
    expect("one FAIL row", checks.lemma_table_problems(
        0, [dict(rows[0], result="FAIL")] + rows[1:], wl.MAX_TRIALS), True)
    expect("randomized check one case short", checks.lemma_table_problems(
        0, rows[:3] + [dict(rows[3], cases=str(wl.MAX_TRIALS - 1))] + rows[4:], wl.MAX_TRIALS), True)
    a, b = probkit.BinomSpec(13, 0.3), probkit.BinomSpec(9, 0.3)
    law = checks.exact_diff_law(checks.exact_binom(13, 0.3), checks.exact_binom(9, 0.3))
    pmf = probkit.binom_diff_pmf(a, b)
    masses = pmf.masses.copy()
    masses[4] += 1e-9
    expect("pmf mass off by 1e-9", checks.exact_pmf_problems(dataclasses.replace(pmf, masses=masses), law), True)
    p_eq, p_ge, ratio = probkit.check_equality_prob(a, b)
    expect("P[X=Y] off by 1e-9", checks.exact_equality_problems((p_eq + 1e-9, p_ge, ratio), law), True)


def span_checks() -> None:
    recorded = [spans.Span("cli.main", 0.0, 1.0, -1, 1)]
    try:
        spans.require(recorded, ("cli.main", "probkit.run_lemma_sweeps"))
        problems = []
    except RuntimeError as exc:
        problems = [str(exc)]
    expect("expected span with zero calls", problems, True)


def child_checks() -> None:
    import run

    def raises():
        raise ValueError("unreadable output")

    expect("clean check in the forked child", run.checked_in_child(lambda: []), False)
    expect("problem found in the forked child", run.checked_in_child(lambda: ["boom"]), True)
    expect("check raising in the forked child", run.checked_in_child(raises), True)


def main() -> int:
    tmp = probe.ROOT / ".perfbench_tmp" / f"selftest-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        graph_checks(tmp)
        swing_checks(tmp)
        lemma_checks(tmp)
        span_checks()
        child_checks()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    print(f"{len(FAILURES)} checker(s) misbehaved" if FAILURES else "every checker behaves")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
