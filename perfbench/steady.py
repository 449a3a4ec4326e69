"""Steadiness check: run every workload of BENCHMARK.json in two sets of
ten runs, each run with its own seed, and print every end-to-end metric's
spread next to its bound.

    python3 perfbench/steady.py                    # seeds 1000-1009 and 2000-2009
    python3 perfbench/steady.py --first-seed 7000  # seeds 7000-7009 and 8000-8009

The spread of a metric is the distance between the first and third
quartiles of its values (``statistics.quantiles(values, n=4)``) as a share
of their median; it should stay below a third of the bound.  Each metric's
second median may be worse than the first by at most the bound, and the
share of failed ops must be the same in both sets.  Raw results, with each
run's wall time, go to ``.perfbench_out/steady.jsonl``.  Exits 1 when an op
failed, a spread exceeds its bound, a median got worse by more than its
bound, or the failed shares differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10  # runs per set
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return {"wall_s": time.perf_counter() - t0, **json.loads(proc.stdout.strip().splitlines()[-1])}


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1000)
    args = parser.parse_args(argv)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    ok = True
    with open(out_dir / "steady.jsonl", "a", encoding="utf-8") as log:
        for workload in (w["name"] for w in bench["workloads"]):
            sets = []
            for s in range(SETS):
                results = []
                for r in range(RUNS):
                    seed = args.first_seed + 1000 * s + r
                    result = run_once(workload, seed, seconds)
                    log.write(json.dumps({"workload": workload, "set": s, "seed": seed, **result}) + "\n")
                    log.flush()
                    ok &= result["correct"]
                    results.append(result)
                sets.append(results)
            print(f"\n{workload}: {SETS} sets of {RUNS} runs, {seconds} s each")
            print(f"  {'metric':<12} {'set':>3} {'median':>12} {'spread':>8} {'bound':>6}  verdict")
            medians = []
            for s, results in enumerate(sets):
                failed = sum(r["failed"] for r in results)
                attempted = sum(r["attempted"] for r in results)
                print(f"  set {s}: {failed}/{attempted} ops failed")
                meds = {}
                for name, spec in metrics.items():
                    values = [r["metrics"][name]["value"] for r in results]
                    med, spr = statistics.median(values), spread(values)
                    meds[name] = med
                    verdict = "steady" if spr <= spec["bound"] / 3 else "within" if spr <= spec["bound"] else "WIDE"
                    ok &= verdict != "WIDE"
                    print(f"  {name:<12} {s:>3} {med:>12.6g} {spr:>8.2%} {spec['bound']:>6.0%}  {verdict}")
                medians.append((meds, failed / attempted))
            (first, share0), (second, share1) = medians
            for name, spec in metrics.items():
                sign = 1 if spec["better"] == "lower" else -1
                worse = sign * (second[name] - first[name]) / first[name]
                verdict = "ok" if worse <= spec["bound"] else "WORSE"
                ok &= verdict == "ok"
                print(f"  {name:<12} second median worse by {worse:+.2%} (bound {spec['bound']:.0%}) {verdict}")
            if share0 != share1:
                ok = False
                print(f"  failed share differs: {share0} vs {share1}")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
