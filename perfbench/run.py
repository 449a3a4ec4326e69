"""Benchmark of majdyn: three single-process workloads run through its
public entry points, every op's outputs checked.

    python3 perfbench/run.py --workload big_graph --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (setup_s, op_s, cpu_s,
peak_rss_mb); with ``--trace 1`` they are the per-layer ones, from spans
recorded around majdyn's public functions (see spans.py), and the spans
are written to ``.perfbench_out/``.  Temporary inputs and outputs live in
``.perfbench_tmp/`` and are removed at the end.  README.md explains the
workloads and the metrics.
"""

from __future__ import annotations

import probe

probe.pin_threads()  # before anything imports numpy

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

MIN_OPS = 3  # timed ops per run, whatever --seconds says
SETUP_PROBES = 5  # fresh interpreters per run; setup_s is their median


def machine_facts() -> dict:
    import numpy
    import scipy

    try:
        llc = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True,
                             timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        llc = ""
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "llc_bytes": int(llc) if llc.isdigit() else None,
    }


class SetupProbes:
    """Fresh interpreters that import majdyn and prepare the workload's
    inputs, spread evenly over the run: import time drifts in phases that
    last seconds, so probes run back to back would all land in one phase.
    ``setup_s`` is the median wall time of the probes and ``setup.import_s``
    the median of their ``import majdyn`` alone."""

    def __init__(self, workload: str, seed: int, tmp):
        self.workload, self.seed, self.tmp = workload, seed, tmp
        self.walls: list[float] = []
        self.imports: list[float] = []

    def due(self, fraction: float) -> None:
        """Run the probes due once ``fraction`` of the measured op time has
        passed: the first before any op, the last at the end."""
        while len(self.walls) < 1 + int((SETUP_PROBES - 1) * min(fraction, 1.0)):
            self._probe()

    def _probe(self) -> None:
        directory = self.tmp / f"setup{len(self.walls)}"
        directory.mkdir()
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(probe.ROOT / "perfbench" / "probe.py"), self.workload,
             str(self.seed), str(directory)],
            capture_output=True, text=True, timeout=120,
        )
        self.walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        self.imports.append(json.loads(proc.stdout.splitlines()[-1])["import_s"])


def cpu_seconds() -> float:
    """User plus system time of this process, its threads and waited-for
    children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def checked_in_child(check, *args) -> list[str]:
    """``check(*args)`` in a forked child that sends back its list of
    problems.  The memory the checks allocate (``Graph.validate`` on a 10^6
    vertex graph, the trajectory replay) then never counts in this
    process's ``ru_maxrss``, so ``peak_rss_mb`` is the ops' own peak."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        status = 1
        try:
            try:
                problems = check(*args)
            except Exception as exc:  # unreadable output is a failed check
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            with os.fdopen(write_fd, "w", encoding="utf-8") as fh:
                json.dump(problems, fh)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, encoding="utf-8") as fh:
        verdict = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not verdict:
        return [f"check process ended with status {status} and no verdict"]
    return json.loads(verdict)


class Runner:
    """Runs and checks ops; counts attempts and failures.  Op 0 is the
    untimed warm-up and gets the full checks."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def op(self, index: int, *, recorder=None):
        """One op, timed with garbage collection held off; returns
        (wall s, cpu s).  The checks run outside the timed region."""
        wl = self.workload
        gc.collect()
        problems, result = [], None
        if recorder is not None:
            recorder.op = index
            recorder.install()
        gc.disable()
        c0, t0 = cpu_seconds(), time.perf_counter()
        try:
            result = wl.op(index)
        except Exception as exc:  # a failing op is counted, not fatal
            problems.append(f"{type(exc).__name__}: {exc}")
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
        gc.enable()
        if recorder is not None:
            try:
                if not problems:
                    wl.probe_step(result)
            finally:
                recorder.uninstall()
        if not problems:
            problems = checked_in_child(wl.check, index, result, index == 0)
        del result
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"op {index} FAILED: " + "; ".join(problems[:5]), file=sys.stderr)
        print(f"op {index}: {wall:.4f} s wall, {cpu:.4f} s cpu"
              f"{' traced' if recorder is not None else ''}", file=sys.stderr)
        return wall, cpu


def run_plain(runner: Runner, seconds: float, setup: SetupProbes) -> dict:
    setup.due(0.0)
    runner.op(0)
    walls, cpus = [], []
    index = 1
    while sum(walls) < seconds or len(walls) < MIN_OPS:
        wall, cpu = runner.op(index)
        walls.append(wall)
        cpus.append(cpu)
        setup.due(sum(walls) / seconds)
        index += 1
    setup.due(1.0)
    return {
        "setup_s": (statistics.median(setup.walls), "s"),
        "op_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def run_traced(runner: Runner, seconds: float, setup: SetupProbes, workload: str, seed: int) -> dict:
    import majdyn
    from majdyn import graph
    import spans

    setup.due(0.0)
    runner.op(0)
    recorder = spans.Recorder(majdyn.__name__)
    plain, traced, traced_ops = [], [], []
    index = 1
    while sum(plain) + sum(traced) < seconds or min(len(plain), len(traced)) < 2:
        if index % 2:
            plain.append(runner.op(index)[0])
        else:
            traced.append(runner.op(index, recorder=recorder)[0])
            traced_ops.append(index)
        setup.due((sum(plain) + sum(traced)) / seconds)
        index += 1
    setup.due(1.0)
    out_dir = probe.ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    recorder.write(out_dir / f"spans-{workload}-{seed}.json")
    spans.require(recorder.spans, runner.workload.SPANS)
    overhead = statistics.median(traced) - statistics.median(plain)
    sample_peak_mb = spans.sample_peak_mb(recorder.spans, graph.sample_gnp, seed)
    values = spans.layer_metrics(recorder.spans, traced_ops, statistics.median(setup.imports),
                                 overhead, sample_peak_mb)
    return {name: (values[name], unit) for name, unit in spans.PER_LAYER.items()}


def main(argv=None) -> int:
    probe.import_checkout_majdyn()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="seconds of timed ops to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    print("# machine " + json.dumps(machine_facts()), flush=True)
    tmp = probe.ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        setup = SetupProbes(args.workload, args.seed, tmp)
        runner = Runner(workloads.WORKLOADS[args.workload](args.seed, tmp))
        if args.trace:
            metrics = run_traced(runner, args.seconds, setup, args.workload, args.seed)
        else:
            metrics = run_plain(runner, args.seconds, setup)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
