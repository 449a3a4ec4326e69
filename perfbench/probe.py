"""Set-up probe: a fresh interpreter imports majdyn from the checkout and
prepares one workload's inputs, then exits.

    python3 perfbench/probe.py WORKLOAD SEED DIR

The caller times the whole process (``setup_s``); the probe prints the
time of ``import majdyn`` alone (``setup.import_s``) as one JSON line.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_POOLS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    """One BLAS/OpenMP thread; must run before numpy is imported."""
    for var in THREAD_POOLS:
        os.environ[var] = "1"


def import_checkout_majdyn():
    """Import majdyn from ``src/`` of this checkout, never from elsewhere."""
    if not (SRC / "majdyn" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no majdyn sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import majdyn

    if Path(majdyn.__file__).resolve().parent != (SRC / "majdyn").resolve():
        raise SystemExit(f"perfbench: imported majdyn from {majdyn.__file__}, not {SRC}")
    return majdyn


def main(argv) -> int:
    workload, seed, directory = argv[0], int(argv[1]), Path(argv[2])
    pin_threads()
    t0 = time.perf_counter()
    import_checkout_majdyn()
    import_s = time.perf_counter() - t0
    import workloads

    workloads.WORKLOADS[workload](seed, directory)
    print(f'{{"import_s": {import_s!r}}}')
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
