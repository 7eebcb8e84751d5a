"""CLI: regenerate the paper's tables and figures.

Usage::

    python -m repro.experiments                 # every figure, quick scale
    python -m repro.experiments fig10 --scale full
    python -m repro.experiments table1 fig3 fig13
    python -m repro.experiments --workers 4     # figures across 4 processes
"""

from __future__ import annotations

import argparse
import multiprocessing
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from repro.experiments.figures import ALL_FIGURES, _run_figure


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the Liger paper's tables and figures.",
    )
    parser.add_argument(
        "figures",
        nargs="*",
        default=[],
        help=f"figures to run (default: all). Choices: {', '.join(ALL_FIGURES)}",
    )
    parser.add_argument(
        "--scale",
        choices=("smoke", "quick", "full"),
        default="quick",
        help="experiment size (smoke: seconds; quick: default; full: paper grid)",
    )
    parser.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="run figures across N worker processes (0 = in-process)",
    )
    args = parser.parse_args(argv)

    names = args.figures or list(ALL_FIGURES)
    unknown = [n for n in names if n not in ALL_FIGURES]
    if unknown:
        parser.error(f"unknown figure(s): {', '.join(unknown)}")

    if args.workers > 0:
        # Every figure reseeds its own workloads, so a worker process prints
        # the same text a sequential run does; results are read in request
        # order.  Headers drop the per-figure timing, the one annotation
        # workers cannot report comparably.
        workers = min(args.workers, len(names))
        start = time.time()
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=spawn) as pool:
            results = list(pool.map(_run_figure, names, [args.scale] * len(names)))
        elapsed = time.time() - start
        for figure, title, text in results:
            print(f"\n=== {figure}: {title} ===")
            print(text)
        print(f"\n{len(results)} figure(s) in {elapsed:.1f}s across {workers} workers")
        return 0

    for name in names:
        start = time.time()
        result = ALL_FIGURES[name](scale=args.scale)
        elapsed = time.time() - start
        print(f"\n=== {result.figure}: {result.title} [{elapsed:.1f}s] ===")
        print(result.text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
