#!/usr/bin/env python3
"""Run the two shipped benchmark sweeps and write one CSV per config.

Usage:  python3 scripts/run_benchmarks.py [--out-dir results]

The queue config takes ~0.033 s in all, ~0.022 s of it at a = 10^4 (the
assembly ~3 ms, the band LU ~5 ms, the refined row solve ~6 ms, each
column solve ~1 ms), and the walk config ~0.01 s, 0.006 s of it at
a = 10^4 (best of 9 on a shared 2-core Xeon, one BLAS thread, Python
3.11, numpy 2.4, scipy 1.17).  Re-running overwrites the CSVs in place.
"""

import argparse
import os

from stattrunc import load_config
from stattrunc.cli import emit, run_experiment

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = ("gm1.yaml", "random_walk.yaml")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default=os.path.join(REPO, "results"))
    ap.add_argument("--validate", action="store_true",
                    help="add a Monte Carlo cross-check to every ok row")
    args = ap.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)
    for name in CONFIGS:
        cfg = load_config(os.path.join(REPO, "configs", name))
        rows = run_experiment(cfg, validate=args.validate)
        out = os.path.join(args.out_dir, name.replace(".yaml", ".csv"))
        emit(rows, "csv", out)
        print(f"{name}:")
        for row in rows:
            print(f"  a = {row['a']:>6}  [{row['lower']:.6f}, {row['upper']:.6f}]"
                  f"  ({row['wall_time_seconds']:.2f}s, {row['status']})")
        print(f"  -> {out}")


if __name__ == "__main__":
    main()
