#!/usr/bin/env python3
"""Cross-check a certified interval against seeded cycle simulation.

Runs the reflected walk (up 1/3, down 2/3, r = x/2) at a modest truncation
and prints the certified interval next to a regenerative point estimate
with its 99% confidence half-width.  The estimate has no business leaving
the interval by more than its own noise; the exact answer is 3/4.  Exits 1
when it does (``agreement : NO``).
"""

import argparse

from stattrunc import (
    TruncationProblem,
    random_walk_certificate,
    random_walk_chain,
    run_pipeline,
    simulate_cycles,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", type=int, default=200)
    ap.add_argument("--k-max", type=int, default=20)
    ap.add_argument("--cycles", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    chain = random_walk_chain()
    r = lambda x: x / 2.0
    A, K = range(args.a), range(args.k_max + 1)
    rep = run_pipeline(TruncationProblem(chain=chain, A=A, z=0, K=K, r=r),
                       random_walk_certificate())
    stats = simulate_cycles(chain, 0, r, args.cycles, args.seed)

    print(f"certified : [{rep.interval[0]:.10f}, {rep.interval[1]:.10f}]")
    print(f"simulated : {stats.ratio:.10f} +/- {stats.half_width:.1e}   "
          f"({args.cycles} cycles, seed {args.seed})")
    print("exact     : 0.75")
    inside = (rep.interval[0] - stats.half_width <= stats.ratio
              <= rep.interval[1] + stats.half_width)
    print(f"agreement : {'yes' if inside else 'NO'}")
    return 0 if inside else 1


if __name__ == "__main__":
    raise SystemExit(main())
