#!/usr/bin/env python3
"""Full verification run: count one-321 permutations every way the package can.

For each n up to --max-oracle the count is computed six ways and compared:

  oracle       brute force over all n! permutations, naive counter only
  states       exhaustive count over prefix states (oracle.distribution_321)
  bijection    enumerate (b, sigma1, sigma2) triples and compose each one
  closed       (3/n) * binom(2n, n+3)
  catalan      C_{n+2} - 4 C_{n+1} + 3 C_n from the ballot-triangle table
  convolution  sum over b of (C_b - C_{b-1})(C_{n-b+1} - C_{n-b})

The oracle and states counts are entry k = 1 of two whole rows, every k
from 0 to C(n, 3) from one count each (oracle.brute_distribution, one n!
scan, and oracle.distribution_321); the column "rows" says whether the two
rows agree at every k.

Above the brute-force range the three exact formulas are checked against
each other up to --max-exact. Exits nonzero if anything disagrees.

Typical run (about ten seconds):

    python scripts/theorem_report.py --max-oracle 8 --max-exact 500
"""

import argparse
import math
import sys
import time

from permpat import (
    PATTERN_321,
    brute_distribution,
    distribution_321,
    enumerate_noonan,
    noonan_catalan_form,
    noonan_closed,
    noonan_convolution,
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-oracle", type=int, default=8,
                        help="largest n for the n! brute force (default 8)")
    parser.add_argument("--max-exact", type=int, default=500,
                        help="largest n for the formula-only check (default 500)")
    parser.add_argument("--threads", type=int, default=1,
                        help="forked processes for the n! brute force, one per range "
                             "of first values; 1 counts in this process (default 1)")
    args = parser.parse_args(argv)

    failures = 0
    print(f"{'n':>4} {'oracle':>12} {'states':>12} {'bijection':>12} {'closed':>12} "
          f"{'catalan':>12} {'convolution':>12} {'rows':>6}")
    for n in range(3, args.max_oracle + 1):
        t0 = time.perf_counter()
        top = math.comb(n, 3)
        row = brute_distribution(n, PATTERN_321, top, cap=max(10, n), threads=args.threads)
        states = distribution_321(n, top)
        counts = (row[1], states[1], sum(1 for _ in enumerate_noonan(n)), noonan_closed(n),
                  noonan_catalan_form(n), noonan_convolution(n))
        rows = "equal" if row == states else "differ"
        ok = len(set(counts)) == 1 and row == states
        failures += not ok
        mark = "" if ok else "   <-- MISMATCH"
        print(f"{n:>4}", *(f"{c:>12}" for c in counts), f"{rows:>6}{mark}",
              f"  [{time.perf_counter() - t0:.1f}s]")

    t0 = time.perf_counter()
    bad = [n for n in range(3, args.max_exact + 1)
           if not noonan_convolution(n) == noonan_catalan_form(n) == noonan_closed(n)]
    failures += len(bad)
    print(f"\nformula chain checked for n = 3..{args.max_exact}: "
          f"{'all equal' if not bad else f'MISMATCH at {bad}'} "
          f"[{time.perf_counter() - t0:.2f}s]")
    print(f"n = {args.max_exact}: {noonan_closed(args.max_exact)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
