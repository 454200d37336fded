#!/usr/bin/env python3
"""Show the decomposition of every one-321 permutation of a given length.

Each line lists the permutation, the unique 321 occurrence that anchors it,
and the (b, sigma1, sigma2) triple it maps to. A final tally groups the
permutations by b and compares against the product count
(C_b - C_{b-1}) (C_{n-b+1} - C_{n-b}); it exits 1 if any b differs.

    python scripts/bijection_walkthrough.py --n 5
"""

import argparse
import sys
from collections import Counter

from permpat import (
    brute_noonan_set,
    catalan,
    decompose,
    find_unique_321,
    format_decomposition,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=5)
    args = parser.parse_args()

    by_b = Counter()
    for p in brute_noonan_set(args.n):
        occ = find_unique_321(p)
        d = decompose(p)
        by_b[d.b] += 1
        print(f"{str(p):<{2 * args.n}}  cba={occ.values}  {format_decomposition(d)}")

    print()
    failures = 0
    for b in range(2, args.n):
        m = args.n - b + 1
        product = (catalan(b) - catalan(b - 1)) * (catalan(m) - catalan(m - 1))
        ok = by_b[b] == product
        failures += not ok
        print(f"b={b}: {by_b[b]} permutations, product count {product}"
              f"{'' if ok else '   <-- MISMATCH'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
