"""Command-line interface.

Batch, line-oriented plain text: counts print in decimal with no separators,
permutations print in one-line notation, one item per line. Exit status is 0
on success, 1 on a domain error (one-line diagnostic on stderr), 2 on a
usage error. --progress writes to stderr only; --threads never changes the
output bytes, only how the work is scheduled.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable, Iterable, Sequence
from itertools import islice

from .catalan import (
    _noonan_closed_stream,
    binomial,
    catalan,
    catalan_table,
    noonan_catalan_form,
    noonan_closed,
    noonan_convolution,
)
from .errors import CapExceeded, DomainError, InternalConstraintViolation, InvalidRange

# `catalan` and `errors` load with the package. Each CLI call is a fresh
# process, so every other module is imported by the handlers that need it:
# the formula commands load nothing more, `count` only `perms`.


_BATCH = 1000
# `count` refuses the generic counter past this many subsequences of the
# pattern's length, binom(n, |pattern|): at the cap it takes about 10 s when
# every one is an occurrence (the identity against 1 2 3), 3-4 s on random
# inputs, on a 2-core Xeon VM.
_COUNT_WORK_CAP = 10**8
# `verify` refuses larger N: its per-n convolutions take about 4 s at
# N = 2000 on a 2-core Xeon VM, and their cost grows about as N^3.
_VERIFY_CAP = 2000


class UsageError(Exception):
    """Flag combination errors detected after argparse."""


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permpat",
        description="Exact counting and enumeration of permutations by their 321 content.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count occurrences of a pattern in a permutation")
    p.add_argument("--perm", required=True, help='permutation in one-line notation, e.g. "3 2 1 4"')
    p.add_argument("--pattern", default="3 2 1", help='pattern in one-line notation (default "3 2 1")')
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("noonan", help="count n-permutations containing 321 exactly once")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--method",
        choices=("closed", "catalan", "convolution", "oracle", "bijection"),
        default="closed",
    )
    _add_work_flags(p)
    p.set_defaults(handler=_cmd_noonan)

    p = sub.add_parser("verify", help="check the three count formulas agree for n = 3..N")
    p.add_argument("--max-n", type=int, required=True)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("enumerate", help="stream a permutation family, one per line")
    p.add_argument("--family", choices=("avoiders", "sigma1", "sigma2", "noonan"), required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--b", type=int)
    _add_work_flags(p)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("decompose", help="split a one-321 permutation into (b, sigma1, sigma2)")
    p.add_argument("--perm", required=True)
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("compose", help="rebuild a permutation from (b, sigma1, sigma2)")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--sigma1", required=True)
    p.add_argument("--sigma2", required=True)
    p.set_defaults(handler=_cmd_compose)

    p = sub.add_parser("oracle", help="exhaustive count of n-permutations with exactly k 321s")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    _add_work_flags(p)
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("seq", help="print a sequence table as 'n value' lines")
    p.add_argument("--what", choices=("catalan", "noonan"), required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.set_defaults(handler=_cmd_seq)

    return parser


def _add_work_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--threads",
        type=_positive_int,
        default=1,
        help="worker processes for the one-321 family only; the avoider families "
        "and the oracle run in one process (output is identical for any value)",
    )
    p.add_argument("--cap", type=int, default=None, help="override the size cap")
    p.add_argument("--progress", action="store_true", help="write progress to stderr")


def _cmd_count(args: argparse.Namespace) -> int:
    from .perms import PATTERN_321, count_321_fenwick, count_pattern, parse_one_line

    perm = parse_one_line(args.perm)
    pattern = parse_one_line(args.pattern)
    # 321 has an O(n log n) counter; the generic one costs a step per occurrence.
    if pattern == PATTERN_321:
        print(count_321_fenwick(perm))
        return 0
    n, m = len(perm), len(pattern)
    if binomial(n, m) > _COUNT_WORK_CAP:
        raise CapExceeded(
            f"a pattern of length {m} in a permutation of length {n} can take up to "
            f"binom({n}, {m}) steps, more than the cap {_COUNT_WORK_CAP}; only the "
            f"pattern 3 2 1 has a fast counter"
        )
    print(count_pattern(perm, pattern))
    return 0


def _oracle_cap(args: argparse.Namespace) -> int:
    from .oracle import DEFAULT_ORACLE_CAP

    cap = args.cap if args.cap is not None else DEFAULT_ORACLE_CAP
    if args.n > DEFAULT_ORACLE_CAP and cap > DEFAULT_ORACLE_CAP:
        print(
            f"warning: exhaustive count at n = {args.n}: for mid-range k its time grows "
            f"5-8x and its memory 4x per step of n past 10 (about 1.3 s and 47 MB at "
            f"n = 10, 7.4 s and 190 MB at n = 11); k = 1 takes about 1.5 s at n = 30",
            file=sys.stderr,
        )
    return cap


def _oracle_progress(args: argparse.Namespace) -> Callable[[int, int], None] | None:
    if not args.progress:
        return None
    return lambda done, total: print(f"{done}/{total} positions done", file=sys.stderr)


def _oracle_count(args: argparse.Namespace, k: int) -> int:
    from .oracle import count_321_exactly_k

    return count_321_exactly_k(args.n, k, cap=_oracle_cap(args), progress=_oracle_progress(args))


def _print_stream(tuples: Iterable[tuple[int, ...]], top: int, expected: int, progress: bool) -> None:
    # Every family's generator checked each tuple's values (and, for noonan,
    # its single 321) before yielding it; a line is one join over a table of
    # value strings. Batches of _BATCH lines per write; the size divides the
    # progress step. The emitted total must equal the closed-form count.
    out = sys.stdout
    text = list(map(str, range(top + 1))).__getitem__
    lines = (" ".join(map(text, t)) for t in tuples)
    emitted = 0
    while batch := list(islice(lines, _BATCH)):
        out.write("\n".join(batch) + "\n")
        emitted += len(batch)
        if progress and emitted % 100000 == 0:
            print(f"{emitted} items", file=sys.stderr)
    if emitted != expected:
        raise InternalConstraintViolation(f"stream emitted {emitted} items, expected {expected}")


def _cmd_noonan(args: argparse.Namespace) -> int:
    if args.method == "closed":
        value = noonan_closed(args.n)
    elif args.method == "catalan":
        value = noonan_catalan_form(args.n)
    elif args.method == "convolution":
        value = noonan_convolution(args.n)
    elif args.method == "oracle":
        value = _oracle_count(args, 1)
    else:
        from .avoiders import DEFAULT_CAP
        from .bijection import _noonan_tuples

        cap = args.cap if args.cap is not None else DEFAULT_CAP
        value = sum(1 for _ in _noonan_tuples(args.n, cap, args.threads))
    print(value)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.max_n > _VERIFY_CAP:
        raise CapExceeded(
            f"verify --max-n {args.max_n} is above the cap {_VERIFY_CAP}: its per-n "
            f"convolutions grow about as N^3 (about 4 s at N = {_VERIFY_CAP})"
        )
    failures = 0
    total = 0
    for n in range(3, args.max_n + 1):
        conv = noonan_convolution(n)
        cat = noonan_catalan_form(n)
        closed = noonan_closed(n)
        total += 1
        if conv == cat == closed:
            print(f"n={n} PASS")
        else:
            failures += 1
            print(f"n={n} FAIL convolution={conv} catalan_form={cat} closed={closed}")
    print(f"{total - failures}/{total} PASS")
    return 1 if failures else 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    from .avoiders import DEFAULT_CAP, _avoider_tuples, _sigma1_tuples, _sigma2_tuples

    cap = args.cap if args.cap is not None else DEFAULT_CAP
    family = args.family
    if family in ("avoiders", "sigma2", "noonan") and args.n is None:
        raise UsageError(f"--n is required for --family {family}")
    if family in ("sigma1", "sigma2") and args.b is None:
        raise UsageError(f"--b is required for --family {family}")
    # Only the one-321 family runs in a pool; the avoider families run in
    # this process whatever --threads says.
    n, b = args.n, args.b
    if family == "avoiders":
        stream, top, expected = _avoider_tuples(n, cap), n, catalan(n)
    elif family == "sigma1":
        stream, top, expected = _sigma1_tuples(b, cap), b, catalan(b) - catalan(b - 1)
    elif family == "sigma2":
        stream, top = _sigma2_tuples(b, n, cap), n
        expected = catalan(n - b + 1) - catalan(n - b)
    else:
        from .bijection import _noonan_tuples

        stream, top = _noonan_tuples(n, cap, args.threads), n
        expected = noonan_closed(n) if n else 0
    _print_stream(stream, top, expected, args.progress)
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    from .bijection import decompose, format_decomposition
    from .perms import parse_one_line

    print(format_decomposition(decompose(parse_one_line(args.perm))))
    return 0


def _cmd_compose(args: argparse.Namespace) -> int:
    from .bijection import Decomposition, compose
    from .perms import parse_one_line, parse_value_sequence

    sigma1 = parse_one_line(args.sigma1)
    sigma2 = parse_value_sequence(args.sigma2)
    n = max(sigma2.values) if sigma2.values else args.b
    print(compose(Decomposition(b=args.b, sigma1=sigma1, sigma2=sigma2, n=n)))
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    print(_oracle_count(args, args.k))
    return 0


def _cmd_seq(args: argparse.Namespace) -> int:
    if args.what == "catalan":
        for n, value in enumerate(catalan_table(args.max_n)):
            print(n, value)
    else:
        if args.max_n < 0:
            raise InvalidRange(f"seq requires max_n >= 0, got {args.max_n}")
        for n, value in enumerate(_noonan_closed_stream(args.max_n), 1):
            print(n, value)
    return 0


def run(argv: Sequence[str] | None = None) -> int:
    """Parse argv, dispatch, and return the process exit status."""
    if hasattr(sys, "set_int_max_str_digits"):
        # Counts are exact integers; noonan --n 8000 already has 4800 digits.
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. | head); suppress the shutdown noise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
