"""Command-line interface.

Batch, line-oriented plain text: counts print in decimal with no separators,
permutations print in one-line notation, one item per line. Exit status is 0
on success, 1 on a domain error (one-line diagnostic on stderr), 2 on a
usage error. --progress writes to stderr only. Only the bijection count
(noonan --method bijection) uses --threads: it counts its b ranges in up
to that many forked processes. Every other command runs in this one
process and only checks the flag. The output never depends on it.
"""

from __future__ import annotations

import gc
import os
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import islice
from types import SimpleNamespace

from .catalan import (
    _differences,
    _noonan_closed_stream,
    _self_convolution,
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
# the formula commands load nothing more, `count` only `perms`. A valid
# request is parsed from the command table below; argparse loads only to
# print help or a usage error.


_BATCH = 1000
# `seq` rows run to thousands of digits. 1000 of them joined for one write
# raised the peak RSS of `seq --what catalan --max-n 1000` by 0.5 MB;
# 100 keep it where line-by-line printing had it.
_TABLE_BATCH = 100
# `count` refuses the generic counter past this many subsequences of the
# pattern's length, binom(n, |pattern|): at the cap it takes about 10 s when
# every one is an occurrence (the identity against 1 2 3), 3-4 s on random
# inputs, on a 2-core Xeon VM.
_COUNT_WORK_CAP = 10**8
# `verify` refuses larger N: its per-n convolutions take about 4 s at
# N = 2000 on a 2-core Xeon VM, and their cost grows about as N^3.
_VERIFY_CAP = 2000


class UsageError(Exception):
    """Flag combination errors detected after parsing."""


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        # A usage error, which argparse reports; so only this path loads it.
        import argparse

        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _cmd_count(args: SimpleNamespace) -> int:
    from .perms import PATTERN_321, count_321, count_pattern, parse_one_line

    perm = parse_one_line(args.perm)
    pattern = parse_one_line(args.pattern)
    # 321 has a sorted-prefix counter; the generic one costs a step per occurrence.
    if pattern == PATTERN_321:
        print(count_321(perm))
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


def _oracle_cap(args: SimpleNamespace) -> int:
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


def _oracle_progress(args: SimpleNamespace) -> Callable[[int, int], None] | None:
    if not args.progress:
        return None
    return lambda done, total: print(f"{done}/{total} positions done", file=sys.stderr)


def _oracle_count(args: SimpleNamespace, k: int) -> int:
    from .oracle import count_321_exactly_k

    return count_321_exactly_k(args.n, k, cap=_oracle_cap(args), progress=_oracle_progress(args))


def _write_lines(lines: Iterable[str], batch: int = _BATCH, progress: bool = False) -> int:
    """Write the lines to stdout, `batch` per write call; return how many.

    Under PYTHONUNBUFFERED every write is a system call. With `progress`,
    every 100000th line is reported on stderr; `batch` must divide that step.
    """
    out = sys.stdout
    lines = iter(lines)
    written = 0
    while chunk := list(islice(lines, batch)):
        out.write("\n".join(chunk) + "\n")
        written += len(chunk)
        if progress and written % 100000 == 0:
            print(f"{written} items", file=sys.stderr)
    return written


def _print_stream(tuples: Iterable[tuple[int, ...]], top: int, expected: int, progress: bool) -> None:
    # Every family's generator checked each tuple's values (and, for noonan,
    # its single 321) before yielding it; a line is one join over a table of
    # value strings. The emitted total must equal the closed-form count.
    text = list(map(str, range(top + 1))).__getitem__
    emitted = _write_lines((" ".join(map(text, t)) for t in tuples), progress=progress)
    if emitted != expected:
        raise InternalConstraintViolation(f"stream emitted {emitted} items, expected {expected}")


def _cmd_noonan(args: SimpleNamespace) -> int:
    # Checked once for every method: the formulas would refuse n = 0 on their
    # own, but the oracle and the bijection count would print 0.
    if args.n < 1:
        raise InvalidRange(f"noonan requires n >= 1, got {args.n}")
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
        from .bijection import _count_noonan

        cap = args.cap if args.cap is not None else DEFAULT_CAP
        value = _count_noonan(args.n, cap, args.threads)
    print(value)
    return 0


def _verify_rows(max_n: int) -> Iterator[tuple[int, int, int, int]]:
    """(n, convolution, Catalan form, closed form) of the one-321 count, n = 3..max_n.

    The convolution's differences C_b - C_{b-1} are taken from the Catalan
    table once, not once per n as noonan_convolution does; the closed form
    comes from the ratio walk of `seq --what noonan`, not from the table.
    """
    d = _differences(max_n)
    closed = islice(_noonan_closed_stream(max_n), 2, None)
    for n, c in zip(range(3, max_n + 1), closed):
        yield n, _self_convolution(d[: n - 2]), noonan_catalan_form(n), c


def _cmd_verify(args: SimpleNamespace) -> int:
    if args.max_n > _VERIFY_CAP:
        raise CapExceeded(
            f"verify --max-n {args.max_n} is above the cap {_VERIFY_CAP}: its per-n "
            f"convolutions grow about as N^3 (about 4 s at N = {_VERIFY_CAP})"
        )
    if args.max_n < 0:
        raise InvalidRange(f"verify requires max_n >= 0, got {args.max_n}")
    failures = 0
    lines = []
    for n, conv, cat, closed in _verify_rows(args.max_n):
        if conv == cat == closed:
            lines.append(f"n={n} PASS")
        else:
            failures += 1
            lines.append(f"n={n} FAIL convolution={conv} catalan_form={cat} closed={closed}")
    total = len(lines)
    lines.append(f"{total - failures}/{total} PASS")
    _write_lines(lines)
    return 1 if failures else 0


def _cmd_enumerate(args: SimpleNamespace) -> int:
    from .avoiders import DEFAULT_CAP, _avoider_tuples, _sigma1_tuples, _sigma2_tuples

    cap = args.cap if args.cap is not None else DEFAULT_CAP
    family = args.family
    if family in ("avoiders", "sigma2", "noonan") and args.n is None:
        raise UsageError(f"--n is required for --family {family}")
    if family in ("sigma1", "sigma2") and args.b is None:
        raise UsageError(f"--b is required for --family {family}")
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

        stream, top = _noonan_tuples(n, cap), n
        expected = noonan_closed(n) if n else 0
    _print_stream(stream, top, expected, args.progress)
    return 0


def _cmd_decompose(args: SimpleNamespace) -> int:
    from .bijection import decompose, format_decomposition
    from .perms import parse_one_line

    print(format_decomposition(decompose(parse_one_line(args.perm))))
    return 0


def _cmd_compose(args: SimpleNamespace) -> int:
    from .bijection import Decomposition, compose
    from .perms import parse_one_line, parse_value_sequence

    sigma1 = parse_one_line(args.sigma1)
    sigma2 = parse_value_sequence(args.sigma2)
    n = max(sigma2.values) if sigma2.values else args.b
    print(compose(Decomposition(b=args.b, sigma1=sigma1, sigma2=sigma2, n=n)))
    return 0


def _cmd_oracle(args: SimpleNamespace) -> int:
    print(_oracle_count(args, args.k))
    return 0


def _cmd_seq(args: SimpleNamespace) -> int:
    if args.what == "catalan":
        rows = enumerate(catalan_table(args.max_n))
    else:
        if args.max_n < 0:
            raise InvalidRange(f"seq requires max_n >= 0, got {args.max_n}")
        rows = enumerate(_noonan_closed_stream(args.max_n), 1)
    _write_lines((f"{n} {value}" for n, value in rows), _TABLE_BATCH)
    return 0


# The command table. Each command has its handler, its help and its flags.
# A flag is (kind, default, help): kind is a converter, a tuple of choices, or
# None for a switch that is False unless given; a default of _REQUIRED makes
# the flag required. _parse reads valid requests off this table, and
# build_parser builds argparse's parser from it for help and usage errors.
_REQUIRED = object()
_WORK_FLAGS = {
    "--threads": (
        _positive_int,
        1,
        "processes for the bijection count (noonan --method bijection); "
        "every other command runs in one process; the output never depends on it",
    ),
    "--cap": (int, None, "override the size cap"),
    "--progress": (None, False, "write progress to stderr"),
}
_COMMANDS = {
    "count": (_cmd_count, "count occurrences of a pattern in a permutation", {
        "--perm": (str, _REQUIRED, 'permutation in one-line notation, e.g. "3 2 1 4"'),
        "--pattern": (str, "3 2 1", 'pattern in one-line notation (default "3 2 1")'),
    }),
    "noonan": (_cmd_noonan, "count n-permutations containing 321 exactly once", {
        "--n": (int, _REQUIRED, None),
        "--method": (("closed", "catalan", "convolution", "oracle", "bijection"), "closed", None),
        **_WORK_FLAGS,
    }),
    "verify": (_cmd_verify, "check the three count formulas agree for n = 3..N", {
        "--max-n": (int, _REQUIRED, None),
    }),
    "enumerate": (_cmd_enumerate, "stream a permutation family, one per line", {
        "--family": (("avoiders", "sigma1", "sigma2", "noonan"), _REQUIRED, None),
        "--n": (int, None, None),
        "--b": (int, None, None),
        **_WORK_FLAGS,
    }),
    "decompose": (_cmd_decompose, "split a one-321 permutation into (b, sigma1, sigma2)", {
        "--perm": (str, _REQUIRED, None),
    }),
    "compose": (_cmd_compose, "rebuild a permutation from (b, sigma1, sigma2)", {
        "--b": (int, _REQUIRED, None),
        "--sigma1": (str, _REQUIRED, None),
        "--sigma2": (str, _REQUIRED, None),
    }),
    "oracle": (_cmd_oracle, "exhaustive count of n-permutations with exactly k 321s", {
        "--n": (int, _REQUIRED, None),
        "--k": (int, 1, None),
        **_WORK_FLAGS,
    }),
    "seq": (_cmd_seq, "print a sequence table as 'n value' lines", {
        "--what": (("catalan", "noonan"), _REQUIRED, None),
        "--max-n": (int, _REQUIRED, None),
    }),
}


def _parse(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace argparse would return for a plain `CMD --flag value ...` call.

    Returns None for anything else: help, `--`, `--flag=value`, abbreviated
    or repeated flags, a missing value or required flag, a value that starts
    with "-" and is not an integer (argparse reads it as an option), or a
    value the converter or the choices refuse. argparse then parses argv
    itself, so help, error text and exit status stay its own.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    handler, _, flags = _COMMANDS[argv[0]]
    given = {}
    words = iter(argv[1:])
    for flag in words:
        if flag not in flags or flag in given:
            return None
        kind = flags[flag][0]
        if kind is None:
            given[flag] = True
            continue
        text = next(words, None)
        if text is None:
            return None
        # argparse reads a value that starts with "-" as an option, unless it
        # is a negative number.
        if text.startswith("-") and not (text[1:].isascii() and text[1:].isdigit()):
            return None
        if isinstance(kind, tuple):
            if text not in kind:
                return None
            given[flag] = text
            continue
        try:
            given[flag] = kind(text)
        except Exception:  # int's ValueError or _positive_int's ArgumentTypeError
            return None
    values = {flag[2:].replace("-", "_"): given.get(flag, spec[1]) for flag, spec in flags.items()}
    if _REQUIRED in values.values():
        return None
    return SimpleNamespace(command=argv[0], handler=handler, **values)


def build_parser():
    """argparse's parser for the command table; it prints help and usage errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="permpat",
        description="Exact counting and enumeration of permutations by their 321 content.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, (kind, default, flag_help) in flags.items():
            options = {"help": flag_help}
            if kind is None:
                options["action"] = "store_true"
            elif isinstance(kind, tuple):
                options["choices"] = kind
            else:
                options["type"] = kind
            if default is _REQUIRED:
                options["required"] = True
            else:
                options["default"] = default
            p.add_argument(flag, **options)
        p.set_defaults(handler=handler)
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Parse argv, dispatch, and return the process exit status."""
    if hasattr(sys, "set_int_max_str_digits"):
        # Counts are exact integers; noonan --n 8000 already has 4800 digits.
        sys.set_int_max_str_digits(0)
    if argv is None:
        argv = sys.argv[1:]
    args = _parse(argv)
    if args is None:
        try:
            args = SimpleNamespace(**vars(build_parser().parse_args(argv)))
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
    # What is loaded by now (the interpreter, site and this package) lives
    # until exit. Frozen, it is never walked again by the collector, neither
    # during the request nor in the collections at exit.
    gc.freeze()
    sys.exit(run())


if __name__ == "__main__":
    main()
