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
from collections.abc import Iterable, Sequence
from itertools import islice
from types import SimpleNamespace

from .catalan import (
    TABLE_CAP,
    _noonan_closed_stream,
    binomial,
    catalan,
    catalan_table,
    noonan_catalan_form,
    noonan_closed,
    noonan_convolution,
)
from .errors import DomainError, InternalConstraintViolation, check_size

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
# The caps below bound what grows; README's table of bounds gives the time
# each one takes at its cap.
# `count` refuses the generic counter past this many subsequences of the
# pattern's length, binom(n, |pattern|): it takes up to one step per
# subsequence, when every one is an occurrence (the identity against 1 2 3).
_COUNT_WORK_CAP = 10**8
# `verify` refuses larger N: most of its time goes to the per-n
# convolutions, whose cost grows about as N^3.
_VERIFY_CAP = 2000
# `noonan --n` (the closed form) refuses larger n unless --cap lifts it:
# the cost of math.comb(2n, n+3) grows about as n^2 from 10^5 to 10^6.
_CLOSED_CAP = 100_000


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
    # 321 has a bit-set counter, quadratic only in machine words; the generic
    # one costs a step per occurrence.
    if pattern == PATTERN_321:
        print(count_321(perm))
        return 0
    n, m = len(perm), len(pattern)
    what = f"a pattern of length {m} in a permutation of length {n}"
    why = "the generic counter can take that many steps; only 3 2 1 has a fast counter"
    check_size(what, f"binom({n}, {m})", binomial(n, m), cap=_COUNT_WORK_CAP, why=why)
    print(count_pattern(perm, pattern))
    return 0


def _oracle_count(args: SimpleNamespace, k: int) -> int:
    from .oracle import count_321_exactly_k

    def report(done: int, total: int) -> None:
        print(f"{done}/{total} positions done", file=sys.stderr)

    return count_321_exactly_k(args.n, k, cap=args.cap, progress=report if args.progress else None)


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


def _cap(args: SimpleNamespace, default: int) -> int:
    """The --cap given, or else the command's default cap."""
    return default if args.cap is None else args.cap


def _cmd_noonan(args: SimpleNamespace) -> int:
    # The table methods are bounded by the Catalan table's own cap, which
    # --cap does not lift; a --cap they would ignore is refused.
    if args.cap is not None and args.method in ("catalan", "convolution"):
        raise UsageError(f"--cap is not read by --method {args.method}")
    # Checked once for every method: the formulas would refuse n = 0 on their
    # own, but the oracle and the bijection count would print 0.
    check_size("noonan", "--n", args.n, 1)
    if args.method == "closed":
        why = "the cost of binom(2n, n+3) grows about as n^2; --cap lifts the cap"
        check_size("the closed form", "--n", args.n, cap=_cap(args, _CLOSED_CAP), why=why)
        value = noonan_closed(args.n)
    elif args.method == "catalan":
        value = noonan_catalan_form(args.n)
    elif args.method == "convolution":
        value = noonan_convolution(args.n)
    elif args.method == "oracle":
        value = _oracle_count(args, 1)
    else:
        from .bijection import _count_noonan
        from .perms import DEFAULT_CAP

        value = _count_noonan(args.n, _cap(args, DEFAULT_CAP), args.threads)
    print(value)
    return 0


def _cmd_verify(args: SimpleNamespace) -> int:
    why = "its per-n convolutions grow about as N^3"
    check_size("verify", "--max-n", args.max_n, cap=_VERIFY_CAP, why=why)
    failures = 0
    lines = []
    # The closed form comes from the ratio walk of `seq --what noonan`, not
    # from the Catalan table the other two read.
    for n, closed in enumerate(islice(_noonan_closed_stream(args.max_n), 2, None), 3):
        conv, cat = noonan_convolution(n), noonan_catalan_form(n)
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
    from .avoiders import _avoider_tuples, _sigma1_tuples, _sigma2_tuples
    from .perms import DEFAULT_CAP

    family = args.family
    # Each family takes exactly the flags it reads.
    reads = {"avoiders": ("n",), "sigma1": ("b",), "sigma2": ("n", "b"), "noonan": ("n",)}[family]
    for flag, value in (("n", args.n), ("b", args.b)):
        if (flag in reads) != (value is not None):
            need = "is required for" if flag in reads else "is not read by"
            raise UsageError(f"--{flag} {need} --family {family}")
    n, b, cap = args.n, args.b, _cap(args, DEFAULT_CAP)
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
    from .bijection import _triple, compose

    print(compose(_triple(args.b, args.sigma1, args.sigma2)))
    return 0


def _cmd_oracle(args: SimpleNamespace) -> int:
    print(_oracle_count(args, args.k))
    return 0


def _cmd_seq(args: SimpleNamespace) -> int:
    # Printing N numbers of up to about 0.6 N digits costs about N^3, as
    # building the Catalan table does, so both tables share its cap.
    why = "either table's cost grows about as N^3"
    check_size("seq", "--max-n", args.max_n, cap=TABLE_CAP, why=why)
    if args.what == "catalan":
        rows = enumerate(catalan_table(args.max_n))
    else:
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
    "--cap": (
        int,
        None,
        "set the size cap, also of the closed form; the oracle then has no state budget; "
        "noonan --method catalan|convolution refuse it",
    ),
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
