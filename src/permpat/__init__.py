"""Exact combinatorics of permutations containing the pattern 321 exactly once.

The package provides validated permutation types, exact pattern counting,
generation of 321-avoiding families, the decomposition pairing one-321
permutations with constrained avoider pairs, exact Catalan arithmetic for
the resulting count identities, and an exhaustive oracle (a count over
prefix states, checked against a naive n! scan) that checks all of it from
first principles.
"""

from .avoiders import (
    DEFAULT_CAP,
    enumerate_avoiders,
    enumerate_sigma1,
    enumerate_sigma2,
    is_avoiding_321,
)
from .bijection import (
    Decomposition,
    compose,
    decompose,
    enumerate_noonan,
    format_decomposition,
    parse_decomposition,
    validate_decomposition,
)
from .catalan import (
    binomial,
    catalan,
    catalan_table,
    noonan_catalan_form,
    noonan_closed,
    noonan_convolution,
)
from .errors import (
    CapExceeded,
    ConstraintViolation,
    DomainError,
    InternalConstraintViolation,
    InvalidRange,
    MultipleOccurrences,
    NoOccurrence,
    NonIntegerResult,
    NotAPermutation,
    NoUnique321,
)
from .perms import (
    PATTERN_321,
    Occurrence321,
    Permutation,
    ValueSequence,
    count_321,
    count_321_fenwick,
    count_occurrences,
    count_pattern,
    find_unique_321,
    from_one_line,
    parse_one_line,
    parse_value_sequence,
    standardize,
)

__version__ = "0.1.0"

# The oracle loads on first use: of the CLI commands, each a fresh process,
# only the two oracle ones need it.
_ORACLE_NAMES = frozenset(
    ("DEFAULT_ORACLE_CAP", "brute_count_exactly_k", "brute_noonan_set", "count_321_exactly_k")
)


def __getattr__(name: str) -> object:
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CapExceeded",
    "ConstraintViolation",
    "DEFAULT_CAP",
    "DEFAULT_ORACLE_CAP",
    "Decomposition",
    "DomainError",
    "InternalConstraintViolation",
    "InvalidRange",
    "MultipleOccurrences",
    "NoOccurrence",
    "NonIntegerResult",
    "NotAPermutation",
    "NoUnique321",
    "Occurrence321",
    "PATTERN_321",
    "Permutation",
    "ValueSequence",
    "binomial",
    "brute_count_exactly_k",
    "brute_noonan_set",
    "catalan",
    "catalan_table",
    "compose",
    "count_321",
    "count_321_exactly_k",
    "count_321_fenwick",
    "count_occurrences",
    "count_pattern",
    "decompose",
    "enumerate_avoiders",
    "enumerate_noonan",
    "enumerate_sigma1",
    "enumerate_sigma2",
    "find_unique_321",
    "format_decomposition",
    "from_one_line",
    "is_avoiding_321",
    "noonan_catalan_form",
    "noonan_closed",
    "noonan_convolution",
    "parse_decomposition",
    "parse_one_line",
    "parse_value_sequence",
    "standardize",
    "validate_decomposition",
]
