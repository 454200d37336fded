"""Exact combinatorics of permutations containing the pattern 321 exactly once.

The package provides validated permutation types, exact pattern counting,
generation of 321-avoiding families, the decomposition pairing one-321
permutations with constrained avoider pairs, exact Catalan arithmetic for
the resulting count identities, and an exhaustive oracle (a count over
prefix states, checked against a naive n! scan) that checks all of it from
first principles.
"""

# `catalan` loads eagerly, and before anything else can import it: importing
# a submodule binds the package attribute of the same name to the module, and
# the function catalan() must own that name. Importing an already-loaded
# submodule leaves the attribute alone. `errors` comes with it.
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

__version__ = "0.1.0"

# Every other module loads on first use of one of its names (or of the
# module itself): each CLI call is a fresh process, and most commands need
# none of them.
_LAZY = {
    "avoiders": (
        "enumerate_avoiders",
        "enumerate_sigma1",
        "enumerate_sigma2",
    ),
    "bijection": (
        "Decomposition",
        "compose",
        "decompose",
        "enumerate_noonan",
        "format_decomposition",
        "parse_decomposition",
        "validate_decomposition",
    ),
    "oracle": (
        "DEFAULT_ORACLE_CAP",
        "brute_count_exactly_k",
        "brute_distribution",
        "brute_noonan_set",
        "count_321_exactly_k",
        "distribution_321",
    ),
    "perms": (
        "DEFAULT_CAP",
        "PATTERN_321",
        "Occurrence321",
        "Permutation",
        "ValueSequence",
        "count_321",
        "count_occurrences",
        "count_pattern",
        "find_unique_321",
        "from_one_line",
        "is_avoiding_321",
        "parse_one_line",
        "parse_value_sequence",
        "standardize",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str) -> object:
    module = _HOME.get(name, name)
    if module not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    loaded = import_module(f".{module}", __name__)
    if module == name:
        return loaded
    value = globals()[name] = getattr(loaded, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_HOME})


# Each public name is listed once, above: the eager ones are the globals the
# imports bound from a submodule, the lazy ones are the names of _LAZY.
__all__ = sorted(
    [
        name
        for name, value in globals().items()
        if getattr(value, "__module__", "").startswith(f"{__name__}.")
    ]
    + list(_HOME)
)
