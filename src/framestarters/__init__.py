"""Frame starters in finite abelian groups: verification, search, certificates.

The names that no search, table row or corpus load runs resolve on first
use (PEP 562), each from the module `_LAZY` names: the starter algebra
(`algebra`) and the brute-force oracle (`oracle`).
"""

__version__ = "0.2.0"  # set first: search certificates name it

from .errors import (
    FrameStarterError,
    InvalidHomomorphismError,
    InvalidTypeError,
    NotComparableError,
    SchemaError,
    StructureError,
    UnsupportedOperationError,
)
from .groups import (
    Element,
    GroupSpec,
    SubgroupSpec,
    complement,
    cyclic_subgroup,
    generated_subgroup,
    reduce_mod,
    trivial_subgroup,
)
from .starters import (
    FrameStarter,
    Pair,
    VerificationReport,
    make_starter,
    verify_skew,
)
from .theory import (
    NonexistenceCertificate,
    StarterType,
    census_certificate,
    certify,
    prior_theorem_certificate,
    prior_theorem_certificate_group,
    quadratic_congruence_certificate,
)
from .search import SearchConfig, SearchOutcome, search

_LAZY = {
    **dict.fromkeys((
        "Adder", "TypeCensus", "adder_is_skew", "adder_to_strong",
        "census_identities", "half_set", "negate_starter", "patterned_starter",
        "quadratic_sum_check", "residue_class_sizes", "strong_to_adder",
        "sum_of_squares_closed_form", "type_census", "verify_orthogonal",
    ), "algebra"),
    "naive_enumerate": "oracle",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f".{_LAZY[name]}", __name__), name)
