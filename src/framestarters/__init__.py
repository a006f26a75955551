"""Frame starters in finite abelian groups: verification, search, certificates."""

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
    Adder,
    FrameStarter,
    Pair,
    TypeCensus,
    VerificationReport,
    half_set,
    make_starter,
    negate_starter,
    quadratic_sum_check,
    type_census,
    verify_orthogonal,
    verify_skew,
)
from .theory import (
    NonexistenceCertificate,
    StarterType,
    adder_is_skew,
    adder_to_strong,
    census_certificate,
    census_identities,
    certify,
    exhaustion_certificate,
    patterned_starter,
    residue_class_sizes,
    starter_type_of,
    strong_to_adder,
    sum_of_squares_closed_form,
    prior_theorem_certificate,
    prior_theorem_certificate_group,
    quadratic_congruence_certificate,
)
from .search import (
    SearchConfig,
    SearchOutcome,
    canonical_first_branch,
    naive_enumerate,
    search,
)

__version__ = "0.1.0"
