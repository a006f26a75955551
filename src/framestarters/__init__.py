"""Frame starters in finite abelian groups: verification, search, certificates."""

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
    Adder,
    FrameStarter,
    Pair,
    TypeCensus,
    VerificationReport,
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
    half_set,
    patterned_starter,
    residue_class_sizes,
    strong_to_adder,
    sum_of_squares_closed_form,
    prior_theorem_certificate,
    prior_theorem_certificate_group,
    quadratic_congruence_certificate,
)
from .search import (
    SearchConfig,
    SearchOutcome,
    naive_enumerate,
    search,
)
