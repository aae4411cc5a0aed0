"""Exact verification of twisted-character factorizations.

Evaluates classical-group characters at root-of-unity-twisted points in
exact arithmetic over Q (every value compared is rational, because the
twisted point multiset is stable under Galois conjugation), classifies
t-cores, and checks that each twisted character splits into the predicted
signed product of quotient characters.  Includes generating-function
machinery for the associated partition families.
"""

from .characters import (
    DegeneratePointError,
    GroupType,
    twisted_character,
    weyl_character,
)
# No runtime path computes in Q(w), and the package exports none of its
# names; the module is still loaded because the benchmark harness reads
# twistchar.cyclotomic from sys.modules during its timed set-up.
from . import cyclotomic  # noqa: F401
from .factorization import (
    SamplingError,
    TheoremId,
    VerificationReport,
    lhs_value,
    predict,
    rhs_value,
    sample_points,
    verify,
)
from .linalg import det
from .partitions import (
    Abacus,
    CoreClass,
    FrobeniusCoords,
    Partition,
    abacus,
    beta_set,
    classify_core,
    conjugate,
    core_from_offsets,
    core_size,
    frobenius,
    from_beta_set,
    from_frobenius,
    is_t_core,
    is_z_asymmetric,
    mu_padded,
    partitions_of,
    partitions_up_to,
    rank,
    size,
    t_core,
    z_asymmetric_up_to,
)
from .series import (
    LatticeVec,
    SeriesZ,
    enum_z_asymmetric,
    enum_z_asymmetric_cores,
    enum_z_cores,
    gf_z_asymmetric,
    gf_z_cores,
    phi,
    phi_inverse,
    theta_f,
    z_core_offsets,
)

__version__ = "0.1.0"

__all__ = [
    "Abacus",
    "CoreClass",
    "DegeneratePointError",
    "FrobeniusCoords",
    "GroupType",
    "LatticeVec",
    "Partition",
    "SamplingError",
    "SeriesZ",
    "TheoremId",
    "VerificationReport",
    "abacus",
    "beta_set",
    "classify_core",
    "conjugate",
    "core_from_offsets",
    "core_size",
    "det",
    "enum_z_asymmetric",
    "enum_z_asymmetric_cores",
    "enum_z_cores",
    "frobenius",
    "from_beta_set",
    "from_frobenius",
    "gf_z_asymmetric",
    "gf_z_cores",
    "is_t_core",
    "is_z_asymmetric",
    "lhs_value",
    "mu_padded",
    "partitions_of",
    "partitions_up_to",
    "phi",
    "phi_inverse",
    "predict",
    "rank",
    "rhs_value",
    "sample_points",
    "size",
    "t_core",
    "theta_f",
    "twisted_character",
    "verify",
    "weyl_character",
    "z_asymmetric_up_to",
    "z_core_offsets",
    "__version__",
]
