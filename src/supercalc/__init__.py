"""supercalc: exact Z2-graded (super) calculus.

Grassmann/supernumber arithmetic, superanalytic lifting, Berezin and
mixed integration, graded exterior calculus of forms and densities with
the full operator algebra, graded matrices with the supertranspose,
supersymmetric Fock spaces in three representations, and the Clifford
construction on an exterior algebra - all over exact complex rationals.
"""

from .scalars import CRat
from .grassmann import (
    Convention,
    GeneratorMismatch,
    NotInvertible,
    Parity,
    Supernumber,
)
from .analytic import AnalyticSeed, SeedDomainError, lift, seed_by_name
from .polynomials import Polynomial
from .berezin import (
    Domain,
    MixedFunction,
    Normalization,
    berezin_integral,
    change_of_variables_check,
    density_pairing,
    grassmann_derivative,
    mixed_integral,
    tensor_product,
)
from .matrices import (
    GradedMatrix,
    GradedVector,
    ParityError,
    ParitySignature,
    apply_to_vector,
    matmul,
    superhermitian,
    supertranspose,
)
from .forms import (
    CoordinateSystem,
    SuperDensity,
    SuperForm,
    SuperVectorField,
    contract_iX,
    divergence,
    exterior_d,
    insert_iX,
    integrate_density,
    lie_derivative,
    pairing,
    wedge,
)
from .metric import (
    Metric,
    MetricError,
    beta_ascending,
    cg_inverse,
    correspondence_cg,
    hodge_star,
    hodge_star_inverse,
    metric_delta,
    volume_density,
)
from .fock import FockAlgebraSpec, FockState, apply, dual_product, inner_product, translate
from .clifford import CliffordContext, current, gamma, gamma0, reversal

__version__ = "0.1.0"

__all__ = [
    "AnalyticSeed",
    "CliffordContext",
    "Convention",
    "CoordinateSystem",
    "CRat",
    "Domain",
    "FockAlgebraSpec",
    "FockState",
    "GeneratorMismatch",
    "GradedMatrix",
    "GradedVector",
    "Metric",
    "MetricError",
    "MixedFunction",
    "Normalization",
    "NotInvertible",
    "Parity",
    "ParityError",
    "ParitySignature",
    "Polynomial",
    "SeedDomainError",
    "SuperDensity",
    "SuperForm",
    "SuperVectorField",
    "Supernumber",
    "apply",
    "apply_to_vector",
    "berezin_integral",
    "beta_ascending",
    "cg_inverse",
    "change_of_variables_check",
    "contract_iX",
    "correspondence_cg",
    "current",
    "density_pairing",
    "divergence",
    "dual_product",
    "exterior_d",
    "gamma",
    "gamma0",
    "grassmann_derivative",
    "hodge_star",
    "hodge_star_inverse",
    "inner_product",
    "insert_iX",
    "integrate_density",
    "lie_derivative",
    "lift",
    "matmul",
    "metric_delta",
    "mixed_integral",
    "pairing",
    "reversal",
    "seed_by_name",
    "superhermitian",
    "supertranspose",
    "tensor_product",
    "translate",
    "volume_density",
    "wedge",
]
