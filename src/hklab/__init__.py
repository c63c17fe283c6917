"""hklab: exact rational computer algebra for hyperkahler-style graded algebras.

The package builds the degree-2-generated component of a hyperkahler-type
cohomology algebra from a rational quadratic space, equips it with Lefschetz
and dual Lefschetz operators, the model monodromy commutator, weight and
perverse filtrations, and the bigraded diamond decomposition, and verifies
the expected operator identities with exact arithmetic (no floats anywhere).
"""

# Unused by the package; perfbench/spans.py traces _modp.ModpReducer by name.
from hklab import _modp  # noqa: F401
from hklab.linalg import QQ, Mat, Subspace
from hklab.quadforms import (
    QuadraticSpace,
    IsotropicPlane,
    Isometry,
    make_standard_space,
    mukai_extension,
    sample_isotropic,
    witt_transport,
)
from hklab.verbitsky import GradedAlgebra, AlgebraElement, build_verbitsky
from hklab.llv import (
    GradedOperator,
    HodgeFrame,
    SL2Triple,
    Bigrading,
    build_frame,
    bigrading,
    lefschetz,
    grading,
    dual_lefschetz,
    verify_sl2,
)

__version__ = "0.1.0"
