"""Higher-order frames on manifolds: jet groups, canonical forms, torsion,
connections, deformations, and transverse structures for foliations.

Everything is finite-dimensional and numerical: group elements and frames
are tuples of dense tensors, differential identities are evaluated exactly
on polynomial data, and every structural theorem ships with a seeded
verification suite (see the ``formalframes verify`` command).
"""

from .bundle import (
    BundleTangent,
    FrameCoords,
    TangentIso,
    algebra_size,
    change_chart,
    change_chart_pushforward,
    coord_size,
    fundamental_vector,
    right_action,
    right_action_pushforward,
    tangent_iso,
)
from .charts import SmoothMapSpec, TransitionJet, jet_of_transition_as_group, transition_jet
from .connection import (
    ChristoffelField,
    christoffel_transform,
    connection_section,
    deformation_transform,
    section_pullback_connection,
    section_pushforward,
    symmetrize_connection,
)
from .deform import (
    DeformationPair,
    GarciaPairPoint,
    TangentAlgebraElement,
    TangentGroupElement,
    check_deformation_pair,
    covariant_derivative_residual,
    deform_canonical_form,
    deform_frame_iso,
    frame_pair_action,
    garcia_pair_action,
    horizontal_lift,
    lift_block_identity,
    t2m_transition,
    tg_adjoint,
    tg_bracket,
    tg_compose,
    tg_inverse,
    vertical_lift,
)
from .fields import PolyField
from .foliation import (
    BottData,
    FoliationTransition,
    bott_gauge_transform,
    bott_residual,
    deformation_equation_residual,
    transition_is_foliated,
    transverse_pushforward,
)
from .forms import (
    FrameCalculus,
    RealizabilityDisagreement,
    TorsionType,
    canonical_form,
    classical_tangent_projection,
    curvature,
    enumerate_torsion_types,
    is_classical_frame,
    realizability_check,
    schwarzian,
    schwarzian_frame,
    structural_residual,
    torsion,
)
from .garcia import (
    GarciaCoords,
    garcia_action,
    garcia_canonical_form,
    phi_map,
    phi_pushforward,
    psi_map,
)
from .jetgroup import (
    ClassicalJet,
    JetAlgebraElement,
    JetGroupElement,
    adjoint_action,
    classical_compose,
    epsilon_embed,
    is_classical,
    jet_compose,
    jet_identity,
    jet_inverse,
    kappa_project,
)
from .tensors import (
    AsymmetryError,
    LowerTensor,
    ShapeMismatchError,
    SingularityError,
    max_asymmetry,
    symmetrize_array,
)
from .verify import VerifyConfig, run_suites

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
