"""Higher-order frames on manifolds: jet groups, canonical forms, torsion,
connections, deformations, and transverse structures for foliations.

Everything is finite-dimensional and numerical: group elements and frames
are tuples of dense tensors, differential identities are evaluated exactly
on polynomial data, and every structural theorem ships with a seeded
verification suite (see the ``formalframes verify`` command).

Submodules load on first use: ``import formalframes`` imports none of them,
and the first access to a name below imports the module that defines it.
"""

import importlib

# submodule -> the names the package re-exports from it
_EXPORTS = {
    "bundle": (
        "BundleTangent", "FrameCoords", "TangentIso", "algebra_size", "change_chart",
        "change_chart_pushforward", "coord_size", "fundamental_vector", "right_action",
        "right_action_pushforward", "tangent_iso",
    ),
    "charts": ("SmoothMapSpec", "TransitionJet", "jet_of_transition_as_group", "transition_jet"),
    "connection": (
        "ChristoffelField", "christoffel_transform", "connection_section",
        "deformation_transform", "section_pullback_connection", "section_pushforward",
        "symmetrize_connection",
    ),
    "deform": (
        "DeformationPair", "GarciaPairPoint", "TangentAlgebraElement", "TangentGroupElement",
        "check_deformation_pair", "covariant_derivative_residual", "deform_canonical_form",
        "deform_frame_iso", "frame_pair_action", "garcia_pair_action", "horizontal_lift",
        "lift_block_identity", "t2m_transition", "tg_adjoint", "tg_bracket", "tg_compose",
        "tg_inverse", "vertical_lift",
    ),
    "fields": ("PolyField",),
    "foliation": (
        "BottData", "FoliationTransition", "bott_gauge_transform", "bott_residual",
        "deformation_equation_residual", "transition_is_foliated", "transverse_pushforward",
    ),
    "forms": (
        "FrameCalculus", "RealizabilityDisagreement", "TorsionType", "canonical_form",
        "classical_tangent_projection", "curvature", "enumerate_torsion_types",
        "is_classical_frame", "realizability_check", "schwarzian", "schwarzian_frame",
        "structural_residual", "torsion",
    ),
    "garcia": (
        "GarciaCoords", "garcia_action", "garcia_canonical_form", "phi_map", "phi_pushforward",
        "psi_map",
    ),
    "jetgroup": (
        "ClassicalJet", "JetAlgebraElement", "JetGroupElement", "adjoint_action",
        "classical_compose", "epsilon_embed", "is_classical", "jet_compose", "jet_identity",
        "jet_inverse", "kappa_project",
    ),
    "oracles": (),
    "taylor": (),
    "tensors": (
        "AsymmetryError", "LowerTensor", "ShapeMismatchError", "SingularityError",
        "max_asymmetry", "symmetrize_array",
    ),
    "verify": ("VerifyConfig", "run_suites"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_ORIGIN])

__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:  # importing a submodule binds it in this namespace
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
