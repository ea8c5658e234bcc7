"""Scale functions for universal groups acting on coloured regular trees,
backed by a finite permutation-group Sylow/Hall engine and supernatural
numbers."""

from .bmtree import (AxisData, ScaleSpectrum, aggregate_scale, build_alternating,
                     build_tau_cycle, designated_sylow, inverse_axis,
                     localisation_scale, localized_scale, modular, scale,
                     scale_spectrum, symscale_case, validate_axis)
from .perm import ENUMERATION_BOUND, PermGroup, Permutation
from .supernat import Supernatural
from .sylow import (SylowBasis, basis_normaliser, core_commensurability_check,
                    fitting, p_core, pi_core, subgroup_index, sylow_basis,
                    sylow_of_symmetric, sylow_subgroup, verify_hall_covering)

__version__ = "0.1.0"

__all__ = [
    "AxisData", "ScaleSpectrum", "PermGroup", "Permutation", "Supernatural",
    "SylowBasis", "ENUMERATION_BOUND", "aggregate_scale", "basis_normaliser",
    "build_alternating", "build_tau_cycle", "core_commensurability_check",
    "designated_sylow", "fitting", "inverse_axis", "localisation_scale",
    "localized_scale", "modular", "p_core", "pi_core", "scale",
    "scale_spectrum", "subgroup_index", "sylow_basis", "sylow_of_symmetric",
    "sylow_subgroup", "symscale_case", "validate_axis", "verify_hall_covering",
]
