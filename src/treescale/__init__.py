"""Scale functions for universal groups acting on coloured regular trees:
the scale of an axis, its inverse and modular value, the achieved scale
spectrum, local scales at a prime, and the case prediction for symmetric
local actions.  Underneath sit a finite permutation-group engine with
Sylow subgroups, cores, Sylow bases and the Hall covering check, and a few
number helpers (primality, factorisation, valuations)."""

from .bmtree import (AxisData, ScaleSpectrum, aggregate_scale, inverse_axis,
                     localisation_scale, localized_scale, modular, scale,
                     scale_spectrum, symscale_case)
from .perm import ENUMERATION_BOUND, PermGroup, Permutation
from .sylow import (SylowBasis, basis_normaliser, core_commensurability_check,
                    fitting, p_core, pi_core, sylow_basis, sylow_of_symmetric,
                    sylow_subgroup, verify_hall_covering)

__version__ = "0.1.0"

__all__ = [
    "AxisData", "ScaleSpectrum", "PermGroup", "Permutation", "SylowBasis",
    "ENUMERATION_BOUND", "aggregate_scale", "basis_normaliser",
    "core_commensurability_check", "fitting", "inverse_axis",
    "localisation_scale", "localized_scale", "modular", "p_core", "pi_core",
    "scale", "scale_spectrum", "sylow_basis", "sylow_of_symmetric",
    "sylow_subgroup", "symscale_case", "verify_hall_covering",
]
