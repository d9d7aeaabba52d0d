"""Closed-form rank-k solution families of the isentropic fluid system.

The registry holds one entry per family: wave composition, profile presets,
parameter defaults and structural constraints, singular-time formulas, and
validity windows.  ``make_family`` builds a validated FamilySpec,
and ``FamilySpec.evaluate_batch`` solves it at spacetime points.
"""

from ..fluid import ConstraintError
from .base import FamilySpec, STATUS_LABELS
from .registry import (
    REGISTRY_IDS,
    family_defaults,
    family_info,
    make_family,
    registry_entries,
)

__all__ = [
    "ConstraintError",
    "FamilySpec",
    "STATUS_LABELS",
    "REGISTRY_IDS",
    "family_defaults",
    "family_info",
    "make_family",
    "registry_entries",
]
