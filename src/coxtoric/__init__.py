"""Exact construction and certification of toric varieties from Cox-ring data."""

__version__ = "0.1.0"

from .chambers import (Chamber, SameChamberResult, chamber_of, effective_cone,
                       same_chamber, spans_extremal_ray)
from .cones import RationalCone, cone_member, double_description, \
    generators_to_hrep, primitive
from .embedding import (CoxPresentationPair, RestrictionTable,
                        check_degree_bijection, check_pic_restriction,
                        mori_embedding_report, verify_restriction_table)
from .exact import (IntMat, det, dot, hermite_normal_form, kernel_lattice,
                    nullspace, rank, rational_solve, rref)
from .fans import (Cone, Fan, ProjectivityCertificate, Verdict,
                   fan_from_irrelevant, fan_report, is_complete,
                   is_projective, is_simplicial, validate_fan)
from .grading import DegreeMatrix, GaleDual, delpezzo4, gale_dual
# no package code calls linprog; it stays loaded for the tests, whose
# oracles solve LPs, and for tracers that wrap its functions by module
from . import linprog  # noqa: F401
from .incidence import (LineWitness, PositionVerdict, ProjPoint, ProjSubspace,
                        SearchExhausted, TransversalPlane,
                        find_transversal_plane, general_position_on_plane,
                        intersect, subspace_from_equations,
                        subspace_from_points, witness_plane_via_line)
from .monomials import (GuardExceeded, SquarefreeIdeal, caratheodory_supports,
                        derive_heft, irrelevant_radical, minimal_antichain,
                        minimal_supports_of_degree, monomials_of_degree,
                        radical_of_monomials)

__all__ = [
    "Chamber", "Cone", "CoxPresentationPair", "DegreeMatrix", "Fan",
    "GaleDual", "GuardExceeded", "IntMat", "LineWitness", "PositionVerdict",
    "ProjPoint", "ProjSubspace", "ProjectivityCertificate", "RationalCone",
    "RestrictionTable", "SameChamberResult", "SearchExhausted",
    "SquarefreeIdeal", "TransversalPlane", "Verdict", "caratheodory_supports",
    "chamber_of", "check_degree_bijection", "check_pic_restriction",
    "cone_member", "delpezzo4", "derive_heft", "det", "dot",
    "double_description", "effective_cone", "fan_from_irrelevant",
    "fan_report", "find_transversal_plane", "gale_dual",
    "general_position_on_plane", "generators_to_hrep",
    "hermite_normal_form", "intersect", "irrelevant_radical",
    "is_complete", "is_projective", "is_simplicial",
    "kernel_lattice", "minimal_antichain",
    "minimal_supports_of_degree", "monomials_of_degree",
    "mori_embedding_report", "nullspace", "primitive",
    "radical_of_monomials", "rank", "rational_solve", "rref",
    "same_chamber", "spans_extremal_ray",
    "subspace_from_equations", "subspace_from_points", "validate_fan",
    "verify_restriction_table", "witness_plane_via_line",
]
