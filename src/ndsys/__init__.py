"""Lattice-structure toolkit for multidimensional linear difference systems.

Systems are kernels of Laurent-polynomial operator matrices acting on
rational signals over Z^n.  The package computes canonical generating sets,
restrictions of systems to integer sublattices and their inverses, the
coarsest lattice a system can be reconstructed from, and the standard
behavioral classifications, all in exact rational arithmetic with an
independent finite-window oracle for verification.
"""

from .intlat import (GaloisSubgroup, IntLattice, IntMatrix, SmithDecomposition,
                     diagonal_lattice, full_lattice, hnf, join,
                     lattice_from_rows, lattice_to_subgroup, meet, smith,
                     subgroup_to_lattice, zero_lattice)
from .laurent import (LaurentPoly, LaurentVec, PolyParseError, coset_split,
                      parse_poly, parse_vector, poly_to_str, vector_to_str)
from .groebner import (InvariantError, Submodule, TermOrder, eliminate,
                       groebner_basis, member, module_quotient,
                       submodule_contains, submodule_equal, syzygies)
from .sublattice import (ContractedModule, SublatticeContext, contract,
                         contract_extend_roundtrips, contracted_module,
                         extend, extend_vector, galois_group_of,
                         is_extension_from, sublattice_context)
from .coarsest import (CoarsestReport, brute_force_coarsest, coarsest_lattice,
                       is_constant_module, support_difference_lattice)
from .analysis import (AnalysisReport, analyze, decomposition,
                       degree_of_autonomy, image_representation,
                       is_autonomous, is_controllable, rank_over_fractions,
                       torsion_closure, transfer_checks)
from .trajectories import (Window, WindowSolutionSpace, WindowSpan,
                           box_window, explicit_window,
                           extension_product_check, restriction_check,
                           window_solutions)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport", "CoarsestReport", "ContractedModule", "GaloisSubgroup",
    "IntLattice", "IntMatrix", "InvariantError", "LaurentPoly", "LaurentVec",
    "PolyParseError", "SmithDecomposition", "SublatticeContext", "Submodule",
    "TermOrder", "Window", "WindowSolutionSpace", "WindowSpan",
    "analyze", "box_window", "brute_force_coarsest", "coarsest_lattice",
    "contract", "contract_extend_roundtrips", "contracted_module",
    "coset_split", "decomposition", "degree_of_autonomy", "diagonal_lattice",
    "eliminate", "explicit_window", "extend", "extend_vector",
    "extension_product_check", "full_lattice", "galois_group_of",
    "groebner_basis", "hnf", "image_representation", "is_autonomous",
    "is_constant_module", "is_controllable", "is_extension_from", "join",
    "lattice_from_rows", "lattice_to_subgroup", "meet", "member",
    "module_quotient", "parse_poly", "parse_vector", "poly_to_str",
    "rank_over_fractions", "restriction_check", "smith",
    "subgroup_to_lattice", "sublattice_context", "submodule_contains",
    "submodule_equal", "support_difference_lattice", "syzygies",
    "torsion_closure", "transfer_checks",
    "vector_to_str", "window_solutions", "zero_lattice",
]
