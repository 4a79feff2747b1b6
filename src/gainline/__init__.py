"""Gain graphs over arbitrary finite groups.

Table-backed groups, group-algebra matrices, G-phases, gain-line graphs,
switching equivalence, and representation-based Hermitian spectra with the
spectral necessary conditions for being a gain-line graph.
"""

from .algebra import AlgebraElement, CGMatrix, group_diagonal
from .errors import GainlineError, InputError, ValidationError
from .gain import (GainFunction, balance_witness, constant_gain,
                   gain_adjacency, gain_from_dict, gain_to_dict, s_laplacian,
                   switch, switching_to, walk_gain)
from .graph import (LineGraphData, Orientation, SimpleGraph,
                    classical_matrices, default_orientation, graph_from_dict,
                    graph_to_dict, incidence_matrix, line_graph)
from .group import (FiniteGroup, build_group, center, central_weak_involutions,
                    cyclic, dihedral, direct_product, group_to_dict,
                    quaternion8, sign_group, t4)
from .phase import (GPhase, PhaseContext, act, gain_line, incidence_phase,
                    phase_from_dict, phase_from_orientation, phase_to_dict,
                    psi, psi_line, recognize_gain_line, reff_line_phase,
                    same_orbit)
from .representation import (UnitaryRepresentation, builtin_representation,
                             fourier, hermitian_spectrum, invariant_blocks,
                             multiplicity_groups, q8_representation,
                             regular_representation, representation_from_dict,
                             representation_to_dict, represented_spectrum,
                             root_of_unity_representation, sign_character,
                             trivial_representation)
from .spectral import (ObstructionVerdict, classify_s2_image,
                       gainline_obstruction, verify_line_identity)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
