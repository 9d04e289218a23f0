"""Exact diagonalization of lattice fermion models with ground-state spin and
cone-positivity verification.

scipy's submodules (``scipy.sparse``, ``scipy.linalg``) load on first use,
not on import: a short run is dominated by its set-up, and importing them
would more than double it.
"""

from .lattice import (Graph, Bipartition, LatticeFamily, bipartition,
                      normal_spanning_tree, relabel, sublattice_imbalance,
                      spin_density_sequence, path_graph, cycle_graph,
                      star_graph, grid_graph, read_edge_list, write_edge_list)
from .fock import (SubspaceKind, SectorBasis, enumerate_sector,
                   sector_dimension, sector_twice_m_values)
from .operators import (SparseOperator, spin_op, spin_dot, ladder_ops,
                        hopping, coulomb, gutzwiller, hole_particle,
                        phonon_ops, full_fock_basis,
                        embed_isometry, nesting_projection,
                        annihilation_matrix, creation_matrix)
from .hamiltonians import (ModelSpec, ValidationReport, build, coupling_matrix,
                           kondo_graphs, u_effective, validate)
from .spectra import (GroundSpace, SolverError, SolverStats, MixedMultipletError,
                      dense_eigensolve, lanczos_ground, ground_space,
                      total_spin_of)
from .cones import (DiagonalCone, PSDMatrixCone, mlm_cone, nt_cone,
                    hubbard_cone, kondo_cone, membership, strict_positivity,
                    gauge_fix, modular_conjugation, positivity_preserving,
                    ergodicity, monotonicity_check, nesting_consistency)
from .verify import (GroundStateReport, ValidationFailure, verify_mlm_class,
                     verify_nt_class, verify_kondo, verify_stability_pair,
                     verify_nesting_pair, magnetic_order_scan,
                     isomorphism_invariance, constancy_check,
                     cutoff_convergence, u_limit_comparison,
                     predicted_twice_spin)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
