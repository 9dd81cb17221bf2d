"""Cayley coset digraph connectivity toolkit."""

from .atoms import (AtomAnalysis, AtomCandidate, AtomTheoryReport,
                    kappa_group_theoretic, subgroup_atom_scan, verify_atom_theory)
from .coset import (CosetDigraph, CosetDigraphSpec, build, dedupe_generators,
                    generation_connectivity, stabiliser_translations, transpose_spec)
from .cp import (CPParams, cp_degree_profile, cp_spec, gamma, gamma_label,
                 verify_neighbor_multiplier, verify_prefix_structure)
from .digraph import (CutCertificate, Digraph, atoms_bruteforce,
                      e_atoms_bruteforce, edge_connectivity, is_strongly_connected,
                      neighbor_set, strongly_connected_components, transpose,
                      vertex_connectivity_transitive)
from .errors import (CapExceeded, CrossCheckError, GroupError,
                     NotStronglyConnected, SpecError)
from .perms import (GroupContext, Permutation, SubgroupHandle,
                    canonical_coset_rep, compose, double_coset,
                    double_coset_index, enumerate_closure, inverse,
                    left_coset_reps, normalizes, parse_cycles, print_cycles,
                    subgroup_generated, trivial_subgroup)
from .theorems import (Hypothesis, HypothesisReport, check_decomposition,
                       check_hierarchical_gen, check_hierarchical_gen_c,
                       check_tower, hierarchical_order_search,
                       oracle_kappa, sub_instance, verify_edge_connectivity,
                       verify_hierarchical_cayley)

__version__ = "0.1.0"
