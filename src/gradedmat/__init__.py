"""Exact constructions, verification, and comparison of group gradings on matrix algebras."""

from .cyclotomic import CycNumber, cyclotomic_polynomial, euler_phi, parse_scalar, \
    root_of_unity
from .groups import Character, FiniteAbelianGroup, GroupElement, subgroup_generated
from .matrices import Matrix
from .linalg import SpanSolver, independent_subset, nullspace, rank_of, rref, solve_linear
from .gradings import (Cocycle, ElementaryUnits, GradedAlgebra, GradedMap,
                       GradingReport, HomomorphismReport, IdentityComponentIdeal,
                       centralizer, character_action, cocycle_from_units,
                       elementary_grading, epsilon_grading, extract_cocycle,
                       graded_homomorphism_check, homogeneous_matrix_units,
                       identity_component_ideals, induced_tensor_grading, is_elementary,
                       is_graded_subspace, is_invariant_subspace, matrix_degree_for_tuple,
                       support_is_subgroup, verify_grading)
from .equivalence import (OMEGA, DefiningSequence, EquivalenceWitness, Signature,
                          build_isomorphism, construct_beta, decide_equivalence,
                          exhaustive_monomial_oracle)
from .embeddings import (DecompositionPair, EmbeddingConditionError, GradedVectorSpace,
                         ModuleSplit, RegularizationResult, block_diagonal_embedding,
                         check_block_condition, find_block_violation,
                         regularize_decomposition, split_module_decomposition)
from .chains import (BlockStep, BratteliDiagram, ChainSpec, DoubleStep, FinitaryGrading,
                     TwistStep, bratteli_of_chain, chain_union_finitary, diagrams_equal,
                     steinitz_signature)

__all__ = [
    "CycNumber", "cyclotomic_polynomial", "euler_phi", "parse_scalar", "root_of_unity",
    "Character", "FiniteAbelianGroup", "GroupElement", "subgroup_generated",
    "Matrix",
    "SpanSolver", "independent_subset", "nullspace", "rank_of", "rref", "solve_linear",
    "Cocycle", "ElementaryUnits", "GradedAlgebra", "GradedMap", "GradingReport",
    "HomomorphismReport", "IdentityComponentIdeal", "centralizer", "character_action",
    "cocycle_from_units", "elementary_grading", "epsilon_grading", "extract_cocycle",
    "graded_homomorphism_check", "homogeneous_matrix_units", "identity_component_ideals",
    "induced_tensor_grading", "is_elementary", "is_graded_subspace",
    "is_invariant_subspace", "matrix_degree_for_tuple", "support_is_subgroup",
    "verify_grading",
    "OMEGA", "DefiningSequence", "EquivalenceWitness", "Signature", "build_isomorphism",
    "construct_beta", "decide_equivalence", "exhaustive_monomial_oracle",
    "DecompositionPair", "EmbeddingConditionError", "GradedVectorSpace", "ModuleSplit",
    "RegularizationResult", "block_diagonal_embedding", "check_block_condition",
    "find_block_violation", "regularize_decomposition", "split_module_decomposition",
    "BlockStep", "BratteliDiagram", "ChainSpec", "DoubleStep", "FinitaryGrading",
    "TwistStep", "bratteli_of_chain", "chain_union_finitary", "diagrams_equal",
    "steinitz_signature",
]

__version__ = "0.1.0"
