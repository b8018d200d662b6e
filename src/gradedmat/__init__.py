"""Exact constructions, verification, and comparison of group gradings on matrix algebras.

Each exported name is imported from its home module on first use (PEP 562), so that
`import gradedmat` loads no submodule: without cached bytecode every module loaded
is compiled anew, and a command of the command line loads only the layers it runs.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "cyclotomic": ("CycNumber", "cyclotomic_polynomial", "euler_phi", "parse_scalar",
                   "root_of_unity"),
    "groups": ("Character", "FiniteAbelianGroup", "GroupElement", "subgroup_generated",
               "EmbeddingConditionError", "find_block_violation"),
    "matrices": ("Matrix", "build_isomorphism"),
    "linalg": ("SpanSolver", "independent_subset", "nullspace"),
    "gradings": ("Cocycle", "ElementaryUnits", "GradedAlgebra", "GradedMap", "GradingReport",
                 "HomomorphismReport", "IdentityComponentIdeal", "centralizer",
                 "character_action", "cocycle_from_units", "elementary_grading",
                 "epsilon_grading", "extract_cocycle", "graded_homomorphism_check",
                 "homogeneous_matrix_units", "identity_component_ideals",
                 "induced_tensor_grading", "is_elementary", "is_graded_subspace",
                 "is_invariant_subspace", "verify_grading"),
    "equivalence": ("OMEGA", "DefiningSequence", "EquivalenceWitness", "Signature",
                    "construct_beta", "decide_equivalence"),
    "embeddings": ("DecompositionPair", "GradedVectorSpace", "ModuleSplit",
                   "RegularizationResult", "block_diagonal_embedding",
                   "regularize_decomposition", "split_module_decomposition"),
    "chains": ("BlockStep", "BratteliDiagram", "ChainSpec", "DoubleStep", "FinitaryGrading",
               "TwistStep", "bratteli_of_chain", "chain_union_finitary", "diagrams_equal",
               "steinitz_signature"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _HOME:
        value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value  # later reads find it without calling this function
        return value
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
