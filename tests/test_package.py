"""The public surface of the package: exported names, removed helpers, README examples."""

import os
import re

import gradedmat
from gradedmat import (chains, cyclotomic, embeddings, equivalence, gradings, groups, linalg,
                       matrices, specio)

REMOVED = {
    groups: ("order_of",),
    equivalence: ("signature_of", "exhaustive_monomial_oracle"),
    chains: ("run_cycle", "_STABILIZATION_SLACK", "_tuple_ideals"),
    gradings.Cocycle: ("is_cocycle",),
    cyclotomic: ("_poly_mul", "_poly_sub", "_poly_divmod"),
    linalg: ("rank_of", "rref", "solve_linear"),
    linalg.SpanSolver: ("coordinates", "echelon_rows"),
    matrices.Matrix: ("flatten",),
    embeddings: ("check_block_condition",),
    gradings.GradedAlgebra: ("_union_basis",),
    chains.FinitaryGrading: ("prefixes",),
    specio: ("parse_grading_or_map", "GradingOrMap"),
    equivalence.Signature: ("is_finitary",),
}


def test_every_exported_name_resolves_once():
    assert len(gradedmat.__all__) == len(set(gradedmat.__all__))
    for name in gradedmat.__all__:
        assert getattr(gradedmat, name) is not None, name


def test_removed_helpers_are_gone():
    for module, names in REMOVED.items():
        for name in names:
            assert name not in gradedmat.__all__
            assert not hasattr(gradedmat, name)
            assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_readme_python_examples_run_in_order():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
    with open(path, encoding="utf-8") as handle:
        blocks = re.findall(r"^```python\n(.*?)^```$", handle.read(), re.M | re.S)
    assert len(blocks) == 4
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
