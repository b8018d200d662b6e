"""The public surface of the package: exported names, removed helpers, README examples,
the contract of the frozen value classes and what importing the command line loads."""

import os
import re
import subprocess
import sys

import pytest

import gradedmat
from gradedmat import (chains, cyclotomic, embeddings, equivalence, gradings, groups, linalg,
                       matrices, specio)
from gradedmat.cyclotomic import CycNumber
from gradedmat.matrices import Matrix

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

REMOVED = {
    groups: ("order_of",),
    equivalence: ("signature_of", "exhaustive_monomial_oracle"),
    chains: ("run_cycle", "_STABILIZATION_SLACK", "_tuple_ideals"),
    gradings.Cocycle: ("is_cocycle",),
    cyclotomic: ("_poly_mul", "_poly_sub", "_poly_divmod"),
    linalg: ("rank_of", "rref", "solve_linear"),
    linalg.SpanSolver: ("coordinates", "echelon_rows"),
    matrices.Matrix: ("flatten",),
    matrices: ("_EMPTY_ROW",),
    embeddings: ("check_block_condition",),
    embeddings.GradedVectorSpace: ("induced_tuple", "vector_degree"),
    gradings.GradedAlgebra: ("_union_basis",),
    gradings: ("_unit_relations_hold", "matrix_degree_for_tuple", "support_is_subgroup"),
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
    path = os.path.join(ROOT, "README.md")
    with open(path, encoding="utf-8") as handle:
        blocks = re.findall(r"^```python\n(.*?)^```$", handle.read(), re.M | re.S)
    assert len(blocks) == 4
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


G = groups.FiniteAbelianGroup((2, 3))
E, A = G.identity(), G.element((1, 2))
M = Matrix.identity(2)
ALG = gradings.elementary_grading(G, (E, A))
PAIR = embeddings.DecompositionPair(ALG, (M,), {E: M}, M)
UNITS = gradings.ElementaryUnits(2, {(0, 0): M}, (E, A))
SPEC = chains.ChainSpec(G, (E,), (chains.DoubleStep(),))
SEQUENCE = equivalence.DefiningSequence(G, (E, A), None)

# every value class: its field values, and one field replaced to give an unequal instance
VALUE_CLASSES = [
    (groups.FiniteAbelianGroup, ((2, 3),), (0, (2, 4))),
    (groups.GroupElement, (G, (1, 2)), (1, (0, 2))),
    (groups.Character, (G, (1, 2)), (1, (0, 2))),
    (gradings.GradingReport, (2, 4, True, True, ()), (2, False)),
    (gradings.Cocycle, (G, (E,), {(E, E): CycNumber.one()}), (1, (A,))),
    (gradings.IdentityComponentIdeal, (A, (0, 1)), (1, (0,))),
    (gradings.GradedMap, (ALG, ALG, ((M, M),)), (2, ())),
    (gradings.HomomorphismReport, (True, (), True, ()), (2, False)),
    (gradings.ElementaryUnits, (2, {(0, 0): M}, (E, A)), (0, 3)),
    (equivalence.Signature, (G, ((A, 2),)), (1, ((A, 1),))),
    (equivalence.DefiningSequence, (G, (A, E), None), (1, (E, A))),
    (equivalence.EquivalenceWitness, (A, (1, 0), None), (1, (0, 1))),
    (embeddings.GradedVectorSpace, (G, (A, E)), (1, (E, A))),
    (embeddings.ModuleSplit, ((), (), M, (A,)), (3, (E,))),
    (embeddings.DecompositionPair, (ALG, (M,), {E: M}, M), (1, ())),
    (embeddings.RegularizationResult, (PAIR, {E: M}, {E: M}, UNITS, True), (4, False)),
    (chains.DoubleStep, (), None),
    (chains.TwistStep, (A,), (0, E)),
    (chains.BlockStep, (1, 2, 0, (A, A)), (2, 1)),
    (chains.ChainSpec, (G, (E,), (chains.DoubleStep(),)), (1, (A,))),
    (chains.FinitaryGrading, (G, SPEC, SEQUENCE), (1, chains.ChainSpec(G, (A,), SPEC.steps))),
]
CUSTOM_REPRS = {groups.FiniteAbelianGroup: "Z2xZ3", groups.GroupElement: "(1,2)",
                groups.Character: "chi[1][2]"}


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError:
        return TypeError


def test_value_classes_are_every_subclass_of_the_frozen_base():
    def subclasses(cls):
        return {c for sub in cls.__subclasses__() for c in {sub} | subclasses(sub)}

    assert subclasses(groups._Frozen) == {cls for cls, _, _ in VALUE_CLASSES}
    assert len(VALUE_CLASSES) == 21
    for cls, values, _ in VALUE_CLASSES:
        assert cls._fields == tuple(vars(cls).get("__annotations__", {})), cls
        assert len(values) == len(cls._fields), cls


@pytest.mark.parametrize("cls, values, change", VALUE_CLASSES,
                         ids=[cls.__name__ for cls, _, _ in VALUE_CLASSES])
def test_value_class_contract(cls, values, change):
    fields = cls._fields
    x = cls(*values)
    y = cls(**dict(zip(fields, values)))
    mixed = cls(*values[:1], **dict(zip(fields[1:], values[1:])))
    assert tuple(getattr(x, name) for name in fields) == values
    assert x == y == mixed and not x != y
    assert _hash_or_error(x) == _hash_or_error(y) == _hash_or_error(values)
    if change is not None:
        index, value = change
        z = cls(*values[:index], value, *values[index + 1:])
        assert x != z and not x == z
    assert repr(x) == CUSTOM_REPRS.get(cls, cls.__name__ + "(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(fields, values)) + ")")

    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, unknown=None)
    if fields:
        with pytest.raises(TypeError):
            cls(*values[1:])
        with pytest.raises(TypeError):
            cls(*values, **{fields[0]: values[0]})

    for name in fields + ("unknown",):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert tuple(getattr(x, name) for name in fields) == values


def test_value_classes_are_unequal_across_classes():
    element, character = groups.GroupElement(G, (1, 2)), groups.Character(G, (1, 2))
    assert element.__eq__(character) is NotImplemented
    assert element != character and not element == character
    assert hash(element) == hash(character)
    instances = [cls(*values) for cls, values, _ in VALUE_CLASSES]
    for i, x in enumerate(instances):
        for y in instances[i + 1:]:
            assert x.__eq__(y) is NotImplemented and x != y


def test_cached_properties_of_value_classes_are_computed_once():
    gmap = gradings.GradedMap(ALG, ALG, tuple((m, m) for _, m in ALG.union_basis))
    assert gmap.apply(M) == M
    assert gmap._sources is vars(gmap)["_sources"] is gmap._sources
    assert PAIR.cocycle(E, E) == CycNumber.one()
    assert PAIR.cocycle is vars(PAIR)["cocycle"] is PAIR.cocycle


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    code = ("import sys, gradedmat.cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    result = subprocess.run([sys.executable, "-S", "-c", code], cwd=ROOT, capture_output=True,
                            text=True, timeout=60, env={**os.environ, "PYTHONPATH": "src"})
    assert (result.returncode, result.stdout) == (0, "[]\n")


def _child(code, *argv):
    """Run code in a fresh interpreter without site packages or bytecode writing."""
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, "-S", "-c", code, *argv], cwd=ROOT,
                          capture_output=True, text=True, timeout=60, env=env)


_LOADED = ("sys.stdout.flush(); print(' '.join(sorted(m[10:] for m in sys.modules "
           "if m.startswith('gradedmat.'))), file=sys.stderr)")
_RUN_CLI = ("import sys\nfrom gradedmat.cli import main\ntry:\n    main(sys.argv[1:])\n"
            "except SystemExit:\n    pass\n" + _LOADED)
_BASE = "cli cyclotomic groups specio"
_BUILD = _BASE + " gradings linalg matrices"
_CHAIN = _BASE + " chains equivalence"
_Z2 = '{"factors": [2]}'
_MAP = ('{"kind": "map", "domain": {"kind": "epsilon", "n": 1}, '
        '"codomain": {"kind": "epsilon", "n": 1}, '
        '"pairs": [[{"n": 1, "entries": [["1"]]}, {"n": 1, "entries": [["1"]]}]]}')


@pytest.mark.parametrize("argv, loaded", [
    (["--help"], _BASE),
    (["verify", "--spec", '{"kind": "epsilon", "n": 2}'], _BUILD),
    (["verify", "--spec", _MAP], _BUILD),
    (["equiv", "--group", _Z2, "--tau", "[[0], [1]]", "--tau-prime", "[[1], [0]]"],
     _BUILD + " equivalence"),
    (["equiv", "--group", _Z2, "--tau", "[[0], [0]]", "--tau-prime", "[[0], [1]]"],
     _BASE + " equivalence"),
    (["bratteli", "--spec", '{"group": ' + _Z2 + ', "base": [[0]], "steps": [{"kind": "double"}]}'],
     _CHAIN),
    (["demo-remark1"], _CHAIN),
    (["cocycle", "--spec", '{"kind": "epsilon", "n": 2}'], _BUILD),
    (["embed", "--spec", '{"group": ' + _Z2 + ', "source": [[0]], "m": 2, "r": 0, '
                         '"target": [[0], [1]]}'], _BUILD + " embeddings"),
], ids=["help", "verify-grading", "verify-map", "equiv-yes", "equiv-no", "bratteli",
        "demo-remark1", "cocycle", "embed"])
def test_each_command_loads_only_the_layers_it_runs(argv, loaded):
    result = _child(_RUN_CLI, *argv)
    assert "Traceback" not in result.stderr
    assert result.stderr.splitlines()[-1].split() == sorted(loaded.split())


def test_importing_the_package_loads_no_submodule_until_a_name_is_read():
    code = ("import sys, gradedmat\n" + _LOADED + "\n"
            "assert gradedmat.gradings.__name__ == 'gradedmat.gradings'\n"
            "from gradedmat import chains\n" + _LOADED)
    result = _child(code)
    bare, after = result.stderr.splitlines()
    assert bare == ""
    assert {"chains", "gradings"} <= set(after.split())


def test_every_exported_name_is_its_home_module_object():
    assert len(gradedmat.__all__) == 60
    namespace = {}
    exec("from gradedmat import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(gradedmat.__all__)
    for name in gradedmat.__all__:
        value = getattr(gradedmat, name)
        home = getattr(value, "__module__", None) or type(value).__module__
        assert namespace[name] is value is getattr(sys.modules[home], name), name
    assert set(gradedmat.__all__) | {"chains", "gradings", "groups"} <= set(dir(gradedmat))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        gradedmat.no_such_name
    assert not hasattr(gradedmat, "support_is_subgroup")
