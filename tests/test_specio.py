"""JSON parsing and serialization round-trips, plus error reporting paths."""

import pytest

from gradedmat.chains import BlockStep, ChainSpec, DoubleStep, TwistStep
from gradedmat.cyclotomic import CycNumber, root_of_unity
from gradedmat.equivalence import OMEGA, DefiningSequence, decide_equivalence
from gradedmat.gradings import GradedMap, elementary_grading, epsilon_grading
from gradedmat.groups import FiniteAbelianGroup
from gradedmat.matrices import Matrix
from gradedmat.specio import (SpecError, chain_to_json, declared_dimension, element_key,
                              element_to_json,
                              grading_to_json, group_to_json, map_to_json,
                              matrix_to_json, parse_chain, parse_element,
                              parse_element_key, parse_grading,
                              parse_group, parse_map, parse_matrix, parse_tuple,
                              signature_to_json, witness_to_json)

Z2 = FiniteAbelianGroup((2,))
E0 = Z2.element((0,))
A0 = Z2.element((1,))


def test_group_round_trip():
    G = FiniteAbelianGroup((2, 4))
    assert parse_group(group_to_json(G)) == G


def test_parse_group_errors_carry_paths():
    with pytest.raises(SpecError) as info:
        parse_group({"factors": []})
    assert info.value.path == "group.factors"
    with pytest.raises(SpecError) as info:
        parse_group({"factors": [2, 0]})
    assert "factors" in info.value.path
    with pytest.raises(SpecError) as info:
        parse_group([2])
    assert info.value.path == "group"
    with pytest.raises(SpecError) as info:
        parse_group({})
    assert "factors" in str(info.value)


def test_element_round_trip_and_key():
    G = FiniteAbelianGroup((2, 3))
    g = G.element((1, 2))
    assert parse_element(element_to_json(g), G, "x") == g
    assert element_key(g) == "1,2"
    assert parse_element_key("1,2", G, "x") == g


def test_element_errors():
    with pytest.raises(SpecError):
        parse_element([0, 1], Z2, "x")  # wrong rank
    with pytest.raises(SpecError):
        parse_element(["a"], Z2, "x")
    with pytest.raises(SpecError):
        parse_element_key("zzz", Z2, "x")
    with pytest.raises(SpecError):
        parse_tuple("nope", Z2, "x")
    with pytest.raises(SpecError):
        parse_tuple([], Z2, "x")


def test_matrix_round_trip_with_roots():
    from fractions import Fraction
    m = Matrix([[CycNumber.rational(Fraction(1, 2)), root_of_unity(4, 1)],
                [root_of_unity(3, 2) * CycNumber.rational(-2), CycNumber.zero()]])
    assert parse_matrix(matrix_to_json(m), "m") == m
    payload = matrix_to_json(m)
    assert payload["n"] == 2
    assert payload["entries"][0][0] == "1/2"


def test_matrix_errors():
    with pytest.raises(SpecError) as info:
        parse_matrix({"n": 2, "entries": [["1", "0"]]}, "m")
    assert info.value.path.startswith("m")
    with pytest.raises(SpecError):
        parse_matrix({"n": 2, "entries": [["1", "0"], ["0", "z4"]]}, "m")
    with pytest.raises(SpecError):
        parse_matrix({"entries": []}, "m")
    with pytest.raises(SpecError):
        parse_matrix({"n": 0, "entries": []}, "m")


def test_elementary_grading_round_trip():
    alg = elementary_grading(Z2, (E0, A0, A0))
    payload = grading_to_json(alg)
    assert payload["kind"] == "elementary"
    assert payload["tuple"] == [[0], [1], [1]]
    back = parse_grading(payload)
    assert back.group == alg.group
    assert back.components == alg.components


def test_epsilon_and_tensor_specs_parse():
    eps = parse_grading({"kind": "epsilon", "n": 2})
    assert eps.components == epsilon_grading(2).components
    prod = parse_grading({
        "kind": "tensor",
        "left": {"kind": "elementary",
                 "group": {"factors": [2, 2]},
                 "tuple": [[0, 0], [1, 0]]},
        "right": {"kind": "epsilon", "n": 2},
    })
    assert prod.n == 4


def test_explicit_grading_round_trips_fine_example():
    eps = epsilon_grading(2)
    payload = grading_to_json(eps)
    assert payload["kind"] == "explicit"
    back = parse_grading(payload)
    assert back.components == eps.components


def test_grading_spec_errors():
    with pytest.raises(SpecError) as info:
        parse_grading({"kind": "mystery"})
    assert info.value.path == "spec.kind"
    with pytest.raises(SpecError):
        parse_grading({"kind": "epsilon", "n": 0})
    with pytest.raises(SpecError) as info:
        parse_grading({"kind": "elementary", "group": {"factors": [2]},
                       "tuple": [[0], [5, 5]]})
    assert "tuple" in info.value.path
    with pytest.raises(SpecError):
        parse_grading({"kind": "tensor",
                       "left": {"kind": "epsilon", "n": 2},
                       "right": {"kind": "elementary", "group": {"factors": [3]},
                                 "tuple": [[0]]}})
    with pytest.raises(SpecError):
        parse_grading({"kind": "explicit", "group": {"factors": [2]},
                       "components": {}})
    with pytest.raises(SpecError) as info:
        parse_grading({"kind": "explicit", "group": {"factors": [2]},
                       "components": {"0": [{"n": 2, "entries": [["1", "0"], ["0", "1"]]}],
                                      "1": [{"n": 3, "entries": [["1", "0", "0"],
                                                                 ["0", "1", "0"],
                                                                 ["0", "0", "1"]]}]}})
    assert "components.1[0]" in info.value.path


def test_map_round_trip_and_checks():
    alg = elementary_grading(Z2, (E0, A0))
    pairs = tuple((m, m) for mats in alg.components.values() for m in mats)
    gmap = GradedMap(alg, alg, pairs)
    payload = map_to_json(gmap)
    assert payload["kind"] == "map"
    back = parse_map(payload)
    assert back.pairs == gmap.pairs
    assert isinstance(back, GradedMap)
    assert isinstance(parse_grading(grading_to_json(alg)), type(alg))


def test_map_spec_errors():
    alg = elementary_grading(Z2, (E0, A0))
    payload = map_to_json(GradedMap(alg, alg, ((Matrix.identity(2), Matrix.identity(2)),)))
    broken = dict(payload)
    broken["pairs"] = [[matrix_to_json(Matrix.identity(2))]]
    with pytest.raises(SpecError) as info:
        parse_map(broken)
    assert "pairs" in info.value.path
    other_group = dict(payload)
    other_group["codomain"] = grading_to_json(
        elementary_grading(FiniteAbelianGroup((3,)),
                           (FiniteAbelianGroup((3,)).identity(),)))
    with pytest.raises(SpecError):
        parse_map(other_group)


def test_chain_round_trip():
    spec = ChainSpec(Z2, (E0, A0),
                     (DoubleStep(), TwistStep(A0),
                      BlockStep(8, 2, 1, tuple([E0, A0] * 8 + [A0]))))
    payload = chain_to_json(spec)
    assert [s["kind"] for s in payload["steps"]] == ["double", "twist", "block"]
    assert parse_chain(payload) == spec


def test_chain_spec_errors():
    with pytest.raises(SpecError) as info:
        parse_chain({"group": {"factors": [2]}, "base": [[0]],
                     "steps": [{"kind": "spiral"}]})
    assert "steps[0]" in info.value.path
    with pytest.raises(SpecError):
        parse_chain({"group": {"factors": [2]}, "base": [],
                     "steps": [{"kind": "double"}]})
    with pytest.raises(SpecError) as info:
        parse_chain({"group": {"factors": [2]}, "base": [[0]],
                     "steps": [{"kind": "twist"}]})
    assert "steps[0]" in info.value.path
    with pytest.raises(SpecError):
        parse_chain({"group": {"factors": [2]}, "base": [[0]],
                     "steps": [{"kind": "block", "k": 1, "m": 2,
                                "tuple": [[0], [0]]}]})


def test_signature_serialization_with_omega():
    seq = DefiningSequence.finitary(Z2, {E0: OMEGA, A0: 3})
    assert signature_to_json(seq.signature()) == [
        {"degree": [0], "count": "omega"},
        {"degree": [1], "count": 3},
    ]


def test_witness_serialization_forms():
    finite = decide_equivalence(DefiningSequence.finite(Z2, (E0, A0)),
                                DefiningSequence.finite(Z2, (A0, E0)))
    assert witness_to_json(finite) == {"shift": [0], "beta": [1, 0]}
    finitary = decide_equivalence(DefiningSequence.finitary(Z2, {E0: OMEGA}),
                                  DefiningSequence.finitary(Z2, {A0: OMEGA}))
    payload = witness_to_json(finitary)
    assert payload["shift"] == [1]
    assert payload["class_pairing"] == [[[0], [1]]]
    assert "beta" not in payload


def _declared_dimension_specs():
    eps2 = {"kind": "epsilon", "n": 2}
    elem = {"kind": "elementary", "group": {"factors": [2, 2]}, "tuple": [[0, 0], [1, 0], [0, 1]]}
    fine = grading_to_json(epsilon_grading(3))
    fine["components"] = dict(fine["components"], **{"0,0": []})  # an empty first component
    return [
        eps2, elem, fine,
        {"kind": "epsilon", "n": 4, "group": {"factors": [4, 4]}, "a": [1, 1], "b": [0, 1]},
        {"kind": "tensor", "left": elem, "right": {"kind": "epsilon", "n": 2,
                                                   "group": {"factors": [2, 2]},
                                                   "a": [1, 0], "b": [0, 1]}},
        map_to_json(GradedMap(epsilon_grading(2), epsilon_grading(2), tuple(
            (m, m) for mats in epsilon_grading(2).components.values() for m in mats))),
    ]


def _parse_spec(spec):
    """Parse as `verify` does: a map spec by parse_map, any other by parse_grading."""
    is_map = isinstance(spec, dict) and spec.get("kind") == "map"
    return parse_map(spec) if is_map else parse_grading(spec)


def test_declared_dimension_is_the_parsed_size():
    for spec in _declared_dimension_specs():
        parsed = _parse_spec(spec)
        if isinstance(parsed, GradedMap):
            assert declared_dimension(spec) == parsed.codomain.n
            assert declared_dimension(spec["domain"]) == parsed.domain.n
        else:
            assert declared_dimension(spec) == parsed.n


@pytest.mark.parametrize("spec", [
    [], {"kind": 3}, {"kind": "mystery", "n": 2}, {"kind": "epsilon"},
    {"kind": "epsilon", "n": True}, {"kind": "epsilon", "n": "3"},
    {"kind": "elementary", "group": {"factors": [2]}, "tuple": "01"},
    {"kind": "tensor", "left": {"kind": "epsilon", "n": 2}},
    {"kind": "explicit", "group": {"factors": [2]}, "components": {"0": [], "1": []}},
    {"kind": "explicit", "group": {"factors": [2]}, "components": {"0": [[1]]}},
    {"kind": "explicit", "group": {"factors": [2]}, "components": {"0": "x"}},
    {"kind": "map", "domain": {"kind": "epsilon", "n": 2}, "pairs": []},
])
def test_declared_dimension_is_none_only_where_parsing_fails(spec):
    assert declared_dimension(spec) is None
    with pytest.raises(SpecError):
        _parse_spec(spec)
