"""Finite abelian groups, elements, and characters."""

import pytest
from hypothesis import given, settings, strategies as st

from gradedmat.cyclotomic import CycNumber, root_of_unity
from gradedmat.groups import Character, FiniteAbelianGroup, GroupElement, subgroup_generated


def test_group_basics():
    G = FiniteAbelianGroup((2, 3))
    assert G.order == 6
    assert G.exponent_lcm == 6
    assert len(G.elements()) == 6
    assert G.identity() == G.element((0, 0))


def test_bad_factors_rejected():
    with pytest.raises(ValueError):
        FiniteAbelianGroup((0,))
    with pytest.raises(ValueError):
        FiniteAbelianGroup((2, -1))


def test_element_arithmetic_wraps_modulo_factors():
    G = FiniteAbelianGroup((4,))
    a = G.element((3,))
    b = G.element((2,))
    assert (a * b).exponents == (1,)
    assert a.inverse().exponents == (1,)
    assert (a ** 2).exponents == (2,)
    assert a ** 0 == G.identity()


def test_element_order():
    G = FiniteAbelianGroup((4, 6))
    assert G.element((2, 3)).order() == 2
    assert G.element((1, 0)).order() == 4
    assert G.element((1, 1)).order() == 12
    assert G.identity().order() == 1


def test_elements_lexicographic():
    G = FiniteAbelianGroup((2, 2))
    assert [g.exponents for g in G.elements()] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_mixed_group_elements_do_not_combine():
    G1 = FiniteAbelianGroup((2,))
    G2 = FiniteAbelianGroup((3,))
    with pytest.raises(ValueError):
        G1.element((1,)) * G2.element((1,))


def test_subgroup_generated():
    G = FiniteAbelianGroup((4,))
    sub = subgroup_generated([G.element((2,))])
    assert [g.exponents for g in sub] == [(0,), (2,)]
    full = subgroup_generated([G.element((1,))])
    assert len(full) == 4


def test_character_values_are_roots_of_unity():
    G = FiniteAbelianGroup((2, 2))
    for chi in G.characters():
        for g in G.elements():
            value = chi(g)
            assert value * value == CycNumber.one()


def test_characters_are_multiplicative():
    G = FiniteAbelianGroup((2, 3))
    for chi in G.characters():
        for g in G.elements():
            for h in G.elements():
                assert chi(g * h) == chi(g) * chi(h)


def test_character_count_and_separation():
    # the dual group has |G| characters and separates elements
    G = FiniteAbelianGroup((2, 2))
    chars = G.characters()
    assert len(chars) == 4
    for g in G.elements():
        if not g.is_identity():
            assert any(chi(g) != CycNumber.one() for chi in chars)


def test_character_orthogonality():
    G = FiniteAbelianGroup((3,))
    for chi in G.characters():
        total = CycNumber.zero()
        for g in G.elements():
            total = total + chi(g)
        if all(chi(g) == CycNumber.one() for g in G.elements()):
            assert total == CycNumber.rational(3)
        else:
            assert total.is_zero()


_groups = st.sampled_from([
    FiniteAbelianGroup((2,)),
    FiniteAbelianGroup((3,)),
    FiniteAbelianGroup((4,)),
    FiniteAbelianGroup((2, 2)),
    FiniteAbelianGroup((2, 4)),
])


@st.composite
def _group_and_elements(draw, count):
    group = draw(_groups)
    elements = [draw(st.sampled_from(group.elements())) for _ in range(count)]
    return (group, *elements)


@settings(max_examples=80, deadline=None)
@given(_group_and_elements(3))
def test_group_laws(data):
    group, a, b, c = data
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * group.identity() == a
    assert a * a.inverse() == group.identity()


@settings(max_examples=80, deadline=None)
@given(_group_and_elements(1))
def test_element_order_divides_group_order(data):
    group, a = data
    assert group.order % a.order() == 0
    assert a ** a.order() == group.identity()
