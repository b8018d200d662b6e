"""Chains of elementary gradings, their diagrams, and limiting signatures."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from gradedmat.chains import (BlockStep, BratteliDiagram, ChainSpec, DoubleStep,
                              FinitaryGrading, TwistStep, bratteli_of_chain,
                              chain_union_finitary, diagrams_equal, steinitz_signature)
from gradedmat.equivalence import OMEGA, decide_equivalence
from gradedmat.gradings import verify_grading
from gradedmat.groups import FiniteAbelianGroup

Z2 = FiniteAbelianGroup((2,))
E0 = Z2.element((0,))
A0 = Z2.element((1,))

DOUBLE = ChainSpec(Z2, (E0, A0), (DoubleStep(),))
TWIST = ChainSpec(Z2, (E0, A0), (TwistStep(A0),))


def test_unfold_doubling_chain():
    assert DOUBLE.unfold(3) == [
        (E0, A0),
        (E0, A0, E0, A0),
        (E0, A0, E0, A0, E0, A0, E0, A0),
    ]


def test_unfold_twist_chain():
    assert TWIST.unfold(3) == [
        (E0, A0),
        (E0, A0, A0, E0),
        (E0, A0, A0, E0, A0, E0, E0, A0),
    ]


def test_steps_cycle_past_the_list_end():
    spec = ChainSpec(Z2, (E0,), (DoubleStep(), TwistStep(A0)))
    assert spec.step_at(0) == DoubleStep()
    assert spec.step_at(1) == TwistStep(A0)
    assert spec.step_at(2) == DoubleStep()
    assert spec.unfold(4)[-1] == (E0, E0, A0, A0, E0, E0, A0, A0)


def test_unfold_validates_depth_and_base():
    with pytest.raises(ValueError):
        DOUBLE.unfold(0)
    with pytest.raises(ValueError):
        ChainSpec(Z2, (), (DoubleStep(),))
    with pytest.raises(ValueError):
        ChainSpec(Z2, (E0,), ())


def test_chain_rejects_step_elements_of_another_group():
    z3 = FiniteAbelianGroup((3,))
    with pytest.raises(ValueError, match="^step 0 elements must belong to the stated group$"):
        ChainSpec(Z2, (E0,), (TwistStep(z3.element((1,))),))
    with pytest.raises(ValueError, match="^step 1 elements must belong to the stated group$"):
        ChainSpec(Z2, (E0, A0), (DoubleStep(), BlockStep(2, 2, 0, (E0, A0, z3.identity(), A0))))


def test_block_step_extends_explicitly():
    step = BlockStep(2, 2, 1, (E0, A0, E0, A0, A0))
    assert step.extend((E0, A0)) == (E0, A0, E0, A0, A0)
    assert step.images(1, 2) == (1, 3)
    assert not step.unital
    assert BlockStep(2, 2, 0, (E0, A0, E0, A0)).unital


def test_block_step_rejections_carry_the_step_index():
    bad = ChainSpec(Z2, (E0, A0), (BlockStep(2, 2, 0, (E0, A0, E0, E0)),))
    with pytest.raises(ValueError, match="step 0 rejected"):
        bad.unfold(2)
    wrong_length = ChainSpec(Z2, (E0, A0),
                             (DoubleStep(), BlockStep(2, 2, 0, (E0, A0, E0, A0))))
    with pytest.raises(ValueError, match="step 1 rejected"):
        wrong_length.unfold(3)


def test_bratteli_levels_and_dimensions():
    diagram = bratteli_of_chain(DOUBLE, 3)
    assert diagram.depth == 3
    assert diagram.levels[0] == ((E0, 1), (A0, 1))
    assert diagram.levels[1] == ((E0, 2), (A0, 2))
    assert diagram.levels[2] == ((E0, 4), (A0, 4))


def test_bratteli_multiplicities_double_vs_twist():
    double = bratteli_of_chain(DOUBLE, 4)
    twist = bratteli_of_chain(TWIST, 4)
    for level in range(3):
        assert double.multiplicity(level, E0, E0) == 2
        assert double.multiplicity(level, A0, A0) == 2
        assert double.multiplicity(level, E0, A0) == 0
        for g in (E0, A0):
            for h in (E0, A0):
                assert twist.multiplicity(level, g, h) == 1


def test_diagrams_differ_at_every_depth_past_one():
    assert diagrams_equal(bratteli_of_chain(DOUBLE, 1), bratteli_of_chain(TWIST, 1))
    for depth in range(2, 6):
        d = bratteli_of_chain(DOUBLE, depth)
        t = bratteli_of_chain(TWIST, depth)
        assert diagrams_equal(d, d)
        assert not diagrams_equal(d, t)


def test_bratteli_block_step_with_remainder():
    spec = ChainSpec(Z2, (E0, A0), (BlockStep(2, 2, 1, (E0, A0, E0, A0, A0)),))
    diagram = bratteli_of_chain(spec, 2)
    assert diagram.levels[1] == ((E0, 2), (A0, 3))
    assert diagram.multiplicity(0, E0, E0) == 2
    assert diagram.multiplicity(0, A0, A0) == 2
    assert diagram.multiplicity(0, E0, A0) == 0


def _traced_diagram(spec, depth):
    """Reference: unfold every tuple and trace the images of each index; the
    counts of one class must agree over its representatives and, for unital
    steps, add up to the next level's class sizes."""
    tuples = spec.unfold(depth)
    levels = [sorted(Counter(tau).items(), key=lambda gd: gd[0].sort_key()) for tau in tuples]
    edges = []
    for i in range(depth - 1):
        source, target, step = tuples[i], tuples[i + 1], spec.step_at(i)
        per_class = {}
        for j, g in enumerate(source):
            local = Counter(target[jp] for jp in step.images(j, len(source)))
            assert per_class.setdefault(g, local) == local
        layer = {(g, h): m for g, local in per_class.items() for h, m in local.items()}
        if step.unital:
            sizes = Counter(source)
            landed = Counter()
            for (g, h), m in layer.items():
                landed[h] += m * sizes[g]
            assert landed == Counter(target)
        edges.append(layer)
    return BratteliDiagram(levels, edges)


_CHAIN_GROUPS = [(1,), (2,), (4,), (6,), (2, 2), (3, 3), (12,), (2, 6), (5, 5)]


@st.composite
def _chains(draw, with_blocks=False):
    """A chain and a depth.  With blocks, at least one step is a valid block step:
    its target is m translates of the level it extends plus r random entries, and
    the depth stops before the steps repeat, so every level has the length its step expects."""
    group = FiniteAbelianGroup(draw(st.sampled_from(_CHAIN_GROUPS)))
    element = st.tuples(*(st.integers(0, n - 1) for n in group.factors)).map(group.element)
    base = draw(st.lists(element, min_size=1, max_size=4))
    steps = draw(st.lists(st.one_of(st.just(DoubleStep()), element.map(TwistStep)),
                          min_size=1, max_size=3))
    if not with_blocks:
        return ChainSpec(group, tuple(base), tuple(steps)), draw(st.integers(1, 8))
    steps.insert(draw(st.integers(0, len(steps))), None)
    tau = tuple(base)
    for i, step in enumerate(steps):
        if step is None:
            shifts = draw(st.lists(element, min_size=1, max_size=3))
            remainder = tuple(draw(st.lists(element, max_size=2)))
            target = tuple(s * g for s in shifts for g in tau) + remainder
            steps[i] = step = BlockStep(len(tau), len(shifts), len(remainder), target)
        tau = step.extend(tau)
    return ChainSpec(group, tuple(base), tuple(steps)), draw(st.integers(1, len(steps) + 1))


def _assert_matches_the_trace(spec, depth):
    got, want = bratteli_of_chain(spec, depth), _traced_diagram(spec, depth)
    assert got.levels == want.levels
    assert got.edges == want.edges
    assert got.to_json_dict() == want.to_json_dict()
    assert got.to_dot() == want.to_dot()


@settings(max_examples=60, deadline=None)
@given(_chains())
def test_bratteli_of_double_twist_chains_matches_the_trace(case):
    _assert_matches_the_trace(*case)


@settings(max_examples=60, deadline=None)
@given(_chains(with_blocks=True))
def test_bratteli_of_chains_with_block_steps_matches_the_trace(case):
    _assert_matches_the_trace(*case)


def test_deep_double_twist_diagrams_do_not_unfold(monkeypatch):
    def refuse(self, depth):
        raise AssertionError("a double/twist chain was unfolded")

    monkeypatch.setattr(ChainSpec, "unfold", refuse)
    z12 = FiniteAbelianGroup((12,))
    mixed = ChainSpec(z12, (z12.element((0,)), z12.element((5,)), z12.element((5,))),
                      (DoubleStep(), TwistStep(z12.element((3,))), TwistStep(z12.element((8,)))))
    for spec in (TWIST, mixed):
        diagram = bratteli_of_chain(spec, 40)
        assert diagram.depth == 40
        for level, classes in enumerate(diagram.levels, start=1):
            assert sum(d for _, d in classes) == len(spec.base) * 2 ** (level - 1)


def test_bratteli_rejects_depth_below_one():
    block = ChainSpec(Z2, (E0, A0), (BlockStep(2, 2, 0, (E0, A0, E0, A0)),))
    for spec in (DOUBLE, block):
        with pytest.raises(ValueError, match="^depth must be >= 1, got 0$"):
            bratteli_of_chain(spec, 0)


def test_bratteli_json_and_dot_are_stable():
    diagram = bratteli_of_chain(DOUBLE, 2)
    payload = diagram.to_json_dict()
    assert payload["levels"][0] == [{"degree": [0], "dimension": 1},
                                    {"degree": [1], "dimension": 1}]
    assert {"from": [0], "to": [0], "multiplicity": 2} in payload["edges"][0]
    dot = diagram.to_dot()
    assert dot.startswith("digraph")
    assert "rank=same" in dot


def test_steinitz_signature_single_class():
    spec = ChainSpec(Z2, (E0,), (DoubleStep(),))
    sig = steinitz_signature(spec)
    assert sig.get(E0) is OMEGA
    assert sig.get(A0) == 0


def test_steinitz_signature_two_classes_both_infinite():
    for spec in (DOUBLE, TWIST):
        sig = steinitz_signature(spec)
        assert sig.get(E0) is OMEGA
        assert sig.get(A0) is OMEGA


def test_steinitz_signature_spreads_through_twist():
    spec = ChainSpec(Z2, (E0,), (TwistStep(A0),))
    sig = steinitz_signature(spec)
    assert sig.get(E0) is OMEGA and sig.get(A0) is OMEGA


def test_steinitz_rejects_block_steps():
    spec = ChainSpec(Z2, (E0, A0), (BlockStep(2, 2, 0, (E0, A0, E0, A0)),))
    with pytest.raises(ValueError, match="block step"):
        steinitz_signature(spec)


def test_chain_union_builds_finitary_grading():
    limit = chain_union_finitary(DOUBLE)
    assert isinstance(limit, FinitaryGrading)
    assert limit.signature().get(E0) is OMEGA
    assert limit.signature().get(A0) is OMEGA
    assert limit.prefix(2) == (E0, A0, E0, A0)


def test_chain_union_rejects_non_nested_steps():
    spec = ChainSpec(Z2, (E0, A0), (TwistStep(A0), DoubleStep()))
    # level 2 = (e,a,a,e); a twist of it starts (e,a,a,e,...) but the next
    # double keeps the prefix, so only the very first twist is fine here
    mixed = ChainSpec(Z2, (A0,), (TwistStep(A0),))
    assert chain_union_finitary(spec) is not None
    assert chain_union_finitary(mixed) is not None
    # a translated block target is a legal step but not a corner extension
    shifted = ChainSpec(Z2, (E0, A0), (BlockStep(2, 1, 0, (A0, E0)),))
    assert shifted.unfold(4)[-1] == (A0, E0)
    with pytest.raises(ValueError, match="step 0 rejected.*prefix"):
        chain_union_finitary(shifted)


def test_truncations_are_valid_gradings():
    limit = chain_union_finitary(TWIST)
    for depth in (1, 2, 3):
        alg = limit.truncation(depth)
        assert alg.n == 2 ** depth
        assert verify_grading(alg).passed


def test_deeper_unfolds_agree_on_shared_levels():
    shallow = DOUBLE.unfold(3)
    deep = DOUBLE.unfold(5)
    assert deep[:3] == shallow
    d3 = bratteli_of_chain(TWIST, 3)
    d5 = bratteli_of_chain(TWIST, 5)
    assert d5.levels[:3] == d3.levels
    assert d5.edges[:2] == d3.edges


def test_limits_of_double_and_twist_are_equivalent_as_sequences():
    # same limiting signature, so the signature criterion cannot separate them
    left = chain_union_finitary(DOUBLE).sequence
    right = chain_union_finitary(TWIST).sequence
    witness = decide_equivalence(left, right)
    assert witness is not None
    assert witness.shift == E0
