"""Signature-based equivalence decision for elementary gradings."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedmat.equivalence import (OMEGA, DefiningSequence, EquivalenceWitness,
                                   construct_beta, decide_equivalence,
                                   exhaustive_monomial_oracle, build_isomorphism)
from gradedmat.gradings import GradedMap, elementary_grading, graded_homomorphism_check
from gradedmat.groups import FiniteAbelianGroup

Z2 = FiniteAbelianGroup((2,))
E0 = Z2.element((0,))
A0 = Z2.element((1,))


def _finite(entries):
    return DefiningSequence.finite(Z2, entries)


def test_signature_counts_entries():
    sig = _finite((E0, A0, E0)).signature()
    assert sig.get(E0) == 2
    assert sig.get(A0) == 1
    assert sig.support() == (E0, A0)
    assert not sig.is_finitary()
    assert sig.total() == 3


def test_signature_of_finitary_sequence():
    seq = DefiningSequence.finitary(Z2, {E0: OMEGA, A0: 3})
    sig = seq.signature()
    assert sig.get(E0) is OMEGA
    assert sig.get(A0) == 3
    assert sig.is_finitary()
    assert sig.total() is OMEGA
    with pytest.raises(ValueError):
        DefiningSequence.finitary(Z2, {E0: 5})  # no omega entry


def test_swapped_pair_equivalent_with_identity_shift():
    witness = decide_equivalence(_finite((E0, A0)), _finite((A0, E0)))
    assert witness is not None
    assert witness.shift == E0
    assert witness.beta == (1, 0)


def test_unbalanced_counts_not_equivalent():
    assert decide_equivalence(_finite((E0, A0)), _finite((E0, E0))) is None


def test_translate_needs_nonidentity_shift():
    # (e, e) vs (a, a): same grading on M_2, witnessed by g0 = a
    witness = decide_equivalence(_finite((E0, E0)), _finite((A0, A0)))
    assert witness is not None
    assert witness.shift == A0
    assert witness.beta == (0, 1)


def test_construct_beta_matches_classes_in_order():
    beta = construct_beta((E0, A0, E0), (A0, E0, E0), E0)
    assert beta == (1, 0, 2)


def test_construct_beta_rejects_length_mismatch():
    with pytest.raises(ValueError):
        construct_beta((E0,), (E0, E0), E0)


def test_construct_beta_rejects_count_mismatch():
    with pytest.raises(ValueError):
        construct_beta((E0, E0), (E0, A0), E0)


def test_finitary_witness_pairs_degree_classes():
    s1 = DefiningSequence.finitary(Z2, {E0: OMEGA, A0: 2})
    s2 = DefiningSequence.finitary(Z2, {A0: OMEGA, E0: 2})
    witness = decide_equivalence(s1, s2)
    assert witness is not None
    assert witness.shift == A0
    assert witness.beta is None
    assert set(witness.class_pairing) == {(E0, A0), (A0, E0)}


def test_finitary_omega_blocks_must_match():
    s1 = DefiningSequence.finitary(Z2, {E0: OMEGA})
    s2 = DefiningSequence.finitary(Z2, {E0: OMEGA, A0: OMEGA})
    assert decide_equivalence(s1, s2) is None
    assert decide_equivalence(s1, _finite((E0, E0, E0, E0, E0))) is None


def test_group_mismatch_rejected():
    other = FiniteAbelianGroup((3,))
    with pytest.raises(ValueError):
        decide_equivalence(_finite((E0,)),
                           DefiningSequence.finite(other, (other.identity(),)))


def test_isomorphism_from_witness_is_graded():
    tau = (E0, A0, E0)
    tau_prime = (A0, E0, E0)
    witness = decide_equivalence(_finite(tau), _finite(tau_prime))
    pairs = build_isomorphism(witness.beta, 3)
    phi = GradedMap(elementary_grading(Z2, tau),
                    elementary_grading(Z2, tau_prime), pairs)
    assert witness.shift == E0  # no relabel needed, so the map is degree preserving
    report = graded_homomorphism_check(phi)
    assert report.passed and report.injective


def test_build_isomorphism_rejects_non_permutation():
    with pytest.raises(ValueError):
        build_isomorphism((0, 0), 2)


def test_oracle_examples():
    assert exhaustive_monomial_oracle((E0, A0), (A0, E0))
    assert not exhaustive_monomial_oracle((E0, A0), (E0, E0))
    assert not exhaustive_monomial_oracle((E0,), (E0, A0))
    with pytest.raises(ValueError):
        exhaustive_monomial_oracle((E0,) * 9, (E0,) * 9)


def test_decision_agrees_with_oracle_on_random_pairs():
    G = FiniteAbelianGroup((2, 2))
    rng = random.Random(11)
    elems = G.elements()
    for _ in range(120):
        n = rng.randint(1, 4)
        tau = tuple(rng.choice(elems) for _ in range(n))
        tau_prime = tuple(rng.choice(elems) for _ in range(n))
        witness = decide_equivalence(DefiningSequence.finite(G, tau),
                                     DefiningSequence.finite(G, tau_prime))
        assert (witness is not None) == exhaustive_monomial_oracle(tau, tau_prime)


_z2_entries = st.lists(st.sampled_from([E0, A0]), min_size=1, max_size=5)


@settings(max_examples=60, deadline=None)
@given(_z2_entries, st.sampled_from([E0, A0]))
def test_translation_invariance(entries, g0):
    shifted = [g0 * g for g in entries]
    assert decide_equivalence(_finite(entries), _finite(shifted)) is not None


@settings(max_examples=60, deadline=None)
@given(_z2_entries, st.randoms(use_true_random=False))
def test_permutation_invariance(entries, rng):
    shuffled = list(entries)
    rng.shuffle(shuffled)
    assert decide_equivalence(_finite(entries), _finite(shuffled)) is not None


@settings(max_examples=60, deadline=None)
@given(_z2_entries, _z2_entries)
def test_decision_is_symmetric(left, right):
    if len(left) != len(right):
        left = left[:min(len(left), len(right))] or [E0]
        right = right[:len(left)]
    forward = decide_equivalence(_finite(left), _finite(right))
    backward = decide_equivalence(_finite(right), _finite(left))
    assert (forward is None) == (backward is None)


def test_first_entry_need_not_be_identity():
    # normalization to g_1 = e is a convention, not a requirement
    witness = decide_equivalence(_finite((A0, A0, E0)), _finite((E0, E0, A0)))
    assert witness is not None
    assert witness.shift == A0


def test_witness_shift_is_lexicographically_first():
    # constant sequences over Z_2 x Z_2 admit every shift; the decision
    # procedure must return the smallest one
    G = FiniteAbelianGroup((2, 2))
    seq = DefiningSequence.finite(G, (G.identity(),))
    witness = decide_equivalence(seq, seq)
    assert witness.shift == G.identity()
