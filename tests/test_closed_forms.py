"""Closed-form counting functions against the simulations they replaced.

`steinitz_signature` is checked against a cycle-by-cycle simulation of the
multiplicity vector, and `decide_equivalence` against a scan of every shift in
the group; both references are kept here and not in the package.
"""

import random

import pytest

from gradedmat.chains import BlockStep, ChainSpec, DoubleStep, TwistStep, steinitz_signature
from gradedmat.equivalence import (OMEGA, DefiningSequence, EquivalenceWitness, Signature,
                                   decide_equivalence)
from gradedmat.groups import FiniteAbelianGroup

GROUPS = [FiniteAbelianGroup(factors) for factors in
          [(1,), (2,), (3,), (4,), (5,), (6,), (2, 2), (2, 3), (2, 4), (3, 3), (2, 2, 2), (12,)]]


def reference_steinitz(spec):
    """Simulate whole cycles of the step list until the support and the set of
    growing degrees stop changing; growing degrees are omega."""
    counts = {}
    for g in spec.base:
        counts[g] = counts.get(g, 0) + 1

    def run_cycle(state, start):
        current = dict(state)
        for offset, step in enumerate(spec.steps):
            if isinstance(step, DoubleStep):
                current = {g: 2 * c for g, c in current.items()}
            elif isinstance(step, TwistStep):
                shifted = {}
                for g, c in current.items():
                    shifted[g] = shifted.get(g, 0) + c
                    shifted[step.a * g] = shifted.get(step.a * g, 0) + c
                current = shifted
            else:
                raise ValueError(
                    f"step {start + offset} is an explicit block step; "
                    "limiting signatures require steps that repeat uniformly")
        return current

    support, growing = frozenset(counts), frozenset()
    for cycle in range(2 * spec.group.order + 4):
        nxt = run_cycle(counts, cycle * len(spec.steps))
        new_support = frozenset(g for g, c in nxt.items() if c > 0)
        new_growing = frozenset(g for g in nxt if nxt.get(g, 0) > counts.get(g, 0))
        if new_support == support and new_growing == growing and cycle > 0:
            return Signature.from_mapping(spec.group, {
                g: OMEGA if g in new_growing else counts[g] for g in new_support})
        support, growing, counts = new_support, new_growing, nxt
    raise AssertionError("reference simulation did not stabilize")


def reference_decision(seq, seq_prime):
    """First shift of the whole group, in lexicographic order, that matches the
    counting functions, with the witness built as the k-th index of each class
    going to the k-th index of the shifted class."""
    group = seq.group
    s1, s2 = seq.signature(), seq_prime.signature()
    for shift in group.elements():
        if all(s1.get(g) == s2.get(shift * g) for g in group.elements()):
            if seq.is_finitary or seq_prime.is_finitary:
                return EquivalenceWitness(shift, None, tuple((g, shift * g) for g in s1.support()))
            positions = {}
            for index, g in enumerate(seq_prime.entries):
                positions.setdefault(g, []).append(index)
            taken = {}
            beta = []
            for g in seq.entries:
                h = shift * g
                beta.append(positions[h][taken.get(h, 0)])
                taken[h] = taken.get(h, 0) + 1
            return EquivalenceWitness(shift, tuple(beta), None)
    return None


def _random_chain(rng, group):
    elems = group.elements()
    base = tuple(rng.choice(elems) for _ in range(rng.randint(1, 4)))
    steps = tuple(DoubleStep() if rng.random() < 0.3 else TwistStep(rng.choice(elems))
                  for _ in range(rng.randint(1, 3)))
    return ChainSpec(group, base, steps)


@pytest.mark.parametrize("group", GROUPS, ids=repr)
def test_steinitz_closed_form_matches_the_simulation(group):
    rng = random.Random(sum(group.factors) * 7919 + len(group.factors))
    for _ in range(60):
        spec = _random_chain(rng, group)
        assert steinitz_signature(spec) == reference_steinitz(spec)


def test_steinitz_names_the_first_block_step():
    Z2 = FiniteAbelianGroup((2,))
    e, a = Z2.identity(), Z2.element((1,))
    block = BlockStep(2, 2, 0, (e, a, e, a))
    spec = ChainSpec(Z2, (e, a), (DoubleStep(), TwistStep(a), block, block))
    with pytest.raises(ValueError, match="step 2 is an explicit block step") as closed:
        steinitz_signature(spec)
    with pytest.raises(ValueError) as simulated:
        reference_steinitz(spec)
    assert str(closed.value) == str(simulated.value)


def _random_finite(rng, group, n):
    elems = group.elements()
    return tuple(rng.choice(elems) for _ in range(n))


def _random_finitary(rng, group):
    elems = group.elements()
    counts = {g: OMEGA if rng.random() < 0.5 else rng.randint(1, 3)
              for g in rng.sample(elems, rng.randint(1, min(4, len(elems))))}
    counts[rng.choice(list(counts))] = OMEGA
    return counts


def _pairs(rng, group):
    """Finite, finitary and mixed pairs; about half of the first two kinds are
    translates of each other, permuted or with one count changed."""
    elems = group.elements()
    for _ in range(30):
        n = rng.randint(1, 5)
        tau = _random_finite(rng, group, n)
        shift = rng.choice(elems)
        tau_prime = [shift * g for g in tau]
        rng.shuffle(tau_prime)
        if rng.random() < 0.5:
            tau_prime[rng.randrange(n)] = rng.choice(elems)
        yield DefiningSequence.finite(group, tau), DefiningSequence.finite(group, tau_prime)
        yield (DefiningSequence.finite(group, tau),
               DefiningSequence.finite(group, _random_finite(rng, group, n)))
        counts = _random_finitary(rng, group)
        shifted = {shift * g: c for g, c in counts.items()}
        if rng.random() < 0.5:
            g = rng.choice(list(shifted))
            shifted[g] = 1 if shifted[g] is OMEGA else OMEGA
            if OMEGA not in shifted.values():
                shifted[rng.choice(elems)] = OMEGA
        yield DefiningSequence.finitary(group, counts), DefiningSequence.finitary(group, shifted)
        yield DefiningSequence.finite(group, tau), DefiningSequence.finitary(group, counts)
        yield DefiningSequence.finitary(group, counts), DefiningSequence.finite(group, tau)


@pytest.mark.parametrize("group", GROUPS, ids=repr)
def test_decision_gives_the_witness_of_the_full_scan(group):
    rng = random.Random(sum(group.factors) * 104729 + len(group.factors))
    equivalent = 0
    for seq, seq_prime in _pairs(rng, group):
        expected = reference_decision(seq, seq_prime)
        assert decide_equivalence(seq, seq_prime) == expected
        equivalent += expected is not None
    assert equivalent > 0


def test_empty_sequences_match_under_the_identity_shift():
    G = FiniteAbelianGroup((2, 2))
    empty = DefiningSequence(G, (), None)
    assert decide_equivalence(empty, empty) == reference_decision(empty, empty)
    assert decide_equivalence(empty, DefiningSequence.finite(G, (G.identity(),))) is None


def _no_enumeration(self):
    raise AssertionError(f"{self!r}.elements() enumerates the whole group")


def test_large_groups_are_never_enumerated(monkeypatch):
    monkeypatch.setattr(FiniteAbelianGroup, "elements", _no_enumeration)
    G = FiniteAbelianGroup((1000, 1000))
    a, b, c = G.element((3, 997)), G.element((500, 12)), G.element((999, 999))
    shift = G.element((123, 456))
    tau = (a, b, a, c)
    tau_prime = (shift * c, shift * a, shift * b, shift * a)
    witness = decide_equivalence(DefiningSequence.finite(G, tau),
                                 DefiningSequence.finite(G, tau_prime))
    assert witness.shift == shift
    assert witness.beta == (1, 2, 3, 0)
    unbalanced = (shift * c, shift * a, shift * b, shift * b)
    assert decide_equivalence(DefiningSequence.finite(G, tau),
                              DefiningSequence.finite(G, unbalanced)) is None

    spec = ChainSpec(G, (a, b), (DoubleStep(), TwistStep(G.element((500, 0))),
                                 TwistStep(G.element((0, 250)))))
    limit = steinitz_signature(spec)
    assert len(limit.support()) == 16
    assert all(value is OMEGA for _, value in limit.counts)
    assert limit.get(a * G.element((500, 750))) is OMEGA
