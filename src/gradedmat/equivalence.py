"""Deciding when two elementary gradings are isomorphic as graded algebras.

Two defining sequences give isomorphic gradings exactly when their degree
counting functions agree after a global shift; the witness permutation matches
the k-th index of each degree class to the k-th index of the shifted class.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping, Optional, Sequence, Tuple, Union

from .groups import FiniteAbelianGroup, GroupElement, _Frozen, degree_classes
from .matrices import Matrix


class _Omega:
    """Count value for degree classes that occur infinitely often."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "omega"


OMEGA = _Omega()
Count = Union[int, _Omega]


class Signature(_Frozen):
    """Counting function g -> number of tuple entries equal to g (omega allowed)."""

    group: FiniteAbelianGroup
    counts: Tuple[Tuple[GroupElement, Count], ...]

    @staticmethod
    def from_mapping(group: FiniteAbelianGroup, counts: Mapping[GroupElement, Count]) -> "Signature":
        items = []
        for g in sorted(counts, key=GroupElement.sort_key):
            value = counts[g]
            if isinstance(value, int):
                if value < 0:
                    raise ValueError(f"negative count for {g}")
                if value == 0:
                    continue
            elif value is not OMEGA:
                raise ValueError(f"count for {g} must be an integer or omega")
            items.append((g, value))
        return Signature(group, tuple(items))

    def get(self, g: GroupElement) -> Count:
        for key, value in self.counts:
            if key == g:
                return value
        return 0

    def support(self) -> Tuple[GroupElement, ...]:
        return tuple(g for g, _ in self.counts)

    def has_omega(self) -> bool:
        return any(value is OMEGA for _, value in self.counts)

    def total(self) -> Count:
        if self.has_omega():
            return OMEGA
        return sum(value for _, value in self.counts)  # type: ignore[misc]


class DefiningSequence(_Frozen):
    """Either a finite tuple of degrees or a counting function with omega entries."""

    group: FiniteAbelianGroup
    entries: Optional[Tuple[GroupElement, ...]]
    counting: Optional[Signature]

    @staticmethod
    def finite(group: FiniteAbelianGroup, entries: Sequence[GroupElement]) -> "DefiningSequence":
        entries = tuple(entries)
        if not entries:
            raise ValueError("a finite defining sequence must be non-empty")
        for g in entries:
            if g.group != group:
                raise ValueError("sequence entries must belong to the given group")
        return DefiningSequence(group, entries, None)

    @staticmethod
    def finitary(group: FiniteAbelianGroup, counts: Mapping[GroupElement, Count]) -> "DefiningSequence":
        signature = Signature.from_mapping(group, counts)
        if not signature.has_omega():
            raise ValueError("the counting form is reserved for sequences with omega entries")
        return DefiningSequence(group, None, signature)

    @property
    def is_finitary(self) -> bool:
        return self.counting is not None

    def signature(self) -> Signature:
        if self.counting is not None:
            return self.counting
        return Signature.from_mapping(self.group, Counter(self.entries))  # type: ignore[arg-type]


class EquivalenceWitness(_Frozen):
    """Shift g0 with S_tau(g) = S_tau'(g0 g), plus the index matching when finite."""

    shift: GroupElement
    beta: Optional[Tuple[int, ...]]
    class_pairing: Optional[Tuple[Tuple[GroupElement, GroupElement], ...]]


def construct_beta(tau: Sequence[GroupElement], tau_prime: Sequence[GroupElement],
                   shift: GroupElement) -> Tuple[int, ...]:
    """Permutation sending the k-th index of each degree class of tau to the
    k-th index of the shifted class of tau_prime; requires matching signatures."""
    if len(tau) != len(tau_prime):
        raise ValueError("sequences of different length have no index matching")
    classes = degree_classes(tau)
    classes_prime = degree_classes(tau_prime)
    for g in sorted(classes, key=GroupElement.sort_key):
        source = classes[g]
        target = classes_prime.get(shift * g, [])
        if len(source) != len(target):
            raise ValueError(f"degree class {g} has size {len(source)} vs {len(target)} after the shift")
    beta = [0] * len(tau)
    for g, source in classes.items():
        for i, j in zip(source, classes_prime[shift * g]):
            beta[i] = j
    return tuple(beta)


def decide_equivalence(seq: DefiningSequence, seq_prime: DefiningSequence) -> Optional[EquivalenceWitness]:
    """First shift (in lexicographic order) matching the two signatures, or None.

    A matching shift sends the least degree g0 of the first support into the
    second support, so only the shifts h g0^(-1) for h in that support are
    tried: the cost depends on the support sizes, not on the group order.
    """
    if seq.group != seq_prime.group:
        raise ValueError("sequences must be graded by the same group")
    s1 = seq.signature()
    counts = dict(s1.counts)
    counts_prime = dict(seq_prime.signature().counts)
    if len(counts) != len(counts_prime):
        return None
    if not counts:  # two empty sequences match under every shift
        shifts = [seq.group.identity()]
    else:
        g0_inverse = s1.counts[0][0].inverse()
        shifts = sorted((h * g0_inverse for h in counts_prime), key=GroupElement.sort_key)
    for shift in shifts:
        if all(counts_prime.get(shift * g) == c for g, c in counts.items()):
            if not seq.is_finitary and not seq_prime.is_finitary:
                beta = construct_beta(seq.entries, seq_prime.entries, shift)  # type: ignore[arg-type]
                return EquivalenceWitness(shift, beta, None)
            pairing = tuple((g, shift * g) for g in s1.support())
            return EquivalenceWitness(shift, None, pairing)
    return None


def build_isomorphism(beta: Sequence[int], n: int) -> Tuple[Tuple[Matrix, Matrix], ...]:
    """Basis table of the map E_ij -> E_(beta(i) beta(j)) on M_n."""
    if sorted(beta) != list(range(n)):
        raise ValueError("beta must be a permutation of 0..n-1")
    return tuple((Matrix.unit(n, i, j), Matrix.unit(n, beta[i], beta[j]))
                 for i in range(n) for j in range(n))
