"""Finite abelian groups given as products of cyclic factors, and their characters."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from .cyclotomic import CycNumber, root_of_unity


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Z_{n1} x ... x Z_{nk} with exponent vectors reduced componentwise."""

    factors: Tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.factors, tuple):
            object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise ValueError("group needs at least one cyclic factor")
        for n in self.factors:
            if not isinstance(n, int) or n < 1:
                raise ValueError(f"cyclic factor orders must be positive integers, got {n}")

    @property
    def order(self) -> int:
        return math.prod(self.factors)

    @property
    def exponent_lcm(self) -> int:
        return math.lcm(*self.factors)

    def element(self, exponents: Iterable[int]) -> "GroupElement":
        exps = tuple(int(e) for e in exponents)
        if len(exps) != len(self.factors):
            raise ValueError(
                f"expected {len(self.factors)} exponents, got {len(exps)}")
        return GroupElement(self, tuple(e % n for e, n in zip(exps, self.factors)))

    def identity(self) -> "GroupElement":
        return GroupElement(self, (0,) * len(self.factors))

    def elements(self) -> Tuple["GroupElement", ...]:
        """All elements in lexicographic order of exponent tuples."""
        return tuple(GroupElement(self, exps)
                     for exps in itertools.product(*(range(n) for n in self.factors)))

    def characters(self) -> Tuple["Character", ...]:
        return tuple(Character(self, g.exponents) for g in self.elements())

    def __repr__(self) -> str:
        return "Z" + "xZ".join(str(n) for n in self.factors)


@dataclass(frozen=True)
class GroupElement:
    group: FiniteAbelianGroup
    exponents: Tuple[int, ...]

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if self.group != other.group:
            raise ValueError("elements of different groups")
        return GroupElement(self.group, tuple(
            (a + b) % n for a, b, n in zip(self.exponents, other.exponents, self.group.factors)))

    def inverse(self) -> "GroupElement":
        return GroupElement(self.group, tuple(
            (-a) % n for a, n in zip(self.exponents, self.group.factors)))

    def __pow__(self, k: int) -> "GroupElement":
        return GroupElement(self.group, tuple(
            (a * k) % n for a, n in zip(self.exponents, self.group.factors)))

    def is_identity(self) -> bool:
        return all(a == 0 for a in self.exponents)

    def order(self) -> int:
        return math.lcm(*(n // math.gcd(a, n) for a, n in zip(self.exponents, self.group.factors)))

    def sort_key(self) -> Tuple[int, ...]:
        return self.exponents

    def __repr__(self) -> str:
        return "(" + ",".join(str(a) for a in self.exponents) + ")"


def degree_classes(tau: Sequence[GroupElement]) -> Dict[GroupElement, List[int]]:
    """Indices of tau grouped by their entry, classes in order of first occurrence."""
    classes: Dict[GroupElement, List[int]] = {}
    for index, g in enumerate(tau):
        classes.setdefault(g, []).append(index)
    return classes


@dataclass(frozen=True)
class Character:
    """chi(g) = zeta_N^(sum_i (N/n_i) a_i g_i) with N = lcm of the factors."""

    group: FiniteAbelianGroup
    exponents: Tuple[int, ...]

    def __call__(self, g: GroupElement) -> CycNumber:
        if g.group != self.group:
            raise ValueError("element of a different group")
        level = self.group.exponent_lcm
        total = sum((level // n) * a * e
                    for a, e, n in zip(self.exponents, g.exponents, self.group.factors))
        return root_of_unity(level, total)

    def __mul__(self, other: "Character") -> "Character":
        if self.group != other.group:
            raise ValueError("characters of different groups")
        return Character(self.group, tuple(
            (a + b) % n for a, b, n in zip(self.exponents, other.exponents, self.group.factors)))

    def __repr__(self) -> str:
        return "chi" + "".join(f"[{a}]" for a in self.exponents)


def subgroup_generated(elements: Sequence[GroupElement]) -> Tuple[GroupElement, ...]:
    """All products of powers of the given elements, in lexicographic order."""
    if not elements:
        raise ValueError("need at least one generator")
    group = elements[0].group
    seen = {group.identity()}
    frontier = [group.identity()]
    while frontier:
        current = frontier.pop()
        for gen in elements:
            nxt = current * gen
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return tuple(sorted(seen, key=GroupElement.sort_key))
