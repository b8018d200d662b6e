"""Finite abelian groups given as products of cyclic factors, their characters, and the
block layout of degree tuples that embeddings and chains share."""

from __future__ import annotations

import itertools
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .cyclotomic import CycNumber, root_of_unity


_set = object.__setattr__


class _Frozen:
    """Immutable value whose fields are the annotations of its class, in order:
    built by position or keyword, equal only to an instance of the same class
    with equal fields, hashed as the tuple of its fields, shown as
    `Name(field=value, ...)`.  Written out by hand because generating these
    methods at import time cost the command line most of its start-up."""

    _fields: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(vars(cls).get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs:
            args += tuple(kwargs.pop(name) for name in fields[len(args):] if name in kwargs)
        if kwargs or len(args) != len(fields):
            raise TypeError(f"{type(self).__name__}() takes the fields ({', '.join(fields)})")
        for name, value in zip(fields, args):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return type(self).__qualname__ + "(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields) + ")"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class FiniteAbelianGroup(_Frozen):
    """Z_{n1} x ... x Z_{nk} with exponent vectors reduced componentwise.

    The hash (that of the field tuple) and the lcm of the factors are computed
    once, at construction; neither is a field.
    """

    factors: Tuple[int, ...]

    def __init__(self, factors: Tuple[int, ...]):
        if not isinstance(factors, tuple):
            factors = tuple(factors)
        if not factors:
            raise ValueError("group needs at least one cyclic factor")
        for n in factors:
            if not isinstance(n, int) or n < 1:
                raise ValueError(f"cyclic factor orders must be positive integers, got {n}")
        _set(self, "factors", factors)
        _set(self, "exponent_lcm", math.lcm(*factors))
        _set(self, "_hash", hash((factors,)))

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self) -> int:
        return self._hash

    @property
    def order(self) -> int:
        return math.prod(self.factors)

    def element(self, exponents: Iterable[int]) -> "GroupElement":
        exps = tuple(exponents)
        if len(exps) != len(self.factors):
            raise ValueError(
                f"expected {len(self.factors)} exponents, got {len(exps)}")
        for e in exps:
            if not isinstance(e, int):
                raise ValueError(f"exponents must be integers, got {e!r}")
        return GroupElement(self, tuple([e % n for e, n in zip(exps, self.factors)]))

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


class GroupElement(_Frozen):
    """An exponent vector of a group; its hash, that of the field tuple, is computed
    once at construction and is not a field."""

    group: FiniteAbelianGroup
    exponents: Tuple[int, ...]

    def __init__(self, group: FiniteAbelianGroup, exponents: Tuple[int, ...]):
        _set(self, "group", group)
        _set(self, "exponents", exponents)
        _set(self, "_hash", hash((group, exponents)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.exponents == other.exponents and \
            (self.group is other.group or self.group == other.group)

    def __hash__(self) -> int:
        return self._hash

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        group = self.group
        if group is not other.group and group != other.group:
            raise ValueError("elements of different groups")
        return GroupElement(group, tuple([
            (a + b) % n for a, b, n in zip(self.exponents, other.exponents, group.factors)]))

    def inverse(self) -> "GroupElement":
        return GroupElement(self.group, tuple([
            (-a) % n for a, n in zip(self.exponents, self.group.factors)]))

    def __pow__(self, k: int) -> "GroupElement":
        return GroupElement(self.group, tuple([
            (a * k) % n for a, n in zip(self.exponents, self.group.factors)]))

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


class EmbeddingConditionError(ValueError):
    """Raised when a tuple fails the repeated-ratio block condition."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


def find_block_violation(h: Sequence[GroupElement], k: int, m: int, r: int) -> Optional[int]:
    """First position i where consecutive ratios h_i^(-1) h_(i+1) differ across
    the m size-k blocks, or None when the pattern repeats (zero-based)."""
    h = tuple(h)
    if k < 1 or m < 1 or r < 0:
        raise ValueError(f"need k, m >= 1 and r >= 0, got k={k}, m={m}, r={r}")
    if len(h) != k * m + r:
        raise ValueError(f"tuple length {len(h)} != k*m + r = {k * m + r}")
    for i in range(k - 1):
        base = h[i].inverse() * h[i + 1]
        for block in range(1, m):
            offset = block * k
            if h[i + offset].inverse() * h[i + offset + 1] != base:
                return i
    return None


def _block_shifts(source: Sequence[GroupElement], m: int, r: int,
                  target: Sequence[GroupElement]) -> Tuple[GroupElement, ...]:
    """Shifts s_l = target[l k] source[0]^(-1), l < m, with target[j + l k] = s_l source[j]
    for j < k: the m blocks repeat their ratios (else EmbeddingConditionError) and the
    first is a translate of the source (else ValueError), so every block is one."""
    k = len(source)
    violation = find_block_violation(target, k, m, r)
    if violation is not None:
        raise EmbeddingConditionError(
            violation, f"target tuple ratio at position {violation} differs between blocks")
    first = source[0].inverse()
    shift = target[0] * first
    for alpha in range(k):
        if target[alpha] != shift * source[alpha]:
            raise ValueError(f"target prefix is not a translate of the source tuple at index {alpha}")
    return tuple(target[l * k] * first for l in range(m))


class Character(_Frozen):
    """chi(g) = zeta_N^(sum_i (N/n_i) a_i g_i) with N = lcm of the factors."""

    group: FiniteAbelianGroup
    exponents: Tuple[int, ...]

    __init__ = GroupElement.__init__
    __eq__ = GroupElement.__eq__
    __hash__ = GroupElement.__hash__

    def __call__(self, g: GroupElement) -> CycNumber:
        if g.group is not self.group and g.group != self.group:
            raise ValueError("element of a different group")
        level = self.group.exponent_lcm
        total = sum((level // n) * a * e
                    for a, e, n in zip(self.exponents, g.exponents, self.group.factors))
        return root_of_unity(level, total)

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
