"""Chains of graded matrix algebras: unfolding, Bratteli diagrams, finitary limits."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from .equivalence import OMEGA, DefiningSequence, Signature
from .groups import (FiniteAbelianGroup, GroupElement, _Frozen, _block_shifts, degree_classes,
                     subgroup_generated)

if TYPE_CHECKING:
    from .gradings import GradedAlgebra


class DoubleStep(_Frozen):
    """tau -> (tau, tau) realized by the unital embedding X -> diag(X, X)."""

    def extend(self, tau: Tuple[GroupElement, ...]) -> Tuple[GroupElement, ...]:
        return tau + tau


class TwistStep(_Frozen):
    """tau -> (tau, a*tau) realized by the unital embedding X -> diag(X, X)."""

    a: GroupElement

    def extend(self, tau: Tuple[GroupElement, ...]) -> Tuple[GroupElement, ...]:
        return tau + tuple(self.a * g for g in tau)


class BlockStep(_Frozen):
    """tau -> explicit target tuple realized by X -> diag(X, ..., X, 0)."""

    k: int
    m: int
    r: int
    target: Tuple[GroupElement, ...]

    def shifts(self, tau: Tuple[GroupElement, ...]) -> Tuple[GroupElement, ...]:
        """The shifts of the target's layout over tau (_block_shifts), which checks it."""
        if len(tau) != self.k:
            raise ValueError(f"block step expects a source tuple of length {self.k}, got {len(tau)}")
        return _block_shifts(tau, self.m, self.r, self.target)

    def extend(self, tau: Tuple[GroupElement, ...]) -> Tuple[GroupElement, ...]:
        self.shifts(tau)
        return self.target


ChainStep = Union[DoubleStep, TwistStep, BlockStep]


class ChainSpec(_Frozen):
    """Base tuple and extension rules; the rules repeat cyclically past the end."""

    group: FiniteAbelianGroup
    base: Tuple[GroupElement, ...]
    steps: Tuple[ChainStep, ...]

    def __init__(self, group: FiniteAbelianGroup, base: Tuple[GroupElement, ...],
                 steps: Tuple[ChainStep, ...]):
        super().__init__(group, base, steps)
        if not self.base:
            raise ValueError("the base tuple must be non-empty")
        if not self.steps:
            raise ValueError("need at least one step")
        for g in self.base:
            if g.group != self.group:
                raise ValueError("base tuple entries must belong to the stated group")
        for i, step in enumerate(self.steps):
            elements = (step.a,) if isinstance(step, TwistStep) else getattr(step, "target", ())
            if any(g.group != self.group for g in elements):
                raise ValueError(f"step {i} elements must belong to the stated group")

    def step_at(self, i: int) -> ChainStep:
        return self.steps[i % len(self.steps)]

    def unfold(self, depth: int) -> List[Tuple[GroupElement, ...]]:
        """Tuples at levels 1..depth; step i extends level i to level i+1."""
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        tuples = [self.base]
        for i in range(depth - 1):
            try:
                tuples.append(self.step_at(i).extend(tuples[-1]))
            except ValueError as exc:
                raise ValueError(f"step {i} rejected: {exc}") from exc
        return tuples


def _ordered(layer: Dict[Tuple[GroupElement, GroupElement], int]) -> list:
    """The edges of a layer in printing order: by source degree, then target degree."""
    return sorted(layer.items(), key=lambda kv: (kv[0][0].sort_key(), kv[0][1].sort_key()))


class BratteliDiagram:
    """Leveled multigraph of identity-component ideals along a chain.

    levels[i] is a tuple of (degree, block dimension) pairs sorted by degree;
    edges[i] maps (source degree, target degree) to a positive multiplicity.
    """

    def __init__(self, levels: Sequence[Sequence[Tuple[GroupElement, int]]],
                 edges: Sequence[Dict[Tuple[GroupElement, GroupElement], int]]):
        if len(edges) != len(levels) - 1:
            raise ValueError("need exactly one edge layer between consecutive levels")
        self.levels = tuple(tuple(level) for level in levels)
        self.edges = tuple(dict(layer) for layer in edges)

    @property
    def depth(self) -> int:
        return len(self.levels)

    def multiplicity(self, level: int, source: GroupElement, target: GroupElement) -> int:
        return self.edges[level].get((source, target), 0)

    def to_json_dict(self) -> dict:
        levels = [[{"degree": list(g.exponents), "dimension": d} for g, d in level]
                  for level in self.levels]
        edges = [[{"from": list(g.exponents), "to": list(h.exponents), "multiplicity": m}
                  for (g, h), m in _ordered(layer)] for layer in self.edges]
        return {"levels": levels, "edges": edges}

    def to_dot(self) -> str:
        lines = ["digraph bratteli {", "  rankdir=TB;"]
        names: Dict[Tuple[int, GroupElement], str] = {}
        for i, level in enumerate(self.levels):
            members = []
            for j, (g, d) in enumerate(level):
                name = f"n{i}_{j}"
                names[(i, g)] = name
                members.append(f'{name} [label="{g}:{d}"];')
            lines.append("  { rank=same; " + " ".join(members) + " }")
        for i, layer in enumerate(self.edges):
            for (g, h), m in _ordered(layer):
                lines.append(f'  {names[(i, g)]} -> {names[(i + 1, h)]} [label="{m}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _shifts(step: ChainStep, identity: GroupElement,
            level: Optional[Tuple[GroupElement, ...]] = None) -> Tuple[GroupElement, ...]:
    """The s with which a step sends every entry g of a level to the entries s g.

    A doubling has (e, e) and a twist by a has (e, a).  A block step has the shifts
    of its target's layout over the level it extends (BlockStep.shifts).
    """
    if isinstance(step, BlockStep):
        return step.shifts(level)
    return (identity, step.a if isinstance(step, TwistStep) else identity)


def bratteli_of_chain(spec: ChainSpec, depth: int) -> BratteliDiagram:
    """Block dimensions and edge multiplicities of the first `depth` levels.

    Multiplicity g -> h counts the images of one diagonal unit of class g in class h.
    A step sends every entry g to s g for each of its shifts s, so the level counts
    walk as c_(i+1)(h) = sum_s c_i(s^-1 h) in O(depth |supp|), plus the r remainder
    entries of a block step, which have no incoming edge.  Tuples are walked only
    when a block step is present, level by level as `ChainSpec.unfold` builds them, so
    that each block step is checked once, with its shifts read off the same check.
    The support stops growing after a few levels, so each product s g is formed once
    per call and looked up at every later level.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    identity = spec.group.identity()
    has_block = any(isinstance(step, BlockStep) for step in spec.steps)
    tau = spec.base if has_block else None
    dims = [{g: len(members) for g, members in degree_classes(spec.base).items()}]
    edges: List[Dict[Tuple[GroupElement, GroupElement], int]] = []
    products: Dict[GroupElement, Dict[GroupElement, GroupElement]] = {}  # s -> {g: s g}
    for i in range(depth - 1):
        step = spec.step_at(i)
        try:
            shifts = _shifts(step, identity, tau)
        except ValueError as exc:
            raise ValueError(f"step {i} rejected: {exc}") from exc
        if tau is not None:
            tau = step.target if isinstance(step, BlockStep) else step.extend(tau)
        counts: Dict[GroupElement, int] = {}
        layer: Dict[Tuple[GroupElement, GroupElement], int] = {}
        for s in shifts:
            fixed = s.is_identity()
            shifted = products.setdefault(s, {})
            for g, c in dims[-1].items():
                h = shifted.get(g)
                if h is None:
                    h = shifted[g] = g if fixed else s * g
                counts[h] = counts.get(h, 0) + c
                layer[(g, h)] = layer.get((g, h), 0) + 1
        if isinstance(step, BlockStep):
            for h in step.target[step.k * step.m:]:
                counts[h] = counts.get(h, 0) + 1
        dims.append(counts)
        edges.append(layer)
    return BratteliDiagram([[(g, c[g]) for g in sorted(c, key=GroupElement.sort_key)]
                            for c in dims], edges)


def diagrams_equal(d1: BratteliDiagram, d2: BratteliDiagram) -> bool:
    """Levelwise equality of degree labels, block dimensions, and multiplicities."""
    return d1.levels == d2.levels and d1.edges == d2.edges


def steinitz_signature(spec: ChainSpec) -> Signature:
    """Limiting multiplicity of each degree along the chain, with omega entries.

    A twist by a sends the counts c to c + (a c), and a doubling is a twist by
    the identity, so every count that is positive never drops and the support
    spreads to supp(base) H, H generated by the twist elements.  Once the
    support is closed under H every count in it grows at each step, so the
    limit is omega on supp(base) H and zero elsewhere.
    """
    identity, twists = spec.group.identity(), []
    for i, step in enumerate(spec.steps):
        if isinstance(step, BlockStep):
            raise ValueError(f"step {i} is an explicit block step; "
                             "limiting signatures require steps that repeat uniformly")
        twists.append(_shifts(step, identity)[1])
    spread = subgroup_generated(twists)
    return Signature.from_mapping(spec.group, {g * h: OMEGA for g in spec.base for h in spread})


class FinitaryGrading(_Frozen):
    """Elementary grading of finitary matrices given by an infinite tuple limit."""

    group: FiniteAbelianGroup
    spec: ChainSpec
    sequence: DefiningSequence

    def prefix(self, depth: int) -> Tuple[GroupElement, ...]:
        return self.spec.unfold(depth)[-1]

    def truncation(self, depth: int) -> GradedAlgebra:
        from .gradings import elementary_grading
        return elementary_grading(self.group, self.prefix(depth))

    def signature(self) -> Signature:
        return self.sequence.signature()


def chain_union_finitary(spec: ChainSpec) -> FinitaryGrading:
    """Union of the chain along corner embeddings, as a finitary grading.

    A double or twist step sends tau to (tau, s tau), so each term sits in the
    upper-left corner of the next by construction; the limiting tuple is then
    well-defined and its counting function is the Steinitz signature.  A chain
    with a block step is refused by steinitz_signature.
    """
    signature = steinitz_signature(spec)
    sequence = DefiningSequence.finitary(spec.group, dict(signature.counts))
    return FinitaryGrading(spec.group, spec, sequence)
