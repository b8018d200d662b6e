"""JSON forms of groups, matrices, gradings, maps, and chains.

Each parser imports the layers that build its result, so that a command loads only
the modules it runs: without cached bytecode every module loaded is compiled anew."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Tuple

from .cyclotomic import MAX_ROOT_LEVEL, parse_scalar
from .groups import FiniteAbelianGroup, GroupElement

if TYPE_CHECKING:
    from .chains import ChainSpec, ChainStep
    from .embeddings import DecompositionPair
    from .equivalence import EquivalenceWitness, Signature
    from .gradings import GradedAlgebra, GradedMap
    from .matrices import Matrix


class SpecError(ValueError):
    """Semantic error in a spec document, carrying the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _expect(obj: Any, kind: type, path: str, what: str) -> Any:
    if not isinstance(obj, kind) or isinstance(obj, bool):
        raise SpecError(path, f"expected {what}, got {type(obj).__name__}")
    return obj


def _field(obj: Dict[str, Any], name: str, path: str) -> Any:
    if name not in obj:
        raise SpecError(f"{path}.{name}", "missing field")
    return obj[name]


def _count(obj: Dict[str, Any], name: str, path: str, least: int) -> int:
    value = _expect(_field(obj, name, path), int, f"{path}.{name}", "an integer")
    if value < least:
        raise SpecError(f"{path}.{name}", f"must be >= {least}, got {value}")
    return value


def parse_group(obj: Any, path: str = "group") -> FiniteAbelianGroup:
    data = _expect(obj, dict, path, "an object")
    factors = _expect(_field(data, "factors", path), list, f"{path}.factors", "a list")
    if not factors:
        raise SpecError(f"{path}.factors", "need at least one cyclic factor")
    out = []
    for i, f in enumerate(factors):
        out.append(_expect(f, int, f"{path}.factors[{i}]", "an integer"))
    try:
        return FiniteAbelianGroup(tuple(out))
    except ValueError as exc:
        raise SpecError(f"{path}.factors", str(exc)) from exc


def parse_element(obj: Any, group: FiniteAbelianGroup, path: str) -> GroupElement:
    data = _expect(obj, list, path, "a list of exponents")
    if len(data) != len(group.factors):
        raise SpecError(path, f"expected {len(group.factors)} exponents, got {len(data)}")
    exps = [_expect(x, int, f"{path}[{i}]", "an integer") for i, x in enumerate(data)]
    return group.element(tuple(exps))


def parse_element_key(text: str, group: FiniteAbelianGroup, path: str) -> GroupElement:
    try:
        exps = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise SpecError(path, f"bad element key {text!r}") from exc
    if len(exps) != len(group.factors):
        raise SpecError(path, f"expected {len(group.factors)} exponents in key {text!r}")
    return group.element(exps)


def _new_degree(key: str, group: FiniteAbelianGroup, path: str,
                seen: Dict[GroupElement, str]) -> GroupElement:
    """The degree that key names, recorded in seen; a second key that names it is an error."""
    g = parse_element_key(key, group, path)
    if g in seen:
        raise SpecError(path, f"names degree {g}, as key {seen[g]!r} does")
    seen[g] = key
    return g


def parse_tuple(obj: Any, group: FiniteAbelianGroup, path: str) -> Tuple[GroupElement, ...]:
    data = _expect(obj, list, path, "a list of elements")
    if not data:
        raise SpecError(path, "tuple must be non-empty")
    return tuple(parse_element(x, group, f"{path}[{i}]") for i, x in enumerate(data))


def parse_matrix(obj: Any, path: str, size: Optional[int] = None) -> Matrix:
    """A matrix spec; when size is given the matrix must be size x size."""
    from .matrices import Matrix
    data = _expect(obj, dict, path, "an object")
    n = _expect(_field(data, "n", path), int, f"{path}.n", "an integer")
    if n < 1:
        raise SpecError(f"{path}.n", "size must be positive")
    if size is not None and n != size:
        raise SpecError(path, f"matrix size {n} != {size}")
    entries = _expect(_field(data, "entries", path), list, f"{path}.entries", "a list of rows")
    if len(entries) != n:
        raise SpecError(f"{path}.entries", f"expected {n} rows, got {len(entries)}")
    rows = []
    for i, row in enumerate(entries):
        row = _expect(row, list, f"{path}.entries[{i}]", "a list")
        if len(row) != n:
            raise SpecError(f"{path}.entries[{i}]", f"expected {n} entries, got {len(row)}")
        parsed = []
        for j, cell in enumerate(row):
            cell = _expect(cell, str, f"{path}.entries[{i}][{j}]", "a scalar string")
            try:
                parsed.append(parse_scalar(cell))
            except (ValueError, ArithmeticError) as exc:  # "1/0" raises ZeroDivisionError
                raise SpecError(f"{path}.entries[{i}][{j}]", str(exc)) from exc
        rows.append(parsed)
    return Matrix(rows)


def _check_levels(path: str, matrices: Iterable[Matrix],
                  group: Optional[FiniteAbelianGroup] = None) -> None:
    """Reject entries whose root levels have an lcm above MAX_ROOT_LEVEL: arithmetic
    between them would run at that level.  With a group, its exponent counts too, since
    verifying the grading evaluates the group's characters against the entries."""
    level = 1
    for m in matrices:
        for row in m.rows.values():
            for x in row.values():
                level = math.lcm(level, x.level)
                if level > MAX_ROOT_LEVEL:
                    raise SpecError(path, f"entries use root levels with lcm {level}, "
                                          f"above the cap {MAX_ROOT_LEVEL}")
    if group is not None:
        level = math.lcm(level, group.exponent_lcm)
        if level > MAX_ROOT_LEVEL:
            raise SpecError(path, f"entries and the group exponent {group.exponent_lcm} use root "
                                  f"levels with lcm {level}, above the cap {MAX_ROOT_LEVEL}")


def _basis(algebra: GradedAlgebra) -> Iterable[Matrix]:
    return (m for mats in algebra.components.values() for m in mats)


def parse_embedding(obj: Any, path: str = "spec") -> Tuple[
        FiniteAbelianGroup, Tuple[GroupElement, ...], int, int, Tuple[GroupElement, ...]]:
    """Embedding spec: group, source tuple, block count m, remainder r and target tuple."""
    data = _expect(obj, dict, path, "an object")
    group = parse_group(_field(data, "group", path), f"{path}.group")
    source = parse_tuple(_field(data, "source", path), group, f"{path}.source")
    m, r = _count(data, "m", path, 1), _count(data, "r", path, 0)
    target = parse_tuple(_field(data, "target", path), group, f"{path}.target")
    return group, source, m, r, target


def parse_decomposition_pair(obj: Any, algebra: GradedAlgebra, path: str) -> DecompositionPair:
    """Pair spec: c_basis, d_units keyed by degree, and identity, all of the algebra's size."""
    from .embeddings import DecompositionPair
    data = _expect(obj, dict, path, "an object")
    c_obj, d_obj, id_obj = (_field(data, name, path)
                            for name in ("c_basis", "d_units", "identity"))
    if not isinstance(c_obj, list) or not c_obj:
        raise SpecError(f"{path}.c_basis", "expected a non-empty list")
    n = algebra.n
    c_basis = tuple(parse_matrix(mat, f"{path}.c_basis[{i}]", n) for i, mat in enumerate(c_obj))
    if not isinstance(d_obj, dict) or not d_obj:
        raise SpecError(f"{path}.d_units", "expected a non-empty object")
    seen: Dict[GroupElement, str] = {}
    d_units = {_new_degree(key, algebra.group, f"{path}.d_units.{key}", seen):
               parse_matrix(d_obj[key], f"{path}.d_units.{key}", n) for key in sorted(d_obj)}
    identity = parse_matrix(id_obj, f"{path}.identity", n)
    _check_levels(path, (*_basis(algebra), *c_basis, *d_units.values(), identity))
    return DecompositionPair(algebra, c_basis, d_units, identity)


def parse_regularize_pairs(obj: Dict[str, Any], gmap: GradedMap,
                           path: str = "spec") -> Tuple[DecompositionPair, DecompositionPair]:
    """The source and target pairs of a regularize spec, over the map's domain and codomain.

    Root levels are capped per pair and then across the map and both pairs,
    since regularizing computes with all three together."""
    source = parse_decomposition_pair(obj.get("source"), gmap.domain, f"{path}.source")
    target = parse_decomposition_pair(obj.get("target"), gmap.codomain, f"{path}.target")
    _check_levels(path, (*_basis(gmap.domain), *_basis(gmap.codomain),
                         *(m for pair in gmap.pairs for m in pair),
                         *(m for p in (source, target)
                           for m in (*p.c_basis, *p.d_units.values(), p.identity))))
    return source, target


def element_to_json(g: GroupElement) -> List[int]:
    return list(g.exponents)


def element_key(g: GroupElement) -> str:
    return ",".join(str(x) for x in g.exponents)


def matrix_to_json(m: Matrix) -> dict:
    return {"n": m.n, "entries": [[x.to_string() for x in row] for row in m.entries]}


def group_to_json(group: FiniteAbelianGroup) -> dict:
    return {"factors": list(group.factors)}


def parse_grading(obj: Any, path: str = "spec") -> GradedAlgebra:
    """Grading spec of kind elementary | epsilon | tensor | explicit."""
    from .gradings import GradedAlgebra, elementary_grading, epsilon_grading, \
        induced_tensor_grading
    data = _expect(obj, dict, path, "an object")
    kind = _expect(_field(data, "kind", path), str, f"{path}.kind", "a string")
    if kind == "elementary":
        group = parse_group(_field(data, "group", path), f"{path}.group")
        tau = parse_tuple(_field(data, "tuple", path), group, f"{path}.tuple")
        return elementary_grading(group, tau)
    if kind == "epsilon":
        n = _expect(_field(data, "n", path), int, f"{path}.n", "an integer")
        if n < 1:
            raise SpecError(f"{path}.n", "size must be positive")
        if "group" in data:
            group = parse_group(data["group"], f"{path}.group")
            a = parse_element(_field(data, "a", path), group, f"{path}.a") \
                if "a" in data else None
            b = parse_element(_field(data, "b", path), group, f"{path}.b") \
                if "b" in data else None
            try:
                return epsilon_grading(n, group=group, a=a, b=b)
            except ValueError as exc:
                raise SpecError(path, str(exc)) from exc
        return epsilon_grading(n)
    if kind == "tensor":
        left = parse_grading(_field(data, "left", path), f"{path}.left")
        right = parse_grading(_field(data, "right", path), f"{path}.right")
        if left.group != right.group:
            raise SpecError(path, "tensor factors must be graded by the same group")
        _check_levels(path, (*_basis(left), *_basis(right)), left.group)
        return induced_tensor_grading(left, right)
    if kind == "explicit":
        group = parse_group(_field(data, "group", path), f"{path}.group")
        comps = _expect(_field(data, "components", path), dict,
                        f"{path}.components", "an object")
        if not comps:
            raise SpecError(f"{path}.components", "need at least one component")
        parsed: Dict[GroupElement, List[Matrix]] = {}
        seen: Dict[GroupElement, str] = {}
        n = None
        for key in sorted(comps):
            g = _new_degree(key, group, f"{path}.components.{key}", seen)
            mats = _expect(comps[key], list, f"{path}.components.{key}", "a list")
            out = []
            for i, m in enumerate(mats):
                mat = parse_matrix(m, f"{path}.components.{key}[{i}]", n)
                n = mat.n
                out.append(mat)
            if out:
                parsed[g] = out
        if n is None:
            raise SpecError(f"{path}.components", "all components are empty")
        _check_levels(f"{path}.components", (m for mats in parsed.values() for m in mats), group)
        try:
            return GradedAlgebra(group, n, parsed)
        except ValueError as exc:
            raise SpecError(path, str(exc)) from exc
    raise SpecError(f"{path}.kind", f"unknown grading kind {kind!r}")


def parse_map(obj: Any, path: str = "spec") -> GradedMap:
    """Map spec: domain and codomain gradings plus basis-image pairs."""
    from .gradings import GradedMap
    data = _expect(obj, dict, path, "an object")
    kind = _expect(_field(data, "kind", path), str, f"{path}.kind", "a string")
    if kind != "map":
        raise SpecError(f"{path}.kind", f"expected 'map', got {kind!r}")
    domain = parse_grading(_field(data, "domain", path), f"{path}.domain")
    codomain = parse_grading(_field(data, "codomain", path), f"{path}.codomain")
    if domain.group != codomain.group:
        raise SpecError(path, "domain and codomain must be graded by the same group")
    pairs_obj = _expect(_field(data, "pairs", path), list, f"{path}.pairs", "a list")
    if not pairs_obj:
        raise SpecError(f"{path}.pairs", "need at least one pair")
    pairs = []
    for i, pair in enumerate(pairs_obj):
        pair = _expect(pair, list, f"{path}.pairs[{i}]", "a [source, image] pair")
        if len(pair) != 2:
            raise SpecError(f"{path}.pairs[{i}]", "expected exactly two matrices")
        pairs.append((parse_matrix(pair[0], f"{path}.pairs[{i}][0]", domain.n),
                      parse_matrix(pair[1], f"{path}.pairs[{i}][1]", codomain.n)))
    _check_levels(path, (*_basis(domain), *_basis(codomain), *(m for pair in pairs for m in pair)))
    return GradedMap(domain, codomain, tuple(pairs))


def declared_dimension(obj: Any) -> Optional[int]:
    """n of a grading spec (of a map spec's codomain) read without building; None if malformed."""
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind == "map":
        return declared_dimension(obj.get("codomain"))
    if kind == "tensor":
        left, right = declared_dimension(obj.get("left")), declared_dimension(obj.get("right"))
        return None if left is None or right is None else left * right
    n = obj.get("n") if kind == "epsilon" else None
    if kind == "elementary" and isinstance(obj.get("tuple"), list):
        n = len(obj["tuple"])
    if kind == "explicit" and isinstance(obj.get("components"), dict):
        comps = obj["components"]  # parse_grading sizes all matrices by the first, in key order
        first = next((comps[k] for k in sorted(comps) if comps[k] != []), None)
        n = first[0].get("n") if isinstance(first, list) and isinstance(first[0], dict) else None
    return n if isinstance(n, int) and not isinstance(n, bool) else None


def grading_to_json(algebra: GradedAlgebra) -> dict:
    """Serialize as elementary when a defining tuple is known, else explicitly."""
    if algebra.elementary_tuple is not None:
        return {"kind": "elementary", "group": group_to_json(algebra.group),
                "tuple": [element_to_json(g) for g in algebra.elementary_tuple]}
    components = {}
    for g in sorted(algebra.components, key=GroupElement.sort_key):
        components[element_key(g)] = [matrix_to_json(m) for m in algebra.components[g]]
    return {"kind": "explicit", "group": group_to_json(algebra.group),
            "components": components}


def map_to_json(gmap: GradedMap) -> dict:
    return {"kind": "map",
            "domain": grading_to_json(gmap.domain),
            "codomain": grading_to_json(gmap.codomain),
            "pairs": [[matrix_to_json(a), matrix_to_json(b)] for a, b in gmap.pairs]}


def parse_chain(obj: Any, path: str = "spec") -> ChainSpec:
    from .chains import BlockStep, ChainSpec, DoubleStep, TwistStep
    data = _expect(obj, dict, path, "an object")
    group = parse_group(_field(data, "group", path), f"{path}.group")
    base = parse_tuple(_field(data, "base", path), group, f"{path}.base")
    steps_obj = _expect(_field(data, "steps", path), list, f"{path}.steps", "a list")
    if not steps_obj:
        raise SpecError(f"{path}.steps", "need at least one step")
    steps: List[ChainStep] = []
    for i, step in enumerate(steps_obj):
        where = f"{path}.steps[{i}]"
        step = _expect(step, dict, where, "an object")
        kind = _expect(_field(step, "kind", where), str, f"{where}.kind", "a string")
        if kind == "double":
            steps.append(DoubleStep())
        elif kind == "twist":
            steps.append(TwistStep(parse_element(_field(step, "a", where), group, f"{where}.a")))
        elif kind == "block":
            k, m, r = (_count(step, name, where, least)
                       for name, least in (("k", 1), ("m", 1), ("r", 0)))
            target = parse_tuple(_field(step, "tuple", where), group, f"{where}.tuple")
            if len(target) != k * m + r:
                raise SpecError(f"{where}.tuple",
                                f"expected k*m + r = {k * m + r} entries, got {len(target)}")
            steps.append(BlockStep(k, m, r, target))
        else:
            raise SpecError(f"{where}.kind", f"unknown step kind {kind!r}")
    try:
        return ChainSpec(group, base, tuple(steps))
    except ValueError as exc:
        raise SpecError(path, str(exc)) from exc


def chain_to_json(spec: ChainSpec) -> dict:
    from .chains import DoubleStep, TwistStep
    steps = []
    for step in spec.steps:
        if isinstance(step, DoubleStep):
            steps.append({"kind": "double"})
        elif isinstance(step, TwistStep):
            steps.append({"kind": "twist", "a": element_to_json(step.a)})
        else:
            steps.append({"kind": "block", "k": step.k, "m": step.m, "r": step.r,
                          "tuple": [element_to_json(g) for g in step.target]})
    return {"group": group_to_json(spec.group),
            "base": [element_to_json(g) for g in spec.base],
            "steps": steps}


def signature_to_json(sig: Signature) -> list:
    out = []
    for g, count in sig.counts:
        out.append({"degree": element_to_json(g),
                    "count": count if isinstance(count, int) else "omega"})
    return out


def witness_to_json(witness: EquivalenceWitness) -> dict:
    out: Dict[str, Any] = {"shift": element_to_json(witness.shift)}
    if witness.beta is not None:
        out["beta"] = list(witness.beta)
    if witness.class_pairing is not None:
        out["class_pairing"] = [[element_to_json(g), element_to_json(h)]
                                for g, h in witness.class_pairing]
    return out
