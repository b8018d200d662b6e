"""Command-line interface: verify gradings, decide equivalence, build diagrams.

Each command imports the layers it runs, so that a child process loads only those:
without cached bytecode every module loaded is compiled anew."""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from .specio import (SpecError, chain_to_json, declared_dimension, element_key,
                     element_to_json, map_to_json, matrix_to_json, parse_chain,
                     parse_embedding, parse_grading, parse_group, parse_map,
                     parse_regularize_pairs, parse_tuple, signature_to_json, witness_to_json)

if TYPE_CHECKING:
    from .chains import ChainSpec

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2

DEFAULT_MAX_DIM = 64


class InputError(Exception):
    """Problem with the request itself; maps to exit code 2."""


def _max_dim() -> int:
    raw = os.environ.get("GMK_MAX_DIM")
    if raw is None:
        return DEFAULT_MAX_DIM
    try:
        value = int(raw)
    except ValueError as exc:
        raise InputError(f"GMK_MAX_DIM must be an integer, got {raw!r}") from exc
    if value < 1:
        raise InputError(f"GMK_MAX_DIM must be positive, got {value}")
    return value


def _check_dim(n: Optional[int], what: str) -> None:
    """Apply the cap; n is None for a malformed spec, which parsing then reports."""
    cap = _max_dim()
    if n is not None and n > cap:
        raise InputError(f"{what} has dimension {n}, above the GMK_MAX_DIM cap {cap}")


def _check_map_dims(obj: Any) -> None:
    """Cap a map spec's codomain, then its domain, before either is built."""
    _check_dim(declared_dimension(obj), "the codomain")
    if isinstance(obj, dict):
        _check_dim(declared_dimension(obj.get("domain")), "the domain")


def _load_json(source: str, what: str) -> Any:
    """Load a JSON document from a file path or an inline literal."""
    text = source
    stripped = source.lstrip()
    if not (stripped.startswith("{") or stripped.startswith("[")):
        try:
            with open(source, "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read {what} file {source!r}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{what}: invalid JSON at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise InputError(f"{what}: JSON nested too deeply") from exc


def _emit(payload: Dict[str, Any], fmt: str, text_lines: List[str]) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _fail(args: argparse.Namespace, problems: List[str]) -> int:
    _emit({"verdict": "fail", "problems": problems}, args.format, ["fail", *problems])
    return EXIT_FAIL


def _cmd_verify(args: argparse.Namespace) -> int:
    from .gradings import graded_homomorphism_check, verify_grading
    obj = _load_json(args.spec, "spec")
    if isinstance(obj, dict) and obj.get("kind") == "map":
        _check_map_dims(obj)
        report = graded_homomorphism_check(parse_map(obj))
        payload = {
            "kind": "map",
            "verdict": "pass" if report.passed else "fail",
            "basis_ok": report.basis_ok,
            "injective": report.injective,
            "multiplicative_failures": len(report.multiplicative_failures),
            "degree_failures": len(report.degree_failures),
        }
        lines = [payload["verdict"]]
        if not report.passed:
            lines.append(f"basis_ok={report.basis_ok} injective={report.injective} "
                         f"multiplicative_failures={len(report.multiplicative_failures)} "
                         f"degree_failures={len(report.degree_failures)}")
        _emit(payload, args.format, lines)
        return EXIT_PASS if report.passed else EXIT_FAIL
    _check_dim(declared_dimension(obj), "the algebra")
    report = verify_grading(parse_grading(obj))
    payload = {
        "kind": "grading",
        "verdict": "pass" if report.passed else "fail",
        "n": report.n,
        "total_dimension": report.total_dimension,
        "dimension_ok": report.dimension_ok,
        "independent": report.independent,
        "closure_failures": [
            [element_to_json(g), element_to_json(h)] for g, h, _ in report.closure_failures
        ],
    }
    lines = [payload["verdict"]]
    if not report.passed:
        lines.append(f"dimension_ok={report.dimension_ok} independent={report.independent} "
                     f"closure_failures={len(report.closure_failures)}")
    _emit(payload, args.format, lines)
    return EXIT_PASS if report.passed else EXIT_FAIL


def _cmd_equiv(args: argparse.Namespace) -> int:
    from .equivalence import DefiningSequence, decide_equivalence
    group = parse_group(_load_json(args.group, "group"))
    tau = parse_tuple(_load_json(args.tau, "tau"), group, "tau")
    tau_prime = parse_tuple(_load_json(args.tau_prime, "tau-prime"), group, "tau-prime")
    _check_dim(max(len(tau), len(tau_prime)), "the tuple")
    seq = DefiningSequence.finite(group, tau)
    seq_prime = DefiningSequence.finite(group, tau_prime)
    witness = decide_equivalence(seq, seq_prime)
    payload: Dict[str, Any] = {"equivalent": witness is not None}
    lines = ["equivalent" if witness is not None else "not equivalent"]
    if witness is not None:
        payload.update(witness_to_json(witness))
        lines.append(f"shift={element_key(witness.shift)}")
        if witness.beta is not None:
            from .gradings import GradedMap, elementary_grading
            from .matrices import build_isomorphism
            iso_pairs = build_isomorphism(witness.beta, len(tau))
            certificate = map_to_json(GradedMap(elementary_grading(group, tau),
                                                elementary_grading(group, tau_prime),
                                                iso_pairs))
            payload["certificate"] = certificate
            lines.append(f"beta={list(witness.beta)}")
    _emit(payload, args.format, lines)
    return EXIT_PASS if witness is not None else EXIT_FAIL


def _cmd_embed(args: argparse.Namespace) -> int:
    from .embeddings import block_diagonal_embedding
    from .gradings import elementary_grading, graded_homomorphism_check
    from .groups import EmbeddingConditionError
    group, source, m, r, target = parse_embedding(_load_json(args.spec, "spec"))
    _check_dim(len(target), "the target algebra")
    _check_dim(len(source), "the source algebra")
    if len(target) != len(source) * m + r:
        raise SpecError("spec.target",
                        f"expected k*m + r = {len(source) * m + r} entries, got {len(target)}")
    domain = elementary_grading(group, source)
    try:
        gmap = block_diagonal_embedding(domain, m, r, target)
    except EmbeddingConditionError as exc:
        payload = {"accepted": False, "violated_index": exc.index, "reason": str(exc)}
        _emit(payload, args.format, [f"rejected: {exc}"])
        return EXIT_FAIL
    except ValueError as exc:
        payload = {"accepted": False, "reason": str(exc)}
        _emit(payload, args.format, [f"rejected: {exc}"])
        return EXIT_FAIL
    report = graded_homomorphism_check(gmap)
    payload = {"accepted": True, "verified": report.passed,
               "certificate": map_to_json(gmap)}
    _emit(payload, args.format,
          ["accepted", f"verified={report.passed}", f"pairs={len(gmap.pairs)}"])
    return EXIT_PASS if report.passed else EXIT_FAIL


def _cmd_regularize(args: argparse.Namespace) -> int:
    from .embeddings import regularize_decomposition
    from .gradings import graded_homomorphism_check
    obj = _load_json(args.spec, "spec")
    if not isinstance(obj, dict):
        raise SpecError("spec", "expected an object")
    if "map" not in obj:
        raise SpecError("spec.map", "missing field")
    _check_map_dims(obj["map"])
    gmap = parse_map(obj["map"], "spec.map")
    source, target = parse_regularize_pairs(obj, gmap)
    problems = [f"{name}: {problem}" for name, pair in (("source", source), ("target", target))
                for problem in pair.verify()]
    if problems:
        return _fail(args, problems)
    if not graded_homomorphism_check(gmap).passed:
        return _fail(args, ["the map is not a graded injection"])
    try:
        result = regularize_decomposition(gmap, source, target)
    except ValueError as exc:
        return _fail(args, [str(exc)])
    check = result.pair.verify()
    payload = {
        "verdict": "pass" if not check else "fail",
        "corner_equal": result.corner_equal,
        "adjusted_units": {element_key(g): matrix_to_json(m)
                           for g, m in sorted(result.psi.items(),
                                              key=lambda kv: kv[0].sort_key())},
        "multipliers": {element_key(g): matrix_to_json(m)
                        for g, m in sorted(result.multipliers.items(),
                                           key=lambda kv: kv[0].sort_key())},
        "centralizer_dimension": len(result.pair.c_basis),
        "centralizer_units": result.c_units.size,
        "problems": check,
    }
    lines = [payload["verdict"],
             f"corner_equal={result.corner_equal}",
             f"centralizer_dimension={len(result.pair.c_basis)}",
             f"centralizer_units={result.c_units.size}"] + check
    _emit(payload, args.format, lines)
    return EXIT_PASS if not check else EXIT_FAIL


def _check_chain_dims(spec: ChainSpec, depth: int) -> None:
    """Apply the cap to the levels in order, refusing the first one above it, and to the
    sizes of the levels so far, refusing once they sum above cap^2; no level is built.
    A chain that grows at every step outgrows the cap first, since distinct sizes up to
    the cap sum to at most cap (cap + 1) / 2."""
    from .chains import BlockStep
    cap = _max_dim()
    n, total = len(spec.base), 0
    for i in range(depth):
        if n > cap:
            raise InputError(f"level {i + 1} has dimension {n}, above the GMK_MAX_DIM cap {cap}")
        total += n
        if total > cap * cap:
            raise InputError(f"levels 1 to {i + 1} hold {total} entries in all, "
                             f"above GMK_MAX_DIM^2 = {cap * cap}")
        if i == depth - 1:
            break
        step = spec.step_at(i)
        if isinstance(step, BlockStep):
            if step.k != n:
                raise SpecError(f"spec.steps[{i % len(spec.steps)}].k",
                                f"level {i + 1} has length {n}, got k = {step.k}")
            n = step.k * step.m + step.r
        else:
            n *= 2


def _cmd_bratteli(args: argparse.Namespace) -> int:
    from .chains import bratteli_of_chain
    spec = parse_chain(_load_json(args.spec, "spec"))
    if args.depth < 1:
        raise InputError(f"depth must be >= 1, got {args.depth}")
    _check_chain_dims(spec, args.depth)
    try:
        diagram = bratteli_of_chain(spec, args.depth)
    except ValueError as exc:
        return _fail(args, [str(exc)])
    if args.format == "dot":
        print(diagram.to_dot(), end="")
        return EXIT_PASS
    payload = {"chain": chain_to_json(spec), "depth": args.depth,
               "diagram": diagram.to_json_dict()}
    lines = [f"levels: {diagram.depth}"]
    for i, level in enumerate(diagram.levels):
        lines.append(f"level {i + 1}: " +
                     " ".join(f"{g}:{d}" for g, d in level))
    _emit(payload, args.format, lines)
    return EXIT_PASS


def _cmd_demo_remark1(args: argparse.Namespace) -> int:
    from .chains import (ChainSpec, DoubleStep, TwistStep, bratteli_of_chain, diagrams_equal,
                         steinitz_signature)
    from .groups import FiniteAbelianGroup
    if args.depth < 2:
        raise InputError(f"depth must be >= 2 for the comparison, got {args.depth}")
    group = FiniteAbelianGroup((2,))
    e = group.identity()
    a = group.element((1,))
    double = ChainSpec(group, (e, a), (DoubleStep(),))
    twist = ChainSpec(group, (e, a), (TwistStep(a),))
    _check_chain_dims(double, args.depth)
    diagram_double = bratteli_of_chain(double, args.depth)
    diagram_twist = bratteli_of_chain(twist, args.depth)
    sig_double = steinitz_signature(double)
    sig_twist = steinitz_signature(twist)
    equal_diagrams = diagrams_equal(diagram_double, diagram_twist)
    equal_signatures = sig_double == sig_twist
    payload = {
        "depth": args.depth,
        "diagrams_equal": equal_diagrams,
        "steinitz_equal": equal_signatures,
        "steinitz": signature_to_json(sig_double),
        "double": diagram_double.to_json_dict(),
        "twist": diagram_twist.to_json_dict(),
        "double_dot": diagram_double.to_dot(),
        "twist_dot": diagram_twist.to_dot(),
    }
    if args.format == "dot":
        print(diagram_double.to_dot(), end="")
        print(diagram_twist.to_dot(), end="")
    else:
        lines = [f"diagrams_equal={equal_diagrams}",
                 f"steinitz_equal={equal_signatures}",
                 diagram_double.to_dot(),
                 diagram_twist.to_dot()]
        _emit(payload, args.format, lines)
    reproduced = (not equal_diagrams) and equal_signatures
    return EXIT_PASS if reproduced else EXIT_FAIL


def _cmd_cocycle(args: argparse.Namespace) -> int:
    from .gradings import extract_cocycle
    obj = _load_json(args.spec, "spec")
    _check_dim(declared_dimension(obj), "the algebra")
    algebra = parse_grading(obj)
    try:
        cocycle = extract_cocycle(algebra)
    except ValueError as exc:
        return _fail(args, [str(exc)])
    values = []
    for t in cocycle.support:
        for s in cocycle.support:
            values.append({"t": element_to_json(t), "s": element_to_json(s),
                           "value": cocycle(t, s).to_string()})
    payload = {
        "verdict": "pass",
        "support": [element_to_json(t) for t in cocycle.support],
        "values": values,
        "cocycle_identity": True,  # holds on every table cocycle_from_units builds
    }
    lines = [payload["verdict"], f"support size {len(cocycle.support)}"]
    for entry in values:
        lines.append(f"alpha({entry['t']}, {entry['s']}) = {entry['value']}")
    _emit(payload, args.format, lines)
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradedmat",
        description="Exact constructions and comparisons of group gradings on matrix algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="check a grading or map spec")
    p_verify.add_argument("--spec", required=True, help="grading or map spec (path or JSON)")
    p_verify.add_argument("--format", choices=("json", "text"), default="json")
    p_verify.set_defaults(func=_cmd_verify)

    p_equiv = sub.add_parser("equiv", help="decide equivalence of two defining tuples")
    p_equiv.add_argument("--group", required=True, help="group spec (path or JSON)")
    p_equiv.add_argument("--tau", required=True, help="first tuple (path or JSON)")
    p_equiv.add_argument("--tau-prime", required=True, dest="tau_prime",
                         help="second tuple (path or JSON)")
    p_equiv.add_argument("--format", choices=("json", "text"), default="json")
    p_equiv.set_defaults(func=_cmd_equiv)

    p_embed = sub.add_parser("embed", help="build a block-diagonal graded embedding")
    p_embed.add_argument("--spec", required=True,
                         help="embedding spec with group, source, m, r, target")
    p_embed.add_argument("--format", choices=("json", "text"), default="json")
    p_embed.set_defaults(func=_cmd_embed)

    p_reg = sub.add_parser("regularize", help="straighten a graded injection")
    p_reg.add_argument("--spec", required=True,
                       help="spec with map, source, and target decompositions")
    p_reg.add_argument("--format", choices=("json", "text"), default="json")
    p_reg.set_defaults(func=_cmd_regularize)

    p_brat = sub.add_parser("bratteli", help="diagram of a graded chain")
    p_brat.add_argument("--spec", required=True, help="chain spec (path or JSON)")
    p_brat.add_argument("--depth", type=int, default=4)
    p_brat.add_argument("--format", choices=("json", "dot", "text"), default="json")
    p_brat.set_defaults(func=_cmd_bratteli)

    p_demo = sub.add_parser("demo-remark1",
                            help="equal limit signatures with different diagrams")
    p_demo.add_argument("--depth", type=int, default=4)
    p_demo.add_argument("--format", choices=("json", "dot", "text"), default="json")
    p_demo.set_defaults(func=_cmd_demo_remark1)

    p_coc = sub.add_parser("cocycle", help="extract the cocycle of a fine grading")
    p_coc.add_argument("--spec", required=True, help="grading spec (path or JSON)")
    p_coc.add_argument("--format", choices=("json", "text"), default="json")
    p_coc.set_defaults(func=_cmd_cocycle)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, SpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
