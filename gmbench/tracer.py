"""Layer wrappers for the traced run: spans, counts and self times per layer.

`Tracer.install` replaces, from outside the package, every public function and
public method of the gradedmat modules with a wrapper.  Functions of the span
layers record a span (name, start, end, parent); the per-scalar and per-element
methods of `cyclotomic` and `groups`, which run millions of times, and
`Signature.get` only count calls and add their time to their layer.  A layer's
self time is the time its calls took minus the time of the calls they made
into any other wrapped function.  The tracer's own zero-product test is left
out of every time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from collections import Counter, defaultdict
from dataclasses import is_dataclass
from typing import Dict, List

SPAN_LAYERS = ("matrices", "linalg", "gradings", "equivalence", "embeddings", "chains",
               "specio", "cli")
COUNT_LAYERS = ("cyclotomic", "groups")
LAYERS = COUNT_LAYERS + SPAN_LAYERS
COUNT_ONLY = {"equivalence.Signature.get"}

_OPERATORS = {"__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__pow__", "__call__"}

# inclusive-time metrics: the time of the outermost call into any of the names
GROUPS = {
    "matrices.mul_s": ("matrices.Matrix.__mul__",),
    "linalg.span_s": ("linalg.SpanSolver.add", "linalg.SpanSolver.contains",
                      "linalg.SpanSolver.coordinates"),
    "linalg.rref_s": ("linalg.rref",),
    "gradings.verify_grading_s": ("gradings.verify_grading",),
    "gradings.homomorphism_check_s": ("gradings.graded_homomorphism_check",),
    "gradings.cocycle_s": ("gradings.extract_cocycle", "gradings.cocycle_from_units",
                           "gradings.Cocycle.first_identity_violation",
                           "gradings.Cocycle.is_cocycle", "gradings.Cocycle.equals"),
    "gradings.matrix_units_s": ("gradings.homogeneous_matrix_units",),
    "gradings.construct_s": ("gradings.elementary_grading", "gradings.epsilon_grading",
                             "gradings.induced_tensor_grading"),
    "equivalence.decide_s": ("equivalence.decide_equivalence",),
    "embeddings.block_embedding_s": ("embeddings.block_diagonal_embedding",),
    "embeddings.regularize_s": ("embeddings.regularize_decomposition",),
    "chains.bratteli_s": ("chains.bratteli_of_chain",),
    "chains.steinitz_s": ("chains.steinitz_signature",),
}


def _group_keys(name: str) -> tuple:
    keys = [key for key, names in GROUPS.items() if name in names]
    if name.startswith("specio.parse_"):
        keys.append("specio.parse_s")
    elif name.startswith("specio.") and (name.endswith("_to_json") or name == "specio.element_key"):
        keys.append("specio.emit_s")
    return tuple(keys)


def _stored_entries(matrix) -> int:
    entries = getattr(matrix, "entries", None)
    if isinstance(entries, dict):
        return len(entries)
    if isinstance(entries, tuple):
        return sum(len(row) for row in entries)
    return matrix.n * matrix.n


class Tracer:
    def __init__(self):
        self.paused = False
        self.keep_spans = True
        self.counts: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.group_s: Dict[str, float] = defaultdict(float)
        self.excluded_s = 0.0  # time of the zero-product probes, taken out of every call
        self.spans: List[tuple] = []  # (id, name, parent id, start, end)
        self._stack: List[list] = []  # frames: [layer, child time, span id]
        self._depth: Counter = Counter()
        self._next_id = 0

    # --- wrappers ---------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn, span: bool):
        groups = _group_keys(name)
        hook = self._hook(name)
        probe = self._probe if name == "matrices.Matrix.__mul__" else None
        tracer = self
        stack, counts, self_s, group_s, depth = (self._stack, self.counts, self.self_s,
                                                 self.group_s, self._depth)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            counts[name] += 1
            parent = stack[-1] if stack else None
            if not span and parent is not None and parent[0] == layer:
                # nested in its own layer: the outer call already times it
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, result)
                return result
            span_id = None
            if span and tracer.keep_spans:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [layer, 0.0, span_id]
            stack.append(frame)
            for key in groups:
                depth[key] += 1
            excluded = tracer.excluded_s
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start - (tracer.excluded_s - excluded)
                self_s[layer] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                for key in groups:
                    depth[key] -= 1
                    if not depth[key]:
                        group_s[key] += elapsed
                if span_id is not None:
                    tracer.spans.append((span_id, name, parent[2] if parent else None, start, end))
            if hook is not None:
                hook(args, result)
            if probe is not None:
                probe(result)
            return result

        return wrapper

    def _hook(self, name: str):
        """A count taken from a call's arguments or result, without calling gradedmat."""
        counts = self.counts
        if name == "cyclotomic.CycNumber.is_zero":
            def hook(args, result):
                counts["cyclotomic.is_zero_true"] += bool(result)
        elif name == "matrices.Matrix.__init__":
            def hook(args, result):
                counts["matrices.entries_built"] += _stored_entries(args[0])
        elif name == "linalg.SpanSolver.add":
            def hook(args, result):
                counts["linalg.add_accepted"] += bool(result)
        else:
            return None
        return hook

    def _probe(self, product) -> None:
        """Count zero matrix products; the test runs untraced and every
        enclosing call subtracts its time through `excluded_s`."""
        start = time.perf_counter()
        self.paused = True
        try:
            self.counts["matrices.zero_products"] += product.is_zero()
        finally:
            self.paused = False
            self.excluded_s += time.perf_counter() - start

    def install(self) -> None:
        """Wrap the public functions and methods of every layer module."""
        replaced = {}
        for layer in LAYERS:
            module = importlib.import_module(f"gradedmat.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    replaced[obj] = self._wrap(layer, f"{layer}.{attr}", obj, layer in SPAN_LAYERS)
                elif isinstance(obj, type):
                    self._install_class(layer, obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "gradedmat" or mod_name.startswith("gradedmat."):
                for attr, obj in list(vars(module).items()):
                    if isinstance(obj, types.FunctionType) and obj in replaced:
                        setattr(module, attr, replaced[obj])

    def _install_class(self, layer: str, cls: type) -> None:
        for attr, member in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{attr}"
            wanted = (not attr.startswith("_") or attr in _OPERATORS
                      or (attr == "__eq__" and not is_dataclass(cls))
                      or name == "matrices.Matrix.__init__")
            if not wanted:
                continue
            span = layer in SPAN_LAYERS and name not in COUNT_ONLY \
                and name != "matrices.Matrix.__init__"
            if isinstance(member, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(layer, name, member.__func__, span)))
            elif isinstance(member, types.FunctionType):
                setattr(cls, attr, self._wrap(layer, name, member, span))

    # --- results ------------------------------------------------------------

    def totals(self) -> dict:
        return {"counts": dict(self.counts), "self_s": dict(self.self_s),
                "group_s": dict(self.group_s), "spans": self.spans}

    def merge(self, totals: dict) -> None:
        """Add the totals and spans of a traced child process."""
        if self.keep_spans:
            offset = self._next_id
            self.spans.extend((i + offset, name, None if parent is None else parent + offset,
                               start, end) for i, name, parent, start, end in totals["spans"])
            self._next_id += len(totals["spans"])
        self.counts.update(totals["counts"])
        for key, value in totals["self_s"].items():
            self.self_s[key] += value
        for key, value in totals["group_s"].items():
            self.group_s[key] += value


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(counts: Dict[str, int], self_s: Dict[str, float],
                  group_s: Dict[str, float], rounds: int) -> Dict[str, float]:
    """Per-layer metrics for one round: counts of the first traced round and
    times averaged over `rounds` traced rounds."""
    c = Counter(counts)
    per_round = {key: value / rounds for key, value in group_s.items()}
    out: Dict[str, float] = {
        "cyclotomic.mul_calls": c["cyclotomic.CycNumber.__mul__"] + c["cyclotomic.CycNumber.__rmul__"],
        "cyclotomic.add_calls": c["cyclotomic.CycNumber.__add__"] + c["cyclotomic.CycNumber.__radd__"],
        "cyclotomic.inverse_calls": c["cyclotomic.CycNumber.inverse"],
        "cyclotomic.lift_calls": c["cyclotomic.CycNumber.lift"],
        "cyclotomic.is_zero_calls": c["cyclotomic.CycNumber.is_zero"],
        "cyclotomic.is_zero_true_share": _share(c["cyclotomic.is_zero_true"],
                                                c["cyclotomic.CycNumber.is_zero"]),
        "groups.element_mul_calls": c["groups.GroupElement.__mul__"],
        "groups.elements_calls": c["groups.FiniteAbelianGroup.elements"],
        "matrices.mul_calls": c["matrices.Matrix.__mul__"],
        "matrices.zero_product_share": _share(c["matrices.zero_products"],
                                              c["matrices.Matrix.__mul__"]),
        "matrices.entries_built": c["matrices.entries_built"],
        "matrices.inverse_calls": c["matrices.Matrix.inverse"],
        "linalg.reduce_calls": c["linalg.SpanSolver.add"] + c["linalg.SpanSolver.contains"]
        + c["linalg.SpanSolver.coordinates"],
        "linalg.add_accept_share": _share(c["linalg.add_accepted"], c["linalg.SpanSolver.add"]),
        "linalg.rref_calls": c["linalg.rref"],
        "equivalence.signature_get_calls": c["equivalence.Signature.get"],
    }
    for key in list(GROUPS) + ["specio.parse_s", "specio.emit_s"]:
        out[key] = per_round.get(key, 0.0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0) / rounds
    return out
