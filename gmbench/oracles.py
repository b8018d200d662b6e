"""Expected results computed apart from gradedmat.

Group elements are exponent tuples with arithmetic done here; scalars are read
from the program's public text form and evaluated as complex numbers; verdicts
come from Counter searches and closed forms.  Nothing in this module calls
gradedmat to compute an expected value, so no check is a copy of the program.
"""

from __future__ import annotations

import cmath
import itertools
import re
from collections import Counter
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Elem = Tuple[int, ...]
Factors = Tuple[int, ...]

TOL = 1e-9


class CheckFailed(Exception):
    """An output of the program disagrees with the independent expectation."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# --- group arithmetic on exponent tuples -----------------------------------

def add(g: Elem, h: Elem, factors: Factors) -> Elem:
    return tuple((a + b) % n for a, b, n in zip(g, h, factors))


def neg(g: Elem, factors: Factors) -> Elem:
    return tuple((-a) % n for a, n in zip(g, factors))


def ratio(g: Elem, h: Elem, factors: Factors) -> Elem:
    """g^-1 h, the degree of E_ij when g = tau_i and h = tau_j."""
    return add(neg(g, factors), h, factors)


def elements(factors: Factors) -> List[Elem]:
    return list(itertools.product(*(range(n) for n in factors)))


def order(factors: Factors) -> int:
    out = 1
    for n in factors:
        out *= n
    return out


def from_rank(rank: int, factors: Factors) -> Elem:
    """The element at position `rank` of the lexicographic order of exponent tuples."""
    digits = []
    for n in reversed(factors):
        rank, d = divmod(rank, n)
        digits.append(d)
    return tuple(reversed(digits))


def subgroup(gens: Iterable[Elem], factors: Factors) -> set:
    identity = (0,) * len(factors)
    seen = {identity}
    frontier = [identity]
    gens = list(gens)
    while frontier:
        g = frontier.pop()
        for s in gens:
            h = add(g, s, factors)
            if h not in seen:
                seen.add(h)
                frontier.append(h)
    return seen


# --- elementary gradings, equivalence, block condition ---------------------

def elementary_dims(tau: Sequence[Elem], factors: Factors) -> Counter:
    """Component dimensions: the number of (i, j) with tau_i^-1 tau_j = g."""
    return Counter(ratio(a, b, factors) for a in tau for b in tau)


def equivalence_shift(tau: Sequence[Elem], tau_p: Sequence[Elem],
                      factors: Factors) -> Optional[Elem]:
    """A shift s with Counter(s*tau) == Counter(tau'), found by trying the
    shifts that send some entry of tau onto tau'[0]; None when none exists."""
    if len(tau) != len(tau_p):
        return None
    target = Counter(tau_p)
    for g in set(tau):
        shift = ratio(g, tau_p[0], factors)
        if Counter(add(shift, x, factors) for x in tau) == target:
            return shift
    return None


def witness_ok(tau: Sequence[Elem], tau_p: Sequence[Elem], shift: Elem,
               beta: Sequence[int], factors: Factors) -> bool:
    """beta is a permutation and tau'[beta(i)] = shift * tau[i] for every i."""
    n = len(tau)
    return sorted(beta) == list(range(n)) and all(
        tau_p[beta[i]] == add(shift, tau[i], factors) for i in range(n))


def block_violation(h: Sequence[Elem], k: int, m: int, factors: Factors) -> Optional[int]:
    """First i < k-1 whose consecutive ratio h_i^-1 h_(i+1) is not repeated in
    every one of the m blocks of size k; None when the pattern repeats."""
    for i in range(k - 1):
        base = ratio(h[i], h[i + 1], factors)
        if any(ratio(h[b * k + i], h[b * k + i + 1], factors) != base for b in range(1, m)):
            return i
    return None


def is_translate(prefix: Sequence[Elem], source: Sequence[Elem], factors: Factors) -> bool:
    shift = ratio(source[0], prefix[0], factors)
    return all(p == add(shift, s, factors) for p, s in zip(prefix, source))


# --- chains -----------------------------------------------------------------

def steinitz_support(base: Sequence[Elem], twists: Sequence[Elem], factors: Factors) -> set:
    """For double/twist chains the limit is omega exactly on supp(base)*<twists>."""
    sub = subgroup(twists, factors)
    return {add(b, x, factors) for b in base for x in sub}


def bratteli_expected(base: Sequence[Elem], steps: Sequence[Optional[Elem]], depth: int,
                      factors: Factors) -> Tuple[List[Counter], List[Dict[Tuple[Elem, Elem], int]]]:
    """Class sizes per level and edge multiplicities per layer.

    A step is None for doubling (multiplicity 2 on the diagonal) or the twist
    element a (multiplicity 1 to g and 1 to a*g, or 2 to g when a = e).
    """
    identity = (0,) * len(factors)
    counts = Counter(base)
    levels = [counts]
    edges = []
    for i in range(depth - 1):
        a = steps[i % len(steps)]
        layer: Dict[Tuple[Elem, Elem], int] = {}
        nxt: Counter = Counter()
        for g, c in counts.items():
            if a is None or a == identity:
                layer[(g, g)] = 2
                nxt[g] += 2 * c
            else:
                layer[(g, g)] = 1
                layer[(g, add(a, g, factors))] = 1
                nxt[g] += c
                nxt[add(a, g, factors)] += c
        edges.append(layer)
        counts = nxt
        levels.append(counts)
    return levels, edges


def check_diagram(diagram_json: dict, base, steps, depth, factors) -> None:
    levels, edges = bratteli_expected(base, steps, depth, factors)
    got_levels = diagram_json["levels"]
    expect(len(got_levels) == depth, f"diagram has {len(got_levels)} levels, expected {depth}")
    for d, (want, got) in enumerate(zip(levels, got_levels), start=1):
        got_counts = {tuple(x["degree"]): x["dimension"] for x in got}
        expect(got_counts == dict(want), f"level {d} block dimensions differ")
        expect(sum(got_counts.values()) == len(base) * 2 ** (d - 1),
               f"level {d} dimensions do not sum to |base|*2^(d-1)")
    for i, (want, got) in enumerate(zip(edges, diagram_json["edges"])):
        got_edges = {(tuple(x["from"]), tuple(x["to"])): x["multiplicity"] for x in got}
        expect(got_edges == want, f"edge layer {i} multiplicities differ")


# --- scalars and matrices through their text form ---------------------------

_TERM = re.compile(r"^(-?\d+(?:/\d+)?)?\s*\*?\s*(?:z(\d+)\^(-?\d+))?$")


def root(level: int, power: int) -> complex:
    return cmath.exp(2j * cmath.pi * power / level)


def scalar_value(text: str) -> complex:
    """Complex value of a scalar written as ' + '-joined terms a/b or a/b*zN^k."""
    total = 0j
    for raw in text.split("+"):
        term = raw.strip()
        m = _TERM.match(term)
        if not term or not m or (m.group(1) is None and m.group(2) is None):
            raise CheckFailed(f"unreadable scalar {text!r}")
        coeff = float(Fraction(m.group(1))) if m.group(1) is not None else 1.0
        total += coeff * (root(int(m.group(2)), int(m.group(3))) if m.group(2) else 1)
    return total


def matrix_values(matrix_json: dict) -> List[List[complex]]:
    return [[scalar_value(x) for x in row] for row in matrix_json["entries"]]


def close(a: complex, b: complex) -> bool:
    return abs(a - b) < TOL


def mat_close(a: List[List[complex]], b: List[List[complex]]) -> bool:
    return len(a) == len(b) and all(close(x, y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def mat_mul(a: List[List[complex]], b: List[List[complex]]) -> List[List[complex]]:
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def mat_scale(c: complex, a: List[List[complex]]) -> List[List[complex]]:
    return [[c * x for x in row] for row in a]


def unit_values(n: int, i: int, j: int) -> List[List[complex]]:
    return [[1.0 if (r, c) == (i, j) else 0.0 for c in range(n)] for r in range(n)]


def mat_sum(mats: Iterable[List[List[complex]]], n: int) -> List[List[complex]]:
    out = [[0j] * n for _ in range(n)]
    for m in mats:
        for i in range(n):
            for j in range(n):
                out[i][j] += m[i][j]
    return out


def clock_shift_values(n: int, i: int, j: int) -> List[List[complex]]:
    """X_a^i X_b^j with X_a = diag(eps^(n-1), ..., eps, 1) and X_b the cyclic
    shift (row r has its 1 in column r+1): entry (r, r+j) is eps^(i(n-1-r))."""
    out = [[0j] * n for _ in range(n)]
    for r in range(n):
        out[r][(r + j) % n] = root(n, i * (n - 1 - r))
    return out


# X_b X_a = eps^-1 X_a X_b for the matrices above, so moving X_b^j past X_a^k
# gives X_(i,j) X_(k,l) = eps^(-jk) X_(i+k, j+l): the sign of the exponent is -1.
CLOCK_SHIFT_SIGN = -1


def clock_shift_cocycle(n: int, t: Tuple[int, int], s: Tuple[int, int]) -> complex:
    """alpha(t, s) for t = (i, j) and s = (k, l) in clock-and-shift coordinates."""
    return root(n, CLOCK_SHIFT_SIGN * t[1] * s[0])
