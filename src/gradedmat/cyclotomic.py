"""Exact arithmetic in cyclotomic fields Q(zeta_N)."""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple, Union

Rational = Union[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)

# The largest root level, and lcm of the levels, that a parsed scalar may use.
MAX_ROOT_LEVEL = 1000


def _prime_factors(n: int) -> List[int]:
    """The distinct primes dividing n, by trial division up to sqrt(n)."""
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return primes + [n] if n > 1 else primes


# level -> (phi, the nonzero (index, integer coefficient) pairs of x^phi mod Phi_level,
#           the integer coefficients of Phi_level)
_fold_cache: dict = {}


def _fold(level: int) -> Tuple[int, Tuple[Tuple[int, int], ...], Tuple[int, ...]]:
    """Phi_level on integers, built once per level: prod over d | level of (x^(level/d) - 1)^mu(d)."""
    cached = _fold_cache.get(level)
    if cached is not None:
        return cached
    if level < 1:
        raise ValueError(f"level must be positive, got {level}")
    mu = {1: 1}  # the Moebius function on the squarefree divisors of level
    for p in _prime_factors(level):
        mu.update({d * p: -sign for d, sign in list(mu.items())})
    poly = [1]
    for d, sign in mu.items():  # multiply by x^(level/d) - 1
        if sign == 1:
            e = level // d
            poly = [(poly[i - e] if i >= e else 0) - (poly[i] if i < len(poly) else 0)
                    for i in range(len(poly) + e)]
    for d, sign in mu.items():  # divide exactly by x^(level/d) - 1
        if sign == -1:
            e = level // d
            quot: List[int] = []
            for i in range(len(poly) - e):
                quot.append((quot[i - e] if i >= e else 0) - poly[i])
            poly = quot
    cached = _fold_cache[level] = (len(poly) - 1, tuple(
        (i, -c) for i, c in enumerate(poly[:-1]) if c), tuple(poly))
    return cached


def cyclotomic_polynomial(n: int) -> Tuple[Fraction, ...]:
    """Coefficients of Phi_n, little-endian."""
    return tuple(Fraction(c) for c in _fold(n)[2])


def euler_phi(n: int) -> int:
    return _fold(n)[0]


def _numerators(coeffs: Sequence[Fraction]) -> Tuple[List[int], int]:
    """Integer numerators over the least common denominator, and that denominator."""
    den = math.lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _canonical(level: int, poly: List[int], den: int) -> "CycNumber":
    """poly / den for poly of degree below phi(level), trimmed and in lowest terms."""
    while poly and not poly[-1]:
        poly.pop()
    if den != 1:
        g = math.gcd(den, *poly)
        if g != 1:
            poly = [c // g for c in poly]
            den //= g
    return CycNumber(level, tuple(poly), den)


def _reduce(level: int, poly: List[int], den: int) -> "CycNumber":
    """(poly / den) mod Phi_level, by long division by the monic Phi_level; poly is consumed."""
    phi, row, _ = _fold(level)
    for k in range(len(poly) - 1, phi - 1, -1):  # x^k = x^(k - phi) * x^phi lands below k
        c = poly[k]
        if c:
            base = k - phi
            for j, r in row:
                poly[base + j] += c * r
    del poly[phi:]
    return _canonical(level, poly, den)


class CycNumber:
    """An element of Q(zeta_N) in the power basis 1, zeta, ..., zeta^(phi(N)-1).

    The coefficients are the integers `nums` over one positive denominator `den`,
    reduced modulo Phi_N, trimmed and in lowest terms: `nums` never ends in a
    zero, gcd(den, *nums) == 1, and zero is ((), 1). Representations at a fixed
    level are therefore canonical, and equality at a common level is tuple equality.
    """

    __slots__ = ("level", "nums", "den")

    def __init__(self, level: int, nums: Tuple[int, ...], den: int = 1):
        self.level = level
        self.nums = nums
        self.den = den

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        """The coefficients as Fractions, trimmed; zero is ()."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    @staticmethod
    def from_poly(level: int, coeffs: Iterable[Rational]) -> "CycNumber":
        num, den = _numerators([Fraction(c) for c in coeffs])
        return _reduce(level, num, den)

    @staticmethod
    def rational(value: Rational) -> "CycNumber":
        value = Fraction(value)
        return CycNumber(1, (value.numerator,), value.denominator) if value else _CYC_ZERO

    @staticmethod
    def zero() -> "CycNumber":
        return _CYC_ZERO

    @staticmethod
    def one() -> "CycNumber":
        return _CYC_ONE

    def is_zero(self) -> bool:
        return not self.nums

    def as_rational(self) -> Fraction:
        """The value as a Fraction; raises if it is not rational."""
        if len(self.nums) > 1:
            raise ValueError(f"{self} is not rational")
        return Fraction(self.nums[0], self.den) if self.nums else _ZERO

    def is_rational(self) -> bool:
        return len(self.nums) <= 1

    def lift(self, level: int) -> "CycNumber":
        """Rewrite at a higher level M; requires self.level | M."""
        if level == self.level:
            return self
        if level % self.level != 0:
            raise ValueError(f"cannot lift level {self.level} to {level}")
        if len(self.nums) <= 1:
            return CycNumber(level, self.nums, self.den)
        step = level // self.level
        poly = [0] * ((len(self.nums) - 1) * step + 1)
        poly[::step] = self.nums
        return _reduce(level, poly, self.den)

    def _common(self, other: "CycNumber") -> Tuple["CycNumber", "CycNumber"]:
        """Both operands at the lcm of their levels; callers at one level skip this."""
        lvl = math.lcm(self.level, other.level)
        return self.lift(lvl), other.lift(lvl)

    @staticmethod
    def _coerce(value) -> "CycNumber":
        if isinstance(value, CycNumber):
            return value
        if isinstance(value, (int, Fraction)):
            return CycNumber.rational(value)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "CycNumber":
        if other.__class__ is not CycNumber:
            other = CycNumber._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = (self, other) if self.level == other.level else self._common(other)
        if len(a.nums) < len(b.nums):
            a, b = b, a
        if not b.nums:
            return a
        den = a.den
        if den == b.den:
            out = list(a.nums)
            for i, v in enumerate(b.nums):
                out[i] += v
        else:
            den = math.lcm(den, b.den)
            sa, sb = den // a.den, den // b.den
            out = [sa * u for u in a.nums]
            for i, v in enumerate(b.nums):
                out[i] += sb * v
        return _canonical(a.level, out, den)

    __radd__ = __add__

    def __neg__(self) -> "CycNumber":
        return CycNumber(self.level, tuple(-c for c in self.nums), self.den)

    def __sub__(self, other) -> "CycNumber":
        other = CycNumber._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "CycNumber":
        return (-self) + other

    def __mul__(self, other) -> "CycNumber":
        if other.__class__ is not CycNumber:
            other = CycNumber._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        x, y = (self, other) if len(self.nums) >= len(other.nums) else (other, self)
        level = x.level if x.level == y.level else math.lcm(x.level, y.level)
        if len(y.nums) <= 1:  # a rational factor scales the other; lifting it only relabels
            if not y.nums:
                return CycNumber(level, ())
            if x.level != level:
                x = x.lift(level)
            c, d = y.nums[0], y.den
            if c == 1 == d:
                return x
            return _canonical(level, [c * v for v in x.nums], d * x.den)
        if x.level != y.level:
            x, y = x.lift(level), y.lift(level)
        a, b = x.nums, y.nums
        prod = [0] * (len(a) + len(b) - 1)
        for i, u in enumerate(a):
            if u:
                for j, v in enumerate(b, i):
                    prod[j] += u * v
        return _reduce(x.level, prod, x.den * y.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycNumber":
        """Multiplicative inverse by an extended Euclid on integer polynomials mod Phi_N.

        The rows keep s * nums == r (mod Phi_N), starting from (Phi_N, 0) and (nums, 1).
        A step cancels the leading term of r0 against r1: (r0, s0) becomes
        u * (r0, s0) - v * x^k * (r1, s1) with v / u = lc(r0) / lc(r1) in lowest terms,
        and is then divided by the joint content of r0 and s0.  That pair is a rational
        multiple of the pair a Euclid over Fractions from the same rows holds at the same
        step, and the smallest integer one, so its entries are never longer than that
        pair's numerators over their common denominator.  Phi_N is irreducible, so r1
        ends as a nonzero integer r, and 1/self = den * s1 / r.
        """
        nums = self.nums
        if not nums:
            raise ZeroDivisionError("inverse of zero")
        if len(nums) == 1:
            c, d = nums[0], self.den
            if c == d or c == -d:  # 1 and -1 are their own inverses
                return self
            return CycNumber(self.level, (d,), c) if c > 0 else CycNumber(self.level, (-d,), -c)
        r0, r1 = list(_fold(self.level)[2]), list(nums)
        s0: List[int] = []
        s1 = [1]
        while len(r1) > 1:
            while len(r0) >= len(r1):
                k = len(r0) - len(r1)
                g = math.gcd(r0[-1], r1[-1])
                u, v = r1[-1] // g, r0[-1] // g
                if u != 1:
                    r0 = [u * c for c in r0]
                    s0 = [u * c for c in s0]
                for i, c in enumerate(r1, k):
                    r0[i] -= v * c
                s0.extend([0] * (k + len(s1) - len(s0)))
                for i, c in enumerate(s1, k):
                    s0[i] -= v * c
                while r0 and not r0[-1]:
                    r0.pop()
                while s0 and not s0[-1]:
                    s0.pop()
                g = math.gcd(*r0, *s0)
                if g != 1:
                    r0 = [c // g for c in r0]
                    s0 = [c // g for c in s0]
            r0, r1, s0, s1 = r1, r0, s1, s0
        if not r1:
            raise ZeroDivisionError("element is a zero divisor; modulus not coprime")
        r = r1[0]
        den = self.den if r > 0 else -self.den
        return _reduce(self.level, [den * c for c in s1], abs(r))

    def __truediv__(self, other) -> "CycNumber":
        other = CycNumber._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> "CycNumber":
        return CycNumber._coerce(other) * self.inverse()

    def __pow__(self, exponent: int) -> "CycNumber":
        return _power(self, exponent, CycNumber.one())

    def __eq__(self, other) -> bool:
        if other.__class__ is not CycNumber:
            other = CycNumber._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = (self, other) if self.level == other.level else self._common(other)
        return a.nums == b.nums and a.den == b.den

    __hash__ = None  # type: ignore[assignment]

    def to_string(self) -> str:
        """Canonical textual form, e.g. '1/2 + -1*z4^1'."""
        terms = []
        for i, c in enumerate(self.nums):
            if c == 0:
                continue
            c = Fraction(c, self.den)
            if i == 0:
                terms.append(str(c))
            else:
                terms.append(f"{c}*z{self.level}^{i}")
        if not terms:
            return "0"
        return " + ".join(terms)

    def __repr__(self) -> str:
        return f"CycNumber({self.to_string()!r})"


_CYC_ZERO = CycNumber(1, ())
_CYC_ONE = CycNumber(1, (1,))


def _power(x, k: int, one):
    """x^k by repeated squaring from `one`; a negative k inverts x first."""
    if k < 0:
        x, k = x.inverse(), -k
    result = one
    while k:
        if k & 1:
            result = result * x
        x = x * x
        k >>= 1
    return result


def root_of_unity(level: int, power: int = 1) -> CycNumber:
    """zeta_N^k at level N."""
    if level < 1:
        raise ValueError(f"level must be positive, got {level}")
    k = power % level
    return _reduce(level, [0] * k + [1], 1)


_TERM_RE = re.compile(
    r"^\s*(?P<coeff>-?\d+(?:/\d+)?)?\s*(?:(?P<star>\*)?\s*z(?P<level>\d+)\^(?P<power>-?\d+))?\s*$"
)


def parse_scalar(text: str) -> CycNumber:
    """Parse the textual scalar form: rationals 'a/b' and root terms 'a/b*zN^k'.

    Root levels, and their lcm, may not exceed MAX_ROOT_LEVEL; the check runs
    before any arithmetic, since building Phi_N costs time and memory growing with N.
    """
    if not isinstance(text, str):
        raise ValueError(f"scalar must be a string, got {type(text).__name__}")
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty scalar string")
    terms = []
    for raw in stripped.split("+"):
        term = raw.strip()
        if not term:
            raise ValueError(f"malformed scalar {text!r}: empty term")
        m = _TERM_RE.match(term)
        if not m or (m.group("coeff") is None and m.group("level") is None):
            raise ValueError(f"malformed scalar term {term!r} in {text!r}")
        coeff = Fraction(m.group("coeff")) if m.group("coeff") is not None else _ONE
        level, power = int(m.group("level") or 1), int(m.group("power") or 0)
        if not 1 <= level <= MAX_ROOT_LEVEL:
            raise ValueError(f"root level of term {term!r} must be between 1 and the cap {MAX_ROOT_LEVEL}")
        terms.append((coeff, level, power))
    common = math.lcm(*(level for _, level, _ in terms))
    if common > MAX_ROOT_LEVEL:
        raise ValueError(f"root levels in {text!r} have lcm {common}, above the cap {MAX_ROOT_LEVEL}")
    total = CycNumber.zero()
    for coeff, level, power in terms:
        total = total + CycNumber.rational(coeff) * root_of_unity(level, power)
    return total
