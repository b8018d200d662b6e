"""Exact arithmetic in cyclotomic fields Q(zeta_N)."""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple, Union

Rational = Union[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _trim(coeffs: List[Fraction]) -> List[Fraction]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> List[Fraction]:
    if not a or not b:
        return []
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj == 0:
                continue
            out[i + j] += ai * bj
    return _trim(out)


def _poly_sub(a: Sequence[Fraction], b: Sequence[Fraction]) -> List[Fraction]:
    out = [_ZERO] * max(len(a), len(b))
    for i, ai in enumerate(a):
        out[i] += ai
    for i, bi in enumerate(b):
        out[i] -= bi
    return _trim(out)


def _poly_divmod(a: Sequence[Fraction], b: Sequence[Fraction]) -> Tuple[List[Fraction], List[Fraction]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    _trim(rem)
    quot = [_ZERO] * max(0, len(rem) - len(b) + 1)
    lead = b[-1]
    while len(rem) >= len(b):
        factor = rem[-1] / lead
        shift = len(rem) - len(b)
        quot[shift] = factor
        for i, bi in enumerate(b):
            if bi != 0:
                rem[shift + i] -= factor * bi
        _trim(rem)
    return _trim(quot), rem


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


_cyclotomic_cache: dict = {}
# level -> rows: rows[k - phi] holds x^k mod Phi_level as sparse (index, integer
# coefficient) pairs, for phi <= k <= max(phi, 2*phi - 2)
_reduction_cache: dict = {}


def cyclotomic_polynomial(n: int) -> Tuple[Fraction, ...]:
    """Coefficients of Phi_n, little-endian: the product of (x^(n/d) - 1)^mu(d) over d | n."""
    if n < 1:
        raise ValueError(f"level must be positive, got {n}")
    cached = _cyclotomic_cache.get(n)
    if cached is not None:
        return cached
    mu = {1: 1}  # the Moebius function on the squarefree divisors of n
    for p in _prime_factors(n):
        mu.update({d * p: -sign for d, sign in list(mu.items())})
    poly = [1]
    for d, sign in mu.items():  # multiply by x^(n/d) - 1
        if sign == 1:
            e = n // d
            poly = [(poly[i - e] if i >= e else 0) - (poly[i] if i < len(poly) else 0)
                    for i in range(len(poly) + e)]
    for d, sign in mu.items():  # divide exactly by x^(n/d) - 1
        if sign == -1:
            e = n // d
            quot: List[int] = []
            for i in range(len(poly) - e):
                quot.append((quot[i - e] if i >= e else 0) - poly[i])
            poly = quot
    result = tuple(Fraction(c) for c in poly)
    _cyclotomic_cache[n] = result
    return result


def euler_phi(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


def _reduction_rows(level: int) -> List[tuple]:
    rows = _reduction_cache.get(level)
    if rows is not None:
        return rows
    modulus = cyclotomic_polynomial(level)
    phi = len(modulus) - 1
    rows = [tuple((i, -int(c)) for i, c in enumerate(modulus[:-1]) if c)]
    for _ in range(phi, 2 * phi - 2):  # x^(k+1) = x * x^k, folding the x^phi term
        row = {}
        for i, c in rows[-1]:
            if i + 1 < phi:
                row[i + 1] = row.get(i + 1, 0) + c
            else:
                for j, r in rows[0]:
                    row[j] = row.get(j, 0) + c * r
        rows.append(tuple((i, c) for i, c in sorted(row.items()) if c))
    _reduction_cache[level] = rows
    return rows


def _numerators(coeffs: Sequence[Fraction]) -> Tuple[List[int], int]:
    """Integer numerators over the least common denominator, and that denominator."""
    den = math.lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _reduce(level: int, poly: List[int], den: int) -> Tuple[Fraction, ...]:
    """(poly / den) mod Phi_level as a trimmed tuple of Fractions; poly is consumed."""
    phi = euler_phi(level)
    top = len(poly) - 1
    if top >= phi:
        rows = _reduction_rows(level)
        last_row = phi + len(rows) - 1
        for k in range(top, phi - 1, -1):
            c = poly[k]
            if not c:
                continue
            if k <= last_row:
                base, row = 0, rows[k - phi]
            else:  # x^k = x^(k - phi) * x^phi lands below k; it is folded further down
                base, row = k - phi, rows[0]
            for j, r in row:
                poly[base + j] += c * r
        del poly[phi:]
    while poly and not poly[-1]:
        poly.pop()
    if den == 1:
        return tuple(Fraction(c) for c in poly)
    return tuple(Fraction(c, den) for c in poly)


class CycNumber:
    """An element of Q(zeta_N) in the power basis 1, zeta, ..., zeta^(phi(N)-1).

    Coefficients are reduced modulo Phi_N and trimmed: the tuple never ends in
    a zero, and zero is (). Representations at a fixed level are therefore
    canonical, and equality at a common level is tuple equality.
    """

    __slots__ = ("level", "coeffs")

    def __init__(self, level: int, coeffs: Tuple[Fraction, ...]):
        self.level = level
        self.coeffs = coeffs

    @staticmethod
    def from_poly(level: int, coeffs: Iterable[Rational]) -> "CycNumber":
        num, den = _numerators([Fraction(c) for c in coeffs])
        return CycNumber(level, _reduce(level, num, den))

    @staticmethod
    def rational(value: Rational) -> "CycNumber":
        value = Fraction(value)
        return CycNumber(1, (value,) if value else ())

    @staticmethod
    def zero() -> "CycNumber":
        return _CYC_ZERO

    @staticmethod
    def one() -> "CycNumber":
        return _CYC_ONE

    def is_zero(self) -> bool:
        return not self.coeffs

    def as_rational(self) -> Fraction:
        """The value as a Fraction; raises if it is not rational."""
        if len(self.coeffs) > 1:
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0] if self.coeffs else _ZERO

    def is_rational(self) -> bool:
        return len(self.coeffs) <= 1

    def lift(self, level: int) -> "CycNumber":
        """Rewrite at a higher level M; requires self.level | M."""
        if level == self.level:
            return self
        if level % self.level != 0:
            raise ValueError(f"cannot lift level {self.level} to {level}")
        if len(self.coeffs) <= 1:
            return CycNumber(level, self.coeffs)
        step = level // self.level
        num, den = _numerators(self.coeffs)
        poly = [0] * ((len(num) - 1) * step + 1)
        poly[::step] = num
        return CycNumber(level, _reduce(level, poly, den))

    def _common(self, other: "CycNumber") -> Tuple["CycNumber", "CycNumber"]:
        if self.level == other.level:
            return self, other
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
        other = CycNumber._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(other)
        x, y = a.coeffs, b.coeffs
        if len(x) < len(y):
            x, y = y, x
        if not y:
            return CycNumber(a.level, x)
        out = list(x)
        for i, c in enumerate(y):
            out[i] += c
        if len(x) == len(y):
            while out and not out[-1]:
                out.pop()
        return CycNumber(a.level, tuple(out))

    __radd__ = __add__

    def __neg__(self) -> "CycNumber":
        return CycNumber(self.level, tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "CycNumber":
        other = CycNumber._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "CycNumber":
        return (-self) + other

    def __mul__(self, other) -> "CycNumber":
        other = CycNumber._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        x, y = (self, other) if len(self.coeffs) >= len(other.coeffs) else (other, self)
        if len(y.coeffs) <= 1:  # a rational factor scales the other; lifting it only relabels
            level = math.lcm(x.level, y.level)
            if not y.coeffs:
                return CycNumber(level, ())
            if x.level != level:
                x = x.lift(level)
            c = y.coeffs[0]
            if c == 1:
                return x
            return CycNumber(level, tuple(c * v for v in x.coeffs))
        x, y = self._common(other)
        a, da = _numerators(x.coeffs)
        b, db = _numerators(y.coeffs)
        prod = [0] * (len(a) + len(b) - 1)
        for i, u in enumerate(a):
            if u:
                for j, v in enumerate(b, i):
                    prod[j] += u * v
        return CycNumber(x.level, _reduce(x.level, prod, da * db))

    __rmul__ = __mul__

    def inverse(self) -> "CycNumber":
        """Multiplicative inverse via the extended Euclidean algorithm mod Phi_N."""
        if not self.coeffs:
            raise ZeroDivisionError("inverse of zero")
        if len(self.coeffs) == 1:
            return CycNumber(self.level, (_ONE / self.coeffs[0],))
        modulus = list(cyclotomic_polynomial(self.level))
        r0, r1 = modulus, list(self.coeffs)
        s0: List[Fraction] = []
        s1: List[Fraction] = [_ONE]
        while len(r1) > 1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        if not r1:
            raise ZeroDivisionError("element is a zero divisor; modulus not coprime")
        scale = r1[0]
        num, den = _numerators([c / scale for c in s1])
        return CycNumber(self.level, _reduce(self.level, num, den))

    def __truediv__(self, other) -> "CycNumber":
        other = CycNumber._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> "CycNumber":
        return CycNumber._coerce(other) * self.inverse()

    def __pow__(self, exponent: int) -> "CycNumber":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = CycNumber.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        other = CycNumber._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(other)
        return a.coeffs == b.coeffs

    __hash__ = None  # type: ignore[assignment]

    def to_string(self) -> str:
        """Canonical textual form, e.g. '1/2 + -1*z4^1'."""
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
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
_CYC_ONE = CycNumber(1, (_ONE,))


def root_of_unity(level: int, power: int = 1) -> CycNumber:
    """zeta_N^k at level N."""
    if level < 1:
        raise ValueError(f"level must be positive, got {level}")
    k = power % level
    return CycNumber(level, _reduce(level, [0] * k + [1], 1))


_TERM_RE = re.compile(
    r"^\s*(?P<coeff>-?\d+(?:/\d+)?)?\s*(?:(?P<star>\*)?\s*z(?P<level>\d+)\^(?P<power>-?\d+))?\s*$"
)


def parse_scalar(text: str) -> CycNumber:
    """Parse the textual scalar form: rationals 'a/b' and root terms 'a/b*zN^k'."""
    if not isinstance(text, str):
        raise ValueError(f"scalar must be a string, got {type(text).__name__}")
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty scalar string")
    total = CycNumber.zero()
    for raw in stripped.split("+"):
        term = raw.strip()
        if not term:
            raise ValueError(f"malformed scalar {text!r}: empty term")
        m = _TERM_RE.match(term)
        if not m or (m.group("coeff") is None and m.group("level") is None):
            raise ValueError(f"malformed scalar term {term!r} in {text!r}")
        coeff = Fraction(m.group("coeff")) if m.group("coeff") is not None else _ONE
        if m.group("level") is None:
            total = total + CycNumber.rational(coeff)
        else:
            level = int(m.group("level"))
            if level < 1:
                raise ValueError(f"bad root level in term {term!r}")
            power = int(m.group("power"))
            total = total + CycNumber.rational(coeff) * root_of_unity(level, power)
    return total
