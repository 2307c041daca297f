"""Exact commutative arithmetic: rationals, polynomials in the interpolation
parameter u, and multivariate polynomials in the commuting dilatation
variables x, y, z.

All coefficients are arbitrary-precision fractions; there is no floating
point anywhere in this package.  Products, linear substitutions and
variable splits sum plain integers over a common denominator and make one
Fraction per nonzero result coefficient.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

MAX_LEGS = 3
VAR_NAMES = ("x", "y", "z")


def _as_fraction(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError("expected an integer or Fraction, got %r" % (value,))


class UPoly:
    """Polynomial in the parameter u with rational coefficients.

    Stored sparsely as {degree: coefficient}; zero coefficients are never
    kept, so equality is plain dict comparison.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        cleaned = {}
        if coeffs:
            for deg, c in coeffs.items():
                c = _as_fraction(c)
                if c:
                    if deg < 0:
                        raise ValueError("negative degree in UPoly")
                    cleaned[deg] = c
        self.coeffs = cleaned

    @classmethod
    def const(cls, value):
        return cls({0: _as_fraction(value)})

    @classmethod
    def u(cls):
        return cls({1: Fraction(1)})

    @classmethod
    def coerce(cls, value):
        if isinstance(value, UPoly):
            return value
        return cls.const(value)

    @property
    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UPoly.const(other)
        if not isinstance(other, UPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        other = UPoly.coerce(other)
        out = dict(self.coeffs)
        for deg, c in other.coeffs.items():
            s = out.get(deg, 0) + c
            if s:
                out[deg] = s
            else:
                out.pop(deg, None)
        res = UPoly()
        res.coeffs = out
        return res

    __radd__ = __add__

    def __neg__(self):
        res = UPoly()
        res.coeffs = {deg: -c for deg, c in self.coeffs.items()}
        return res

    def __sub__(self, other):
        return self + (-UPoly.coerce(other))

    def __rsub__(self, other):
        return UPoly.coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _as_fraction(other)
            if not other:
                return UPoly()
            res = UPoly()
            res.coeffs = {deg: c * other for deg, c in self.coeffs.items()}
            return res
        if not isinstance(other, UPoly):
            return NotImplemented
        out = {}
        for d1, c1 in self.coeffs.items():
            for d2, c2 in other.coeffs.items():
                deg = d1 + d2
                s = out.get(deg, 0) + c1 * c2
                if s:
                    out[deg] = s
                else:
                    out.pop(deg, None)
        res = UPoly()
        res.coeffs = out
        return res

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a UPoly")
        res = UPoly.const(1)
        for _ in range(n):
            res = res * self
        return res

    def __call__(self, u0):
        u0 = _as_fraction(u0)
        total = Fraction(0)
        for deg, c in self.coeffs.items():
            total += c * u0**deg
        return total

    def __repr__(self):
        return "UPoly(%r)" % (self.coeffs,)

    def __str__(self):
        return format_upoly(self)


def format_upoly(p, var="u"):
    if p.is_zero:
        return "0"
    parts = []
    for deg in sorted(p.coeffs, reverse=True):
        c = p.coeffs[deg]
        if deg == 0:
            mono = str(c)
        else:
            uv = var if deg == 1 else "%s^%d" % (var, deg)
            if c == 1:
                mono = uv
            elif c == -1:
                mono = "-" + uv
            else:
                mono = "%s*%s" % (c, uv)
        if parts and not mono.startswith("-"):
            parts.append("+" + mono)
        else:
            parts.append(mono)
    return "".join(parts)


class DPoly:
    """Polynomial in up to three commuting variables with UPoly coefficients.

    Sparse and canonical: terms map exponent vectors (one entry per leg) to
    nonzero UPoly values.
    """

    __slots__ = ("legs", "terms")

    def __init__(self, legs, terms=None):
        if not 1 <= legs <= MAX_LEGS:
            raise ValueError("legs must be between 1 and %d" % MAX_LEGS)
        self.legs = legs
        cleaned = {}
        if terms:
            for exps, c in terms.items():
                exps = tuple(exps)
                if len(exps) != legs or any(e < 0 for e in exps):
                    raise ValueError("bad exponent vector %r" % (exps,))
                c = UPoly.coerce(c)
                if not c.is_zero:
                    cleaned[exps] = c
        self.terms = cleaned

    @classmethod
    def const(cls, legs, value):
        return cls(legs, {(0,) * legs: UPoly.coerce(value)})

    @classmethod
    def variable(cls, legs, index):
        """The variable of leg `index` (1-based)."""
        if not 1 <= index <= legs:
            raise ValueError("variable index out of range")
        exps = tuple(1 if i == index - 1 else 0 for i in range(legs))
        return cls(legs, {exps: 1})

    @property
    def is_zero(self):
        return not self.terms

    def _check_legs(self, other):
        if self.legs != other.legs:
            raise ValueError("DPoly leg counts differ: %d vs %d"
                             % (self.legs, other.legs))

    def coerce_other(self, other):
        if isinstance(other, DPoly):
            return other
        return DPoly.const(self.legs, other)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, UPoly)):
            other = DPoly.const(self.legs, other)
        if not isinstance(other, DPoly):
            return NotImplemented
        return self.legs == other.legs and self.terms == other.terms

    def __hash__(self):
        return hash((self.legs, frozenset(self.terms.items())))

    def __add__(self, other):
        other = self.coerce_other(other)
        self._check_legs(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = out.get(exps)
            s = c if s is None else s + c
            if s.is_zero:
                out.pop(exps, None)
            else:
                out[exps] = s
        res = DPoly(self.legs)
        res.terms = out
        return res

    __radd__ = __add__

    def __neg__(self):
        res = DPoly(self.legs)
        res.terms = {exps: -c for exps, c in self.terms.items()}
        return res

    def __sub__(self, other):
        return self + (-self.coerce_other(other))

    def __rsub__(self, other):
        return self.coerce_other(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, UPoly)):
            if other == 0:
                return DPoly(self.legs)
            res = DPoly(self.legs)
            res.terms = {exps: c * other for exps, c in self.terms.items()}
            return res
        if not isinstance(other, DPoly):
            return NotImplemented
        self._check_legs(other)
        return self._product(other, self.legs, _add_exps)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a DPoly")
        res = DPoly.const(self.legs, 1)
        for _ in range(n):
            res = res * self
        return res

    def outer(self, other):
        """The product in disjoint variables: self's legs, then other's."""
        legs = self.legs + other.legs
        if legs > MAX_LEGS:
            raise ValueError("outer product exceeds %d legs" % MAX_LEGS)
        return self._product(other, legs, operator.add)

    def _product(self, other, legs, join):
        """Product whose term (e1, e2) lands on join(e1, e2), summed in
        integers over the product of the two operands' denominators."""
        La, A = _over_lcm(self.terms)
        Lb, B = _over_lcm(other.terms)
        acc = {}
        for e1, c1 in A.items():
            for e2, c2 in B.items():
                out = acc.setdefault(join(e1, e2), {})
                for d1, v1 in c1:
                    for d2, v2 in c2:
                        d = d1 + d2
                        out[d] = out.get(d, 0) + v1 * v2
        return _from_ints(legs, acc, La * Lb)

    def substitute_linear(self, scales, offsets):
        """Replace each variable x_i by scales[i]*x_i + offsets[i].

        With s = S/l and c = C/l over l = lcm of their denominators and m
        the top exponent of the leg, (s*x + c)^e times l^m expands once per
        call into the integer terms (j, C(e, j) S^j C^(e-j) l^(m-e)).  A
        term's image is the product of these lists across the legs; the
        sum runs in integers over L * prod l^m, L the lcm of the
        coefficient denominators.
        """
        scales = [_as_fraction(s) for s in scales]
        offsets = [_as_fraction(c) for c in offsets]
        lcms = [math.lcm(s.denominator, c.denominator)
                for s, c in zip(scales, offsets)]
        tops = [max(col) for col in zip(*self.terms)] or [0] * self.legs
        L, coefs = _over_lcm(self.terms)
        expansions = [{} for _ in range(self.legs)]
        acc = {}
        for exps, coef in coefs.items():
            images = [((), 1)]
            for i, e in enumerate(exps):
                table = expansions[i].get(e)
                if table is None:
                    s, c, l = scales[i], offsets[i], lcms[i]
                    S = s.numerator * (l // s.denominator)
                    C = c.numerator * (l // c.denominator)
                    table = [(j, math.comb(e, j) * S**j * C**(e - j)
                              * l**(tops[i] - e)) for j in range(e + 1)]
                    table = expansions[i][e] = [t for t in table if t[1]]
                images = [(js + (j,), k * kj)
                          for js, k in images for j, kj in table]
            for js, k in images:
                out = acc.setdefault(js, {})
                for deg, v in coef:
                    out[deg] = out.get(deg, 0) + v * k
        den = L * math.prod([l**m for l, m in zip(lcms, tops)])
        return _from_ints(self.legs, acc, den)

    def shift(self, offsets):
        """Replace each variable x_i by x_i + offsets[i]."""
        if all(c == 0 for c in offsets):
            return self
        return self.substitute_linear([1] * self.legs, offsets)

    def split_variable(self, slot):
        """Replace the slot variable by a sum of two fresh adjacent variables.

        Variables after the slot are re-indexed; the result has one more leg.
        """
        if not 1 <= slot <= self.legs:
            raise ValueError("slot out of range")
        if self.legs >= MAX_LEGS:
            raise ValueError("cannot split beyond %d variables" % MAX_LEGS)
        i = slot - 1
        L, coefs = _over_lcm(self.terms)
        acc = {}
        for exps, coef in coefs.items():
            e = exps[i]
            for j in range(e + 1):
                b = math.comb(e, j)
                key = exps[:i] + (j, e - j) + exps[i + 1:]
                acc[key] = {deg: v * b for deg, v in coef}
        return _from_ints(self.legs + 1, acc, L)

    def evaluate(self, point, u_value=0):
        """Exact value at a rational point (one entry per variable).

        The sum runs in integers over one common denominator.  With
        x_i = a_i/b_i, u = p/q, m_i the top exponent of leg i, n the top
        u-degree and L the lcm of the coefficient denominators, the term
        c u^d prod x_i^e_i contributes c*L * p^d q^(n-d) * prod a_i^e_i
        b_i^(m_i-e_i) over the denominator L q^n prod b_i^m_i.
        """
        if len(point) != self.legs:
            raise ValueError("point must assign every variable")
        coefs = [c.coeffs for c in self.terms.values()]
        tops = [max(col) for col in zip(*self.terms)] or [0] * self.legs
        n = max(map(max, coefs), default=0)
        L = math.lcm(*{x.denominator for c in coefs for x in c.values()})
        u_table = _ratio_powers(u_value, n)
        tables = [_ratio_powers(v, m) for v, m in zip(point, tops)]
        total = 0
        for exps, c in zip(self.terms, coefs):
            s = 0
            for d, x in c.items():
                s += x.numerator * (L // x.denominator) * u_table[d]
            total += s * math.prod(map(list.__getitem__, tables, exps))
        den = L * u_table[0] * math.prod([t[0] for t in tables])
        return Fraction(total, den)

    def specialize_u(self, u0):
        res = DPoly(self.legs)
        for exps, coef in self.terms.items():
            v = coef(u0)
            if v:
                res.terms[exps] = UPoly.const(v)
        return res

    def __repr__(self):
        return "DPoly(%d, %r)" % (self.legs, self.terms)

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for exps in sorted(self.terms):
            coef = self.terms[exps]
            mono = "*".join(
                VAR_NAMES[i] if e == 1 else "%s^%d" % (VAR_NAMES[i], e)
                for i, e in enumerate(exps) if e > 0)
            cs = format_upoly(coef)
            if len(coef.coeffs) > 1:
                cs = "(%s)" % cs
            parts.append("%s*%s" % (cs, mono) if mono else cs)
        return " + ".join(parts)


def _add_exps(e1, e2):
    return tuple(map(operator.add, e1, e2))


def _over_lcm(terms):
    """(L, {exps: [(u-degree, int)]}): the coefficients of a DPoly's terms
    as integer numerators over L, the lcm of their denominators."""
    L = math.lcm(*{c.denominator for p in terms.values()
                   for c in p.coeffs.values()})
    return L, {exps: [(d, c.numerator * (L // c.denominator))
                      for d, c in p.coeffs.items()]
               for exps, p in terms.items()}


def _from_ints(legs, acc, den):
    """The DPoly of {exps: {u-degree: int}} over the denominator den: one
    Fraction per nonzero coefficient, no zero stored."""
    res = DPoly(legs)
    for exps, coeffs in acc.items():
        coeffs = {d: Fraction(n, den) for d, n in coeffs.items() if n}
        if coeffs:
            p = res.terms[exps] = UPoly()
            p.coeffs = coeffs
    return res


def _ratio_powers(v, m):
    """[a^e * b^(m-e) for e in 0..m] for v = a/b: the numerators of v^e
    over the common denominator b^m, which is the first entry."""
    if not isinstance(v, (int, Fraction)):
        raise TypeError("expected an integer or Fraction, got %r" % (v,))
    a, b = v.numerator, v.denominator
    out = [b**m]
    for _ in range(m):
        out.append(out[-1] // b * a)
    return out


_BINOM = {}


def binom_poly(T, k):
    """Binomial symbol with polynomial argument: T(T-1)...(T-k+1)/k!.

    Memoised by (T, k), so the returned polynomial is shared between calls
    and must not be mutated.
    """
    if k < 0:
        raise ValueError("binomial lower index must be nonnegative")
    key = (type(T), T, k)
    res = _BINOM.get(key)
    if res is None:
        if isinstance(T, DPoly):
            res = DPoly.const(T.legs, 1)
        else:
            res = UPoly.const(1)
        for j in range(k):
            res = res * (T - j)
        res = _BINOM[key] = res * Fraction(1, math.factorial(k))
    return res


def int_binom(n, k):
    """Integer binomial coefficient, zero outside 0 <= k <= n."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)
