"""Exact commutative arithmetic: rationals, polynomials in the interpolation
parameter u, and multivariate polynomials in the commuting dilatation
variables x, y, z.

All coefficients are exact rationals; there is no floating point anywhere
in this package.  A DPoly keeps integer numerators over one denominator,
so its operations sum plain integers and reduce each result by one gcd;
Fractions appear only at the edges (UPoly scalars, evaluation, output).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import chain, repeat

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
                if not isinstance(deg, int) or deg < 0:
                    raise ValueError("bad degree %r in UPoly" % (deg,))
                c = _as_fraction(c)
                if c:
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
    """Polynomial in up to three commuting variables whose coefficients are
    polynomials in u.

    Stored as integer numerators over one denominator: `num` maps a key
    (e_1, ..., e_legs, u-degree) to a nonzero int and `den` is a positive
    int.  The form is canonical: gcd(den, *num.values()) == 1 and den == 1
    for the zero polynomial, so equal polynomials have equal (legs, den,
    num).  Every operation sums plain ints and normalises its result once.
    """

    __slots__ = ("legs", "num", "den")

    def __init__(self, legs, terms=None):
        """From {exps: coefficient}, a coefficient being an int, a Fraction
        or a UPoly."""
        if not 1 <= legs <= MAX_LEGS:
            raise ValueError("legs must be between 1 and %d" % MAX_LEGS)
        coefs = {}
        if terms:
            for exps, c in terms.items():
                exps = tuple(exps)
                if len(exps) != legs or not all(
                        isinstance(e, int) and e >= 0 for e in exps):
                    raise ValueError("bad exponent vector %r" % (exps,))
                for deg, v in UPoly.coerce(c).coeffs.items():
                    coefs[exps + (deg,)] = v
        den = math.lcm(*{v.denominator for v in coefs.values()})
        self.legs = legs
        self.num, self.den = _reduced(
            {k: v.numerator * (den // v.denominator)
             for k, v in coefs.items()}, den)

    @classmethod
    def from_num(cls, legs, acc, den=1):
        """The DPoly acc/den, for acc {(e_1, ..., e_legs, u-degree): int}
        and den a positive int; acc becomes (or is reduced into) its num."""
        res = cls.__new__(cls)
        res.legs = legs
        res.num, res.den = _reduced(acc, den)
        return res

    @classmethod
    def const(cls, legs, value):
        if isinstance(value, UPoly):
            return cls(legs, {(0,) * legs: value})
        value = _as_fraction(value)
        return cls.from_num(legs, {(0,) * (legs + 1): value.numerator},
                            value.denominator)

    @classmethod
    def variable(cls, legs, index):
        """The variable of leg `index` (1-based)."""
        if not 1 <= index <= legs:
            raise ValueError("variable index out of range")
        exps = tuple(1 if i == index - 1 else 0 for i in range(legs))
        return cls(legs, {exps: 1})

    @property
    def terms(self):
        """{exps: UPoly}: a fresh read-only view with Fraction coefficients,
        for output and reports."""
        out = {}
        for key, v in self.num.items():
            p = out.get(key[:-1])
            if p is None:
                p = out[key[:-1]] = UPoly()
            p.coeffs[key[-1]] = Fraction(v, self.den)
        return out

    @property
    def is_zero(self):
        return not self.num

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
        return (self.legs == other.legs and self.den == other.den
                and self.num == other.num)

    def __hash__(self):
        return hash((self.legs, self.den, frozenset(self.num.items())))

    def _plus(self, other, sign):
        """self + sign * other, for sign 1 or -1, in one pass.  An int
        other adds sign * other * den to the constant key; any other
        operand is summed over the lcm of the two denominators."""
        if isinstance(other, int):
            acc = dict(self.num)
            k = (0,) * (self.legs + 1)
            acc[k] = acc.get(k, 0) + sign * other * self.den
            return DPoly.from_num(self.legs, acc, self.den)
        other = self.coerce_other(other)
        self._check_legs(other)
        g = math.gcd(self.den, other.den)
        fa, fb = other.den // g, sign * (self.den // g)  # the lcm is den * fa
        acc = ({k: v * fa for k, v in self.num.items()} if fa != 1
               else dict(self.num))
        for k, v in other.num.items():
            acc[k] = acc.get(k, 0) + v * fb
        return DPoly.from_num(self.legs, acc, self.den * fa)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return DPoly.from_num(self.legs, {k: -v for k, v in self.num.items()},
                              self.den)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self)._plus(other, 1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            n = other.numerator
            return DPoly.from_num(self.legs,
                                  {k: v * n for k, v in self.num.items()},
                                  self.den * other.denominator)
        if isinstance(other, UPoly):
            other = DPoly.const(self.legs, other)
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

    def grouped(self):
        """This polynomial, sharing num, with its keys grouped by exponent
        vector once: a factor of many products or shifts, such as a term of
        a TensorElement product, is then not regrouped by each of them."""
        res = _Grouped.__new__(_Grouped)
        res.legs, res.num, res.den = self.legs, self.num, self.den
        res.groups = _by_exps(self.num)
        return res

    def _grouped(self):
        """{exps: [(u-degree, numerator)]}: num's keys grouped by exponent
        vector."""
        return _by_exps(self.num)

    def _product(self, other, legs, join):
        """Product whose monomials e1, e2 land on join(e1, e2), summed in
        integers over the product of the two denominators.  Each operand's
        keys are grouped by exponent vector, so the join runs once per pair
        of monomials, not once per pair of (monomial, u-degree) keys."""
        B = other._grouped().items()
        acc = {}
        for e1, c1 in self._grouped().items():
            for e2, c2 in B:
                e = join(e1, e2)
                for d1, v1 in c1:
                    for d2, v2 in c2:
                        k = e + (d1 + d2,)
                        acc[k] = acc.get(k, 0) + v1 * v2
        return DPoly.from_num(legs, acc, self.den * other.den)

    def substitute_linear(self, scales, offsets):
        """Replace each variable x_i by scales[i]*x_i + offsets[i].

        With s = S/l and c = C/l over l = lcm of their denominators and m
        the top exponent of the leg, (s*x + c)^e times l^m expands once per
        call into the integer terms (j, C(e, j) S^j C^(e-j) l^(m-e)).  A
        monomial's image is the product of these lists across the legs; the
        sum runs in integers over den * prod l^m.
        """
        scales = [_as_fraction(s) for s in scales]
        offsets = [_as_fraction(c) for c in offsets]
        lcms = [math.lcm(s.denominator, c.denominator)
                for s, c in zip(scales, offsets)]
        groups = self._grouped()
        tops = [max(col) for col in zip(*groups)] or [0] * self.legs
        expansions = [{} for _ in range(self.legs)]
        acc = {}
        for exps, coef in groups.items():
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
                for deg, v in coef:
                    key = js + (deg,)
                    acc[key] = acc.get(key, 0) + v * k
        den = self.den * math.prod([l**m for l, m in zip(lcms, tops)])
        return DPoly.from_num(self.legs, acc, den)

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
        acc = {}
        for key, v in self.num.items():
            e = key[i]
            for j in range(e + 1):
                acc[key[:i] + (j, e - j) + key[i + 1:]] = v * math.comb(e, j)
        return DPoly.from_num(self.legs + 1, acc, self.den)

    def evaluate(self, point, u_value=0):
        """Exact value at a rational point (one entry per variable): the
        one-point case of `value_ratios`."""
        (num,), (den,) = self.value_ratios((tuple(point),), u_value)
        return Fraction(num, den)

    def value_ratios(self, points, u_value=0):
        """(nums, dens): the exact values at `points`, a tuple of tuples, as
        two lists of ints, value j being nums[j]/dens[j] with dens[j] > 0,
        not reduced.

        With x_i = a_i/b_i at a point, u = a/b, and m_i the top exponent of
        each, the key (e_1, ..., u-degree) with numerator v contributes
        v * a^deg b^(m-deg) * prod a_i^e_i b_i^(m_i-e_i) over
        den * b^m * prod b_i^m_i.  The u part is the same at every point, so
        each monomial's numerators are summed into one int first; that int
        then meets the monomial's column over the points, the product of
        its variables' power columns, once.  The power columns are memoised
        by (points, variable, top exponent) and shared between calls
        (`_power_columns`).
        """
        legs = self.legs
        if any(len(p) != legs for p in points):
            raise ValueError("point must assign every variable")
        *tops, top_u = ([max(col) for col in zip(*self.num)]
                        or [0] * (legs + 1))
        u_powers = _ratio_powers(u_value, top_u)
        if not points:
            return [], []
        columns = _power_columns(points, tops)
        coefs = {}
        for key, v in self.num.items():
            e = key[:-1]
            coefs[e] = coefs.get(e, 0) + v * u_powers[key[-1]]
        nums = [0] * len(points)
        for e, c in coefs.items():
            if c:
                column = map(c.__mul__, columns[0][e[0]])
                for powers, ei in zip(columns[1:], e[1:]):
                    column = map(operator.mul, column, powers[ei])
                nums = list(map(operator.add, nums, column))
        dens = map((self.den * u_powers[0]).__mul__, columns[0][0])
        for powers in columns[1:]:
            dens = map(operator.mul, dens, powers[0])
        return nums, list(dens)

    def specialize_u(self, u0):
        """The polynomial at u = u0: every u-degree becomes 0."""
        n = max((key[-1] for key in self.num), default=0)
        u_table = _ratio_powers(u0, n)
        acc = {}
        for key, v in self.num.items():
            k = key[:-1] + (0,)
            acc[k] = acc.get(k, 0) + v * u_table[key[-1]]
        return DPoly.from_num(self.legs, acc, self.den * u_table[0])

    def __repr__(self):
        return "DPoly(%d, %r)" % (self.legs, self.terms)

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for exps, coef in sorted(self.terms.items()):
            mono = "*".join(
                VAR_NAMES[i] if e == 1 else "%s^%d" % (VAR_NAMES[i], e)
                for i, e in enumerate(exps) if e > 0)
            cs = format_upoly(coef)
            if len(coef.coeffs) > 1:
                cs = "(%s)" % cs
            parts.append("%s*%s" % (cs, mono) if mono else cs)
        return " + ".join(parts)


class _Grouped(DPoly):
    """A DPoly that keeps its keys grouped (DPoly.grouped).  The slot is
    on this class alone, so a plain DPoly stays three slots small."""

    __slots__ = ("groups",)

    def _grouped(self):
        return self.groups


def _add_exps(e1, e2):
    return tuple(map(operator.add, e1, e2))


def _reduced(acc, den):
    """(num, den) of the polynomial acc/den in canonical form: zero
    numerators dropped, both divided by gcd(den, *numerators).  The dict
    acc is taken over, not copied."""
    if 0 in acc.values():
        acc = {k: v for k, v in acc.items() if v}
    g = math.gcd(den, *acc.values())
    if g != 1:
        acc = {k: v // g for k, v in acc.items()}
        den //= g
    return acc, den


def _by_exps(num):
    """{exps: [(u-degree, numerator)]}: the keys of num grouped by their
    exponent vector."""
    out = {}
    for key, v in num.items():
        out.setdefault(key[:-1], []).append((key[-1], v))
    return out


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


_COLUMNS = {}


def _power_columns(points, tops):
    """For each variable i with top exponent tops[i], the rows
    [a^e * b^(m-e) for the i-th coordinate a/b of each point] for e in
    0..m: the numerators of the coordinates' powers over the common
    denominators b^m, which make up the first row.

    Memoised by (points, i, m), so the returned rows are shared between
    calls and must not be mutated.  Keying by the caller's points, rather
    than by a new tuple per call, keeps a hot caller from churning tuples.
    """
    # checked before the lookup: 1.0 would find the rows of 1
    if not all(map(isinstance, chain.from_iterable(points),
                   repeat((int, Fraction)))):
        raise TypeError("expected integers or Fractions, got %r" % (points,))
    out = []
    for i, m in enumerate(tops):
        key = (points, i, m)
        rows = _COLUMNS.get(key)
        if rows is None:
            rows = _COLUMNS[key] = list(zip(*[_ratio_powers(p[i], m)
                                              for p in points]))
        out.append(rows)
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
