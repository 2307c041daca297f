"""Exact commutative arithmetic: rationals, and polynomials in the
interpolation parameter u and the commuting dilatation variables x, y, z.

All coefficients are exact rationals; there is no floating point anywhere
in this package.  A DPoly keeps integer numerators over one denominator,
so its operations sum plain integers and reduce each result by at most one
gcd.  A UPoly, a polynomial in u alone, is the DPoly with no legs; a
rational scalar is a UPoly of degree 0.  An exact rational given to the
kernel is read through its int numerator and denominator, and the writers
print from the ints, so this module never imports `fractions`: only
`DPoly.evaluate`, `UPoly.__call__` and `UPoly.coeffs` return Fractions, and
each imports the module when it is called.
"""

from __future__ import annotations

import functools
import math
import sys

MAX_LEGS = 3
VAR_NAMES = ("x", "y", "z")

# A DPoly key packs (u-degree, e_1, ..., e_legs), _W bits a field, into one
# int.  Fields stay below _TOP, so keys add without a carry: a product's key
# is the sum of its factors' keys.  _GUARD holds each field's top bit.
_W = 16
_MASK = 0xFFFF
_TOP = 0x8000
MAX_DEGREE = _TOP - 1  # the largest exponent or u-degree a key holds
_GUARD = 0x8000_8000_8000_8000


def refuse_degree(n, what, low=0, high=MAX_DEGREE):
    """ValueError naming `what` unless n is an int, not a bool, in
    low..high: the one rule for every count the verifier takes.  An order,
    bound, power or binomial index becomes an exponent or u-degree of some
    key, hence the default high; a leg count, slot or grade has its own."""
    if type(n) is not int or not low <= n <= high:
        raise ValueError("%s must be an int in %d..%d, got %r"
                         % (what, low, high, n))


class _EveryDigit:
    """Lifts the interpreter's limit on the digits of an int converted to or
    from a string until exit, so that every integer computed is printed and
    reads back.  Python before 3.10.7 has no limit (0 stands for none)."""

    def __enter__(self):
        self.limit = getattr(sys, "get_int_max_str_digits", int)()
        if self.limit:
            sys.set_int_max_str_digits(0)

    def __exit__(self, *exc):
        if self.limit:
            sys.set_int_max_str_digits(self.limit)


def _ratio(value):
    """(numerator, denominator) of an exact rational, an int or a Fraction,
    read through its int numerator and denominator; a float or a Decimal,
    which has neither, raises TypeError."""
    n = getattr(value, "numerator", None)
    d = getattr(value, "denominator", None)
    if type(n) is not int or type(d) is not int:
        raise TypeError("expected an integer or Fraction, got %r" % (value,))
    return n, d


def _is_scalar(p):
    """p is a constant UPoly (zero included): a rational scalar."""
    return not p.legs and not any(p.num)


class DPoly:
    """Polynomial in up to three commuting variables whose coefficients are
    polynomials in u.

    Stored as integer numerators over one denominator: `num` maps a packed
    key to a nonzero int and `den` is a positive int.  The form is
    canonical: gcd(den, *num.values()) == 1 and den == 1 for the zero
    polynomial, so equal polynomials have equal den and num.  Every
    operation sums plain ints and normalises its result once.

    A polynomial with no legs is a UPoly: its keys are u-degrees alone, and
    so are valid keys on any leg count.  It meets a legged polynomial on
    that polynomial's legs, with no conversion.
    """

    __slots__ = ("legs", "num", "den")

    def __init__(self, legs, terms=None):
        """From {exps: coefficient}, a coefficient being an exact rational
        (an int or a Fraction) or a UPoly."""
        refuse_degree(legs, "legs", 1, MAX_LEGS)
        coefs = {}
        if terms:
            for exps, c in terms.items():
                exps = tuple(exps)
                if len(exps) != legs or not all(
                        type(e) is int and 0 <= e < _TOP for e in exps):
                    raise ValueError("bad exponent vector %r" % (exps,))
                key = sum(e << _W * i for i, e in enumerate(exps, 1))
                if isinstance(c, UPoly):
                    for deg, v in c.num.items():
                        coefs[key + deg] = v, c.den
                else:
                    coefs[key] = _ratio(c)
        self.legs = legs
        self.num, self.den = _over_lcm(coefs)

    @staticmethod
    def from_num(legs, acc, den=1):
        """The polynomial acc/den on `legs` legs, a UPoly when legs is 0, for
        acc {packed key: int} and den a positive int; acc becomes (or is
        reduced into) its num."""
        res = DPoly.__new__(DPoly if legs else UPoly)
        res.legs = legs
        res.num, res.den = _reduced(acc, den)
        return res

    @staticmethod
    def const(legs, value):
        """An exact rational or a UPoly, on `legs` legs."""
        if isinstance(value, UPoly):
            return DPoly.from_num(legs, value.num, value.den)
        n, d = _ratio(value)
        return DPoly.from_num(legs, {0: n}, d)

    @staticmethod
    def variable(legs, index):
        """The variable of leg `index` (1-based)."""
        refuse_degree(legs, "legs", 1, MAX_LEGS)
        refuse_degree(index, "variable index", 1, legs)
        return DPoly.from_num(legs, {1 << _W * index: 1})

    @property
    def terms(self):
        """{exps: UPoly}: a fresh read-only view, for output and reports."""
        groups = {}
        for key, v in self.num.items():
            groups.setdefault(key >> _W, {})[key & _MASK] = v
        shifts = range(0, _W * self.legs, _W)
        return {tuple(e >> s & _MASK for s in shifts):
                DPoly.from_num(0, group, self.den)
                for e, group in groups.items()}

    @property
    def is_zero(self):
        return not self.num

    def _legs_with(self, other):
        """The leg count of a sum or product with the DPoly other: a UPoly
        takes the other operand's."""
        if self.legs and other.legs and self.legs != other.legs:
            raise ValueError("DPoly leg counts differ: %d vs %d"
                             % (self.legs, other.legs))
        return self.legs or other.legs

    def __eq__(self, other):
        if not isinstance(other, DPoly):
            try:
                other = DPoly.const(self.legs, other)
            except TypeError:
                return NotImplemented
        return ((self.legs == other.legs or not (self.legs and other.legs))
                and self.den == other.den and self.num == other.num)

    def __hash__(self):
        # legs left out: a UPoly equals its lift, so it hashes alike
        return hash((self.den, frozenset(self.num.items())))

    def _plus(self, other, sign):
        """self + sign * other, for sign 1 or -1, in one pass.  An int
        other adds sign * other * den to the constant key; any other
        operand is summed over the lcm of the two denominators."""
        if isinstance(other, int):
            acc = dict(self.num)
            acc[0] = acc.get(0, 0) + sign * other * self.den
            return DPoly.from_num(self.legs, acc, self.den)
        if not isinstance(other, DPoly):
            other = DPoly.const(self.legs, other)
        legs = self._legs_with(other)
        g = math.gcd(self.den, other.den)
        fa, fb = other.den // g, sign * (self.den // g)  # the lcm is den * fa
        acc = ({k: v * fa for k, v in self.num.items()} if fa != 1
               else dict(self.num))
        for k, v in other.num.items():
            acc[k] = acc.get(k, 0) + v * fb
        return DPoly.from_num(legs, acc, self.den * fa)

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
        """The product.  A rational scalar on either side, an exact rational
        or a constant UPoly, scales the other factor's numerators and
        denominator, with no DPoly.dot."""
        if not isinstance(other, DPoly):
            try:
                n, d = _ratio(other)
            except TypeError:
                return NotImplemented
        elif _is_scalar(other):
            n, d = other.num.get(0, 0), other.den
        elif _is_scalar(self):
            self, n, d = other, self.num.get(0, 0), self.den
        else:
            return self.dot(self._legs_with(other), [(self, other)])
        return DPoly.from_num(self.legs,
                              {k: v * n for k, v in self.num.items()},
                              self.den * d)

    __rmul__ = __mul__

    def __pow__(self, n):
        refuse_degree(n, "power")
        res = DPoly.const(self.legs, 1)
        for _ in range(n):
            res = res * self
        return res

    def outer(self, other):
        """The product in separate variables: self's legs, then other's."""
        legs = self.legs + other.legs
        refuse_degree(legs, "legs", 1, MAX_LEGS)
        s = _W * (self.legs + 1)
        return self.dot(legs, [(self, DPoly.from_num(legs, {
            (k >> _W << s) + (k & _MASK): v for k, v in other.num.items()},
            other.den))])

    @staticmethod
    def dot(legs, pairs):
        """Sum a * b over pairs (a, b) of DPolys, in ints over one lcm.  A
        factor on fewer than `legs` legs fits, as a UPoly does; one on more
        is refused."""
        den = math.lcm(*[a.den * b.den for a, b in pairs])
        acc = {}
        for a, b in pairs:
            if a.legs > legs or b.legs > legs:
                raise ValueError("DPoly leg counts differ: %d vs %d"
                                 % (legs, max(a.legs, b.legs)))
            f = den // (a.den * b.den)
            for k1, v1 in a.num.items():
                v1 *= f
                for k2, v2 in b.num.items():
                    k = k1 + k2
                    acc[k] = acc.get(k, 0) + v1 * v2
        return DPoly.from_num(legs, _unguarded(acc), den)

    def substitute_linear(self, scales, offsets):
        """Replace each variable x_i by scales[i]*x_i + offsets[i], each
        scale being 1 or -1 and each offset an int.

        A monomial's image is the product across the legs of the rows of
        (s*x + c)^e, memoised by _row.  x -> s*x + c is invertible over the
        integers, so the image keeps the content and the canonical
        denominator: the sum needs only its zeros dropped, and no gcd.
        """
        if len(scales) != self.legs or len(offsets) != self.legs:
            raise ValueError("need one scale and one offset per variable")
        if not all(type(v) is int for v in (*scales, *offsets)):
            raise TypeError("scales and offsets must be ints, got %r and %r"
                            % (scales, offsets))
        if not all(s in (1, -1) for s in scales):
            raise ValueError("scales must be 1 or -1, got %r" % (scales,))
        legs = list(zip(range(_W, _W * (self.legs + 1), _W), scales, offsets))
        images_of = {}
        acc = {}
        for key, v in self.num.items():
            images = images_of.get(key >> _W)
            if images is None:
                images = [(0, 1)]
                for sh, s, c in legs:
                    row = _row(sh, key >> sh & _MASK, s, c)
                    images = [(ks + kj, k * r)
                              for ks, k in images for kj, r in row]
                images_of[key >> _W] = images
            deg = key & _MASK
            for ks, k in images:
                acc[ks + deg] = acc.get(ks + deg, 0) + v * k
        res = DPoly.__new__(DPoly)
        res.legs, res.den = self.legs, self.den
        res.num = {k: v for k, v in acc.items() if v}
        return res

    def shift(self, offsets):
        """Replace each variable x_i by x_i + offsets[i]."""
        if all(c == 0 for c in offsets):
            return self
        return self.substitute_linear([1] * self.legs, offsets)

    def split_variable(self, slot):
        """Replace the slot variable by a sum of two fresh adjacent variables.

        Variables after the slot are re-indexed; the result has one more leg.
        """
        refuse_degree(slot, "slot", 1, self.legs)
        refuse_degree(self.legs + 1, "legs", 1, MAX_LEGS)
        s = _W * slot
        acc = {}
        for key, v in self.num.items():
            e = key >> s & _MASK
            base = (key & (1 << s) - 1) + (key >> s + _W << s + 2 * _W)
            for j in range(e + 1):
                acc[base + (j << s) + (e - j << s + _W)] = v * math.comb(e, j)
        return DPoly.from_num(self.legs + 1, acc, self.den)

    def drop_variable(self, slot):
        """The terms free of the slot variable, with that variable removed:
        the polynomial at x_slot = 0, on one leg fewer."""
        refuse_degree(slot, "slot", 1, self.legs)
        s = _W * slot
        low = (1 << s) - 1  # the fields below the slot; those above move down
        return DPoly.from_num(self.legs - 1, {
            k & low | k >> _W & ~low: v
            for k, v in self.num.items() if not k >> s & _MASK}, self.den)

    def diagonal(self):
        """d(x, x, ...) of d(x, y, ...): y set equal to x, one leg fewer."""
        refuse_degree(self.legs, "legs", 2, MAX_LEGS)
        acc = {}
        for key, v in self.num.items():
            k = (key & (1 << 2 * _W) - 1) + (key >> 2 * _W << _W)
            acc[k] = acc.get(k, 0) + v
        return DPoly.from_num(self.legs - 1, _unguarded(acc), self.den)

    def evaluate(self, point, u_value=0):
        """Exact value at a rational point (one entry per variable), with u
        at u_value, as a Fraction."""
        from fractions import Fraction
        if len(point) != self.legs:
            raise ValueError("point must assign every variable")
        values = (u_value, *point)
        if not all(isinstance(v, (int, Fraction)) for v in values):
            raise TypeError("expected integers or Fractions, got %r"
                            % (values,))
        shifts = range(0, _W * (self.legs + 1), _W)
        total = 0
        for key, v in self.num.items():
            for sh, x in zip(shifts, values):
                v *= x ** (key >> sh & _MASK)
            total += v
        return Fraction(total, self.den)

    def specialize_u(self, u0):
        """The polynomial at u = u0: every u-degree becomes 0."""
        u_table = _ratio_powers(u0, max([k & _MASK for k in self.num],
                                        default=0))
        acc = {}
        for key, v in self.num.items():
            k = key >> _W << _W
            acc[k] = acc.get(k, 0) + v * u_table[key & _MASK]
        return DPoly.from_num(self.legs, acc, self.den * u_table[0])

    def __repr__(self):
        return "DPoly(%d, %r)" % (self.legs, self.terms)

    def __str__(self):
        if self.is_zero:
            return "0"
        out = ""
        for exps, coef in sorted(self.terms.items()):
            cs = str(coef)
            if len(coef.num) > 1:
                cs = "(%s)" % cs
            for name, e in zip(VAR_NAMES, exps):
                if e:
                    cs += "*" + (name if e == 1 else "%s^%d" % (name, e))
            out += " + " + cs if out else cs
        return out


class UPoly(DPoly):
    """Polynomial in the parameter u with rational coefficients: the DPoly
    with no legs, whose keys are u-degrees.  It has no arithmetic of its
    own."""

    __slots__ = ()

    def __init__(self, coeffs=None):
        """From {degree: coefficient}, a coefficient being an exact rational
        (an int or a Fraction)."""
        coeffs = coeffs or {}
        for deg in coeffs:
            refuse_degree(deg, "u-degree")
        self.legs = 0
        self.num, self.den = _over_lcm({deg: _ratio(c)
                                        for deg, c in coeffs.items()})

    @staticmethod
    def const(value):
        return DPoly.const(0, value)

    @staticmethod
    def u():
        return DPoly.from_num(0, {1: 1})

    @property
    def coeffs(self):
        """{degree: Fraction}: a fresh read-only view."""
        from fractions import Fraction
        return {deg: Fraction(v, self.den) for deg, v in self.num.items()}

    def ratios(self):
        """[(degree, numerator, denominator)] by degree, each coefficient in
        lowest terms: what the writers print, read off the ints."""
        out = []
        for deg, v in sorted(self.num.items()):
            g = math.gcd(v, self.den)
            out.append((deg, v // g, self.den // g))
        return out

    # perfbench/tracer.py times these six apart from DPoly's methods and
    # keys its wrappers by function object, so each is a function of its
    # own: an alias of DPoly's would count DPoly's calls under UPoly's name.
    def __add__(self, other):
        return DPoly.__add__(self, other)

    def __radd__(self, other):
        return DPoly.__radd__(self, other)

    def __mul__(self, other):
        return DPoly.__mul__(self, other)

    def __rmul__(self, other):
        return DPoly.__rmul__(self, other)

    def __pow__(self, n):
        return DPoly.__pow__(self, n)

    def __call__(self, u0):
        return self.evaluate((), u0)

    def __repr__(self):
        return "UPoly(%r)" % (self.coeffs,)

    def __str__(self):
        out = ""
        with _EveryDigit():
            for deg, n, d in reversed(self.ratios()):
                mono = "%d" % n if d == 1 else "%d/%d" % (n, d)
                if deg:
                    uv = "u" if deg == 1 else "u^%d" % deg
                    mono = (uv if mono == "1" else "-" + uv if mono == "-1"
                            else "%s*%s" % (mono, uv))
                out += "+" + mono if out and mono[0] != "-" else mono
        return out or "0"



def _unguarded(acc):
    """acc, after checking that no field of its keys reached _TOP."""
    if any(map(_GUARD.__and__, acc)):
        raise ValueError("an exponent or u-degree reaches %d" % _TOP)
    return acc


def _over_lcm(coefs):
    """(num, den) of {packed key: (numerator, denominator)} in canonical
    form."""
    den = math.lcm(*{d for _, d in coefs.values()})
    return _reduced({k: n * (den // d) for k, (n, d) in coefs.items()}, den)


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


def _ratio_powers(v, m):
    """[a^e * b^(m-e) for e in 0..m] for v = a/b: the numerators of v^e
    over the common denominator b^m, which is the first entry."""
    a, b = _ratio(v)
    out = [b**m]
    for _ in range(m):
        out.append(out[-1] // b * a)
    return out


@functools.cache
def _row(sh, e, s, c):
    """The nonzero terms (j << sh, C(e, j) s^j c^(e-j)) of (s*x + c)^e, x's
    field being at sh.

    Memoised by (sh, e, s, c), so the returned row is shared between calls
    and must not be mutated.
    """
    return [(j << sh, t) for j in range(e + 1)
            if (t := math.comb(e, j) * s**j * c**(e - j))]


@functools.lru_cache(maxsize=None, typed=True)
def binom_poly(T, k):
    """Binomial symbol with polynomial argument: T(T-1)...(T-k+1)/k!.

    Memoised by (T, k) and their types, so the returned polynomial is
    shared between calls and must not be mutated, and a bool or float k
    never hits an int's entry.
    """
    refuse_degree(k, "binomial lower index")
    res = DPoly.const(T.legs, 1)
    for j in range(k):
        res = res * (T - j)
    return DPoly.from_num(res.legs, res.num, res.den * math.factorial(k))


def int_binom(n, k):
    """Integer binomial coefficient, zero outside 0 <= k <= n."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)
