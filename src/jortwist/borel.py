"""Normal-ordered, truncated tensor algebra over the Borel algebra.

Generators per tensor leg: the distinguished momentum P (each power carries
one power of 1/kappa, which defines the grading), a transverse momentum
probe Q (grade 0), and the dilatation D, with

    [P, D] = P,   [Q, D] = Q,   [P, Q] = 0.

Elements are stored in normal form: momenta to the left, a polynomial in D
to the right, leg by leg.  Reordering uses f(D) P^m Q^n = P^m Q^n f(D-m-n).
All arithmetic drops terms of grade greater than the truncation order, so
every equality below is an equality of truncated series.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exactalg import MAX_LEGS, DPoly, UPoly


def _key_grade(key):
    return sum(p for p, _ in key)


class TensorElement:
    """A truncated, normal-ordered element of U(b)^{tensor legs}.

    terms maps a tuple of per-leg momentum degrees (pdeg, qdeg) to the
    DPoly (in the per-leg dilatation variables) standing to their right.
    A stored term with total momentum degree g represents the operator
    times (1/kappa)^g.  Every operation returns through the constructor,
    which alone drops zero coefficients and terms above the truncation.
    """

    __slots__ = ("legs", "truncation", "terms")

    def __init__(self, legs, truncation, terms=None):
        if type(legs) is not int or not 1 <= legs <= MAX_LEGS:
            raise ValueError("legs must be between 1 and %d, got %r"
                             % (MAX_LEGS, legs))
        if type(truncation) is not int or truncation < 0:
            raise ValueError("truncation order must be a nonnegative int, "
                             "got %r" % (truncation,))
        self.legs = legs
        self.truncation = truncation
        cleaned = {}
        if terms:
            for key, d in terms.items():
                # the key is kept, not copied: elements made from one
                # another share their key tuples
                if (len(key) != legs or not all(len(leg) == 2 for leg in key)
                        or not all(type(n) is int and n >= 0
                                   for leg in key for n in leg)):
                    raise ValueError("bad momentum key %r" % (key,))
                if _key_grade(key) > truncation:
                    continue
                if not isinstance(d, DPoly) or not d.legs:
                    d = DPoly.const(legs, d)
                if d.legs != legs:
                    raise ValueError("DPoly leg count does not match element")
                if not d.is_zero:
                    cleaned[key] = d
        self.terms = cleaned

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls, legs, truncation):
        key = ((0, 0),) * legs
        return cls(legs, truncation, {key: DPoly.const(legs, 1)})

    @classmethod
    def momentum_p(cls, truncation):
        """The 1-leg element P/kappa (grade 1)."""
        return cls(1, truncation, {((1, 0),): DPoly.const(1, 1)})

    @classmethod
    def momentum_q(cls, truncation):
        """The 1-leg transverse momentum probe Q (grade 0)."""
        return cls(1, truncation, {((0, 1),): DPoly.const(1, 1)})

    @classmethod
    def dilatation(cls, truncation):
        return cls(1, truncation, {((0, 0),): DPoly.variable(1, 1)})

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def monomials(self):
        """(grade, key, exps, coefficient UPoly) for every monomial, in the
        one order that output and reports use: grade, then momentum key,
        then D-exponents.  Each key's monomials are sorted as it is reached."""
        for grade, key in sorted((_key_grade(k), k) for k in self.terms):
            for exps, coef in sorted(self.terms[key].terms.items()):
                yield grade, key, exps, coef

    def grade_slice(self, n):
        """The homogeneous part of kappa-grade n."""
        if not 0 <= n <= self.truncation:
            raise ValueError("grade out of range")
        return TensorElement(self.legs, self.truncation,
                             {k: d for k, d in self.terms.items()
                              if _key_grade(k) == n})

    def _check_shape(self, other):
        if self.legs != other.legs or self.truncation != other.truncation:
            raise ValueError(
                "shape mismatch: (%d legs, N=%d) vs (%d legs, N=%d)"
                % (self.legs, self.truncation, other.legs, other.truncation))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        self._check_shape(other)
        out = dict(self.terms)
        for key, d in other.terms.items():
            out[key] = out[key] + d if key in out else d
        return TensorElement(self.legs, self.truncation, out)

    def __neg__(self):
        return TensorElement(self.legs, self.truncation,
                             {k: -d for k, d in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        """Multiply by a central scalar (rational or polynomial in u)."""
        return TensorElement(self.legs, self.truncation,
                             {k: d * c for k, d in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return sum_of_products([(self, other)])

    def tensor(self, other):
        """Tensor product; legs concatenate, truncations must agree."""
        if self.truncation != other.truncation:
            raise ValueError("truncation mismatch in tensor product")
        legs = self.legs + other.legs
        if legs > MAX_LEGS:
            raise ValueError("tensor product exceeds %d legs" % MAX_LEGS)
        N = self.truncation
        out = {}
        for ka, da in self.terms.items():
            ga = _key_grade(ka)
            for kb, db in other.terms.items():
                if ga + _key_grade(kb) > N:
                    continue  # the constructor would drop it; skip outer
                out[ka + kb] = da.outer(db)
        return TensorElement(legs, N, out)

    # -- Hopf structure ----------------------------------------------------

    def coproduct(self, slot=1):
        """Apply the undeformed coproduct to the given leg.

        P and Q are primitive; D splits into a sum of two fresh variables.
        The coproduct preserves the kappa-grade.
        """
        if self.legs >= MAX_LEGS:
            raise ValueError("coproduct would exceed %d legs" % MAX_LEGS)
        if not 1 <= slot <= self.legs:
            raise ValueError("slot out of range")
        i = slot - 1
        out = {}
        for key, d in self.terms.items():
            a, b = key[i]
            dsplit = d.split_variable(slot)
            for pa in range(a + 1):
                for qb in range(b + 1):
                    c = math.comb(a, pa) * math.comb(b, qb)
                    nk = key[:i] + ((pa, qb), (a - pa, b - qb)) + key[i + 1:]
                    out[nk] = dsplit if c == 1 else dsplit * c
        return TensorElement(self.legs + 1, self.truncation, out)

    def counit_contract(self, slot=1):
        """Apply the counit to one leg (D, P, Q all map to 0)."""
        if self.legs < 2:
            raise ValueError("counit contraction needs at least two legs")
        if not 1 <= slot <= self.legs:
            raise ValueError("slot out of range")
        i = slot - 1
        return TensorElement(self.legs - 1, self.truncation,
                             {key[:i] + key[i + 1:]: d.drop_variable(slot)
                              for key, d in self.terms.items()
                              if key[i] == (0, 0)})

    def antipode(self):
        """Undeformed antipode: S(P^a Q^b f(D)) = (-1)^(a+b) P^a Q^b f(-D+a+b)."""
        if self.legs != 1:
            raise ValueError("antipode acts on 1-leg elements")
        out = {}
        for key, d in self.terms.items():
            a, b = key[0]
            nd = d.substitute_linear([-1], [a + b])
            out[key] = -nd if (a + b) % 2 else nd
        return TensorElement(1, self.truncation, out)

    def fold_mul_antipode(self):
        """Sum f1 * S(f2): multiply the legs after S on the right one.

        With s = a2 + b2, the term P^a1 Q^b1 (x) P^a2 Q^b2 d(x, y) folds to
        P^(a1+a2) Q^(b1+b2) times (-1)^s d(D - s, -D + s).
        """
        if self.legs != 2:
            raise ValueError("fold_mul_antipode needs a 2-leg element")
        out = {}
        for ((a1, b1), (a2, b2)), d in self.terms.items():
            s = a2 + b2
            folded = d.substitute_linear([1, -1], [-s, s]).diagonal()
            if s % 2:
                folded = -folded
            key = ((a1 + a2, b1 + b2),)
            out[key] = out[key] + folded if key in out else folded
        return TensorElement(1, self.truncation, out)

    # -- parameter handling ------------------------------------------------

    def specialize_u(self, u0):
        return TensorElement(self.legs, self.truncation,
                             {k: d.specialize_u(u0)
                              for k, d in self.terms.items()})

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return (self.legs == other.legs
                and self.truncation == other.truncation
                and self.terms == other.terms)

    def __repr__(self):
        return ("TensorElement(legs=%d, N=%d, %d terms)"
                % (self.legs, self.truncation, len(self.terms)))


def sum_of_products(pairs):
    """Sum a * b over (a, b) pairs of elements of one shape, in normal
    order: per leg, (P^a Q^b f(D)) (P^c Q^d g(D)) = P^(a+c) Q^(b+d)
    f(D-c-d) g(D), terms above the truncation dropped.  A left term is
    shifted once per offset group of the right factor with a term in
    range, and each output key's pairs make one `DPoly.dot`."""
    if not pairs:
        raise ValueError("no pairs to sum")
    first = pairs[0][0]
    N = first.truncation
    collected = {}
    for a, b in pairs:
        first._check_shape(a)
        first._check_shape(b)
        # group the right factor by the D-shift it induces on the left
        by_offset = {}
        for kb, db in b.terms.items():
            offsets = tuple(-(p + q) for p, q in kb)
            by_offset.setdefault(offsets, []).append((_key_grade(kb), kb, db))
        for ka, da in a.terms.items():
            room = N - _key_grade(ka)
            for offsets, entries in by_offset.items():
                kept = [(kb, db) for gb, kb, db in entries if gb <= room]
                if not kept:
                    continue
                shifted = da.shift(offsets)
                for kb, db in kept:
                    key = tuple((pa + pb, qa + qb)
                                for (pa, qa), (pb, qb) in zip(ka, kb))
                    collected.setdefault(key, []).append((shifted, db))
    return TensorElement(first.legs, N,
                         {key: DPoly.dot(first.legs, products)
                          for key, products in collected.items()})


def first_difference(a, b):
    """Lowest-grade monomial on which two elements differ, or None.

    Returns a dict with the grade, momentum key, D-exponents and the two
    coefficient polynomials, suitable for failure reports.
    """
    delta = a - b
    if delta.is_zero:
        return None
    grade, key, exps, _ = next(delta.monomials())
    ca = a.terms.get(key, DPoly(a.legs)).terms.get(exps, UPoly())
    cb = b.terms.get(key, DPoly(b.legs)).terms.get(exps, UPoly())
    return {
        "grade": grade,
        "momenta": key,
        "dilatation_exponents": exps,
        "left": str(ca),
        "right": str(cb),
    }


def series_apply(coeffs, a):
    """Evaluate sum_k coeffs[k] * a^k on an element of minimum grade >= 1.

    The series terminates because a^k has grade at least k; coeffs beyond
    the truncation order are never consulted.
    """
    if not a.grade_slice(0).is_zero:
        raise ValueError("series argument must have minimum grade >= 1")
    N = a.truncation
    kmax = min(len(coeffs) - 1, N)
    res = TensorElement.one(a.legs, N).scale(coeffs[0])
    power = TensorElement.one(a.legs, N)
    for k in range(1, kmax + 1):
        power = power * a
        if power.is_zero:
            break
        c = coeffs[k]
        if c != 0:
            res = res + power.scale(c)
    return res


def exp_series(a):
    coeffs = [Fraction(1, math.factorial(k)) for k in range(a.truncation + 1)]
    return series_apply(coeffs, a)


def log1p_series(a):
    """log(1 + a) for a of minimum grade >= 1."""
    coeffs = [Fraction(0)] + [Fraction((-1) ** (k + 1), k)
                              for k in range(1, a.truncation + 1)]
    return series_apply(coeffs, a)


def geometric_inverse(e):
    """Inverse of an element whose grade-0 part is 1, grade by grade.

    With a_i the grade-i part of e, the inverse's grade-n part is
    G_n = -sum_{i=1..n} a_i G_{n-i}, G_0 = 1; each product of slices lands
    in grade n exactly, so nothing is computed above the truncation.
    """
    N = e.truncation
    one = TensorElement.one(e.legs, N)
    if e.grade_slice(0) != one:
        raise ValueError("geometric inverse needs grade-0 part equal to 1")
    a = [e.grade_slice(i) for i in range(N + 1)]
    G = [one]
    for n in range(1, N + 1):
        G.append(-sum_of_products([(a[i], G[n - i])
                                   for i in range(1, n + 1)]))
    return TensorElement(e.legs, N,
                         {k: d for g in G for k, d in g.terms.items()})


def conjugate(F, X, Finv):
    """F * Delta(X) * Finv for a 2-leg twist and a 1-leg generator.

    Raises if F and Finv are not inverse to each other modulo truncation.
    """
    if F.legs != 2 or Finv.legs != 2 or X.legs != 1:
        raise ValueError("conjugate expects 2-leg twists and a 1-leg generator")
    one = TensorElement.one(2, F.truncation)
    if F * Finv != one:
        raise ValueError("conjugate: F * Finv is not the identity "
                         "modulo the truncation")
    return F * X.coproduct(1) * Finv
