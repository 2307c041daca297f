"""Exact verification of the binomial identities behind the twist expansions.

Everything here lives in the commutative world: polynomials in x, y (and z
for the three-leg identity) with rational coefficients.  Each identity is
one canonical polynomial equality: both sides are canonical DPolys, so they
agree exactly when lhs == rhs.  Every suite in SUITES is a generator: it
yields its instances one at a time, each checked as it is built, and
verify_identity_chain keeps only the count and the first failure.
"""

from __future__ import annotations

import random
from itertools import product

from .exactalg import MAX_DEGREE, MAX_LEGS, DPoly, UPoly, binom_poly, int_binom
from .report import VerificationReport

DEFAULT_BOUNDS = {"bigident": 4, "L": 4, "R": 3}  # by suite or chain
# suite or chain -> (report name, instances(bound)); verify_identity_chain
# runs any entry.  The entries call the generators by their module names, so
# that a wrapper installed on a module attribute (a tracer, a mock) sees
# each call.
SUITES = {
    "bigident": ("bigident", lambda bound: _bigident_instances(bound)),
    "L": ("chain-L", lambda bound: _chain_L_instances(bound)),
    "R": ("chain-R", lambda bound: _chain_R_instances(bound)),
}
SAMPLE_COUNT = 20
SAMPLE_SEED = 20201214


class IdentityInstance:
    """One identity at fixed indices: both sides and whether they agree."""

    def __init__(self, chain, params, lhs, rhs, equal):
        self.chain = chain
        self.params = params
        self.lhs = lhs
        self.rhs = rhs
        self.equal = equal


def _draw_points(legs):
    rng = random.Random(SAMPLE_SEED)
    return tuple(tuple(rng.randint(-10, 10) for _ in range(legs))
                 for _ in range(SAMPLE_COUNT))


SAMPLE_POINTS = {legs: _draw_points(legs) for legs in range(1, MAX_LEGS + 1)}


# Unused by the suites (equal canonical sides agree everywhere); traced, tested.
def _sample_check(lhs, rhs):
    """lhs and rhs agree at every sample point."""
    return all(lhs.evaluate(p) == rhs.evaluate(p)
               for p in SAMPLE_POINTS[lhs.legs])


def _instance(chain, params, lhs, rhs):
    equal = lhs == rhs
    return IdentityInstance(chain, params, lhs, rhs, equal)


# ---------------------------------------------------------------------------
# three-leg identity reducing the 2-cocycle condition
# ---------------------------------------------------------------------------

def verify_bigident(k, l, A, C):
    """The x,y,z identity the cocycle condition reduces to, at fixed k,l,A,C:

    binom(x, l-C) sum_{k1=0}^{A} binom(y,k1) binom(x+y-k1+C-l, C)
                  binom(k-k1, k-A) binom(z, k-k1)
      = binom(z, k-A) sum_{l1=0}^{C} binom(x, l-l1) binom(y,l1)
                  binom(y+z-l1+A-k, A) binom(l-l1, l-C).
    """
    return _bigident("bigident", k, l, A, C, range(A + 1), range(C + 1))


# Unused by the suites (a reversed exact sum is equal); traced and tested.
def verify_bigident_index_swap(k, l, A, C):
    """The same identity after k1 -> A-k1, l1 -> C-l1 in the two sums.

    A mechanical reindexing must not change either side; this checks that
    the summation really is insensitive to the interchange of indices.
    """
    return _bigident("bigident-swap", k, l, A, C,
                     range(A, -1, -1), range(C, -1, -1))


def _bigident(chain, k, l, A, C, k1s, l1s):
    """The identity of verify_bigident, its sums run over k1s and l1s."""
    if not (0 <= A <= k and 0 <= C <= l):
        raise ValueError("need 0 <= A <= k and 0 <= C <= l")
    x = DPoly.variable(3, 1)
    y = DPoly.variable(3, 2)
    z = DPoly.variable(3, 3)
    lhs = DPoly(3)
    for k1 in k1s:
        lhs = lhs + (binom_poly(y, k1)
                     * binom_poly(x + y - k1 + C - l, C)
                     * int_binom(k - k1, k - A)
                     * binom_poly(z, k - k1))
    lhs = binom_poly(x, l - C) * lhs
    rhs = DPoly(3)
    for l1 in l1s:
        rhs = rhs + (binom_poly(x, l - l1)
                     * binom_poly(y, l1)
                     * binom_poly(y + z - l1 + A - k, A)
                     * int_binom(l - l1, l - C))
    rhs = binom_poly(z, k - A) * rhs
    return _instance(chain, {"k": k, "l": l, "A": A, "C": C}, lhs, rhs)


def _bigident_instances(bound):
    """Every bigident instance with k, l <= bound, each one canonical
    polynomial equality, one instance at a time."""
    r = range(bound + 1)
    for k, l in product(r, r):
        for A, C in product(range(k + 1), range(l + 1)):
            yield verify_bigident(k, l, A, C)


# ---------------------------------------------------------------------------
# left-family chain of two-leg identities
# ---------------------------------------------------------------------------

def _chain_L_instances(bound):
    """Every identity of the left-family derivation chain, in x and y."""
    x = DPoly.variable(2, 1)
    y = DPoly.variable(2, 2)
    r = range(bound + 1)
    pairs = [(k, kp) for k in r for kp in range(k + 1)]  # 0 <= k' <= k

    # reflection on the second leg, with l = l1 + l2
    for l1, l2 in product(r, r):
        yield _instance("L1", {"l1": l1, "l2": l2}, binom_poly(y - 1 - l2, l1),
                        binom_poly(-y + l1 + l2, l1) * (-1) ** l1)

    # reflection of the joint binomial
    for k2, l2 in product(r, r):
        m = k2 + l2
        yield _instance("L2", {"k2": k2, "l2": l2}, binom_poly(x + y - 1, m),
                        binom_poly(-x - y + m, m) * (-1) ** m)

    # trinomial revision absorbing the integer binomial
    for k2, l2 in product(r, r):
        m = k2 + l2
        T = -x - y + m
        yield _instance("L3", {"k2": k2, "l2": l2},
                        binom_poly(T, m) * int_binom(m, k2),
                        binom_poly(T, k2) * binom_poly(-x - y + l2, l2))

    # Vandermonde-type convolution over k1 + k2 = k - k'
    for (k, kp), l2 in product(pairs, r):
        conv = conv_reflected = DPoly(2)
        for k1 in range(k - kp + 1):
            k2 = k - kp - k1
            shared = binom_poly(-x - y + k2 + l2, k2)
            conv = conv + binom_poly(x - 1 - k + k1, k1) * shared
            conv_reflected = (conv_reflected
                              + binom_poly(-x + k, k1) * shared * (-1) ** k1)
        params = {"k": k, "k'": kp, "l2": l2}
        yield _instance("L4", params, conv,
                        binom_poly(-y - kp + l2, k - kp))
        yield _instance("L4r", params, conv, conv_reflected)

    # second-leg trinomial revision, l = l1 + l2
    for kp, l1, l2 in product(r, r, r):
        l = l1 + l2
        yield _instance("L5", {"k'": kp, "l1": l1, "l2": l2},
                        binom_poly(-y + l, l1) * binom_poly(-y + l2, kp),
                        binom_poly(-y + l, kp) * binom_poly(-y + l - kp, l1))

    # exchange of the two lower indices
    for (k, kp), l1, l2 in product(pairs, r, r):
        l = l1 + l2
        yield _instance("L6", {"k": k, "k'": kp, "l1": l1, "l2": l2},
                        binom_poly(-y - kp + l2, k - kp)
                        * binom_poly(-y + l - kp, l1),
                        binom_poly(-y + l - kp, k - kp)
                        * binom_poly(-y + l - k, l1))

    # alternating convolution over l1 + l2 = l, eliminating y
    for k, l in product(r, r):
        conv = sum((binom_poly(-y + l - k, l1)
                    * binom_poly(-x - y + l - l1, l - l1) * (-1) ** l1
                    for l1 in range(l + 1)), DPoly(2))
        yield _instance("L7", {"k": k, "l": l}, conv, binom_poly(-x + k, l))

    # final regrouping into the integer binomial
    for (k, kp), l in product(pairs, r):
        yield _instance("L8", {"k": k, "k'": kp, "l": l},
                        binom_poly(-y + l - kp, k - kp) * binom_poly(-y + l, kp),
                        binom_poly(-y + l, k) * int_binom(k, kp))


def _chain_R_instances(bound):
    """End-to-end equality of the right-family summation chain.

    The intermediate printed steps use notation that does not transcribe
    unambiguously; only first expression = last expression is checked:

    sum over k1+k2=k-k', l1+l2=l of
      (-1)^(k1+l1) binom(x,k1) binom(y,l1) binom(y-l1,k')
      binom(x+y-(k'+k1+l1), k2+l2) binom(k2+l2,k2)
    = binom(k,k') binom(x,l) binom(y,k).
    """
    x = DPoly.variable(2, 1)
    y = DPoly.variable(2, 2)
    r = range(bound + 1)
    for k, l in product(r, r):
        for kp in range(k + 1):
            total = DPoly(2)
            for k1, l1 in product(range(k - kp + 1), range(l + 1)):
                k2, l2 = k - kp - k1, l - l1
                total = total + (binom_poly(x, k1)
                                 * binom_poly(y, l1)
                                 * binom_poly(y - l1, kp)
                                 * binom_poly(x + y - (kp + k1 + l1), k2 + l2)
                                 * int_binom(k2 + l2, k2)
                                 * (-1) ** (k1 + l1))
            closed = (binom_poly(x, l) * binom_poly(y, k)
                      * int_binom(k, kp))
            yield _instance("R", {"k": k, "l": l, "k'": kp}, total, closed)


def verify_identity_chain(chain, bound=None):
    """Run the identity suite SUITES[chain] ("bigident", "L" or "R") up to
    `bound`, by default DEFAULT_BOUNDS[chain]; returns a single report that
    counts the instances and names the first failing one."""
    if chain not in SUITES:
        raise ValueError("chain must be one of %s"
                         % ", ".join(map(repr, SUITES)))
    if bound is None:
        bound = DEFAULT_BOUNDS[chain]
    if type(bound) is not int:
        raise ValueError("bound must be an int, got %r" % (bound,))
    if bound < 0:
        raise ValueError("bound must be nonnegative, got %d" % bound)
    check, instances = SUITES[chain]
    count = 0
    failure = None
    for inst in instances(bound):
        count += 1
        if not inst.equal and failure is None:
            failure = {"chain": inst.chain, "params": inst.params,
                       "left": str(inst.lhs), "right": str(inst.rhs)}
    return VerificationReport(check, {"bound": bound}, failure is None,
                              failure=failure,
                              notes=["%d instances checked" % count])


# ---------------------------------------------------------------------------
# linear independence of (u-1)^k u^(n-k)
# ---------------------------------------------------------------------------

def independence_matrix(n):
    """Rows: coefficients of (u-1)^k u^(n-k) in the basis u^n, ..., u, 1;
    the u^d term of p_k = (u-1)^k = p_(k-1)*(u-1) lands in column k-d.  A
    row with a term above u^n, which no column holds, raises ValueError.
    The entries are ints: (u-1)^k has integer coefficients, so each row is
    read off the numerators of p_k, whose denominator is 1."""
    rows, p = [], UPoly.const(1)
    step = UPoly.u() - 1
    for k in range(n + 1):
        coeffs = p.num
        if max(coeffs, default=0) > k:
            raise ValueError("row %d has a term above u^%d" % (k, n))
        rows.append([coeffs.get(k - m, 0) for m in range(n + 1)])
        p = p * step
    return rows


def _refuse_order(n):
    """ValueError unless n is an int and 0 <= n <= MAX_DEGREE: row 0, u^n,
    has u-degree n."""
    if type(n) is not int:
        raise ValueError("order must be an int, got %r" % (n,))
    if not 0 <= n <= MAX_DEGREE:
        raise ValueError("order must be nonnegative and must be at most %d, "
                         "the largest u-degree, got %d" % (MAX_DEGREE, n))


def independence_det(n):
    """Exact determinant of the change-of-basis matrix (unimodular: +-1),
    read off its lower-triangular form: row k's lowest term, (-1)^k u^(n-k),
    is on the diagonal.  An order outside 0..MAX_DEGREE, or a row with a
    term right of the diagonal or above u^n, raises ValueError."""
    _refuse_order(n)
    det = 1
    for k, row in enumerate(independence_matrix(n)):
        if any(row[k + 1:]):
            raise ValueError("row %d has a term below u^%d" % (k, n - k))
        det *= row[k]
    return det


def check_independence(n):
    """The basis change at order n is unimodular: |det| = 1.  A matrix that
    is not lower triangular, or a row with a term above u^n, fails, its note
    naming the row; an order that is not an int in 0..MAX_DEGREE raises
    ValueError before any row is built."""
    _refuse_order(n)
    try:
        det = independence_det(n)
    except ValueError as exc:
        return VerificationReport("independence", {"order": n}, False,
                                  notes=[str(exc)])
    return VerificationReport("independence", {"order": n}, abs(det) == 1,
                              notes=["det = %s" % det])
