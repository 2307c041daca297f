import itertools
import math
import operator
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from jortwist.exactalg import (_GUARD, _MASK, _TOP, _W, MAX_LEGS, DPoly,
                               UPoly, _row, binom_poly)

from jortwist.borel import TensorElement

from conftest import random_dpoly, random_upoly


def u():
    return UPoly.u()


def var(legs, i):
    return DPoly.variable(legs, i)


class TestRingOps:
    def test_fraction_arithmetic(self):
        assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)

    def test_upoly_product(self):
        assert u() * (u() - 1) == u() ** 2 - u()

    def test_dpoly_product(self):
        x, y = var(2, 1), var(2, 2)
        assert (x + y) * (x - y) == x**2 - y**2

    def test_leg_mismatch_raises(self):
        with pytest.raises(ValueError):
            var(1, 1) + var(2, 1)
        with pytest.raises(ValueError):
            var(1, 1) * var(2, 2)

    def test_cancellation_is_canonical(self):
        rng = random.Random(11)
        for _ in range(30):
            a = random_dpoly(rng, rng.randint(1, 3))
            assert (a - a).terms == {}


class TestBinomPoly:
    def test_lower_index_two(self):
        x = var(1, 1)
        assert binom_poly(x, 2) == (x**2 - x) * Fraction(1, 2)

    def test_negated_argument(self):
        x = var(1, 1)
        assert binom_poly(-x, 1) == -x

    def test_zero_lower_index(self):
        assert binom_poly(var(2, 1), 0) == DPoly.const(2, 1)

    def test_integer_specialization(self):
        # oracle: the integer binomial coefficient
        x, y = var(2, 1), var(2, 2)
        p = binom_poly(x + y, 2)
        assert p.evaluate([2, 1]) == math.comb(3, 2)

    @pytest.mark.parametrize("k", range(9))
    def test_falling_product(self, k, rng):
        # binom(T,k) * k! must equal the explicit falling product
        for _ in range(5):
            T = random_dpoly(rng, 2, max_deg=2)
            explicit = DPoly.const(2, 1)
            for j in range(k):
                explicit = explicit * (T - j)
            assert binom_poly(T, k) * math.factorial(k) == explicit

    @pytest.mark.parametrize("k", range(1, 9))
    def test_pascal(self, k):
        T = var(1, 1)
        assert binom_poly(T, k) == (binom_poly(T - 1, k)
                                    + binom_poly(T - 1, k - 1))

    def test_equal_arguments_share_one_result(self):
        # memoised: the result is shared between calls, so no caller may
        # mutate it
        T = var(2, 1) + var(2, 2) - 3
        assert binom_poly(T, 4) is binom_poly(T + 0, 4)

    def test_negative_lower_index_raises_on_every_call(self):
        # a raised call is not memoised: the second call raises too
        for _ in range(2):
            with pytest.raises(ValueError, match=re.escape(
                    "binomial lower index must be an int in 0..32767, "
                    "got -1")):
                binom_poly(var(1, 1), -1)


class TestRow:
    def test_equal_arguments_share_one_row(self):
        # (-x + 2)^3 = -x^3 + 6x^2 - 12x + 8, x's field at _W; memoised, so
        # the row is shared between calls and no caller may mutate it
        row = _row(_W, 3, -1, 2)
        assert row == [(0, 8), (1 << _W, -12), (2 << _W, 6), (3 << _W, -1)]
        assert _row(_W, 3, -1, 2) is row


class TestSplitVariable:
    def test_split_linear(self):
        x = var(1, 1)
        xp, xpp = var(2, 1), var(2, 2)
        assert x.split_variable(1) == xp + xpp

    def test_split_square(self):
        x = var(1, 1)
        xp, xpp = var(2, 1), var(2, 2)
        assert (x**2).split_variable(1) == xp**2 + 2 * xp * xpp + xpp**2

    def test_split_binomial_evaluates_like_integer_binomial(self):
        # oracle: binom(1+1, 2) = 1
        p = binom_poly(var(1, 1), 2).split_variable(1)
        assert p.evaluate([1, 1]) == math.comb(2, 2)

    def test_split_reindexes_other_variables(self):
        x, y = var(2, 1), var(2, 2)
        split = (x * y).split_variable(1)
        a, b, c = var(3, 1), var(3, 2), var(3, 3)
        assert split == (a + b) * c

    def test_split_at_max_legs_raises(self):
        with pytest.raises(ValueError):
            var(3, 1).split_variable(1)


class TestSubstituteLinear:
    """Property tests of the reordering kernel on random symbolic-u DPolys,
    against evaluation, which shares none of its code."""

    @staticmethod
    def random_case(rng):
        legs = rng.randint(1, 3)
        p = random_dpoly(rng, legs, max_deg=3, max_terms=4)
        scales = [rng.choice((1, -1)) for _ in range(legs)]
        offsets = [rng.randint(-3, 3) for _ in range(legs)]
        return p, scales, offsets

    def test_matches_evaluation_oracle(self, rng):
        for _ in range(40):
            p, scales, offsets = self.random_case(rng)
            q = p.substitute_linear(scales, offsets)
            for _ in range(3):
                x = [rng.randint(-4, 4) for _ in scales]
                u0 = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                image = [s * xi + c for s, xi, c in zip(scales, x, offsets)]
                assert q.evaluate(x, u0) == p.evaluate(image, u0)

    def test_shift_composes(self, rng):
        for _ in range(40):
            p, _, a = self.random_case(rng)
            b = [rng.randint(-3, 3) for _ in a]
            ab = [i + j for i, j in zip(a, b)]
            assert p.shift(a).shift(b) == p.shift(ab)

    def test_zero_shift_returns_self(self, rng):
        for _ in range(10):
            p, _, offsets = self.random_case(rng)
            assert p.shift([0] * len(offsets)) is p

    def test_antipode_substitution_is_an_involution(self, rng):
        # the antipode maps f(D) to f(-D + a + b) on a 1-leg term
        for _ in range(30):
            p = random_dpoly(rng, 1, max_deg=4, max_terms=4)
            a = [rng.randint(0, 4)]
            assert p.substitute_linear([-1], a).substitute_linear([-1], a) == p

    def test_zero_coefficients_dropped(self):
        # (x + 1)^2 - 2(x + 1) = x^2 - 1: the linear terms cancel
        x = var(1, 1)
        q = (x**2 - 2 * x).shift([1])
        assert q.terms == {(2,): UPoly.const(1), (0,): UPoly.const(-1)}


class TestEvaluate:
    def test_polynomial_point(self):
        x, y = var(2, 1), var(2, 2)
        assert (x**2 - y).evaluate([3, 2]) == 7

    def test_u_coefficient(self):
        p = var(1, 1) * u()
        assert p.evaluate([4], u_value=Fraction(1, 2)) == 2

    def test_binomial_point(self):
        assert binom_poly(var(1, 1), 3).evaluate([5]) == math.comb(5, 3)

    def test_missing_assignment_raises(self):
        with pytest.raises(ValueError):
            var(2, 1).evaluate([1])

    def test_evaluate_is_ring_homomorphism(self, rng):
        for _ in range(25):
            legs = rng.randint(1, 3)
            a = random_dpoly(rng, legs)
            b = random_dpoly(rng, legs)
            point = [Fraction(rng.randint(-5, 5)) for _ in range(legs)]
            u0 = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            assert ((a * b).evaluate(point, u0)
                    == a.evaluate(point, u0) * b.evaluate(point, u0))
            assert ((a + b).evaluate(point, u0)
                    == a.evaluate(point, u0) + b.evaluate(point, u0))


def naive_value(poly, point, u0):
    """Sum of c(u0) * prod x_i^e_i over the terms, in Fraction arithmetic,
    read straight from the term dicts: the oracle for DPoly.evaluate."""
    total = Fraction(0)
    for exps, coef in poly.terms.items():
        value = Fraction(0)
        for deg, c in coef.coeffs.items():
            value += c * Fraction(u0) ** deg
        for v, e in zip(point, exps):
            value *= Fraction(v) ** e
        total += value
    return total


class TestEvaluateAgainstNaive:
    U_VALUES = (0, 1, Fraction(-2, 3), Fraction(5, 7))

    @staticmethod
    def random_poly(rng, legs):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            exps = tuple(rng.randint(0, 4) for _ in range(legs))
            terms[exps] = UPoly({deg: Fraction(rng.randint(-9, 9),
                                               rng.randint(1, 12))
                                 for deg in range(rng.randint(0, 3) + 1)})
        return DPoly(legs, terms)

    @staticmethod
    def random_point(rng, legs):
        return [rng.choice((rng.randint(-6, 6),
                            Fraction(rng.randint(-9, 9), rng.randint(1, 8))))
                for _ in range(legs)]

    @pytest.mark.parametrize("u0", U_VALUES)
    def test_random_symbolic_u_polys(self, rng, u0):
        for _ in range(60):
            legs = rng.randint(1, 3)
            p = self.random_poly(rng, legs)
            for _ in range(3):
                point = self.random_point(rng, legs)
                value = p.evaluate(point, u0)
                assert type(value) is Fraction
                assert value == naive_value(p, point, u0)

    @pytest.mark.parametrize("u0", U_VALUES)
    def test_zero_and_constant(self, rng, u0):
        for legs in (1, 2, 3):
            point = self.random_point(rng, legs)
            assert DPoly(legs).evaluate(point, u0) == 0
            c = DPoly.const(legs, UPoly({0: Fraction(3, 4), 2: -1}))
            assert c.evaluate(point, u0) == Fraction(3, 4) - Fraction(u0) ** 2
            assert c.evaluate(point, u0) == naive_value(c, point, u0)

    def test_wrong_length_point_raises(self):
        with pytest.raises(ValueError):
            var(2, 1).evaluate([1])
        with pytest.raises(ValueError):
            var(1, 1).evaluate([1, 2])

    def test_float_input_rejected(self):
        for point, u0 in (([0.5], 0), ([1.0], 0), ([1], 0.5), ([1], 1.0)):
            with pytest.raises(TypeError):
                var(1, 1).evaluate(point, u0)


def test_upoly_no_stored_zeros():
    p = u() - u()
    assert p.coeffs == {}
    assert (UPoly({0: 2, 1: 0})).coeffs == {0: Fraction(2)}


class TestNoLegs:
    """A UPoly is the DPoly with no legs.  Its keys, u-degrees alone, are
    valid keys on any leg count, so it meets a legged DPoly as the lift
    DPoly.const(legs, p) would, and u-arithmetic stays a UPoly."""

    random_poly = staticmethod(TestEvaluateAgainstNaive.random_poly)

    @pytest.mark.parametrize("legs", [1, 2, 3])
    def test_either_side_of_a_dpoly_equals_the_lifted_route(self, rng, legs):
        for _ in range(20):
            a = self.random_poly(rng, legs)
            p = random_upoly(rng, max_deg=3)
            lifted = DPoly.const(legs, p)
            for op in (operator.add, operator.sub, operator.mul):
                for got, want in ((op(a, p), op(a, lifted)),
                                  (op(p, a), op(lifted, a))):
                    assert type(got) is DPoly and got.legs == legs
                    assert (got.den, got.num) == (want.den, want.num)
            for b in (a, lifted, a - a):
                assert (b == p) is (b == lifted) is (p == b)
            assert lifted == p and hash(lifted) == hash(p)

    def test_upoly_with_upoly_is_a_upoly(self, rng):
        for _ in range(20):
            p, q = random_upoly(rng, 3), random_upoly(rng, 3)
            for r in (p + q, p - q, p * q, -p, p**3, 2 - p, p + 1,
                      p * Fraction(1, 3), p.specialize_u(2),
                      (p + u()**5).terms[()]):
                assert type(r) is UPoly and r.legs == 0

    def test_dpoly_refuses_no_legs(self):
        with pytest.raises(ValueError, match=re.escape(
                "legs must be an int in 1..3, got 0")):
            DPoly(0)

    @pytest.mark.parametrize("deg", [_TOP, True])
    def test_degree_beyond_the_field_or_a_bool_rejected(self, deg):
        with pytest.raises(ValueError, match=re.escape(
                "u-degree must be an int in 0..32767, got %r" % (deg,))):
            UPoly({deg: 1})

    def test_float_coefficient_rejected(self):
        with pytest.raises(TypeError):
            UPoly({0: 0.5})

    def test_a_tensor_term_lifts_a_upoly(self):
        got = TensorElement(1, 3, {((0, 0),): UPoly.u()})
        assert got == TensorElement(1, 3, {
            ((0, 0),): DPoly.const(1, UPoly.u())})
        assert got.terms[((0, 0),)].legs == 1

    def test_call_is_specialize_u(self, rng):
        for _ in range(20):
            p = random_upoly(rng, 4)
            u0 = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            assert type(p(u0)) is Fraction
            assert p(u0) == p.specialize_u(u0)

    def test_traced_names_are_functions_of_their_own(self):
        for name in ("__add__", "__radd__", "__mul__", "__rmul__", "__pow__"):
            assert vars(UPoly)[name] is not vars(DPoly)[name]


class TestRationalScalars:
    """A rational scalar is read off ints: any exact rational through its
    numerator and denominator, a constant UPoly like the rational it holds,
    with no DPoly.dot; the writers print from the ints, and only evaluate,
    __call__ and coeffs make Fractions."""

    random_poly = staticmethod(TestEvaluateAgainstNaive.random_poly)

    def test_a_constant_upoly_scales_like_its_rational_without_dot(
            self, rng, monkeypatch):
        cases = []
        for _ in range(30):
            legs = rng.randint(0, 3)
            a = (self.random_poly(rng, legs) if legs
                 else random_upoly(rng, max_deg=3))
            c = rng.choice(TestIntegerKernel.RATIONALS + (0,))
            cases.append((a, c, DPoly.dot(a.legs, [(a, DPoly.const(0, c))])))

        def no_dot(legs, pairs):
            raise AssertionError("a rational scalar went through DPoly.dot")

        monkeypatch.setattr(DPoly, "dot", staticmethod(no_dot))
        for a, c, want in cases:
            k = UPoly.const(c)
            for got in (a * c, c * a, a * k, k * a):
                assert type(got) is type(a) and got.legs == a.legs
                assert (got.den, got.num) == (want.den, want.num)

    def test_any_exact_rational_is_read_through_its_ints(self):
        class Half(Fraction):
            pass

        assert DPoly.const(1, Half(1, 2)) == DPoly.const(1, Fraction(1, 2))
        assert UPoly({0: Half(1, 2), 1: True}) == UPoly({0: Fraction(1, 2),
                                                         1: 1})
        x = var(1, 1)
        for bad in (0.5, Decimal("0.5"), "1/2"):
            for make in (lambda: DPoly.const(1, bad), lambda: UPoly({0: bad}),
                         lambda: DPoly(1, {(0,): bad}), lambda: x + bad,
                         lambda: x.specialize_u(bad)):
                with pytest.raises(TypeError, match="integer or Fraction"):
                    make()
            with pytest.raises(TypeError):
                x * bad
            assert x != bad

    def test_ratios_are_the_coefficients_in_lowest_terms(self, rng):
        for _ in range(40):
            p = random_upoly(rng, 4) * rng.choice(TestIntegerKernel.RATIONALS)
            assert p.ratios() == [(deg, c.numerator, c.denominator)
                                  for deg, c in sorted(p.coeffs.items())]

    def test_str_is_the_fraction_rendering(self, rng):
        def from_fractions(p):
            out = ""
            for deg, c in sorted(p.coeffs.items(), reverse=True):
                uv = "u" if deg == 1 else "u^%d" % deg
                mono = (str(c) if deg == 0 else uv if c == 1
                        else "-" + uv if c == -1 else "%s*%s" % (c, uv))
                out += "+" + mono if out and mono[0] != "-" else mono
            return out or "0"

        polys = [UPoly(), UPoly({0: -1}), UPoly({1: 1}), UPoly({1: -1, 3: 2})]
        for _ in range(60):
            polys.append(UPoly({deg: rng.choice((1, -1, 2, -12, Fraction(
                rng.randint(-9, 9), rng.randint(1, 9)))) for deg in
                rng.sample(range(5), rng.randint(1, 4))}))
        for p in polys:
            assert str(p) == from_fractions(p)

    def test_evaluation_and_views_return_fractions(self):
        p = UPoly({0: Fraction(1, 2), 2: 3})
        assert type(p(2)) is type(p.coeffs[0]) is Fraction
        assert type(DPoly.const(2, p).evaluate((1, 2), 3)) is Fraction


def built_from(legs, contributions):
    """The DPoly summing (exps, u-degree, value) contributions, built by
    the constructors alone, which drop zeros."""
    acc = {}
    for exps, deg, value in contributions:
        coeffs = acc.setdefault(tuple(exps), {})
        coeffs[deg] = coeffs.get(deg, 0) + value
    return DPoly(legs, {exps: UPoly(c) for exps, c in acc.items()})


def pairs(a, b):
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            for d1, v1 in c1.coeffs.items():
                for d2, v2 in c2.coeffs.items():
                    yield e1, e2, d1 + d2, v1 * v2


def assert_canonical(p):
    assert all(c.coeffs for c in p.terms.values())
    assert all(type(v) is Fraction and v
               for c in p.terms.values() for v in c.coeffs.values())


class TestIntegerKernel:
    """Products, outer products, splits and linear substitutions of random
    symbolic-u DPolys whose coefficients have several denominators, against
    evaluation at rational points and rational u, and against the same
    polynomial built term by term in Fraction arithmetic."""

    random_poly = staticmethod(TestEvaluateAgainstNaive.random_poly)
    random_point = staticmethod(TestEvaluateAgainstNaive.random_point)
    U_VALUES = (Fraction(-2, 3), Fraction(5, 7), 3)
    RATIONALS = (1, -1, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4))

    def test_product(self, rng):
        for _ in range(40):
            legs = rng.randint(1, 3)
            a, b = self.random_poly(rng, legs), self.random_poly(rng, legs)
            ab = a * b
            assert_canonical(ab)
            assert ab == built_from(legs, [
                ([i + j for i, j in zip(e1, e2)], d, v)
                for e1, e2, d, v in pairs(a, b)])
            for u0 in self.U_VALUES:
                point = self.random_point(rng, legs)
                assert (ab.evaluate(point, u0)
                        == a.evaluate(point, u0) * b.evaluate(point, u0))

    def test_integer_operands_and_differences_match_the_const_route(self,
                                                                    rng):
        """`+` and `-` with an int, in either order, add n * den to the
        constant key, and DPoly - DPoly subtracts in one pass; each equals
        the sum taken through DPoly.const and a negated copy."""
        for _ in range(40):
            legs = rng.randint(1, 3)
            a, b = self.random_poly(rng, legs), self.random_poly(rng, legs)
            n = rng.randint(-12, 12)
            c = DPoly.const(legs, n)
            for got, want in ((a + n, a + c), (n + a, c + a),
                              (a - n, a + (-c)), (n - a, c + (-a)),
                              (a - b, a + (-b)), (b - a, b + (-a))):
                assert_canonical(got)
                assert (got.den, got.num) == (want.den, want.num)
        x = var(2, 1)
        assert ((x + 3) - 3).num == x.num
        assert (3 - (x + 3)).num == (-x).num
        assert x - x == DPoly(2) == (x + 5) - (x + 5)

    def test_dot(self, rng):
        """DPoly.dot sums the products of pairs whose denominators differ,
        each scaled to their lcm, as the Fraction sum of every term pair."""
        for _ in range(40):
            legs = rng.randint(1, 3)
            pairs_ = [(self.random_poly(rng, legs) * rng.choice(self.RATIONALS),
                       self.random_poly(rng, legs))
                      for _ in range(rng.randint(1, 4))]
            got = DPoly.dot(legs, pairs_)
            assert_canonical(got)
            assert got == built_from(legs, [
                ([i + j for i, j in zip(e1, e2)], d, v)
                for a, b in pairs_ for e1, e2, d, v in pairs(a, b)])
        a, b = self.random_poly(rng, 2), self.random_poly(rng, 2)
        assert DPoly.dot(2, [(a, b), (-a, b)]) == DPoly(2)

    def test_dot_refuses_a_factor_on_more_legs(self):
        """A factor on more legs than dot's count is refused, with the
        message of `*`, on either side of any pair; one on fewer legs fits,
        as a UPoly does, and `outer` relies on that."""
        x, z = var(2, 1), var(3, 3)
        for pairs_ in ([(x, z)], [(z, x)], [(x, x), (x, z)]):
            with pytest.raises(ValueError,
                               match="^DPoly leg counts differ: 2 vs 3$"):
                DPoly.dot(2, pairs_)
        assert var(1, 1).outer(var(2, 2)) == var(3, 1) * var(3, 3)
        assert DPoly.dot(2, [(x, u()), (u(), x)]) == x * u() * 2

    def test_product_cancellation_leaves_no_zero(self):
        x = var(1, 1)
        p = (x + u()) * (x - u())
        assert p.terms == {(2,): UPoly.const(1), (0,): -u() * u()}

    def test_outer(self, rng):
        for _ in range(40):
            la = rng.randint(1, 2)
            lb = rng.randint(1, 3 - la)
            a, b = self.random_poly(rng, la), self.random_poly(rng, lb)
            ab = a.outer(b)
            assert_canonical(ab)
            assert ab == built_from(la + lb, [
                (e1 + e2, d, v) for e1, e2, d, v in pairs(a, b)])
            for u0 in self.U_VALUES:
                pa, pb = self.random_point(rng, la), self.random_point(rng, lb)
                assert (ab.evaluate(pa + pb, u0)
                        == a.evaluate(pa, u0) * b.evaluate(pb, u0))

    def test_outer_beyond_max_legs_raises(self):
        with pytest.raises(ValueError):
            var(2, 1).outer(var(2, 2))

    def test_split_variable(self, rng):
        for _ in range(40):
            legs = rng.randint(1, 2)
            slot = rng.randint(1, legs)
            i = slot - 1
            p = self.random_poly(rng, legs)
            q = p.split_variable(slot)
            assert_canonical(q)
            assert q == built_from(legs + 1, [
                (exps[:i] + (j, exps[i] - j) + exps[i + 1:], d,
                 v * math.comb(exps[i], j))
                for exps, c in p.terms.items() for d, v in c.coeffs.items()
                for j in range(exps[i] + 1)])
            for u0 in self.U_VALUES:
                point = self.random_point(rng, legs + 1)
                image = point[:i] + [point[i] + point[i + 1]] + point[i + 2:]
                assert q.evaluate(point, u0) == p.evaluate(image, u0)

    def test_drop_variable(self, rng):
        kept = 0
        for _ in range(60):
            legs = rng.randint(2, 3)
            slot = rng.randint(1, legs)
            i = slot - 1
            p = self.random_poly(rng, legs) + DPoly(legs, {
                e[:i] + (0,) + e[i + 1:]: c
                for e, c in self.random_poly(rng, legs).terms.items()})
            q = p.drop_variable(slot)
            assert_canonical(q)
            assert q == built_from(legs - 1, [
                (exps[:i] + exps[i + 1:], d, v)
                for exps, c in p.terms.items() if exps[i] == 0
                for d, v in c.coeffs.items()])
            kept += not q.is_zero
            for u0 in self.U_VALUES:
                point = self.random_point(rng, legs - 1)
                assert (q.evaluate(point, u0)
                        == p.evaluate(point[:i] + [0] + point[i:], u0))
        assert kept > 30

    def test_diagonal(self, rng):
        for _ in range(40):
            legs = rng.randint(2, 3)
            p = self.random_poly(rng, legs)
            q = p.diagonal()
            assert_canonical(q)
            assert q == built_from(legs - 1, [
                ((exps[0] + exps[1],) + exps[2:], d, v)
                for exps, c in p.terms.items() for d, v in c.coeffs.items()])
            for u0 in self.U_VALUES:
                point = self.random_point(rng, legs - 1)
                assert (q.evaluate(point, u0)
                        == p.evaluate(point[:1] + point, u0))

    def test_substitute_linear_with_unit_scales_and_integer_offsets(self,
                                                                    rng):
        for _ in range(40):
            legs = rng.randint(1, 3)
            p = self.random_poly(rng, legs)
            scales = [rng.choice((1, -1)) for _ in range(legs)]
            offsets = [rng.randint(-3, 3) for _ in range(legs)]
            q = p.substitute_linear(scales, offsets)
            assert_canonical(q)
            contributions = []
            for exps, c in p.terms.items():
                for js in itertools.product(*(range(e + 1) for e in exps)):
                    k = 1
                    for e, j, s, o in zip(exps, js, scales, offsets):
                        k *= math.comb(e, j) * s**j * o**(e - j)
                    contributions += [(js, d, v * k)
                                      for d, v in c.coeffs.items()]
            assert q == built_from(legs, contributions)
            for u0 in self.U_VALUES:
                point = self.random_point(rng, legs)
                image = [s * x + o for s, x, o in zip(scales, point, offsets)]
                assert q.evaluate(point, u0) == p.evaluate(image, u0)

    @pytest.mark.parametrize("scales, offsets, error", [
        ([Fraction(1)], [0], TypeError),
        ([1], [Fraction(1, 2)], TypeError),
        ([1.0], [0], TypeError),
        ([1], [2.0], TypeError),
        ([True], [0], TypeError),
        ([1], [False], TypeError),
        ([2], [0], ValueError),
        ([0], [1], ValueError),
        ([1, 1], [0, 0], ValueError),
    ])
    def test_substitute_linear_takes_unit_int_scales_and_int_offsets(
            self, scales, offsets, error):
        with pytest.raises(error):
            (var(1, 1) + 1).substitute_linear(scales, offsets)


def assert_canonical_storage(p):
    """The stored form: integer numerators, none zero, over a positive
    denominator sharing no factor with them, which is 1 for zero; each key
    a nonnegative int with no guard bit set and no field above the legs."""
    nums = list(p.num.values())
    assert type(p.den) is int and p.den > 0
    assert all(type(v) is int and v for v in nums)
    assert math.gcd(p.den, *nums) == 1
    assert nums or p.den == 1
    assert all(type(k) is int and 0 <= k < 1 << _W * (p.legs + 1)
               and not k & _GUARD for k in p.num)
    assert DPoly(p.legs, p.terms) == p


class TestCanonicalForm:
    """Every operation leaves its result in the one canonical form, so
    equal polynomials built two ways compare and hash alike."""

    random_poly = staticmethod(TestEvaluateAgainstNaive.random_poly)
    RATIONALS = TestIntegerKernel.RATIONALS

    def results(self, rng):
        """(name, result) of each operation on random operands, with
        cancelling cases mixed in."""
        legs = rng.randint(1, 3)
        a, b = self.random_poly(rng, legs), self.random_poly(rng, legs)
        c = rng.choice(self.RATIONALS)
        n = rng.randint(-9, 9)
        yield "add", a + b
        yield "sub", a - b
        yield "sub-self", a - a
        yield "add-int", a + n
        yield "int-add", n + a
        yield "sub-int", a - n
        yield "int-sub", n - a
        yield "scalar-sub", c - a
        yield "sub-int-to-constant", (a + n) - a
        yield "int-cancels-constant", (var(legs, 1) + n) - n
        yield "mul", a * b
        yield "dot", DPoly.dot(legs, [(a, b), (b * c, a),
                                      (a, b * Fraction(1, 7))])
        yield "dot-cancels", DPoly.dot(legs, [(a, b * c), (-a * c, b)])
        yield "scalar", a * c
        yield "scalar-zero", a * 0
        yield "upoly", a * UPoly({0: c, 1: Fraction(1, 6)})
        yield "constant-upoly", UPoly.const(c) * a
        yield "zero-upoly", a * UPoly()
        yield "mixed-scalars", a * 6 - a * Fraction(1, 2) + a
        yield "substitute", a.substitute_linear(
            [rng.choice((1, -1)) for _ in range(legs)],
            [rng.randint(-3, 3) for _ in range(legs)])
        yield "specialize", a.specialize_u(rng.choice(self.RATIONALS + (0,)))
        if legs < 3:
            yield "outer", a.outer(self.random_poly(rng, 3 - legs))
            yield "split", a.split_variable(rng.randint(1, legs))
        if legs > 1:
            yield "drop", a.drop_variable(rng.randint(1, legs))
            yield "diagonal", a.diagonal()

    def test_every_result_is_canonical(self, rng):
        for _ in range(40):
            for name, p in self.results(rng):
                try:
                    assert_canonical_storage(p)
                except AssertionError:
                    raise AssertionError("%s: %r over %d"
                                         % (name, p.num, p.den))

    def test_equal_polynomials_built_two_ways_hash_alike(self, rng):
        for _ in range(40):
            legs = rng.randint(1, 3)
            a, c = self.random_poly(rng, legs), self.random_poly(rng, legs)
            k = rng.choice(self.RATIONALS)
            n = rng.randint(-9, 9)
            for other in ((a + c) - c, (a * k) * (1 / Fraction(k)),
                          (a + n) - n, n - (n - a), (a - c) + c,
                          DPoly(legs, a.terms),
                          a.shift([1] * legs).shift([-1] * legs)):
                assert other == a
                assert hash(other) == hash(a)
                assert (other.den, other.num) == (a.den, a.num)
        zero = DPoly(2)
        assert zero == (var(2, 1) - var(2, 1)) == var(2, 1) * 0
        assert hash(zero) == hash(var(2, 1) - var(2, 1)) == hash(
            var(2, 1) * 0)


@pytest.mark.parametrize("legs, exps", [
    (1, (1.5,)), (1, (2.0,)), (1, (Fraction(1),)), (1, (-1,)), (1, (True,)),
    (True, (0,)), (1.0, (0,)), (2.0, (0, 0))])
def test_non_integer_or_negative_exponent_rejected(legs, exps):
    # the leg count, like each exponent, must be an int, not a bool
    with pytest.raises(ValueError, match="bad exponent vector|" + re.escape(
            "legs must be an int in 1..3, got %r" % (legs,))):
        DPoly(legs, {exps: 1})


@pytest.mark.parametrize("deg", [1.5, 2.0, Fraction(1), -1, True])
def test_non_integer_or_negative_u_degree_rejected(deg):
    with pytest.raises(ValueError, match=re.escape(
            "u-degree must be an int in 0..32767, got %r" % (deg,))):
        UPoly({deg: 1})


class TestKeyGuard:
    """Each field of a packed key stays below _TOP: the constructor, and
    every operation whose keys add, raise ValueError on reaching it."""

    HALF = _TOP // 2

    def test_constants_agree_with_the_field_width(self):
        assert _MASK == (1 << _W) - 1
        assert _TOP == 1 << _W - 1
        assert _GUARD == sum(_TOP << _W * i for i in range(MAX_LEGS + 1))

    @staticmethod
    def mono(legs, exps, deg=0):
        return DPoly(legs, {exps: UPoly({deg: 1})})

    @pytest.mark.parametrize("legs", [1, 2, 3])
    def test_constructor(self, legs):
        for i in range(legs):
            exps = [0] * legs
            exps[i] = _TOP
            with pytest.raises(ValueError):
                self.mono(legs, tuple(exps))
            exps[i] = _TOP - 1
            assert self.mono(legs, tuple(exps)).terms == {
                tuple(exps): UPoly.const(1)}
        with pytest.raises(ValueError):
            self.mono(legs, (0,) * legs, _TOP)
        assert self.mono(legs, (0,) * legs, _TOP - 1) == UPoly({_TOP - 1: 1})

    @pytest.mark.parametrize("legs", [1, 2, 3])
    def test_product(self, legs):
        h = self.HALF
        for i in range(legs):
            a, b = [0] * legs, [0] * legs
            a[i], b[i] = h, h - 1
            x, y = self.mono(legs, tuple(a)), self.mono(legs, tuple(b))
            a[i] = _TOP - 1
            assert (x * y).terms == {tuple(a): UPoly.const(1)}
            with pytest.raises(ValueError):
                x * x
        zero = (0,) * legs
        x, y = self.mono(legs, zero, h), self.mono(legs, zero, h - 1)
        assert x * y == UPoly({_TOP - 1: 1})
        with pytest.raises(ValueError):
            x * x

    @pytest.mark.parametrize("legs", [1, 2, 3])
    def test_dot(self, legs):
        h = self.HALF
        zero = (0,) * legs
        x, y = self.mono(legs, zero, h), self.mono(legs, zero, h - 1)
        assert DPoly.dot(legs, [(x, y), (y, x)]) == UPoly({_TOP - 1: 2})
        with pytest.raises(ValueError):
            DPoly.dot(legs, [(x, y), (x, x)])
        for i in range(legs):
            a = [0] * legs
            a[i] = h
            x = self.mono(legs, tuple(a))
            with pytest.raises(ValueError):
                DPoly.dot(legs, [(y, y), (x, x)])

    def test_outer(self):
        h = self.HALF
        x, y = self.mono(1, (0,), h), self.mono(2, (0, 0), h - 1)
        assert x.outer(y) == DPoly.const(3, UPoly({_TOP - 1: 1}))
        with pytest.raises(ValueError):
            x.outer(self.mono(2, (0, 0), h))
        # exponents of separate variables do not add
        z = self.mono(1, (_TOP - 1,)).outer(self.mono(1, (_TOP - 1,)))
        assert z.terms == {(_TOP - 1, _TOP - 1): UPoly.const(1)}

    @pytest.mark.parametrize("legs", [2, 3])
    def test_diagonal(self, legs):
        h = self.HALF
        rest = (0,) * (legs - 2)
        assert self.mono(legs, (h, h - 1) + rest).diagonal().terms == {
            (_TOP - 1,) + rest: UPoly.const(1)}
        with pytest.raises(ValueError):
            self.mono(legs, (h, h) + rest).diagonal()
