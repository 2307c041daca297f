import itertools
import math
import random
from fractions import Fraction

import pytest

from jortwist.exactalg import DPoly, UPoly, binom_poly

from conftest import random_dpoly


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

    def test_float_input_rejected(self):
        with pytest.raises(TypeError):
            var(1, 1).evaluate([0.5])
        with pytest.raises(TypeError):
            var(1, 1).evaluate([1], 0.5)


def batch_values(poly, points, u0=0):
    """The values of DPoly.value_ratios as Fractions, after checking that
    its denominators are positive ints."""
    nums, dens = poly.value_ratios(tuple(map(tuple, points)), u0)
    assert len(nums) == len(dens) == len(points)
    assert all(type(d) is int and d > 0 for d in dens)
    return list(map(Fraction, nums, dens))


class TestValueRatios:
    """DPoly.value_ratios, the batch evaluator, against the naive oracle."""

    random_poly = staticmethod(TestEvaluateAgainstNaive.random_poly)
    random_point = staticmethod(TestEvaluateAgainstNaive.random_point)

    @pytest.mark.parametrize("u0", TestEvaluateAgainstNaive.U_VALUES)
    def test_random_symbolic_u_polys(self, rng, u0):
        for _ in range(60):
            legs = rng.randint(1, 3)
            p = self.random_poly(rng, legs)
            points = [self.random_point(rng, legs)
                      for _ in range(rng.randint(1, 8))]
            values = batch_values(p, points, u0)
            assert values == [naive_value(p, pt, u0) for pt in points]
            assert values == [p.evaluate(pt, u0) for pt in points]

    @pytest.mark.parametrize("u0", TestEvaluateAgainstNaive.U_VALUES)
    def test_empty_zero_and_constant(self, rng, u0):
        for legs in (1, 2, 3):
            p = self.random_poly(rng, legs)
            assert p.value_ratios((), u0) == ([], [])
            points = [self.random_point(rng, legs) for _ in range(5)]
            assert batch_values(DPoly(legs), points, u0) == [0] * 5
            c = DPoly.const(legs, UPoly({0: Fraction(3, 4), 2: -1}))
            assert batch_values(c, points, u0) == [Fraction(3, 4)
                                                   - Fraction(u0) ** 2] * 5

    def test_columns_not_shared_across_denominators_or_order(
            self, rng, monkeypatch):
        from jortwist import exactalg
        monkeypatch.setattr(exactalg, "_COLUMNS", {})
        p = self.random_poly(rng, 2) + DPoly(2, {(3, 2): Fraction(1, 5)})
        integral = [(1, -2), (3, 4), (-5, 6)]
        rational = [(Fraction(a, 7), Fraction(b, 3)) for a, b in integral]
        for points in (integral, rational, integral[::-1], rational[::-1]):
            assert batch_values(p, points, Fraction(5, 7)) == [
                naive_value(p, pt, Fraction(5, 7)) for pt in points]
        # two variables per point set, none found in another set's entry
        assert len(exactalg._COLUMNS) == 8

    def test_wrong_length_point_raises(self):
        with pytest.raises(ValueError):
            var(2, 1).value_ratios(((1, 2), (1,)))
        with pytest.raises(ValueError):
            var(1, 1).value_ratios(((1, 2),))

    def test_float_input_rejected(self):
        x = var(1, 1)
        assert x.value_ratios(((1,),)) == ([1], [1])
        for points, u0 in ((((0.5,),), 0), (((1.0,),), 0), (((1,),), 0.5),
                           ((), 0.5)):
            with pytest.raises(TypeError):
                x.value_ratios(points, u0)


def test_upoly_no_stored_zeros():
    p = u() - u()
    assert p.coeffs == {}
    assert (UPoly({0: 2, 1: 0})).coeffs == {0: Fraction(2)}


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

    def test_substitute_linear_with_rational_scales_and_offsets(self, rng):
        for _ in range(40):
            legs = rng.randint(1, 3)
            p = self.random_poly(rng, legs)
            scales = [rng.choice(self.RATIONALS) for _ in range(legs)]
            offsets = [rng.choice(self.RATIONALS + (0,)) for _ in range(legs)]
            q = p.substitute_linear(scales, offsets)
            assert_canonical(q)
            contributions = []
            for exps, c in p.terms.items():
                for js in itertools.product(*(range(e + 1) for e in exps)):
                    k = Fraction(1)
                    for e, j, s, o in zip(exps, js, scales, offsets):
                        k *= math.comb(e, j) * Fraction(s) ** j
                        k *= Fraction(o) ** (e - j)
                    contributions += [(js, d, v * k)
                                      for d, v in c.coeffs.items()]
            assert q == built_from(legs, contributions)
            for u0 in self.U_VALUES:
                point = self.random_point(rng, legs)
                image = [s * x + o for s, x, o in zip(scales, point, offsets)]
                assert q.evaluate(point, u0) == p.evaluate(image, u0)


def assert_canonical_storage(p):
    """The stored form: integer numerators, none zero, over a positive
    denominator sharing no factor with them, which is 1 for zero."""
    nums = list(p.num.values())
    assert type(p.den) is int and p.den > 0
    assert all(type(v) is int and v for v in nums)
    assert math.gcd(p.den, *nums) == 1
    assert nums or p.den == 1
    assert all(len(key) == p.legs + 1 for key in p.num)
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
        yield "scalar", a * c
        yield "scalar-zero", a * 0
        yield "upoly", a * UPoly({0: c, 1: Fraction(1, 6)})
        yield "mixed-scalars", a * 6 - a * Fraction(1, 2) + a
        yield "substitute", a.substitute_linear(
            [rng.choice(self.RATIONALS) for _ in range(legs)],
            [rng.choice(self.RATIONALS + (0,)) for _ in range(legs)])
        yield "specialize", a.specialize_u(rng.choice(self.RATIONALS + (0,)))
        if legs < 3:
            yield "outer", a.outer(self.random_poly(rng, 3 - legs))
            yield "split", a.split_variable(rng.randint(1, legs))

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


@pytest.mark.parametrize("exps", [(1.5,), (2.0,), (Fraction(1),), (-1,)])
def test_non_integer_or_negative_exponent_rejected(exps):
    with pytest.raises(ValueError, match="bad exponent vector"):
        DPoly(1, {exps: 1})


@pytest.mark.parametrize("deg", [1.5, 2.0, Fraction(1), -1])
def test_non_integer_or_negative_u_degree_rejected(deg):
    with pytest.raises(ValueError, match="bad degree"):
        UPoly({deg: 1})
