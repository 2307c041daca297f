import math
from fractions import Fraction

import pytest

from jortwist.exactalg import DPoly, UPoly
from jortwist.borel import (TensorElement, conjugate, exp_series,
                            first_difference, geometric_inverse,
                            log1p_series, series_apply, sum_of_products)
from jortwist.twists import _closed_F0, _closed_F1, _closed_L

from conftest import random_element

N = 4


def one(legs=1, n=N):
    return TensorElement.one(legs, n)


def P(n=N):
    return TensorElement.momentum_p(n)


def Q(n=N):
    return TensorElement.momentum_q(n)


def D(n=N):
    return TensorElement.dilatation(n)


def d_times(poly_exps, n=N):
    """1-leg element with momentum-free DPoly given by {exp: coeff}."""
    return TensorElement(1, n, {((0, 0),): DPoly(1, poly_exps)})


class TestNormalMul:
    def test_dp_reorders(self):
        # D P = P (D - 1)
        expected = TensorElement(1, N, {((1, 0),): DPoly(1, {(1,): 1, (0,): -1})})
        assert D() * P() == expected

    def test_identity(self):
        F = _closed_L(N)
        assert one(2) * F == F
        assert F * one(2) == F

    def test_d_squared_p(self):
        # applying the rewrite rule twice: D^2 P = P (D-1)^2
        expected = TensorElement(
            1, N, {((1, 0),): DPoly(1, {(2,): 1, (1,): -2, (0,): 1})})
        assert D() * D() * P() == expected

    def test_q_also_shifts_d(self):
        expected = TensorElement(
            1, N, {((0, 1),): DPoly(1, {(1,): 1, (0,): -1})})
        assert D() * Q() == expected

    def test_momenta_commute(self):
        assert P() * Q() == Q() * P()

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            P() * one(2)
        with pytest.raises(ValueError):
            P(3) * P(4)

    def test_associativity_randomized(self, rng):
        for _ in range(20):
            legs = rng.randint(1, 2)
            a = random_element(rng, legs, 3)
            b = random_element(rng, legs, 3)
            c = random_element(rng, legs, 3)
            assert (a * b) * c == a * (b * c)

    def test_grading_of_products(self, rng):
        for _ in range(20):
            a = random_element(rng, 1, 5)
            b = random_element(rng, 1, 5)
            for n in range(6):
                conv = TensorElement(1, 5)
                for i in range(n + 1):
                    conv = conv + a.grade_slice(i) * b.grade_slice(n - i)
                assert conv == (a * b).grade_slice(n)

    def test_grade_zero_product_matches_the_shifted_leg_products(self):
        x = DPoly.variable(1, 1)
        # grade-0 terms only, so each right factor meets every left term
        a = TensorElement(1, N, {((0, 0),): x**2 + 1, ((0, 1),): x * UPoly.u(),
                                 ((0, 2),): x**3 - 2})
        b = TensorElement(1, N, {((0, 0),): x - 3, ((0, 1),): x**2,
                                 ((0, 3),): x + UPoly.u()})
        product = a * b
        # oracle: P^0 Q^qa f(D) Q^qb g(D) = Q^(qa+qb) f(D - qb) g(D)
        expected = {}
        for ((_, qa),), da in a.terms.items():
            for ((_, qb),), db in b.terms.items():
                key = ((0, qa + qb),)
                expected[key] = expected.get(key, 0) + da.shift([-qb]) * db
        assert product == TensorElement(1, N, expected)

    def test_products_above_truncation_are_pruned(self, monkeypatch):
        x = DPoly.variable(1, 1)
        left = {((0, 0),): x**2 + 1, ((3, 0),): x * UPoly.u()}
        # offset groups -2 and -3 hold only grade-2 entries, group -1 a
        # grade-0 one; the grade-3 left term may meet only the latter
        right = {((2, 0),): x - 3, ((2, 1),): x**2, ((0, 1),): x + UPoly.u()}
        a, b = TensorElement(1, N, left), TensorElement(1, N, right)

        calls = []
        shift = DPoly.shift

        def counting_shift(d, offsets):
            calls.append((d, offsets))
            return shift(d, offsets)

        monkeypatch.setattr(DPoly, "shift", counting_shift)
        product = a * b
        monkeypatch.undo()

        grade_of = {id(d): sum(p for p, _ in k) for k, d in a.terms.items()}
        made = sorted((grade_of[id(d)], offsets) for d, offsets in calls)
        assert made == [(0, (-3,)), (0, (-2,)), (0, (-1,)), (3, (-1,))]

        high = TensorElement(1, N + 2, left) * TensorElement(1, N + 2, right)
        truncated = TensorElement(1, N + 2)
        for n in range(N + 1):
            truncated = truncated + high.grade_slice(n)
        assert high.grade_slice(N + 1) != TensorElement(1, N + 2)
        assert product.terms == truncated.terms


def written_out_sum(pairs):
    """The sum of a * b over pairs, term by term over `.terms` with
    Fraction coefficients: per leg, P^pa Q^qa x^e times P^pb Q^qb x^f is
    P^(pa+pb) Q^(qa+qb) (x - pb - qb)^e x^f, expanded by the binomial
    theorem."""
    legs, n = pairs[0][0].legs, pairs[0][0].truncation
    acc = {}
    for a, b in pairs:
        for ka, da in a.terms.items():
            for kb, db in b.terms.items():
                key = tuple((pa + pb, qa + qb)
                            for (pa, qa), (pb, qb) in zip(ka, kb))
                if sum(p for p, _ in key) > n:
                    continue
                for e, ca in da.terms.items():
                    # the shifted left monomial: {exponents: integer factor}
                    shifted = {(): 1}
                    for ei, (pb, qb) in zip(e, kb):
                        shifted = {js + (j,): c * math.comb(ei, j)
                                   * (-pb - qb)**(ei - j)
                                   for js, c in shifted.items()
                                   for j in range(ei + 1)}
                    for f, cb in db.terms.items():
                        for js, c in shifted.items():
                            exps = tuple(j + fi for j, fi in zip(js, f))
                            coef = acc.setdefault(key, {}).setdefault(exps,
                                                                      {})
                            for d1, v1 in ca.coeffs.items():
                                for d2, v2 in cb.coeffs.items():
                                    coef[d1 + d2] = (coef.get(d1 + d2, 0)
                                                     + c * v1 * v2)
    return TensorElement(legs, n, {
        key: DPoly(legs, {e: UPoly(c) for e, c in terms.items()})
        for key, terms in acc.items()})


class TestSumOfProducts:
    def random_pairs(self, rng, legs, n):
        """Pairs of random elements, some specialised to a rational u, each
        scaled by its own rational so that the denominators are mixed."""
        out = []
        for _ in range(rng.randint(1, 4)):
            pair = []
            for _ in range(2):
                e = random_element(rng, legs, n, max_q=1)
                if rng.random() < 0.3:
                    e = e.specialize_u(Fraction(rng.randint(-3, 3), 5))
                pair.append(e.scale(Fraction(rng.randint(1, 9),
                                             rng.randint(1, 11))))
            out.append(tuple(pair))
        return out

    def test_matches_the_written_out_products(self, rng):
        for _ in range(30):
            legs, n = rng.randint(1, 3), rng.randint(1, 4)
            pairs = self.random_pairs(rng, legs, n)
            if rng.random() < 0.3:
                a, b = pairs[0]
                pairs.append((-a, b))
            got = sum_of_products(pairs)
            assert got == written_out_sum(pairs)
            assert all(not d.is_zero for d in got.terms.values())

    def test_a_key_that_cancels_is_absent(self):
        x = DPoly.variable(1, 1)
        left = TensorElement(1, N, {((1, 0),): 1, ((0, 0),): x})
        got = sum_of_products([(left, Q()), (-P(), Q())])
        # (P + D) Q - P Q = Q (D - 1): the key P Q cancels
        assert got.terms == {((0, 1),): x - 1}
        assert sum_of_products([(P(), Q()), (-Q(), P())]).terms == {}

    def test_shape_mismatch_and_no_pairs_raise(self):
        with pytest.raises(ValueError):
            sum_of_products([(P(), P()), (P(), one(2))])
        with pytest.raises(ValueError):
            sum_of_products([(P(), P()), (P(3), P(3))])
        with pytest.raises(ValueError):
            sum_of_products([])

    def test_a_product_multiplies_and_adds_no_dpoly(self, monkeypatch):
        a = b = _closed_L(3)
        expected = a * b
        assert len(expected.terms) > 1

        def refuse(*args):
            raise AssertionError("DPoly arithmetic inside a product")

        for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
            monkeypatch.setattr(DPoly, name, refuse)
        assert a * b == expected


class TestSeries:
    def test_exp_of_zero(self):
        assert exp_series(TensorElement(2, N)) == one(2)

    def test_geometric_inverse_contract(self):
        a = P().tensor(D()) - D().tensor(P())
        inv = geometric_inverse(one(2) + a)
        assert (one(2) + a) * inv == one(2)
        assert inv * (one(2) + a) == one(2)

    def test_geometric_inverse_is_the_geometric_series(self, rng):
        # oracle: the power series sum (-a)^k of a = e - 1
        for legs in (1, 2):
            for n in range(1, 6):
                x = random_element(rng, legs, n, max_terms=3)
                e = one(legs, n) + x - x.grade_slice(0)
                inv = geometric_inverse(e)
                series = series_apply([(-1) ** k for k in range(n + 1)],
                                      e - one(legs, n))
                assert inv == series
                assert e * inv == one(legs, n) == inv * e

    def test_exp_log_roundtrip_on_simple_element(self):
        a = P().scale(-1).tensor(one())
        assert exp_series(log1p_series(a)) == one(2) + a

    def test_exp_log_roundtrip_randomized(self, rng):
        for _ in range(10):
            e = random_element(rng, 1, 3)
            a = e - e.grade_slice(0)  # strip grade 0 so the series applies
            assert log1p_series(exp_series(a) - one(1, 3)) == a

    def test_grade_zero_argument_rejected(self):
        with pytest.raises(ValueError):
            exp_series(D())


class TestCoproduct:
    def test_primitive_momentum(self):
        assert P().coproduct(1) == P().tensor(one()) + one().tensor(P())

    def test_unit(self):
        assert one().coproduct(1) == one(2)

    def test_momentum_square_binomial(self):
        # oracle: binomial theorem on a primitive element
        psq = P() * P()
        expected = (psq.tensor(one()) + P().tensor(P()).scale(2)
                    + one().tensor(psq))
        assert psq.coproduct(1) == expected

    def test_coassociativity_randomized(self, rng):
        for _ in range(15):
            e = random_element(rng, 1, 3)
            assert e.coproduct(1).coproduct(1) == e.coproduct(1).coproduct(2)

    def test_algebra_map_randomized(self, rng):
        for _ in range(15):
            a = random_element(rng, 1, 3)
            b = random_element(rng, 1, 3)
            assert (a * b).coproduct(1) == a.coproduct(1) * b.coproduct(1)

    def test_three_legs_rejected(self):
        with pytest.raises(ValueError):
            one(3).coproduct(1)


class TestCounit:
    def test_unit(self):
        assert one(2).counit_contract(1) == one()

    def test_kills_momenta_and_dilatation(self):
        assert P().tensor(D()).counit_contract(1).is_zero
        assert P().tensor(D()).counit_contract(2).is_zero
        assert Q().tensor(one()).counit_contract(1).is_zero

    def test_twist_is_normalized(self):
        F = _closed_L(N)
        assert F.counit_contract(1) == one()
        assert F.counit_contract(2) == one()

    def test_counit_axiom_randomized(self, rng):
        for _ in range(15):
            e = random_element(rng, 1, 3)
            assert e.coproduct(1).counit_contract(1) == e
            assert e.coproduct(1).counit_contract(2) == e

    def test_single_leg_rejected(self):
        with pytest.raises(ValueError):
            one().counit_contract(1)


class TestAntipode:
    def test_on_generators(self):
        assert D().antipode() == -D()
        assert P().antipode() == -P()
        assert Q().antipode() == -Q()

    def test_on_pd(self):
        # oracle: S(PD) = S(D) S(P) = DP, then reorder to P(D-1)
        expected = TensorElement(1, N, {((1, 0),): DPoly(1, {(1,): 1, (0,): -1})})
        assert (P() * D()).antipode() == expected

    def test_involution(self):
        e = P() * D() * D()
        assert e.antipode().antipode() == e

    def test_involution_randomized(self, rng):
        for _ in range(15):
            e = random_element(rng, 1, 3)
            assert e.antipode().antipode() == e

    def test_anti_automorphism_randomized(self, rng):
        for _ in range(15):
            a = random_element(rng, 1, 3)
            b = random_element(rng, 1, 3)
            assert (a * b).antipode() == b.antipode() * a.antipode()


class TestFoldAntipode:
    def test_unit(self):
        assert one(2).fold_mul_antipode() == one()

    def test_p_tensor_d(self):
        # P * S(D) = -P D
        assert P().tensor(D()).fold_mul_antipode() == -(P() * D())

    def test_antipode_axiom_randomized(self, rng):
        # m (id (x) S) Delta = eta eps
        for _ in range(25):
            e = random_element(rng, 1, 3)
            expected = e.tensor(one(1, 3)).counit_contract(1)
            assert e.coproduct(1).fold_mul_antipode() == expected

    def test_twisted_antipode_of_jordanian_twist(self):
        # chi S(D) chi^-1 for the momentum-side twist must give
        # -(1 - P/kappa) D
        n = 3
        chi = _closed_F0(n).fold_mul_antipode()
        sfd = chi * D(n).antipode() * geometric_inverse(chi)
        target = -((TensorElement.one(1, n) - P(n)) * D(n))
        assert sfd == target

    def test_matches_the_leg_products_randomized(self, rng):
        # oracle: the definition, one D-monomial of each leg at a time
        def mono(p, q, e, n):
            return TensorElement(1, n, {((p, q),): DPoly(1, {(e,): 1})})

        for _ in range(25):
            element = random_element(rng, 2, 3)
            expected = TensorElement(1, 3)
            for ((a1, b1), (a2, b2)), d in element.terms.items():
                for (e1, e2), c in d.terms.items():
                    m1, m2 = mono(a1, b1, e1, 3), mono(a2, b2, e2, 3)
                    expected = expected + (m1 * m2.antipode()).scale(c)
            assert element.fold_mul_antipode() == expected


class TestConjugate:
    def test_trivial_twist(self):
        got = conjugate(one(2), P(), one(2))
        assert got == P().coproduct(1)

    def test_bad_inverse_pair_detected(self):
        with pytest.raises(ValueError):
            conjugate(one(2) + P().tensor(P()), P(), one(2))


class TestSlicesAndSpecialization:
    def test_slices_sum_to_element(self, rng):
        for _ in range(10):
            e = random_element(rng, 2, 4)
            total = TensorElement(2, 4)
            for n in range(5):
                total = total + e.grade_slice(n)
            assert total == e

    def test_slice_of_unit(self):
        assert one(2).grade_slice(2).is_zero
        assert one(2).grade_slice(0) == one(2)

    def test_slice_out_of_range(self):
        with pytest.raises(ValueError):
            one(2).grade_slice(N + 1)

    def test_first_order_slice_of_interpolating_twist(self):
        F = _closed_L(N)
        u = UPoly.u()
        expected = (P().tensor(D()).scale(1 - u)
                    - D().tensor(P()).scale(u))
        assert F.grade_slice(1) == expected
        assert F.grade_slice(1).specialize_u(1) == -D().tensor(P())

    def test_specialize_constant(self):
        assert one(2).specialize_u(Fraction(1, 2)) == one(2)


def test_monomials_walk_by_grade_then_key_then_exponents(rng):
    for _ in range(40):
        legs = rng.randint(1, 3)
        e = random_element(rng, legs, rng.randint(0, 4), max_terms=6)
        walk = list(e.monomials())
        assert sorted((k, x, c) for _, k, x, c in walk) == sorted(
            (k, x, c) for k, d in e.terms.items() for x, c in d.terms.items())
        assert all(g == _grade(k) for g, k, _, _ in walk)
        assert [g for g, *_ in walk] == sorted(g for g, *_ in walk)
        runs = [k for i, (_, k, _, _) in enumerate(walk)
                if i == 0 or walk[i - 1][1] != k]
        assert len(runs) == len(set(runs))  # each key's monomials contiguous
        for (_, ka, xa, _), (_, kb, xb, _) in zip(walk, walk[1:]):
            assert ka != kb or xa < xb


class TestEquality:
    def test_reflexive(self):
        F = _closed_F0(N)
        assert F == F
        assert F + TensorElement(2, N) == F

    def test_first_difference_reports_lowest_grade(self):
        diff = first_difference(_closed_F0(1), _closed_F1(1))
        assert diff is not None
        assert diff["grade"] == 1

    def test_no_difference(self):
        assert first_difference(_closed_F0(2), _closed_F0(2)) is None

    def test_first_difference_matches_the_per_key_walk(self, rng):
        u = UPoly.u()
        reports = []
        for i in range(40):
            legs, n = rng.randint(1, 3), rng.randint(1, 4)
            a = random_element(rng, legs, n)
            if a.is_zero:
                a = one(legs, n)
            b = (random_element(rng, legs, n),
                 a - a.grade_slice(min(_grade(k) for k in a.terms)),
                 a.scale(1 + u),
                 a)[i % 4]
            for x, y in ((a, b), (b, a)):
                got = first_difference(x, y)
                assert got == walked_first_difference(x, y)
                reports.append(got)
        assert reports.count(None) == 20


def _grade(key):
    return sum(p for p, _ in key)


def walked_first_difference(a, b):
    """first_difference as a walk over every key either side holds,
    subtracting the two coefficients key by key."""
    diffs = []
    for key in set(a.terms) | set(b.terms):
        da = a.terms.get(key, DPoly(a.legs))
        db = b.terms.get(key, DPoly(b.legs))
        for exps in (da - db).terms:
            diffs.append((_grade(key), key, exps))
    if not diffs:
        return None
    grade, key, exps = min(diffs)
    return {
        "grade": grade,
        "momenta": key,
        "dilatation_exponents": exps,
        "left": str(a.terms.get(key, DPoly(a.legs)).terms.get(exps, UPoly())),
        "right": str(b.terms.get(key, DPoly(b.legs)).terms.get(exps, UPoly())),
    }


def _unit_plus_positive(e):
    """1 plus the part of e of grade >= 1: an input of geometric_inverse."""
    return one(e.legs, e.truncation) + e - e.grade_slice(0)


U0 = Fraction(-3, 2)

# name: (leg counts of its random inputs, the operation on two random
# elements of one shape, inputs on which it cancels or lands above N)
ONE_PATH = {
    "+": ((1, 2, 3), lambda a, b: a + b,
          lambda: [_closed_L(3) + (-_closed_L(3)),
                   TensorElement(1, 2, {((3, 0),): 1, ((1, 0),): 1}) + P(2)]),
    "-": ((1, 2, 3), lambda a, b: a - b,
          lambda: [_closed_L(3) - _closed_L(3)]),
    "scale": ((1, 2, 3),
              lambda a, b: a.scale(UPoly({0: -1, 1: Fraction(2, 3)})),
              lambda: [_closed_L(3).scale(0)]),
    "*": ((1, 2, 3), lambda a, b: a * b,
          # P Q - Q P: the key P Q cancels
          lambda: [(P() + Q()) * (Q() - P())]),
    "tensor": ((1,), lambda a, b: a.tensor(b),
               lambda: [(P() * P() * P()).tensor(P() * P())]),
    "coproduct": ((1, 2), lambda a, b: a.coproduct(a.legs), lambda: []),
    "counit_contract": (
        (2, 3), lambda a, b: a.counit_contract(1),
        # the D-part x_1 vanishes when leg 1 is contracted
        lambda: [TensorElement(2, N, {((0, 0), (1, 0)): DPoly.variable(2, 1)})
                 .counit_contract(1)]),
    "antipode": ((1,), lambda a, b: a.antipode(), lambda: []),
    "fold_mul_antipode": ((2,), lambda a, b: a.fold_mul_antipode(),
                          # m (1 x S) Delta(P) = counit(P) = 0
                          lambda: [P().coproduct(1).fold_mul_antipode()]),
    "specialize_u": (
        (1, 2, 3), lambda a, b: a.specialize_u(U0),
        # the coefficient (u - u0) x
        lambda: [TensorElement(1, N, {((1, 0),): DPoly(1, {
            (1,): UPoly({0: -U0, 1: 1})})}).specialize_u(U0)]),
    "grade_slice": ((1, 2, 3), lambda a, b: a.grade_slice(1),
                    lambda: [(_closed_L(3) - _closed_L(3)).grade_slice(1)]),
    "sum_of_products": ((1, 2, 3),
                        lambda a, b: sum_of_products([(a, b), (b, a)]),
                        lambda: [sum_of_products([(P(), Q()), (-Q(), P())])]),
    "geometric_inverse": (
        (1, 2, 3), lambda a, b: geometric_inverse(_unit_plus_positive(a)),
        # 1 - P + 0 P^2 + P^3 - ...: the grade-2 sum cancels
        lambda: [geometric_inverse(one() + P() + P() * P())]),
}


@pytest.mark.parametrize("name", list(ONE_PATH))
def test_every_operation_stores_no_zero_and_nothing_above_n(name, rng):
    # each operation returns through the constructor, which alone drops
    # zero coefficients and keys above the truncation
    legs, op, cancelling = ONE_PATH[name]
    results = cancelling()
    for _ in range(20):
        k, n = rng.choice(legs), rng.randint(1, 4)
        results.append(op(random_element(rng, k, n),
                          random_element(rng, k, n)))
    for res in results:
        assert not any(d.is_zero for d in res.terms.values())
        assert all(_grade(k) <= res.truncation for k in res.terms)


@pytest.mark.parametrize("legs, truncation, key", [
    (1, 3, ((1.5, 0),)), (1, 3, ((0, 2.0),)), (1, 3, ((Fraction(1), 0),)),
    (1, 3, ((-1, 0),)), (1, 3, ((1, 0, 0),)), (1, 3, ((True, 0),)),
    (1, 2.5, ((0, 0),)), (1, 2.0, ((0, 0),)), (1, True, ((0, 0),)),
    (True, 2, ((0, 0),)), (1.0, 2, ((0, 0),)), (2.0, 2, ((0, 0), (0, 0)))])
def test_non_integer_or_negative_momentum_degree_rejected(legs, truncation,
                                                          key):
    # int() used to truncate 1.5 to 1 and let the term in; a bool is an
    # int subclass, so isinstance let True in as the degree 1.  The
    # truncation, the largest total momentum degree kept, and the leg
    # count are checked alike
    with pytest.raises(ValueError, match="bad momentum key|truncation order "
                                         "must be|legs must be between"):
        TensorElement(legs, truncation, {key: 1})
