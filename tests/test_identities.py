import random
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

from jortwist import cli, identities
from jortwist.exactalg import (MAX_DEGREE, MAX_LEGS, DPoly, UPoly,
                               binom_poly, int_binom)
from jortwist.identities import (SAMPLE_COUNT, SAMPLE_POINTS, SAMPLE_SEED,
                                 _sample_check, independence_det,
                                 verify_bigident, verify_bigident_index_swap,
                                 verify_identity_chain)


class TestBigIdentity:
    def test_all_indices_zero(self):
        inst = verify_bigident(0, 0, 0, 0)
        assert inst.equal
        assert inst.lhs == DPoly.const(3, 1)

    def test_single_momentum(self):
        # oracle: direct term-by-term expansion collapses both sides to z
        inst = verify_bigident(1, 0, 0, 0)
        assert inst.equal
        assert inst.lhs == DPoly.variable(3, 3)

    def test_exhaustive_small_bound(self):
        rep = verify_identity_chain("bigident", bound=3)
        assert rep.passed

    def test_index_interchange(self):
        for params in [(2, 1, 1, 0), (3, 2, 2, 1), (1, 3, 0, 2)]:
            assert verify_bigident_index_swap(*params).equal

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            verify_bigident(1, 1, 2, 0)
        with pytest.raises(ValueError):
            verify_bigident(1, 1, 0, 2)

    def test_symbolic_agrees_with_point_samples(self):
        # an exact evaluation, independent of the canonical equality that
        # _instance decides on
        inst = verify_bigident(2, 2, 1, 1)
        for point in [(0, 0, 0), (1, 2, 3), (-2, 5, -7)]:
            pt = [Fraction(v) for v in point]
            assert inst.lhs.evaluate(pt) == inst.rhs.evaluate(pt)


class TestSampleCheck:
    def test_points_are_the_seeded_draws(self):
        # the points every instance used to draw from its own fresh rng
        for legs in range(1, MAX_LEGS + 1):
            rng = random.Random(SAMPLE_SEED)
            draws = [[Fraction(rng.randint(-10, 10)) for _ in range(legs)]
                     for _ in range(SAMPLE_COUNT)]
            assert [list(p) for p in SAMPLE_POINTS[legs]] == draws

    def test_fails_on_a_pair_that_agrees_at_some_points_only(self):
        x = DPoly.variable(1, 1)
        points = SAMPLE_POINTS[1]
        for agree_at in (0, len(points) - 1):
            c = DPoly.const(1, points[agree_at][0])
            agree = [x.evaluate(p) == c.evaluate(p) for p in points]
            assert any(agree) and not all(agree)
            assert _sample_check(x, c) is False
        assert _sample_check(x, x) is True

    def test_one_evaluation_per_side_and_point(self, monkeypatch):
        # each side is evaluated once at each point, at u = 0
        calls = []
        evaluate = DPoly.evaluate

        def counting(self, point, u_value=0):
            calls.append((self, point, u_value))
            return evaluate(self, point, u_value)

        inst = verify_bigident(2, 1, 1, 1)
        monkeypatch.setattr(DPoly, "evaluate", counting)
        assert _sample_check(inst.lhs, inst.rhs) is True
        assert [(id(side), point, u_value) for side, point, u_value in calls
                ] == [(id(side), point, 0) for point in SAMPLE_POINTS[3]
                      for side in (inst.lhs, inst.rhs)]


class TestChains:
    def test_left_chain(self):
        rep = verify_identity_chain("L", bound=3)
        assert rep.passed, rep.failure

    def test_right_chain(self):
        rep = verify_identity_chain("R", bound=2)
        assert rep.passed, rep.failure

    def test_unknown_chain(self):
        with pytest.raises(ValueError):
            verify_identity_chain("X")

    def test_final_regrouping_at_integers(self):
        # oracle: integer binomials, evaluated at y=0 with l=2, k=1, k'=0
        y = DPoly.variable(2, 2)
        lhs = binom_poly(-y + 2, 1) * binom_poly(-y + 2, 0)
        rhs = binom_poly(-y + 2, 1) * int_binom(1, 0)
        assert lhs.evaluate([0, 0]) == 2
        assert rhs.evaluate([0, 0]) == 2

    def test_reflection_with_trivial_index(self):
        # first chain identity at l1 = 0: both sides are 1
        y = DPoly.variable(2, 2)
        assert binom_poly(y - 1 - 2, 0) == DPoly.const(2, 1)
        assert binom_poly(-y + 2, 0) == DPoly.const(2, 1)


class TestSuites:
    @pytest.mark.parametrize("bound,rule", [
        (-1, r"an int in 0\.\.32767, got -1"), (2.0, "an int"),
        (True, "an int")], ids=["-1", "2.0", "True"])
    @pytest.mark.parametrize("chain", ["bigident", "L", "R"])
    def test_negative_bound_rejected(self, chain, bound, rule):
        # a bound of -1 used to pass with 0 instances, True with 2
        with pytest.raises(ValueError, match="bound must be " + rule):
            verify_identity_chain(chain, bound)

    def test_first_chain_L_instance_builds_no_index_pairs(self):
        # L4, L6 and L8 read O(bound^2) pairs (k, k'); a list of them, built
        # before the first instance, took 8.6 MiB at bound 500
        tracemalloc.start()
        try:
            next(identities._chain_L_instances(500))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_broken_bigident_instance_is_reported(self, monkeypatch):
        real = identities.verify_bigident
        good = real(1, 1, 1, 0)

        def slipped(k, l, A, C):
            if (k, l, A, C) != (1, 1, 1, 0):
                return real(k, l, A, C)
            return identities._instance("bigident", good.params, good.lhs,
                                        good.rhs + 1)

        monkeypatch.setattr(identities, "verify_bigident", slipped)
        rep = verify_identity_chain("bigident", 1)
        assert not rep.passed
        assert rep.failure == {"chain": "bigident",
                               "params": {"k": 1, "l": 1, "A": 1, "C": 0},
                               "left": str(good.lhs),
                               "right": str(good.rhs + 1)}
        assert rep.notes == ["9 instances checked"]

    def test_broken_chain_L_instance_is_reported(self, monkeypatch):
        real = identities._instance
        broken = ("L6", {"k": 1, "k'": 0, "l1": 1, "l2": 0})
        seen = []

        def slipped(chain, params, lhs, rhs):
            if (chain, params) == broken:
                seen.append((lhs, rhs + 1))
                rhs = rhs + 1
            return real(chain, params, lhs, rhs)

        monkeypatch.setattr(identities, "_instance", slipped)
        rep = verify_identity_chain("L", 1)
        assert not rep.passed
        [(lhs, rhs)] = seen
        assert rep.failure == {"chain": "L6", "params": broken[1],
                               "left": str(lhs), "right": str(rhs)}
        assert rep.notes == ["54 instances checked"]

    def test_suites_decide_on_canonical_equality_alone(self, monkeypatch):
        # equal canonical sides agree at every point, so no suite samples
        def unreachable(lhs, rhs):
            raise AssertionError("_sample_check called")

        monkeypatch.setattr(identities, "_sample_check", unreachable)
        for chain in identities.SUITES:
            rep = verify_identity_chain(chain, 2)
            assert rep.passed, rep.failure

    def test_bigident_yields_each_instance_once(self):
        r = range(3)
        expected = [(k, l, A, C) for k in r for l in r
                    for A in range(k + 1) for C in range(l + 1)]
        seen = [(inst.chain, tuple(inst.params[n] for n in "klAC"))
                for inst in identities._bigident_instances(2)]
        assert seen == [("bigident", params) for params in expected]

    def test_index_swap_builds_the_same_polynomials(self):
        # why the suite does not run the swap: exact addition is
        # commutative, so the reversed sums are the same canonical DPolys
        for k, l in product(range(4), range(4)):
            for A, C in product(range(k + 1), range(l + 1)):
                inst = verify_bigident(k, l, A, C)
                swap = verify_bigident_index_swap(k, l, A, C)
                assert (swap.lhs, swap.rhs) == (inst.lhs, inst.rhs)

    @pytest.mark.parametrize("name", ["_chain_L_instances",
                                      "_chain_R_instances"])
    def test_chains_yield_one_instance_at_a_time(self, name):
        # the chains are iterators, as the bigident suite is: no list of
        # every instance is built before the first is checked
        instances = getattr(identities, name)(1)
        assert iter(instances) is instances
        assert next(instances).equal


class TestIndependenceDet:
    def test_order_zero(self):
        assert independence_det(0) == 1

    def test_order_one(self):
        assert independence_det(1) == -1

    def test_order_two(self):
        # oracle: exact determinant of [[1,0,0],[1,-1,0],[1,-2,1]]
        assert independence_det(2) == -1

    @pytest.mark.parametrize("n", [*range(9), 100])
    def test_unimodular(self, n):
        assert abs(independence_det(n)) == 1

    @pytest.mark.parametrize("n", [*range(9), 100])
    def test_signed_value_is_product_of_diagonal(self, n):
        # the matrix is triangular with (-1)^k on the diagonal, every entry
        # an int
        assert independence_det(n) == (-1) ** (n * (n + 1) // 2)
        assert type(independence_det(n)) is int

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            independence_det(-1)

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_n_products_build_p_0_to_p_n(self, monkeypatch, n):
        # p_(n+1) is never formed: at n = 32767 its u-degree 32768 raises
        # in the kernel, and the check would fail a valid order
        products = []
        mul = DPoly.__mul__
        monkeypatch.setattr(DPoly, "__mul__",
                            lambda a, b: products.append(b) or mul(a, b))
        assert abs(independence_det(n)) == 1
        assert len(products) == n

    def test_one_basis_polynomial_at_a_time(self):
        # each p_k = (u-1)^k is dropped once its constant term is read, so
        # no (n+1) x (n+1) matrix of big ints is held (9.4 MiB at n = 500)
        tracemalloc.start()
        try:
            assert identities.check_independence(500).passed
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestIndependenceOrder:
    """An order outside 0..32767 is refused before any row is built: row 0,
    u^n, has u-degree n, and a key holds at most 32767.  The rows are the
    powers of UPoly.u() - 1, so a UPoly.u that raises marks a row begun."""

    class RowBegun(Exception):
        pass

    @classmethod
    def unbuilt(cls, monkeypatch):
        def u():
            raise cls.RowBegun
        monkeypatch.setattr(UPoly, "u", staticmethod(u))

    @pytest.mark.parametrize("n,rule", [
        (-1, r"an int in 0\.\.32767, got -1"),
        (MAX_DEGREE + 1, r"an int in 0\.\.32767, got 32768"),
        (2.0, "an int"), (True, "an int")], ids=["-1", "32768", "2.0", "True"])
    @pytest.mark.parametrize("check", ["independence_det",
                                       "check_independence"])
    def test_out_of_range_raises_before_any_row(self, monkeypatch, check, n,
                                                rule):
        self.unbuilt(monkeypatch)
        with pytest.raises(ValueError, match="must be " + rule):
            getattr(identities, check)(n)

    @pytest.mark.parametrize("check", ["independence_det",
                                       "check_independence"])
    def test_largest_order_reaches_its_first_row(self, monkeypatch, check):
        self.unbuilt(monkeypatch)
        with pytest.raises(self.RowBegun):
            getattr(identities, check)(MAX_DEGREE)


class TestIndependenceMutations:
    """independence_det builds its rows from UPoly.u(), so a mutated UPoly.u
    reaches the check."""

    def test_term_above_u_to_the_n_fails_naming_its_row(self, monkeypatch):
        # with the step u + u^2 - 1, row 1 is (u^2 + u - 1) u^2: its u^4
        # term has no column, and reading only columns hid it
        u = UPoly.u
        monkeypatch.setattr(UPoly, "u", staticmethod(lambda: u() + u() * u()))
        rep = identities.check_independence(3)
        assert not rep.passed
        assert rep.notes == ["row 1 has a term above u^3"]

    def test_pivots_minus_two_fail_with_their_product(self, monkeypatch,
                                                     capsys):
        # with the step u - 2, row k is (u-2)^k u^(3-k): the diagonal
        # 1, -2, 4, -8 multiplies to 64
        u = UPoly.u
        monkeypatch.setattr(UPoly, "u", staticmethod(lambda: u() - 1))
        rep = identities.check_independence(3)
        assert not rep.passed
        assert rep.notes == ["det = 64"]
        assert cli.main(["identities", "--det", "3"]) == 1
        out, err = capsys.readouterr()
        assert out.splitlines() == ["independence   FAIL order=3",
                                    "    note: det = 64"]
        assert err == ""
