import random
import re
from decimal import Decimal
from fractions import Fraction
from functools import partial

import pytest

from jortwist.exactalg import MAX_DEGREE, DPoly, UPoly, binom_poly
from jortwist.borel import (TensorElement, conjugate, exp_series,
                            first_difference, geometric_inverse,
                            log1p_series)
from jortwist import borel, cli, identities, twists
from jortwist.twists import (build_twist, check_cocycle, check_endpoints,
                             check_form_equality, check_hopf_data,
                             check_LR_relation, check_normalization,
                             check_v_family, lr_factor, mutate_coefficient,
                             run_suite, target_antipode, target_coproduct)

from conftest import random_element


def one(legs, n):
    return TensorElement.one(legs, n)


def P(n):
    return TensorElement.momentum_p(n)


def Q(n):
    return TensorElement.momentum_q(n)


def D(n):
    return TensorElement.dilatation(n)


U = UPoly.u()
# u values that are not exact rationals (None is symbolic u)
NOT_EXACT = (0.5, 0.1, Decimal("0.5"), "1/2", U)


def refuse_inversion(monkeypatch):
    """Make geometric_inverse raise under both names twists could reach."""
    def refused(element):
        raise AssertionError("geometric_inverse called")
    monkeypatch.setattr(borel, "geometric_inverse", refused)
    monkeypatch.setattr(twists, "geometric_inverse", refused)


def recorded_builds(monkeypatch, check):
    """Run check(), which must pass with no geometric_inverse call: the
    argument tuples of its build_twist calls."""
    builds = []
    build = twists.build_twist
    refuse_inversion(monkeypatch)
    monkeypatch.setattr(twists, "build_twist",
                        lambda *a: builds.append(a) or build(*a))
    assert check().passed
    return builds


class TestBuildTwist:
    def test_momentum_side_twist_structure(self):
        # sum_k (-P/kappa)^k (x) binom(-D, k), written out at N=2
        F0 = build_twist("0", "twist", 2)
        y = DPoly.variable(2, 2)
        expected = TensorElement(2, 2, {
            ((0, 0), (0, 0)): DPoly.const(2, 1),
            ((1, 0), (0, 0)): binom_poly(-y, 1) * -1,
            ((2, 0), (0, 0)): binom_poly(-y, 2),
        })
        assert F0 == expected

    def test_order_zero_is_unit(self):
        assert build_twist("L", "twist", 0) == one(2, 0)

    def test_interpolating_family_first_order(self):
        # oracle: the k+l=1 terms of the closed double sum
        F = build_twist("L", "twist", 1)
        expected = (one(2, 1) + P(1).tensor(D(1)).scale(1 - U)
                    - D(1).tensor(P(1)).scale(U))
        assert F == expected

    def test_rational_u_mode_agrees_with_specialization(self):
        for fam, direction in (("L", "twist"), ("R", "inverse")):
            sym = build_twist(fam, direction, 3)
            for u0 in (0, 1, Fraction(1, 2), -1, Fraction(3, 7)):
                assert (build_twist(fam, direction, 3, u0)
                        == sym.specialize_u(u0))

    def test_unsupported_combinations_raise(self):
        assert twists.FORMS == ("product",)
        with pytest.raises(ValueError):
            build_twist("0", "twist", 2, form="product")
        with pytest.raises(ValueError):
            build_twist("X", "twist", 2)
        for N in (-1, 2.0, True):
            with pytest.raises(ValueError, match=r"truncation order must "
                               r"be an int in 0\.\.32767, got"):
                build_twist("L", "twist", N)
        # floats never enter the algebra: a u that is not exact is refused
        for u in NOT_EXACT:
            for form in (None,) + twists.FORMS:
                with pytest.raises(ValueError, match="exact rational, got"):
                    build_twist("L", "twist", 2, u=u, form=form)

    @pytest.mark.parametrize("family", ["0", "1"])
    def test_u_for_an_endpoint_family_raises(self, family):
        # F0 and F1 have no u; a u given for them is refused, not ignored,
        # and so are the product form, the Hopf data targets and the
        # endpoint check, which are built from u: one rule refuses them all
        for call in (partial(build_twist, family, "twist", 2,
                             u=Fraction(1, 2)),
                     partial(build_twist, family, "twist", 2, form="product"),
                     partial(target_coproduct, family, "P", 2),
                     partial(target_antipode, family, "D", 2),
                     partial(check_endpoints, family, 2)):
            with pytest.raises(ValueError, match="applies to families L and "
                               "R only; family %s has no u" % family):
                call()

    def test_unknown_direction_raises(self):
        # the product form reads the direction as an inverse flag, so an
        # unknown direction must be refused before any form is built
        for family in twists.FAMILIES:
            for form in (None,) + twists.FORMS:
                with pytest.raises(ValueError, match="unknown"):
                    build_twist(family, "inverses", 1, form=form)


class TestTargets:
    def test_momentum_coproduct_first_order(self):
        # oracle: first-order expansion of the deformed coproduct
        t = target_coproduct("L", "Q", 1)
        q, o, p = Q(1), one(1, 1), P(1)
        expected = (q.tensor(o) + o.tensor(q)
                    + q.tensor(p).scale(U) - p.tensor(q).scale(1 - U))
        assert t == expected

    def test_lr_factor_is_unit_at_first_order(self):
        assert lr_factor(1) == one(2, 1)

    def test_lr_factor_second_order(self):
        # geometric series: one term survives at N=2
        expected = one(2, 2) - P(2).tensor(P(2)).scale(U * (1 - U))
        assert lr_factor(2) == expected

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError, match="unknown generator"):
            target_coproduct("L", "bogus", 2)
        with pytest.raises(ValueError, match="unknown generator"):
            target_antipode("R", "X", 2)


class TestNormalization:
    def test_interpolating_family(self):
        assert check_normalization("L", 4).passed

    def test_unit(self, monkeypatch):
        calls = []
        monkeypatch.setattr(twists, "_closed_L", lambda N, u=None:
                            calls.append(N) or one(2, N))
        rep = check_normalization("L", 2)
        assert rep.passed
        assert calls == [2]

    def test_corrupted_twist_fails(self, monkeypatch):
        closed = twists._closed_F0
        monkeypatch.setattr(twists, "_closed_F0", lambda N, inverse=False:
                            closed(N, inverse) + P(N).tensor(one(1, N)))
        rep = check_normalization("0", 2)
        assert not rep.passed

    def test_counits_read_the_transcribed_series(self, monkeypatch):
        # family R's printed series is its inverse; the counits are algebra
        # maps, so they are applied to it as printed, not to its twist
        assert recorded_builds(monkeypatch, lambda: check_normalization(
            "R", 4)) == [("R", "inverse", 4, None)]
        assert check_normalization("R", 4).params["via_inverse"] is True
        assert check_normalization("L", 4).params["via_inverse"] is False

    def test_counit_surviving_bump_fails_at_its_grade(self, monkeypatch):
        # 1 (x) P^2 D keeps its first leg at (0, 0) and D on the second, so
        # eps (x) id leaves P^2 D, a grade-2 difference; id (x) eps drops it
        closed = twists._closed_R_inverse
        monkeypatch.setattr(twists, "_closed_R_inverse", lambda N, u=None:
                            mutate_coefficient(closed(N, u),
                                               ((0, 0), (2, 0)), (0, 1), 1))
        rep = check_normalization("R", 3)
        assert not rep.passed
        assert rep.grades == {0: True, 1: True, 2: False, 3: True}
        assert rep.failure["grade"] == 2

    def test_merged_failure_is_the_lowest_grade(self, monkeypatch):
        # eps (x) id, compared first, keeps the bump 1 (x) P^2 at grade 2;
        # id (x) eps keeps P (x) 1 at grade 1, the lower one
        closed = twists._closed_L

        def bumped(N, u=None):
            F = mutate_coefficient(closed(N, u), ((1, 0), (0, 0)), (0, 0), 1)
            return mutate_coefficient(F, ((0, 0), (2, 0)), (0, 0), 1)

        monkeypatch.setattr(twists, "_closed_L", bumped)
        rep = check_normalization("L", 3)
        assert rep.grades == {0: True, 1: False, 2: False, 3: True}
        assert rep.failure["grade"] == 1


class TestCocycle:
    def test_jordanian_twist(self):
        rep = check_cocycle("0", 4)
        assert rep.passed
        assert any("matches" in n for n in rep.notes)

    def test_trivial_order(self):
        assert check_cocycle("L", 0).passed

    def test_inverse_form_of_condition(self):
        # family R's transcribed series is its inverse
        rep = check_cocycle("R", 3)
        assert rep.passed and rep.params["via_inverse"] is True
        assert check_cocycle("L", 3).params["via_inverse"] is False

    def test_corrupted_grade_two_fails_at_grade_two(self, monkeypatch):
        closed = twists._closed_L
        monkeypatch.setattr(twists, "_closed_L", lambda N, u=None:
                            mutate_coefficient(closed(N, u),
                                               ((1, 0), (1, 0)), (1, 0), 1))
        rep = check_cocycle("L", 2)
        assert not rep.passed
        assert rep.grades[0] and rep.grades[1]
        assert not rep.grades[2]
        assert rep.failure["grade"] == 2
        # the two sides' coefficients at symbolic u, printed by str(UPoly)
        assert rep.failure["momenta"] == ((0, 0), (1, 0), (1, 0))
        assert rep.failure["dilatation_exponents"] == (1, 0, 0)
        assert (rep.failure["left"], rep.failure["right"]) == (
            "-u^2+u+1", "-u^2+u")

    def test_symmetric_momentum_corruption_surfaces_at_grade_three(
            self, monkeypatch):
        # a constant times P (x) P is itself a 2-cocycle to leading order
        # (the same structure as the factor relating the two families), so
        # corrupting that one coefficient is invisible at grade 2 and is
        # caught one grade later
        closed = twists._closed_L
        monkeypatch.setattr(twists, "_closed_L", lambda N, u=None:
                            mutate_coefficient(closed(N, u),
                                               ((1, 0), (1, 0)), (0, 0), 1))
        rep = check_cocycle("L", 3)
        assert not rep.passed
        assert rep.grades[2]
        assert rep.failure["grade"] == 3

    @pytest.mark.parametrize("key, grade", [(((1, 0), (1, 0)), 3),
                                            (((0, 0), (2, 0)), 2)],
                             ids=["P-P", "1-P2"])
    def test_bumped_right_series_fails_at_its_grade(self, monkeypatch, key,
                                                    grade):
        # the inverse form of the condition: a constant times P (x) P is
        # again caught one grade late, 1 (x) P^2 at its own grade
        closed = twists._closed_R_inverse
        monkeypatch.setattr(twists, "_closed_R_inverse", lambda N, u=None:
                            mutate_coefficient(closed(N, u), key, (0, 0), 1))
        rep = check_cocycle("R", 4)
        assert not rep.passed
        assert min(n for n, ok in rep.grades.items() if not ok) == grade
        assert rep.failure["grade"] == grade


class TestEndpoints:
    @pytest.mark.parametrize("family", ["L", "R"])
    def test_both_families(self, family):
        rep = check_endpoints(family, 6)
        assert rep.passed

    def test_families_coincide_at_u_one(self):
        # at u = 1 the lr factor is 1 (x) 1, as lr-relation proves at
        # symbolic u; here the two printed series are multiplied directly
        assert (build_twist("L", "twist", 5, 1)
                * build_twist("R", "inverse", 5, 1) == one(2, 5))

    @pytest.mark.parametrize("check", [
        lambda: check_endpoints("L", 4), lambda: check_endpoints("R", 4),
        lambda: check_v_family(4)], ids=["endpoints-L", "endpoints-R",
                                         "vfamily"])
    def test_bumped_f1_fails_at_grade_two(self, monkeypatch, check):
        # F1 and F1^-1 each shifted by the constant 1 (x) P^2: L's endpoints
        # and the v-family compare against F1, R's endpoints against F1^-1,
        # so each first differs at grade 2
        closed = twists._closed_F1
        monkeypatch.setattr(twists, "_closed_F1", lambda N, inverse=False:
                            mutate_coefficient(closed(N, inverse),
                                               ((0, 0), (2, 0)), (0, 0), 1))
        rep = check()
        assert not rep.passed
        assert min(n for n, ok in rep.grades.items() if not ok) == 2
        assert rep.failure["grade"] == 2
        assert rep.failure["momenta"] == ((0, 0), (2, 0))

    @pytest.mark.parametrize("end, direction, family", [
        ("0", "twist", "L"), ("1", "twist", "L"),
        ("0", "inverse", "R"), ("1", "inverse", "R")])
    def test_each_endpoint_builder_is_checked_in_its_direction(
            self, monkeypatch, end, direction, family):
        # one builder in one direction shifted by a constant at grade 2,
        # on the leg its momenta sit on: the family whose printed series is
        # in that direction fails there, the other family and lr pass
        key = ((2, 0), (0, 0)) if end == "0" else ((0, 0), (2, 0))
        name = "_closed_F" + end
        closed = getattr(twists, name)
        monkeypatch.setattr(twists, name, lambda N, inverse=False: (
            mutate_coefficient(closed(N, inverse), key, (0, 0), 1)
            if inverse == (direction == "inverse") else closed(N, inverse)))
        rep = check_endpoints(family, 4)
        assert not rep.passed
        assert rep.grades == {0: True, 1: True, 2: False, 3: True, 4: True}
        assert rep.failure["momenta"] == key
        assert check_endpoints("LR".replace(family, ""), 4).passed
        assert check_LR_relation(4).passed

    @pytest.mark.parametrize("family, notes", [
        ("L", ["u=0: twist equals F0", "u=1: twist equals F1"]),
        ("R", ["u=0: inverse equals F0^-1", "u=1: inverse equals F1^-1"])])
    def test_notes_name_the_printed_direction(self, family, notes):
        assert check_endpoints(family, 2).notes == notes


class TestFormEquality:
    def test_left_family_order_three(self):
        assert check_form_equality("L", 3).passed

    def test_right_family_order_three(self):
        assert check_form_equality("R", 3).passed

    def test_trivial_order(self):
        assert check_form_equality("L", 0).passed

    def test_rational_u(self):
        assert check_form_equality("L", 4, Fraction(3, 7)).passed

    @pytest.mark.parametrize("family, direction",
                             [("L", "twist"), ("R", "inverse")])
    def test_builds_the_transcribed_direction_only(self, monkeypatch,
                                                   family, direction):
        builds = recorded_builds(
            monkeypatch, lambda: check_form_equality(family, 3))
        assert builds == [(family, direction, 3, None, "product"),
                          (family, direction, 3, None)]

    @pytest.mark.parametrize("family, closed",
                             [("L", "_closed_L"), ("R", "_closed_R_inverse")])
    def test_closed_series_bump_fails_at_grade_two(self, monkeypatch,
                                                   family, closed):
        unbumped = getattr(twists, closed)
        monkeypatch.setattr(twists, closed, lambda N, u=None:
                            mutate_coefficient(unbumped(N, u),
                                               ((1, 0), (1, 0)), (1, 0), 1))
        rep = check_form_equality(family, 3)
        assert not rep.passed
        assert rep.grades == {0: True, 1: True, 2: False, 3: True}
        assert rep.failure["grade"] == 2
        assert check_form_equality("LR".replace(family, ""), 3).passed


class TestHopfData:
    def test_momentum_conjugation_correction(self):
        # oracle: hand expansion; the first correction is (2u-1)/kappa P (x) P
        n = 3
        F, Finv = build_twist("L", "twist", n), build_twist("L", "inverse", n)
        conj = conjugate(F, P(n), Finv)
        assert conj.grade_slice(1) == P(n).coproduct(1)
        assert conj.grade_slice(2) == P(n).tensor(P(n)).scale(2 * U - 1)

    def test_dilatation_trivial_order(self):
        F = build_twist("L", "twist", 0)
        conj = conjugate(F, D(0), F)
        assert conj == D(0).coproduct(1)

    def test_jordanian_antipode_of_dilatation(self):
        # oracle: the printed closed form at u=0, -(1 - P/kappa) D
        n = 3
        F = build_twist("L", "twist", n, Fraction(0))
        chi = F.fold_mul_antipode()
        sfd = chi * D(n).antipode() * geometric_inverse(chi)
        assert sfd == -((one(1, n) - P(n)) * D(n))

    @pytest.mark.parametrize("family", ["L", "R"])
    @pytest.mark.parametrize("generator", ["P", "Q", "D"])
    def test_all_generators(self, family, generator):
        reports = dict(zip("PQD", check_hopf_data(family, 3)))
        assert reports[generator].params["generator"] == generator
        assert reports[generator].passed

    def test_twist_and_chi_built_once_per_family(self, monkeypatch):
        # F is built once, and chi once, for all three generators
        calls = {"build_twist": 0, "fold_mul_antipode": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(twists, "build_twist",
                            counted("build_twist", twists.build_twist))
        monkeypatch.setattr(TensorElement, "fold_mul_antipode", counted(
            "fold_mul_antipode", TensorElement.fold_mul_antipode))
        reports = run_suite(["hopf"], order=2, family="L")
        assert [r.params["generator"] for r in reports] == ["P", "Q", "D"]
        assert calls == {"build_twist": 1, "fold_mul_antipode": 1}

    @pytest.mark.parametrize("family", ["L", "R"])
    @pytest.mark.parametrize("target, generator, key, exps", [
        ("target_coproduct", "P", ((1, 0), (1, 0)), (1, 0)),
        ("target_antipode", "D", ((2, 0),), (1,))])
    def test_corrupted_target_fails_at_grade_two(self, monkeypatch, family,
                                                 target, generator, key, exps):
        # F and chi have grade-0 part 1, so a target T shifted by one
        # grade-2 monomial makes T F (or T chi) first differ there
        printed = getattr(twists, target)

        def corrupted(fam, gen, N, u=None):
            res = printed(fam, gen, N, u)
            return (mutate_coefficient(res, key, exps, 1) if gen == generator
                    else res)

        monkeypatch.setattr(twists, target, corrupted)
        reports = dict(zip("PQD", check_hopf_data(family, 4)))
        rep = reports.pop(generator)
        assert not rep.passed
        assert min(n for n, ok in rep.grades.items() if not ok) == 2
        assert rep.failure["momenta"] == key
        assert rep.failure["dilatation_exponents"] == exps
        assert all(r.passed for r in reports.values())

    @pytest.mark.parametrize("family", ["L", "R"])
    @pytest.mark.parametrize("generator, grade", [("P", 1), ("Q", 0),
                                                  ("D", 0)])
    def test_negated_antipode_target_fails(self, monkeypatch, family,
                                           generator, grade):
        # the sign of each printed antipode is declared, not searched for,
        # so a target of the wrong sign fails at its lowest grade
        printed = twists.target_antipode

        def negated(fam, gen, N, u=None):
            res = printed(fam, gen, N, u)
            return -res if gen == generator else res

        monkeypatch.setattr(twists, "target_antipode", negated)
        reports = dict(zip("PQD", check_hopf_data(family, 3)))
        rep = reports.pop(generator)
        assert not rep.passed
        assert rep.failure["grade"] == grade
        assert all(r.passed for r in reports.values())

    def test_bumped_left_series_fails_the_right_targets(self, monkeypatch):
        # R's twist is core F_L, so a constant added to the printed F_L at
        # P (x) P fails R's printed targets, as it fails L's
        closed = twists._closed_L
        monkeypatch.setattr(twists, "_closed_L", lambda N, u=None:
                            mutate_coefficient(closed(N, u), ((1, 0), (1, 0)),
                                               (0, 0), 1))
        reports = dict(zip("PQD", check_hopf_data("R", 4)))
        for generator, grade in (("P", 4), ("Q", 3), ("D", 2)):
            assert not reports[generator].passed
            assert reports[generator].failure["grade"] == grade

    def test_momentum_antipode_sign_is_resolved(self):
        # the two families must share the same antipode on momenta; the
        # computed sign is negative, so the printed left-family formula
        # (no minus) is the typo and the right-family one is correct
        rep_l = check_hopf_data("L", 3)[1]
        rep_r = check_hopf_data("R", 3)[1]
        assert rep_l.params["generator"] == rep_r.params["generator"] == "Q"
        assert ("printed sign erratum (ANTIPODE_ERRATA): target compared "
                "negated") in rep_l.notes
        assert any("matches the printed" in n for n in rep_r.notes)

    def test_deformed_counit(self):
        # (eps (x) id) of the deformed coproduct returns the generator
        n = 3
        for fam in ("L", "R"):
            F = build_twist(fam, "twist", n)
            Finv = build_twist(fam, "inverse", n)
            for g in (P(n), Q(n), D(n)):
                conj = conjugate(F, g, Finv)
                assert conj.counit_contract(1) == g
                assert conj.counit_contract(2) == g

    @pytest.mark.parametrize("generator", ["P", "D"])
    def test_twisted_coassociativity(self, generator):
        # corollary of the cocycle condition, checked independently
        n = 3
        F, Finv = build_twist("L", "twist", n), build_twist("L", "inverse", n)
        g = P(n) if generator == "P" else D(n)
        dg = conjugate(F, g, Finv)
        o = one(1, n)
        lhs = F.tensor(o) * dg.coproduct(1) * Finv.tensor(o)
        rhs = o.tensor(F) * dg.coproduct(2) * o.tensor(Finv)
        assert lhs == rhs


class TestRelations:
    def test_lr_relation_low_order(self):
        # oracle: grade-2 hand expansion; the factor first appears there,
        # as -u(1-u)/kappa^2 P (x) P
        rep = check_LR_relation(2)
        assert rep.passed
        lhs = build_twist("L", "twist", 2) * build_twist("R", "inverse", 2)
        assert lhs.grade_slice(2) == P(2).tensor(P(2)).scale(U * U - U)

    def test_lr_relation_at_u_zero(self):
        assert (build_twist("L", "twist", 4, 0)
                * build_twist("R", "inverse", 4, 0) == one(2, 4))
        assert lr_factor(4, 0) == one(2, 4)

    def test_bumped_lr_factor_fails_from_grade_two(self, monkeypatch):
        # the factor is one side of F_L F_R^-1 = factor, so a constant
        # added to it at P (x) P makes the sides differ at grade 2 alone
        factor = twists.lr_factor
        monkeypatch.setattr(twists, "lr_factor", lambda N, u=None:
                            mutate_coefficient(factor(N, u), ((1, 0), (1, 0)),
                                               (0, 0), 1))
        rep = check_LR_relation(4)
        assert rep.grades == {0: True, 1: True, 2: False, 3: True, 4: True}
        assert rep.failure["grade"] == 2

    @pytest.mark.parametrize("key, grade", [(((1, 0), (1, 0)), 2),
                                            (((2, 0), (0, 0)), 2),
                                            (((0, 0), (1, 0)), 1)],
                             ids=["P-P", "P2-1", "1-P"])
    def test_bumped_left_series_fails_from_its_grade(self, monkeypatch, key,
                                                     grade):
        # F_R^-1 has grade-0 part 1, so a constant added to F_L at a key
        # changes F_L F_R^-1 from that key's grade upwards
        closed = twists._closed_L
        monkeypatch.setattr(twists, "_closed_L", lambda N, u=None:
                            mutate_coefficient(closed(N, u), key, (0, 0), 1))
        rep = check_LR_relation(4)
        assert rep.grades == {n: n < grade for n in range(5)}
        assert rep.failure["grade"] == grade
        assert rep.failure["momenta"] == key

    @pytest.mark.parametrize("check, printed", [
        (lambda: check_LR_relation(3), [("L", "twist", 3, None),
                                        ("R", "inverse", 3, None)]),
        (lambda: check_endpoints("L", 3), [("L", "twist", 3),
                                           ("0", "twist", 3),
                                           ("1", "twist", 3)]),
        (lambda: check_endpoints("R", 3), [("R", "inverse", 3),
                                           ("0", "inverse", 3),
                                           ("1", "inverse", 3)])],
        ids=["lr", "endpoints-L", "endpoints-R"])
    def test_builds_the_printed_directions_only(self, monkeypatch, check,
                                                printed):
        # neither check builds a direction the paper does not print, and
        # neither inverts anything: lr's factor is a closed table too
        assert recorded_builds(monkeypatch, check) == printed

    def test_lr_relation_symbolic(self):
        assert check_LR_relation(4).passed

    def test_half_u_right_family_is_a_twist(self):
        u_half = Fraction(1, 2)
        assert check_normalization("R", 4, u_half).passed
        assert check_cocycle("R", 4, u_half).passed


def three_exponentials(c, N, u=None, inverse=False):
    """Oracle: the product form as three exponentials of 2-leg exponents,

    exp(u (h (x) 1 + 1 (x) h)) exp(-ln(1 - P/kappa) (x) D) exp(-u Delta h),

    with h = P(D + c), and for the inverse the exponents reversed and
    negated; it builds neither chi nor a 1-leg exponential."""
    uu = U if u is None else Fraction(u)
    h = TensorElement(1, N, {((1, 0),): DPoly(1, {(1,): 1, (0,): c})})
    exponents = [(h.tensor(one(1, N)) + one(1, N).tensor(h)).scale(uu),
                 -log1p_series(-P(N)).tensor(D(N)),
                 h.coproduct(1).scale(-uu)]
    if inverse:
        exponents = [-a for a in reversed(exponents)]
    f1, f2, f3 = (exp_series(a) for a in exponents)
    return f1 * f2 * f3


@pytest.mark.parametrize("inverse", [False, True], ids=["twist", "inverse"])
@pytest.mark.parametrize("c, u", [(-1, None), (0, None), (U - 1, 1)],
                         ids=["L", "R", "v"])
def test_product_family_is_the_three_exponentials(c, u, inverse):
    for N in range(7):
        assert twists._product_family(c, N, u, inverse) == three_exponentials(
            c, N, u, inverse)


class TestVFamily:
    def test_zero_cochain_shift(self):
        # v = 0 is the left family at u = 1
        rep = check_v_family(4)
        assert rep.passed
        assert rep.params == {"order": 4, "u": "1", "v": "symbolic"}
        assert rep.notes == ["u in a coefficient stands for v"]
        assert (twists._product_family(U - 1, 4, 1).specialize_u(0)
                == build_twist("L", "twist", 4, 1, "product"))

    def test_trivial_order(self):
        assert check_v_family(0).passed

    def test_negative_shift(self):
        # v = -2 is the cochain DP - 2P, c = -3
        assert (twists._product_family(U - 1, 4, 1).specialize_u(-2)
                == twists._product_family(-3, 4, 1) == twists._closed_F1(4))

    def test_bump_vanishing_at_the_samples_fails_at_grade_two(
            self, monkeypatch):
        # v(v+2)(2v-1) (1 (x) P^2) is zero at v = -2, 0 and 1/2, so the
        # bumped element equals F1 at each of these v; only a comparison
        # for every v sees it
        product = twists._product_family
        bump = U * (U + 2) * (2 * U - 1)
        monkeypatch.setattr(twists, "_product_family", lambda *args:
                            mutate_coefficient(product(*args),
                                               ((0, 0), (2, 0)), (0, 0), bump))
        rep = check_v_family(4)
        assert not rep.passed
        assert rep.grades == {0: True, 1: True, 2: False, 3: True, 4: True}
        assert rep.failure["grade"] == 2
        assert rep.failure["momenta"] == ((0, 0), (2, 0))
        bumped = twists._product_family(U - 1, 4, 1)
        for v in (-2, 0, Fraction(1, 2)):
            assert bumped.specialize_u(v) == twists._closed_F1(4)


class TestSpecializeCommutes:
    @pytest.mark.parametrize("u0", [0, Fraction(1, 2), 1, -1, Fraction(3, 7)])
    def test_cocycle_at_rational_u(self, u0):
        assert check_cocycle("L", 3, u0).passed

    @pytest.mark.parametrize("u0", [0, 1, Fraction(1, 2)])
    def test_forms_at_rational_u(self, u0):
        assert check_form_equality("L", 3, u0).passed


# (family, direction) -> whether build_twist builds its product form, the
# one form in twists.FORMS; the series (form None) builds for every pair
PRODUCT_BUILDS = {
    ("0", "twist"): False, ("0", "inverse"): False,
    ("1", "twist"): False, ("1", "inverse"): False,
    ("L", "twist"): True, ("L", "inverse"): True,
    ("R", "twist"): True, ("R", "inverse"): True,
}


@pytest.mark.parametrize("family", ["L", "R"])
def test_series_inverse_is_two_sided(family):
    # one direction is a printed series and the other the other printed
    # series times the LR core (F_R = core F_L, F_L^-1 = F_R^-1 core), so
    # F G = 1 = G F is the LR identity F_L F_R^-1 = core^-1, on either side
    F = build_twist(family, "twist", 5)
    G = build_twist(family, "inverse", 5)
    assert F * G == one(2, 5) == G * F


@pytest.mark.parametrize("fam,direction", sorted(PRODUCT_BUILDS))
def test_series_equals_the_product_form_where_one_builds(fam, direction):
    # in both directions: "forms" compares the printed one only
    series = build_twist(fam, direction, 3)
    if PRODUCT_BUILDS[fam, direction]:
        assert build_twist(fam, direction, 3, form="product") == series
    else:
        with pytest.raises(ValueError, match="the product form applies to "
                                             "families L and R only"):
            build_twist(fam, direction, 1, form="product")


@pytest.mark.parametrize("family, direction",
                         [("R", "twist"), ("L", "inverse")])
def test_bumped_core_fails_the_derived_direction_against_its_product(
        monkeypatch, family, direction):
    # the direction the paper does not print is core F_L or F_R^-1 core;
    # "forms" and "lr" read the printed series only, so they still pass
    core = twists._lr_core
    monkeypatch.setattr(twists, "_lr_core", lambda N, u=None:
                        mutate_coefficient(core(N, u), ((1, 0), (1, 0)),
                                           (0, 0), 1))
    rep = twists._compare("forms", {}, build_twist(family, direction, 4),
                          build_twist(family, direction, 4, form="product"))
    assert rep.grades == {0: True, 1: True, 2: False, 3: False, 4: False}
    assert rep.failure["momenta"] == ((1, 0), (1, 0))
    assert all(r.passed for r in run_suite(["forms", "lr"], 4))


def test_nothing_is_inverted_by_recursion(monkeypatch):
    # every direction, factor and target is a closed series, a closed
    # table or a product of them; geometric_inverse stays a reference
    refuse_inversion(monkeypatch)
    assert all(r.passed for r in run_suite())
    for fam, direction in sorted(PRODUCT_BUILDS):
        assert build_twist(fam, direction, 4).truncation == 4
        if PRODUCT_BUILDS[fam, direction]:
            assert build_twist(fam, direction, 4, form="product") == (
                build_twist(fam, direction, 4))


@pytest.mark.parametrize("u", [None, 2], ids=["symbolic", "u=2"])
def test_closed_inverses_are_the_geometric_inverses(u):
    # oracle: the grade-by-grade recursion, on the forward factors as
    # written out with one and P
    uu = U if u is None else UPoly.const(u)
    for N in range(9):
        for fam, printed in (("L", "twist"), ("R", "inverse")):
            derived = "inverse" if printed == "twist" else "twist"
            assert build_twist(fam, derived, N, u) == geometric_inverse(
                build_twist(fam, printed, N, u))
        assert lr_factor(N, u) == geometric_inverse(
            one(2, N) + P(N).tensor(P(N)).scale(uu * (1 - uu)))
        for r in (uu, uu - 1, 2 * uu - 1):  # 1 + uP, 1 - (1-u)P, 1 - (1-2u)P
            assert twists._pow1p(N, r, -1) == geometric_inverse(
                one(1, N) + P(N).scale(r))


def test_an_order_past_the_largest_exponent_is_refused_at_once(
        monkeypatch, capsys):
    # no key holds an exponent or u-degree above MAX_DEGREE, and an order or
    # bound below 0 names no series; every builder, suite and matrix raises
    # here, so each entry point refuses 32768 and -1 before building anything
    def refused(*args):
        raise AssertionError("built with %r" % (args,))
    for name in ("_closed_F0", "_closed_F1", "_closed_L", "_closed_R_inverse",
                 "_product_family"):
        monkeypatch.setattr(twists, name, refused)
    for name in ("_bigident_instances", "_chain_L_instances",
                 "_chain_R_instances", "independence_matrix"):
        monkeypatch.setattr(identities, name, refused)
    for n in (MAX_DEGREE + 1, -1):
        rule = r"must be an int in [01]\.\.32767, got %d$" % n
        calls = [partial(run_suite, [name], n) for name in twists.CHECKS]
        calls += [partial(build_twist, fam, direction, n)
                  for fam, direction in sorted(PRODUCT_BUILDS)]
        calls += [partial(identities.verify_identity_chain, chain, n)
                  for chain in identities.SUITES]
        calls += [partial(f, n) for f in (identities.independence_det,
                                          identities.check_independence,
                                          twists.check_v_family)]
        for call in calls:
            with pytest.raises(ValueError, match=rule):
                call()
        for argv in (["expand", "--family", "0", "--order"],
                     ["verify", "--all", "--order"],
                     ["identities", "--bigident", "--bound"],
                     ["identities", "--chain", "L", "--bound"],
                     ["identities", "--chain", "R", "--bound"],
                     ["identities", "--det"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv + [str(n)])
            assert exc.value.code == 2
            errors = [line for line in capsys.readouterr().err.splitlines()
                      if "error:" in line]
            assert len(errors) == 1 and re.search(rule, errors[0])


@pytest.mark.parametrize("fam,direction", sorted(PRODUCT_BUILDS))
@pytest.mark.parametrize("form", ["closed", "inverted-closed"])
def test_a_series_is_not_a_form(fam, direction, form):
    # form=None builds the series, and the product is the one form
    with pytest.raises(ValueError, match="unknown family, direction or form"):
        build_twist(fam, direction, 1, form=form)


@pytest.mark.parametrize("name", list(twists.CHECKS))
def test_every_registered_check_runs_at_the_given_order(name):
    reports = run_suite(checks=[name], order=1)
    assert reports
    assert all(r.passed for r in reports)
    assert all(r.params["order"] == 1 for r in reports)


@pytest.mark.parametrize("name", list(twists.CHECKS))
def test_declared_options_are_the_applied_ones(name):
    # a check declares "u" iff some report runs at the given u, and "family"
    # iff every report runs for the given family; given to that check alone,
    # an option it does not declare is refused, and given with a check that
    # declares it, it is noted on each report that does not run at it
    applied = twists.CHECKS[name][1]
    assert set(applied) <= {"family", "u"}
    given = {"family": "L", "u": Fraction(1, 2)}
    for opt in set(given) - set(applied):
        with pytest.raises(ValueError, match="%s applies to none of the "
                                             "checks %s" % (opt, name)):
            run_suite(checks=[name], order=1, **{opt: given[opt]})
    reports = run_suite(checks=[name], order=1,
                        **{opt: given[opt] for opt in applied})
    uses_u = any(r.params["u"] == "1/2" for r in reports)
    assert uses_u == ("u" in applied)
    families = {r.params.get("family") for r in reports}
    assert families == ({"L"} if "family" in applied else {None})
    mixed = run_suite(checks=[name, "normalization"], order=1, **given)
    for rep in mixed[:len(reports)]:
        assert ("u not applied" in rep.notes) != (rep.params["u"] == "1/2")
        assert ("family not applied" in rep.notes) != (
            rep.params.get("family") == "L")


def test_compare_walks_the_differing_terms():
    # oracle: the per-grade slices and first_difference, as compared before
    rng = random.Random(5)
    for _ in range(40):
        a = random_element(rng, legs=2, truncation=3)
        if rng.random() < 0.5:
            b = random_element(rng, legs=2, truncation=3)
        else:  # equal, or one coefficient off
            key = ((rng.randint(0, 3), 0), (0, 0))
            b = mutate_coefficient(a, key, (1, 0), rng.choice([0, 1]))
        rep = twists._compare("c", {}, a, b)
        assert rep.grades == {n: a.grade_slice(n) == b.grade_slice(n)
                              for n in range(4)}
        assert rep.failure == first_difference(a, b)
        assert rep.passed == (a == b)
    with pytest.raises(ValueError, match="shape mismatch"):
        twists._compare("c", {}, one(2, 2), one(2, 3))


def test_no_note_without_options():
    reports = run_suite(checks=["vfamily", "lr"], order=1)
    assert not any("not applied" in n for r in reports for n in r.notes)


def test_run_suite_smoke():
    reports = run_suite(checks=["normalization", "lr"], order=2)
    assert all(r.passed for r in reports)
    with pytest.raises(ValueError):
        run_suite(checks=["bogus"])


@pytest.mark.parametrize("order,rule", [(0, r"an int in 1\.\.32767, got 0"),
                                        (2.0, "an int"),
                                        (True, "an int")],
                         ids=["0", "2.0", "True"])
def test_run_suite_refuses_order_zero(order, rule):
    # at order 0 every twist is 1 (x) 1, so every check would pass
    with pytest.raises(ValueError, match="order must be " + rule):
        run_suite(order=order)


@pytest.mark.parametrize("u", NOT_EXACT, ids=repr)
def test_run_suite_and_the_checks_refuse_a_u_that_is_not_exact(u):
    # a check that does not apply u refuses it too, before any check runs
    for name in twists.CHECKS:
        with pytest.raises(ValueError, match="exact rational, got"):
            run_suite([name], 2, u=u)
    for check in (check_normalization, check_cocycle, check_form_equality,
                  check_hopf_data):
        with pytest.raises(ValueError, match="exact rational, got"):
            check("R", 2, u)
    with pytest.raises(ValueError, match="exact rational, got"):
        check_LR_relation(2, u)
