"""Twist families over the Borel algebra and their verification checks.

INTERPOLATING declares the families L and R, each built two independent
ways: the product form (chi (x) chi) J Delta(chi^-1), the Jordanian twist J
further twisted with the 1-cochain chi = exp(u h), and the closed
double-sum series the paper prints, F_L and F_R^-1, times the LR core
in the other direction.  ENDPOINTS declares the endpoint twists
F0 (momentum side) and F1 (dilatation side), closed in both directions.
"""

from __future__ import annotations

from .exactalg import DPoly, UPoly, binom_poly, refuse_degree
from .borel import (TensorElement, exp_series, first_difference,
                    log1p_series, sum_of_products)
from .borel import geometric_inverse  # noqa: F401  (perfbench traces it here)
from .report import VerificationReport, merge_reports

DIRECTIONS = ("twist", "inverse")
FORMS = ("product",)


def _usym(u):
    """The parameter u as a coefficient: UPoly.u() when u is None
    (symbolic), else the exact rational u (an int, a Fraction or a constant
    UPoly) as a constant UPoly.  Any other u, a float or a Decimal
    included, raises ValueError."""
    if u is None:
        return UPoly.u()
    try:
        uu = UPoly.const(u)
    except TypeError:
        pass
    else:
        if not any(uu.num):
            return uu
    raise ValueError("u must be None or an exact rational, got %r" % (u,))


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _closed_F0(N, inverse=False):
    """F0 = sum_k (-P/kappa)^k (x) binom(-D, k); F0^-1 has binom(D, k)."""
    y = DPoly.variable(2, 2) if inverse else -DPoly.variable(2, 2)
    terms = {}
    for k in range(N + 1):
        terms[((k, 0), (0, 0))] = binom_poly(y, k) * (-1) ** k
    return TensorElement(2, N, terms)


def _closed_F1(N, inverse=False):
    """F1 = sum_l binom(-D, l) (x) (P/kappa)^l; F1^-1 has binom(D, l)."""
    x = DPoly.variable(2, 1) if inverse else -DPoly.variable(2, 1)
    terms = {}
    for l in range(N + 1):
        terms[((0, 0), (l, 0))] = binom_poly(x, l)
    return TensorElement(2, N, terms)


def _interpolating(N, u, coefficient):
    """The closed double sum both families share: over k + l <= N, the key
    P^k (x) P^l carries coefficient(x, y, k, l) (u-1)^k u^l, with x and y
    the D of the first and the second leg."""
    x = DPoly.variable(2, 1)
    y = DPoly.variable(2, 2)
    uu = _usym(u)
    terms = {}
    for k in range(N + 1):
        for l in range(N + 1 - k):
            terms[((k, 0), (l, 0))] = (coefficient(x, y, k, l)
                                       * ((uu - 1) ** k * uu ** l))
    return TensorElement(2, N, terms)


def _closed_L(N, u=None):
    """Closed form of the left family:

    sum_{k,l} (1/kappa)^{k+l} binom(-D, l) (u-1)^k P^k  (x)  binom(-D, k) (uP)^l,

    normal-ordered leg by leg via f(D) P^m = P^m f(D - m).
    """
    return _interpolating(N, u, lambda x, y, k, l:
                          binom_poly(-x + k, l) * binom_poly(-y + l, k))


def _closed_R_inverse(N, u=None):
    """Closed form of the right family's inverse:

    sum_{k,l} (u-1)^k (P/kappa)^k binom(D, l) (x) (uP/kappa)^l binom(D, k).
    """
    return _interpolating(N, u, lambda x, y, k, l:
                          binom_poly(x, l) * binom_poly(y, k))


def _pow1p(N, r, v=1, legs=1):
    """(1 + r p)^v to order N, for v = 1 or -1 and p = P/kappa on each of
    `legs` legs; the inverse is the table sum_m (-r)^m p^m."""
    powers = ({1: r} if v == 1 else
              {m: (-r) ** m for m in range(1, N // legs + 1)})
    terms = {((m, 0),) * legs: c for m, c in powers.items()}
    terms[((0, 0),) * legs] = 1
    return TensorElement(legs, N, terms)


def _lr_core(N, u=None):
    """1 (x) 1 + u(1-u)/kappa^2 P (x) P."""
    return _pow1p(N, _usym(u) * (1 - _usym(u)), 1, 2)


def lr_factor(N, u=None):
    """(1 (x) 1 + u(1-u)/kappa^2 P (x) P)^-1 as a truncated series."""
    return _pow1p(N, _usym(u) * (1 - _usym(u)), -1, 2)


# ---------------------------------------------------------------------------
# product forms
# ---------------------------------------------------------------------------

def _product_family(c, N, u=None, inverse=False):
    """The Jordanian twist J = exp(-ln(1 - P/kappa) (x) D) twisted by the
    1-cochain chi = exp(u h), h = P(D + c): (chi (x) chi) J Delta(chi^-1),
    or the inverse Delta(chi) J^-1 (chi^-1 (x) chi^-1).  c = -1 gives the
    left family (h = DP = P(D - 1)), c = 0 the right one (PD), and c = v - 1
    the v-family's DP + vP.
    """
    uu = _usym(u)
    h = TensorElement(1, N, {((1, 0),): DPoly(1, {(1,): 1, (0,): c})})
    chi, chi_inv = exp_series(h.scale(uu)), exp_series(h.scale(-uu))
    log_j = -log1p_series(-TensorElement.momentum_p(N)).tensor(
        TensorElement.dilatation(N))
    if inverse:
        return chi.coproduct(1) * exp_series(-log_j) * chi_inv.tensor(chi_inv)
    return chi.tensor(chi) * exp_series(log_j) * chi_inv.coproduct(1)


# ---------------------------------------------------------------------------
# family tables and twist dispatch
# ---------------------------------------------------------------------------

# interpolating family -> (cochain constant c of h = P(D + c), the direction
# whose closed series the paper prints, then the series of that direction
# and of the other as builder(N, u)): F_R = core F_L and F_L^-1 = F_R^-1 core
# by the LR relation.  The builders call the closed forms by their module
# names, so that a wrapper installed on a module attribute sees each call.
INTERPOLATING = {
    "L": (-1, "twist", lambda N, u: _closed_L(N, u),
          lambda N, u: _closed_R_inverse(N, u) * _lr_core(N, u)),
    "R": (0, "inverse", lambda N, u: _closed_R_inverse(N, u),
          lambda N, u: _lr_core(N, u) * _closed_L(N, u)),
}
# endpoint family -> builder(N, inverse): closed in both directions, no u
ENDPOINTS = {
    "0": lambda N, inverse: _closed_F0(N, inverse),
    "1": lambda N, inverse: _closed_F1(N, inverse),
}
FAMILIES = tuple(ENDPOINTS) + tuple(INTERPOLATING)


def _refuse_without_u(family, what):
    """ValueError unless `family` is interpolating: `what` needs a u."""
    if family not in INTERPOLATING:
        raise ValueError("%s applies to families %s only; family %s has no u"
                         % (what, " and ".join(INTERPOLATING), family))


def build_twist(family, direction, N, u=None, form=None):
    """The twist (direction "twist") or its inverse ("inverse") of a family
    to order N, at a rational u or with u symbolic (None); an endpoint
    family has no u, and refuses one; N must be an int in 0..MAX_DEGREE.
    form=None means the series: the closed series the paper prints (either
    direction, for an endpoint family), or its product with the LR core;
    form="product" is an interpolating family's product form."""
    if (family not in FAMILIES or direction not in DIRECTIONS
            or form not in (None,) + FORMS):
        raise ValueError("unknown family, direction or form %r, %r, %r"
                         % (family, direction, form))
    refuse_degree(N, "truncation order")
    if u is not None:
        _refuse_without_u(family, "u")
    if form:
        _refuse_without_u(family, "the %s form" % form)
    inverse = direction == "inverse"
    if family in ENDPOINTS:
        return ENDPOINTS[family](N, inverse)
    c, printed, series, derived = INTERPOLATING[family]
    if form:
        return _product_family(c, N, u, inverse)
    return (series if direction == printed else derived)(N, u)


def _transcribed(family):
    """The direction whose closed series the paper prints: the one in
    INTERPOLATING, or the twist for an endpoint family."""
    return INTERPOLATING[family][1] if family in INTERPOLATING else "twist"


# ---------------------------------------------------------------------------
# deformed Hopf-data targets
# ---------------------------------------------------------------------------

_PROBES = {"P": TensorElement.momentum_p, "Q": TensorElement.momentum_q,
           "D": TensorElement.dilatation}


def _probe(generator, N):
    if generator not in _PROBES:
        raise ValueError("unknown generator %r" % (generator,))
    return _PROBES[generator](N)


def target_coproduct(family, generator, N, u=None):
    """Closed-form deformed coproduct, expanded as a truncated series."""
    _refuse_without_u(family, "a Hopf data target")
    g = _probe(generator, N)
    uu = _usym(u)
    if generator != "D":  # g (x) (1 + uP/kappa) + (1 - (1-u)P/kappa) (x) g
        num = g.tensor(_pow1p(N, uu)) + _pow1p(N, uu - 1).tensor(g)
        return num * lr_factor(N, u)
    core = g.tensor(_pow1p(N, uu, -1)) + _pow1p(N, uu - 1, -1).tensor(g)
    return core * _lr_core(N, u) if family == "L" else _lr_core(N, u) * core


# (family, generator) of the printed antipodes whose sign is wrong
ANTIPODE_ERRATA = {("L", "P"), ("L", "Q")}


def target_antipode(family, generator, N, u=None):
    """Closed-form deformed antipode exactly as printed (signs included)."""
    _refuse_without_u(family, "a Hopf data target")
    g = _probe(generator, N)
    uu = _usym(u)
    mid = 2 * uu - 1  # 1 - (1-2u)P/kappa
    if generator != "D":
        res = g * _pow1p(N, mid, -1)
        return -res if family == "R" else res
    if family == "L":  # 1 + uP/kappa on either side
        return -(_pow1p(N, uu, -1) * _pow1p(N, mid) * g * _pow1p(N, uu))
    left = uu - 1  # 1 - (1-u)P/kappa
    return -(_pow1p(N, left) * g * _pow1p(N, mid) * _pow1p(N, left, -1))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _compare(check, params, lhs, rhs, notes=None):
    lhs._check_shape(rhs)
    differing = {sum(p for p, _ in key)
                 for key in lhs.terms.keys() | rhs.terms.keys()
                 if lhs.terms.get(key) != rhs.terms.get(key)}
    grades = {n: n not in differing for n in range(lhs.truncation + 1)}
    failure = first_difference(lhs, rhs) if differing else None
    return VerificationReport(check, params, failure is None, grades,
                              failure, list(notes or []))


def _params(family, N, u=None, **extra):
    p = dict(extra)
    if family is not None:
        p["family"] = family
    p["order"] = N
    p["u"] = "symbolic" if u is None else str(_usym(u))
    return p


def check_normalization(family, N, u=None):
    """(eps (x) id) F = 1 = (id (x) eps) F on the transcribed series; the
    counits are algebra maps, so F^-1 (via_inverse) passes exactly when F
    does."""
    direction = _transcribed(family)
    F = build_twist(family, direction, N, u)
    one1 = TensorElement.one(1, N)
    reps = [
        _compare("normalization", {}, F.counit_contract(1), one1),
        _compare("normalization", {}, F.counit_contract(2), one1),
    ]
    return merge_reports("normalization", _params(
        family, N, u, via_inverse=direction == "inverse"), reps)


def check_cocycle(family, N, u=None):
    """(F (x) 1)(Delta (x) id)F = (1 (x) F)(id (x) Delta)F, grade by grade.

    The condition is checked on the family's transcribed series.  Where
    that is the inverse G = F^-1, the equivalent condition
    (Delta (x) id)G (G (x) 1) = (id (x) Delta)G (1 (x) G) is checked
    instead, and the report's param via_inverse says so.
    """
    direction = _transcribed(family)
    via_inverse = direction == "inverse"
    F = build_twist(family, direction, N, u)
    one1 = TensorElement.one(1, N)
    notes = []
    if via_inverse:  # F holds G = F^-1
        lhs = F.coproduct(1) * F.tensor(one1)
        rhs = F.coproduct(2) * one1.tensor(F)
    else:
        lhs = F.tensor(one1) * F.coproduct(1)
        rhs = one1.tensor(F) * F.coproduct(2)
        # cross-check the order-by-order convolution decomposition
        left = [F.grade_slice(n).tensor(one1) for n in range(N + 1)]
        right = [F.grade_slice(n).coproduct(1) for n in range(N + 1)]
        decomposition_ok = all(
            sum_of_products([(left[n - i], right[i]) for i in range(n + 1)])
            == lhs.grade_slice(n) for n in range(N + 1))
        notes.append("per-order convolution decomposition %s"
                     % ("matches" if decomposition_ok else "DIFFERS"))
    return _compare("cocycle", _params(family, N, u, via_inverse=via_inverse),
                    lhs, rhs, notes)


def check_endpoints(family, N):
    """u=0 and u=1 specializations of the printed series hit F0 and F1, or
    F0^-1 and F1^-1 where the paper prints the inverse.

    The series is built with symbolic u and specialized.  The other
    direction is its inverse, so it meets the inverses of these ends; it is
    not compared.  Family "0" is the u=0 end, family "1" the u=1 end.
    """
    _refuse_without_u(family, "the endpoint check")
    direction = _transcribed(family)
    series = build_twist(family, direction, N)
    power = "" if direction == "twist" else "^-1"
    return merge_reports("endpoints", _params(family, N), [
        _compare("endpoints", {}, series.specialize_u(int(end)),
                 build_twist(end, direction, N),
                 ["u=%s: %s equals F%s%s" % (end, direction, end, power)])
        for end in ENDPOINTS])


def check_form_equality(family, N, u=None):
    """Product form equals closed series, in the transcribed direction: the
    other's product form is this one's exact inverse and its series this
    one times the LR core, so they agree when these do and lr passes."""
    direction = _transcribed(family)
    return _compare("forms", _params(family, N, u),
                    build_twist(family, direction, N, u, "product"),
                    build_twist(family, direction, N, u),
                    ["%s: product equals closed" % direction])


def check_hopf_data(family, N, u=None):
    """Twisted coproduct and antipode against the printed targets T, one
    report per generator P, Q, D; F and chi are built once for all three.

    F Delta(g) F^-1 = T is checked as F Delta(g) = T F, and chi S(g) chi^-1
    = T as chi S(g) = T chi: F and chi have grade-0 part 1, so they are
    invertible modulo the truncation and neither inverse is built.  The
    printed antipode targets in ANTIPODE_ERRATA, the left family's S(P) and
    S(Q), lack the minus of the right family's and are compared negated;
    a note records which sign the comparison used.
    """
    F = build_twist(family, "twist", N, u)
    # chi = sum f(1) S(f(2)); the deformed antipode is chi S(.) chi^-1
    chi = F.fold_mul_antipode()
    reports = []
    for generator in "PQD":
        g = _probe(generator, N)
        notes = []

        rep_cop = _compare("hopf", {}, F * g.coproduct(1),
                           target_coproduct(family, generator, N, u) * F)
        if family == "R" and generator == "D":
            notes.append("Delta target read with the elided (x)D factor "
                         "restored and the momentum prefactor kept on the "
                         "left, as printed")

        rhs = target_antipode(family, generator, N, u) * chi
        if (family, generator) in ANTIPODE_ERRATA:
            notes.append("printed sign erratum (ANTIPODE_ERRATA): target "
                         "compared negated")
            rhs = -rhs
        else:
            notes.append("antipode sign matches the printed formula")
        reports.append(merge_reports(
            "hopf", _params(family, N, u, generator=generator),
            [rep_cop, _compare("hopf", {}, chi * g.antipode(), rhs)], notes))
    return reports


def check_LR_relation(N, u=None):
    """F_L F_R^-1 = (1 (x) 1 + u(1-u)/kappa^2 P (x) P)^-1, on the two series
    the paper prints; F_L has grade-0 part 1, so this is the printed
    F_R^-1 = F_L^-1 (1 (x) 1 + u(1-u)/kappa^2 P (x) P)^-1."""
    lhs = build_twist("L", "twist", N, u) * build_twist("R", "inverse", N, u)
    return _compare("lr-relation", _params(None, N, u), lhs, lr_factor(N, u))


def check_v_family(N):
    """Every cochain DP + vP reproduces F1 at u = 1, for every v at once:
    u is fixed at 1, so u in a coefficient stands for v (c = v - 1)."""
    refuse_degree(N, "order")
    return _compare("v-family", _params(None, N, 1, v="symbolic"),
                    _product_family(UPoly.u() - 1, N, 1), _closed_F1(N),
                    ["u in a coefficient stands for v"])


# ---------------------------------------------------------------------------
# mutation support (sensitivity testing)
# ---------------------------------------------------------------------------

def mutate_coefficient(element, key, exps, delta):
    """Return a copy with one stored coefficient shifted by `delta`."""
    terms = dict(element.terms)
    d = terms.get(key, DPoly(element.legs))
    bump = DPoly(element.legs, {tuple(exps): delta})
    terms[key] = d + bump
    return TensorElement(element.legs, element.truncation, terms)


# ---------------------------------------------------------------------------
# standard suite
# ---------------------------------------------------------------------------

# name: (default order, options applied, run(families, N, u) -> reports), in
# suite order; "family" and "u" are the options of run_suite a check can
# apply.  The entries call the checks by their module names, as the tables
# above call the builders.
CHECKS = {
    "normalization": (4, ("family", "u"), lambda families, N, u: [
        check_normalization(f, N, u) for f in families]),
    "cocycle": (5, ("family", "u"), lambda families, N, u: [
        check_cocycle(f, N, u) for f in families]),
    "endpoints": (6, ("family",), lambda families, N, u: [
        check_endpoints(f, N) for f in families]),
    "forms": (6, ("family", "u"), lambda families, N, u: [
        check_form_equality(f, N, u) for f in families]),
    "hopf": (4, ("family", "u"), lambda families, N, u: [
        rep for f in families for rep in check_hopf_data(f, N, u)]),
    "lr": (6, ("u",), lambda families, N, u: [check_LR_relation(N, u)]),
    "vfamily": (5, (), lambda families, N, u: [check_v_family(N)]),
}


def run_suite(checks=None, order=None, family=None, u=None):
    """Run the named checks of CHECKS (default: all), each once, and return
    the reports in order; each check runs at `order`, or at its own default
    order.  The reports of a check that does not apply a given `family` or
    `u` carry the note "family not applied" or "u not applied".  An order
    below 1, where every check would pass, above MAX_DEGREE or not an int
    raises ValueError, as do a u that is neither None nor an exact rational
    and a `family` or `u` that none of the selected checks applies."""
    if order is not None:  # order 0 makes every twist 1 (x) 1
        refuse_degree(order, "order", low=1)
    if u is not None:
        _usym(u)  # an inexact u is refused first, whatever the checks
    selected = list(dict.fromkeys(checks or CHECKS))
    unknown = [name for name in selected if name not in CHECKS]
    if unknown:
        raise ValueError("unknown check(s) %s" % ", ".join(map(repr, unknown)))
    given = [opt for opt, value in (("family", family), ("u", u))
             if value is not None]
    for opt in given:
        if not any(opt in CHECKS[name][1] for name in selected):
            raise ValueError("%s applies to none of the checks %s"
                             % (opt, ", ".join(selected)))
    families = [family] if family else list(INTERPOLATING)
    reports = []
    for name in selected:
        default_order, applied, run = CHECKS[name]
        notes = ["%s not applied" % opt for opt in given
                 if opt not in applied]
        for rep in run(families, default_order if order is None else order, u):
            rep.notes += notes
            reports.append(rep)
    return reports
