"""Twist families over the Borel algebra and their verification checks.

Two interpolating families are supported, each built two independent ways:

* product form: three exponential factors assembled with the series
  machinery (the cochain-twisted construction), and
* closed form: the double-sum series transcribed term by term.

The endpoint twists F0 (momentum side) and F1 (dilatation side) come only
in closed form.  Inverses are obtained either from the reversed product or
by truncated geometric inversion of the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactalg import DPoly, UPoly, binom_poly
from .borel import (TensorElement, conjugate, exp_series, first_difference,
                    geometric_inverse, series_apply)
from .report import VerificationReport, merge_reports

FAMILIES = ("0", "1", "L", "R")
DIRECTIONS = ("twist", "inverse")
FORMS = ("product", "closed", "inverted-closed")

TARGET_IDS = ("DL_p", "DL_D", "SL_p", "SL_D",
              "DR_p", "DR_D", "SR_p", "SR_D", "LRfactor")


@dataclass(frozen=True)
class TwistSpec:
    family: str
    direction: str = "twist"
    form: str = "closed"
    order: int = 2
    u: Fraction | None = None  # None means symbolic


def _usym(u):
    """The parameter u as a coefficient: symbolic (UPoly) or a rational."""
    return UPoly.u() if u is None else Fraction(u)


def _ufactor(u, k, l):
    """(u-1)^k u^l as a coefficient."""
    if u is None:
        return (UPoly.u() - 1) ** k * UPoly.u() ** l
    u = Fraction(u)
    return (u - 1) ** k * u**l


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _closed_F0(N, inverse=False):
    """F0 = sum_k (-P/kappa)^k (x) binom(-D, k); F0^-1 has binom(D, k)."""
    y = DPoly.variable(2, 2) if inverse else -DPoly.variable(2, 2)
    terms = {}
    for k in range(N + 1):
        terms[((k, 0), (0, 0))] = binom_poly(y, k) * Fraction((-1) ** k)
    return TensorElement(2, N, terms)


def _closed_F1(N, inverse=False):
    """F1 = sum_l binom(-D, l) (x) (P/kappa)^l; F1^-1 has binom(D, l)."""
    x = DPoly.variable(2, 1) if inverse else -DPoly.variable(2, 1)
    terms = {}
    for l in range(N + 1):
        terms[((0, 0), (l, 0))] = binom_poly(x, l)
    return TensorElement(2, N, terms)


def _closed_L(N, u=None):
    """Closed form of the left family:

    sum_{k,l} (1/kappa)^{k+l} binom(-D, l) (u-1)^k P^k  (x)  binom(-D, k) (uP)^l,

    normal-ordered leg by leg via f(D) P^m = P^m f(D - m).
    """
    x = DPoly.variable(2, 1)
    y = DPoly.variable(2, 2)
    terms = {}
    for k in range(N + 1):
        for l in range(N + 1 - k):
            d = binom_poly(-x + k, l) * binom_poly(-y + l, k)
            terms[((k, 0), (l, 0))] = d * _ufactor(u, k, l)
    return TensorElement(2, N, terms)


def _closed_R_inverse(N, u=None):
    """Closed form of the right family's inverse:

    sum_{k,l} (u-1)^k (P/kappa)^k binom(D, l) (x) (uP/kappa)^l binom(D, k).
    """
    x = DPoly.variable(2, 1)
    y = DPoly.variable(2, 2)
    terms = {}
    for k in range(N + 1):
        for l in range(N + 1 - k):
            d = binom_poly(x, l) * binom_poly(y, k)
            terms[((k, 0), (l, 0))] = d * _ufactor(u, k, l)
    return TensorElement(2, N, terms)


# ---------------------------------------------------------------------------
# product forms
# ---------------------------------------------------------------------------

def _cochain(N, c):
    """P (D + c), one unit of grade: DP = P (D - 1) at c = -1, PD at c = 0."""
    return TensorElement(1, N, {((1, 0),): DPoly(1, {(1,): 1, (0,): c})})


def _neg_log_one_minus_p(N):
    """-ln(1 - P/kappa) = sum_{k>=1} (P/kappa)^k / k."""
    coeffs = [Fraction(0)] + [Fraction(1, k) for k in range(1, N + 1)]
    return series_apply(coeffs, TensorElement.momentum_p(N))


def _middle_factor(N, inverse=False):
    """exp(-ln(1 - P/kappa) (x) D), or its inverse."""
    arg = _neg_log_one_minus_p(N).tensor(TensorElement.dilatation(N))
    if inverse:
        arg = -arg
    return exp_series(arg)


def _product_family(cochain, N, u=None, inverse=False):
    """Three-exponential product form with 1-cochain exponent `cochain`.

    cochain is the grade-1 1-leg element whose u-multiple is exponentiated
    (P(D-1) for the left family, PD for the right one).
    """
    uu = _usym(u)
    one1 = TensorElement.one(1, N)
    pair = cochain.tensor(one1) + one1.tensor(cochain)
    if not inverse:
        f1 = exp_series(pair.scale(uu))
        f2 = _middle_factor(N)
        f3 = exp_series(cochain.coproduct(1).scale(-uu))
        return f1 * f2 * f3
    f1 = exp_series(cochain.coproduct(1).scale(uu))
    f2 = _middle_factor(N, inverse=True)
    f3 = exp_series(pair.scale(-uu))
    return f1 * f2 * f3


def _product_L(N, u=None, inverse=False):
    return _product_family(_cochain(N, -1), N, u, inverse)


def _product_R(N, u=None, inverse=False):
    return _product_family(_cochain(N, 0), N, u, inverse)


def build_vfamily(v, N):
    """Product form with cochain exponent DP + vP = P(D - 1 + v), at u = 1."""
    return _product_family(_cochain(N, Fraction(v) - 1), N, u=1)


# ---------------------------------------------------------------------------
# twist dispatch
# ---------------------------------------------------------------------------

# (family, direction, form) -> builder(N, u), for every form that builds;
# family R's transcribed closed series is its inverse.  The entries call the
# constructors by their module names, so that a wrapper installed on a
# module attribute (a tracer, a mock) sees each call.
_BUILDERS = {
    ("0", "twist", "closed"): lambda N, u: _closed_F0(N),
    ("0", "inverse", "closed"): lambda N, u: _closed_F0(N, inverse=True),
    ("1", "twist", "closed"): lambda N, u: _closed_F1(N),
    ("1", "inverse", "closed"): lambda N, u: _closed_F1(N, inverse=True),
    ("L", "twist", "product"): lambda N, u: _product_L(N, u),
    ("L", "inverse", "product"): lambda N, u: _product_L(N, u, inverse=True),
    ("L", "twist", "closed"): lambda N, u: _closed_L(N, u),
    ("L", "inverse", "inverted-closed"):
        lambda N, u: geometric_inverse(_closed_L(N, u)),
    ("R", "twist", "product"): lambda N, u: _product_R(N, u),
    ("R", "inverse", "product"): lambda N, u: _product_R(N, u, inverse=True),
    ("R", "inverse", "closed"): lambda N, u: _closed_R_inverse(N, u),
    ("R", "twist", "inverted-closed"):
        lambda N, u: geometric_inverse(_closed_R_inverse(N, u)),
}


def build_twist(spec):
    """Construct the twist described by a TwistSpec."""
    builder = _BUILDERS.get((spec.family, spec.direction, spec.form))
    if builder is None:
        raise ValueError("family %s has no %s %s form"
                         % (spec.family, spec.direction, spec.form))
    return builder(spec.order, spec.u)


def _series_form(family, direction):
    """The closed form where the family has one, else the inverted one."""
    closed = (family, direction, "closed") in _BUILDERS
    return "closed" if closed else "inverted-closed"


def twist(family, direction, N, u=None):
    """Canonical series-form twist (closed, or inverse of the closed form)."""
    form = _series_form(family, direction)
    return build_twist(TwistSpec(family, direction, form, N, u))


# ---------------------------------------------------------------------------
# deformed Hopf-data targets
# ---------------------------------------------------------------------------

_PROBES = {"P": TensorElement.momentum_p, "Q": TensorElement.momentum_q,
           "D": TensorElement.dilatation}


def _probe(generator, N):
    if generator not in _PROBES:
        raise ValueError("unknown generator %r" % (generator,))
    return _PROBES[generator](N)


def lr_factor(N, u=None):
    """(1 (x) 1 + u(1-u)/kappa^2 P (x) P)^-1 as a truncated series."""
    uu = _usym(u)
    P = TensorElement.momentum_p(N)
    pp = P.tensor(P).scale(uu * (1 - uu))
    return geometric_inverse(TensorElement.one(2, N) + pp)


def target_coproduct(family, generator, N, u=None):
    """Closed-form deformed coproduct, expanded as a truncated series."""
    if family not in ("L", "R"):
        raise ValueError("Hopf data targets exist for families L and R")
    uu = _usym(u)
    one1 = TensorElement.one(1, N)
    P = TensorElement.momentum_p(N)
    right = one1 + P.scale(uu)            # 1 + uP/kappa
    left = one1 - P.scale(1 - uu)         # 1 - (1-u)P/kappa
    if generator in ("P", "Q"):
        m = _probe(generator, N)
        num = m.tensor(right) + left.tensor(m)
        return num * lr_factor(N, u)
    D = TensorElement.dilatation(N)
    core = (D.tensor(geometric_inverse(right))
            + geometric_inverse(left).tensor(D))
    pp = TensorElement.one(2, N) + P.tensor(P).scale(uu * (1 - uu))
    if family == "L":
        return core * pp
    return pp * core


def target_antipode(family, generator, N, u=None):
    """Closed-form deformed antipode exactly as printed (signs included)."""
    if family not in ("L", "R"):
        raise ValueError("Hopf data targets exist for families L and R")
    uu = _usym(u)
    one1 = TensorElement.one(1, N)
    P = TensorElement.momentum_p(N)
    mid = one1 - P.scale(1 - 2 * uu)      # 1 - (1-2u)P/kappa
    if generator in ("P", "Q"):
        m = _probe(generator, N)
        res = m * geometric_inverse(mid)
        return -res if family == "R" else res
    D = TensorElement.dilatation(N)
    if family == "L":
        right = one1 + P.scale(uu)
        return -(geometric_inverse(right) * mid * D * right)
    left = one1 - P.scale(1 - uu)
    return -(left * D * mid * geometric_inverse(left))


def build_target(target_id, N, u=None):
    """Dispatch over the named Hopf-data targets (momentum probe: Q)."""
    if target_id == "LRfactor":
        return lr_factor(N, u)
    if target_id not in TARGET_IDS:
        raise ValueError("unknown target id %r" % (target_id,))
    kind, family = target_id[0], target_id[1]
    generator = "Q" if target_id.endswith("_p") else "D"
    if kind == "D":
        return target_coproduct(family, generator, N, u)
    return target_antipode(family, generator, N, u)


def twisted_antipode_element(F):
    """chi = sum f(1) S(f(2)); the deformed antipode is chi S(.) chi^-1."""
    return F.fold_mul_antipode("right")


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _compare(check, params, lhs, rhs, notes=None):
    N = lhs.truncation
    grades = {n: lhs.grade_slice(n) == rhs.grade_slice(n) for n in range(N + 1)}
    failure = first_difference(lhs, rhs)
    return VerificationReport(check, params, failure is None, grades,
                              failure, list(notes or []))


def _params(family=None, N=None, u=None, **extra):
    p = dict(extra)
    if family is not None:
        p["family"] = family
    if N is not None:
        p["order"] = N
    p["u"] = "symbolic" if u is None else str(Fraction(u))
    return p


def check_normalization(family, N, u=None, element=None):
    """(eps (x) id) F = 1 = (id (x) eps) F."""
    F = element if element is not None else twist(family, "twist", N, u)
    one1 = TensorElement.one(1, N)
    reps = [
        _compare("normalization", {}, F.counit_contract(1), one1),
        _compare("normalization", {}, F.counit_contract(2), one1),
    ]
    return merge_reports("normalization", _params(family, N, u), reps)


def check_cocycle(family, N, u=None, element=None, via_inverse=False):
    """(F (x) 1)(Delta (x) id)F = (1 (x) F)(id (x) Delta)F, grade by grade.

    With via_inverse=True the equivalent condition on the inverse element
    G = F^-1 is checked instead: (Delta (x) id)G (G (x) 1) = (id (x) Delta)G (1 (x) G).
    """
    one1 = TensorElement.one(1, N)
    notes = []
    if via_inverse:
        G = element if element is not None else twist(family, "inverse", N, u)
        lhs = G.coproduct(1) * G.tensor(one1)
        rhs = G.coproduct(2) * one1.tensor(G)
    else:
        F = element if element is not None else twist(family, "twist", N, u)
        lhs = F.tensor(one1) * F.coproduct(1)
        rhs = one1.tensor(F) * F.coproduct(2)
        # cross-check the order-by-order convolution decomposition
        decomposition_ok = True
        for n in range(N + 1):
            conv = TensorElement.zero(3, N)
            for i in range(n + 1):
                conv = conv + (F.grade_slice(n - i).tensor(one1)
                               * F.grade_slice(i).coproduct(1))
            if conv != lhs.grade_slice(n):
                decomposition_ok = False
        notes.append("per-order convolution decomposition %s"
                     % ("matches" if decomposition_ok else "DIFFERS"))
    return _compare("cocycle", _params(family, N, u, via_inverse=via_inverse),
                    lhs, rhs, notes)


def check_inverse_pair(family, N, u=None):
    """F F^-1 = 1 = F^-1 F, with the inverse from every available route."""
    if family not in ("L", "R"):
        raise ValueError("inverse-pair check applies to families L and R")
    F = twist(family, "twist", N, u)
    Finv = twist(family, "inverse", N, u)
    one2 = TensorElement.one(2, N)
    reps = [
        _compare("inverse", {}, F * Finv, one2),
        _compare("inverse", {}, Finv * F, one2),
    ]
    prod_inv = build_twist(TwistSpec(family, "inverse", "product", N, u))
    reps.append(_compare("inverse", {}, prod_inv, Finv,
                         ["product-form inverse equals series inverse"]))
    return merge_reports("inverse", _params(family, N, u), reps)


def check_endpoints(family, N):
    """u=0 and u=1 specializations hit F0 and F1 (and their inverses).

    The family's transcribed series (closed form for L, closed inverse for
    R) is built with symbolic u and specialized; the other direction is
    obtained by inverting the specialized element, which commutes with the
    specialization and keeps the arithmetic rational.
    """
    if family not in ("L", "R"):
        raise ValueError("endpoint check applies to families L and R")
    if family == "L":
        F = _closed_L(N)
        at0, at1 = F.specialize_u(0), F.specialize_u(1)
        inv0, inv1 = geometric_inverse(at0), geometric_inverse(at1)
    else:
        Finv = _closed_R_inverse(N)
        inv0, inv1 = Finv.specialize_u(0), Finv.specialize_u(1)
        at0, at1 = geometric_inverse(inv0), geometric_inverse(inv1)
    reps = [
        _compare("endpoints", {}, at0, _closed_F0(N),
                 ["u=0: twist equals F0"]),
        _compare("endpoints", {}, at1, _closed_F1(N),
                 ["u=1: twist equals F1"]),
        _compare("endpoints", {}, inv0, _closed_F0(N, inverse=True),
                 ["u=0: inverse equals F0^-1"]),
        _compare("endpoints", {}, inv1, _closed_F1(N, inverse=True),
                 ["u=1: inverse equals F1^-1"]),
    ]
    return merge_reports("endpoints", _params(family, N), reps)


def check_form_equality(family, N, u=None):
    """Product-form construction equals the closed-form series."""
    if family not in ("L", "R"):
        raise ValueError("form-equality check applies to families L and R")
    # the transcribed closed series first, then the inverted one
    pairs = sorted(((d, _series_form(family, d)) for d in DIRECTIONS),
                   key=lambda pair: pair[1])
    reps = []
    for direction, series_form in pairs:
        prod = build_twist(TwistSpec(family, direction, "product", N, u))
        series = build_twist(TwistSpec(family, direction, series_form, N, u))
        reps.append(_compare("forms", {}, prod, series,
                             ["%s: product equals %s" % (direction, series_form)]))
    return merge_reports("forms", _params(family, N, u), reps)


def check_hopf_data(family, generator, N, u=None):
    """Conjugation and twisted-antipode results against the printed targets.

    The printed antipode signs are not trusted: the computed element decides,
    and a note records which sign the printed formula carries.
    """
    if family not in ("L", "R"):
        raise ValueError("Hopf-data check applies to families L and R")
    F = twist(family, "twist", N, u)
    Finv = twist(family, "inverse", N, u)
    g = _probe(generator, N)
    notes = []

    conj = conjugate(F, g, Finv)
    cop_target = target_coproduct(family, generator, N, u)
    rep_cop = _compare("hopf", {}, conj, cop_target)
    if family == "R" and generator == "D":
        notes.append("Delta target read with the elided (x)D factor restored"
                     " and the momentum prefactor kept on the left, as printed")

    chi = twisted_antipode_element(F)
    sf = chi * g.antipode() * geometric_inverse(chi)
    anti_target = target_antipode(family, generator, N, u)
    if sf == anti_target:
        notes.append("antipode sign matches the printed formula")
        rep_anti = _compare("hopf", {}, sf, anti_target)
    elif sf == -anti_target:
        notes.append("computed antipode is MINUS the printed formula; "
                     "the computed sign is authoritative")
        rep_anti = _compare("hopf", {}, sf, -anti_target)
    else:
        rep_anti = _compare("hopf", {}, sf, anti_target)
    return merge_reports("hopf", _params(family, N, u, generator=generator),
                         [rep_cop, rep_anti], notes)


def check_LR_relation(N, u=None):
    """F_R^-1 = F_L^-1 (1 (x) 1 + u(1-u)/kappa^2 P (x) P)^-1."""
    lhs = twist("R", "inverse", N, u)
    rhs = twist("L", "inverse", N, u) * lr_factor(N, u)
    return _compare("lr-relation", _params(None, N, u), lhs, rhs)


def check_LR_u1(N):
    """The two families coincide at u = 1."""
    lhs = twist("L", "twist", N, Fraction(1))
    rhs = twist("R", "twist", N, Fraction(1))
    return _compare("lr-u1", _params(None, N, Fraction(1)), lhs, rhs)


def check_v_family(v, N):
    """Every cochain exponent DP + vP reproduces F1 at u = 1."""
    return _compare("v-family", _params(None, N, Fraction(1), v=Fraction(v)),
                    build_vfamily(v, N), _closed_F1(N))


# ---------------------------------------------------------------------------
# mutation support (sensitivity testing)
# ---------------------------------------------------------------------------

def mutate_coefficient(element, key, exps, delta):
    """Return a copy with one stored coefficient shifted by `delta`."""
    terms = dict(element.terms)
    d = terms.get(key, DPoly(element.legs))
    bump = DPoly(element.legs, {tuple(exps): UPoly.coerce(delta)})
    terms[key] = d + bump
    return TensorElement(element.legs, element.truncation, terms)


# ---------------------------------------------------------------------------
# standard suite
# ---------------------------------------------------------------------------

# name: (default order, options applied, run(families, N, u) -> reports), in
# suite order; "family" and "u" are the options of run_suite a check can
# apply.  The entries call the checks by their module names (see _BUILDERS).
CHECKS = {
    "normalization": (4, ("family", "u"), lambda families, N, u: [
        check_normalization(f, N, u) for f in families]),
    "cocycle": (5, ("family", "u"), lambda families, N, u: [
        check_cocycle(f, N, u, via_inverse=(f == "R")) for f in families]),
    "inverse": (6, ("family", "u"), lambda families, N, u: [
        check_inverse_pair(f, N, u) for f in families]),
    "endpoints": (6, ("family",), lambda families, N, u: [
        check_endpoints(f, N) for f in families]),
    "forms": (5, ("family", "u"), lambda families, N, u: [
        check_form_equality(f, N, u) for f in families]),
    "hopf": (4, ("family", "u"), lambda families, N, u: [
        check_hopf_data(f, g, N, u) for f in families for g in "PQD"]),
    "lr": (6, ("u",), lambda families, N, u: [
        check_LR_relation(N, u), check_LR_u1(N)]),
    "vfamily": (5, (), lambda families, N, u: [
        check_v_family(v, N) for v in (-2, 0, Fraction(1, 2))]),
}


def run_suite(checks=None, order=None, family=None, u=None):
    """Run the named checks of CHECKS (default: all) and return the reports
    in order; each check runs at `order`, or at its own default order.  A
    report of a check that does not apply a given `family` or `u` carries
    the note "family not applied" or "u not applied"."""
    selected = list(checks or CHECKS)
    unknown = [name for name in selected if name not in CHECKS]
    if unknown:
        raise ValueError("unknown check(s) %s" % ", ".join(map(repr, unknown)))
    families = [family] if family else ["L", "R"]
    given = [opt for opt, value in (("family", family), ("u", u))
             if value is not None]
    reports = []
    for name in selected:
        default_order, applied, run = CHECKS[name]
        ignored = ["%s not applied" % opt for opt in given
                   if opt not in applied]
        for rep in run(families, default_order if order is None else order, u):
            rep.notes += ignored
            reports.append(rep)
    return reports
