"""Every count the kernel, the element layer, the JSON reader and the
three-leg identity take goes through `exactalg.refuse_degree`: a leg count,
a slot, a variable index, a grade, a power, a u-degree, a binomial's lower
index and the identity's k, l, A and C.  A value outside the count's range,
a bool or a float raises a ValueError naming the count, before any work: no
wrong result, no raw TypeError and no memoised entry of an equal int."""

import pytest

from jortwist.borel import TensorElement
from jortwist.cli import element_from_dict, element_to_dict
from jortwist.exactalg import MAX_DEGREE, MAX_LEGS, DPoly, UPoly, binom_poly
from jortwist.identities import verify_bigident, verify_bigident_index_swap

x, xy, xyz = (DPoly.variable(legs, 1) for legs in (1, 2, 3))
E1, E2, E3 = (TensorElement.one(legs, 3) for legs in (1, 2, 3))


def refused(what, low, high, got):
    return "%s must be an int in %d..%d, got %r" % (what, low, high, got)


def read_legs(v):
    data = element_to_dict(E1)
    data["legs"] = v
    return element_from_dict(data)


def binom_after_an_int(v):
    # binom_poly(x, 1) is memoised first: an equal bool or float must not
    # hit its entry
    binom_poly(x, 1)
    return binom_poly(x, v)


# (name, call, what, low, high): each is called with a value below and one
# above low..high, True, and a float equal to each end
COUNTS = [
    ("DPoly legs", DPoly, "legs", 1, MAX_LEGS),
    ("TensorElement legs", lambda v: TensorElement(v, 3), "legs", 1, MAX_LEGS),
    ("DPoly.variable legs", lambda v: DPoly.variable(v, 1), "legs", 1,
     MAX_LEGS),
    ("DPoly.variable index", lambda v: DPoly.variable(2, v), "variable index",
     1, 2),
    ("DPoly power", lambda v: x ** v, "power", 0, MAX_DEGREE),
    ("UPoly power", lambda v: UPoly.u() ** v, "power", 0, MAX_DEGREE),
    ("UPoly u-degree", lambda v: UPoly({v: 1}), "u-degree", 0, MAX_DEGREE),
    ("split_variable slot", xy.split_variable, "slot", 1, 2),
    ("drop_variable slot", xy.drop_variable, "slot", 1, 2),
    ("coproduct slot", E2.coproduct, "slot", 1, 2),
    ("counit_contract slot", E2.counit_contract, "slot", 1, 2),
    ("grade_slice grade", E2.grade_slice, "grade", 0, 3),
    ("binom_poly lower index", binom_after_an_int, "binomial lower index", 0,
     MAX_DEGREE),
    ("reader legs", read_legs, "legs", 1, MAX_LEGS),
    ("bigident k", lambda v: verify_bigident(v, 2, 0, 1), "k", 0, MAX_DEGREE),
    ("bigident l", lambda v: verify_bigident(2, v, 1, 0), "l", 0, MAX_DEGREE),
    ("bigident A", lambda v: verify_bigident(2, 2, v, 1), "A", 0, 2),
    ("bigident C", lambda v: verify_bigident(2, 2, 1, v), "C", 0, 2),
    ("index swap A", lambda v: verify_bigident_index_swap(2, 2, v, 1), "A", 0,
     2),
]

# the JSON reader refuses a bool or a float as a field of the wrong type
CASES = [pytest.param(
    lambda call=call, v=v: call(v),
    "legs: expected int, got %r" % (v,)
    if call is read_legs and type(v) is not int
    else refused(what, low, high, v), id="%s=%r" % (name, v))
    for name, call, what, low, high in COUNTS
    for v in (low - 1, high + 1, True, float(low), float(high))]

# Counts that an operation derives rather than takes, such as the legs of a
# tensor product: the call that makes the result refuses them, DPoly.outer
# or DPoly.split_variable on the first term or else the constructor, and no
# bool or float can reach them
CASES += [pytest.param(call, message, id=name) for name, call, message in [
    ("outer legs below", lambda: UPoly.u().outer(UPoly.u()),
     refused("legs", 1, MAX_LEGS, 0)),
    ("outer legs above", lambda: xy.outer(xy), refused("legs", 1, 3, 4)),
    ("split_variable legs above", lambda: xyz.split_variable(1),
     refused("legs", 1, 3, 4)),
    ("drop_variable slot above one leg", lambda: x.drop_variable(2),
     refused("slot", 1, 1, 2)),
    ("drop_variable slot of a UPoly", lambda: UPoly.u().drop_variable(1),
     refused("slot", 1, 0, 1)),
    ("diagonal legs below", lambda: x.diagonal(), refused("legs", 2, 3, 1)),
    ("diagonal legs of a UPoly", lambda: UPoly.u().diagonal(),
     refused("legs", 2, 3, 0)),
    ("tensor legs above", lambda: E2.tensor(E2), refused("legs", 1, 3, 4)),
    ("tensor legs above, no terms",
     lambda: TensorElement(2, 3).tensor(TensorElement(2, 3)),
     refused("legs", 1, 3, 4)),
    ("coproduct legs above", lambda: E3.coproduct(), refused("legs", 1, 3, 4)),
    ("coproduct legs above, no terms", lambda: TensorElement(3, 3).coproduct(),
     refused("legs", 1, 3, 4)),
    ("counit_contract legs below", lambda: E1.counit_contract(),
     refused("legs", 1, 3, 0)),
    ("counit_contract legs below, no terms",
     lambda: TensorElement(1, 3).counit_contract(), refused("legs", 1, 3, 0)),
    ("grade_slice grade 1.5", lambda: E2.grade_slice(1.5),
     refused("grade", 0, 3, 1.5)),
]]


@pytest.mark.parametrize("call, message", CASES)
def test_every_count_is_refused_by_the_one_rule(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
