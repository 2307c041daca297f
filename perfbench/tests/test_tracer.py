"""The tracer's arithmetic, its alias patching and its restoring."""

import types

import jortwist
import jortwist.cli  # noqa: F401  (the tracer wraps cli too)
from jortwist import borel, exactalg, identities, twists

from tracer import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_a_synthetic_tree():
    """root (m1, 10 s own) calls child (m2, 3 s own) twice; each child
    calls leaf (m2, 2 s).  Self time excludes exactly the traced callees."""
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.now += 2.0

    leaf_w = tracer.wrap("m2", "m2.leaf", leaf)

    def child():
        clock.now += 1.0
        leaf_w()
        clock.now += 2.0

    child_w = tracer.wrap("m2", "m2.child", child)

    def root():
        clock.now += 4.0
        child_w()
        clock.now += 6.0
        child_w()

    root_w = tracer.wrap("m1", "m1.root", root)
    tracer.op = 7
    root_w()

    assert tracer.stats["m1.root"] == [1, 20.0, 10.0]
    assert tracer.stats["m2.child"] == [2, 10.0, 6.0]
    assert tracer.stats["m2.leaf"] == [2, 4.0, 4.0]
    # spans only where the caller's module differs: root and both children
    spans = list(tracer.spans.records())
    assert [(s["name"], s["parent"], s["op"]) for s in spans] == [
        ("m1.root", -1, 7), ("m2.child", 0, 7), ("m2.child", 0, 7)]
    assert [(s["start"], s["end"]) for s in spans] == [
        (0.0, 20.0), (4.0, 9.0), (15.0, 20.0)]


def _wrapped(fn):
    return hasattr(fn, "__wrapped__")


def test_every_alias_is_wrapped_then_restored():
    originals = {
        "mul": vars(exactalg.DPoly)["__mul__"],
        "gi": borel.geometric_inverse,
        "fd": borel.first_difference,
        "bp": exactalg.binom_poly,
    }
    with Tracer():
        # one wrapper per function, in every namespace that holds it
        assert _wrapped(borel.geometric_inverse)
        assert twists.geometric_inverse is borel.geometric_inverse
        assert jortwist.geometric_inverse is borel.geometric_inverse
        assert _wrapped(twists.first_difference)
        assert twists.first_difference is borel.first_difference
        assert identities.binom_poly is exactalg.binom_poly
        assert _wrapped(exactalg.DPoly.__rmul__)
        assert exactalg.DPoly.__rmul__ is exactalg.DPoly.__mul__
    assert twists.geometric_inverse is borel.geometric_inverse is originals["gi"]
    assert jortwist.geometric_inverse is originals["gi"]
    assert twists.first_difference is originals["fd"]
    assert identities.binom_poly is jortwist.binom_poly is originals["bp"]
    assert vars(exactalg.DPoly)["__mul__"] is originals["mul"]
    assert vars(exactalg.DPoly)["__rmul__"] is originals["mul"]
    for ns in (jortwist, borel, twists, identities, exactalg, jortwist.cli):
        for name, value in vars(ns).items():
            if isinstance(value, types.FunctionType):
                assert not _wrapped(value), "%s.%s" % (ns.__name__, name)


def test_shift_counters_replay_the_product():
    """Every shift TensorElement.__mul__ makes is one attempt."""
    with Tracer() as tracer:
        twists.check_cocycle("L", 3)
    attempts = tracer.value("borel.TensorElement.mul.shift_attempts")
    assert attempts == tracer.value("exactalg.DPoly.shift.calls") > 0
    assert 0 < tracer.value("borel.TensorElement.mul.shift_useful_ratio") < 1
    assert tracer.value("exactalg.DPoly.evaluate.calls") == 0
