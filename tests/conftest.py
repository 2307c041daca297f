import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from jortwist.exactalg import DPoly, UPoly
from jortwist.borel import TensorElement


def random_upoly(rng, max_deg=1):
    coeffs = {}
    for deg in range(max_deg + 1):
        if rng.random() < 0.6:
            coeffs[deg] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return UPoly(coeffs)


def random_dpoly(rng, legs, max_deg=2, max_terms=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(legs))
        terms[exps] = random_upoly(rng)
    return DPoly(legs, terms)


def random_element(rng, legs=1, truncation=3, max_terms=4,
                   max_q=2, max_d=2):
    """Random truncated element with small integer data, for property tests."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        key = []
        budget = truncation
        for _ in range(legs):
            p = rng.randint(0, budget)
            budget -= p
            key.append((p, rng.randint(0, max_q)))
        d = random_dpoly(rng, legs, max_deg=max_d)
        terms[tuple(key)] = d
    return TensorElement(legs, truncation, terms)


@pytest.fixture
def rng():
    return random.Random(987654)


@pytest.fixture(scope="module")
def bench_run():
    """perfbench/run.py as a module, read and never changed.  It imports its
    sibling tracer.py by plain name, and its dataclass needs the module
    registered while it executes."""
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    sys.path.insert(0, str(perfbench))
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  perfbench / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop(spec.name, None)
        sys.path.remove(str(perfbench))
