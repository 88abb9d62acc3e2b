"""Routing from a parsed expression to its spectrum."""

import pytest

from algspec import weylode
from algspec.pipeline import analyze
from algspec.sigexpr import parse

ATOMS = ["sinc(3)", "rcos(2)", "delay(3/2)", "chirp(1,2,3)"]


@pytest.mark.parametrize("text", ATOMS)
def test_equation_route_classifies_each_point_once(monkeypatch, text):
    calls = {"finite_singularities": 0, "singularity_at_infinity": 0}
    for name in calls:
        original = getattr(weylode, name)

        def counted(sys, _name=name, _original=original):
            calls[_name] += 1
            return _original(sys)

        monkeypatch.setattr(weylode, name, counted)
    analyze(parse(text))
    assert calls == {"finite_singularities": 1, "singularity_at_infinity": 1}


@pytest.mark.parametrize("text", ATOMS)
def test_equation_route_spectrum_equals_spectrum_of_ode(text):
    e = parse(text)
    analysis = analyze(e)
    assert analysis.spectrum \
        == weylode.spectrum_of_ode(weylode.catalog_equation(e))
    assert list(analysis.finite_points) \
        == weylode.finite_singularities(analysis.system)
    assert analysis.infinity \
        == weylode.singularity_at_infinity(analysis.system)
