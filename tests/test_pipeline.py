"""Routing from a parsed expression to its spectrum."""

import pytest

from algspec import opcalc, weylode
from algspec.cli import CliConfig, run
from algspec.pipeline import analyze
from algspec.ratfield import CPoly, RatFunc, poles, spectrum_of_rational
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


@pytest.mark.parametrize("config, builds", [
    (CliConfig("spectrum", "t*exp(-t) + sin(2*t)"), 0),
    (CliConfig("spectrum", "t*exp(-t) + sin(2*t)", output="json"), 0),
    (CliConfig("contrast", "3*sin(2*t)"), 0),
    (CliConfig("contrast", "3*sin(2*t)", output="json"), 0),
    (CliConfig("spectrum", "t*exp(-t) + sin(2*t)", explain=True), 1),
    (CliConfig("opform", "t*exp(-t) + sin(2*t)"), 1),
    (CliConfig("opform", "t*exp(-t) + sin(2*t)", output="json"), 1),
])
def test_image_is_built_only_for_the_output_that_prints_it(
        monkeypatch, config, builds):
    calls = []
    original = opcalc.to_rational

    def counted(x):
        calls.append(x)
        return original(x)

    monkeypatch.setattr(opcalc, "to_rational", counted)
    status, _, _ = run(config)
    assert status == 0
    assert len(calls) == builds


def test_image_is_built_once_per_analysis(monkeypatch):
    calls = []
    original = opcalc.to_rational
    monkeypatch.setattr(opcalc, "to_rational",
                        lambda x: calls.append(x) or original(x))
    a = analyze(parse("t^2*exp(-t)"))
    assert calls == []
    assert a.rational.format() == "2 / (s^3 + 3s^2 + 3s + 1)"
    assert a.rational is a.rational
    assert len(calls) == 1
    assert analyze(parse("2*dirac()")).rational == RatFunc(2)
    assert analyze(parse("sinc(3)")).rational is None


_NEAR = ["sin(1e-12*t)", "exp(i*t)+exp((1+1/10000000000)*i*t)",
         "exp((1/10000000000+i)*t)", "t*exp(-t)+sin(5/2*t)"]


def _exact_spectra():
    """(route, spectrum) pairs whose every source is an exact point."""
    for text in _NEAR:
        r = opcalc.to_rational(opcalc.from_signal(parse(text)))
        assert all(p.exact is not None for p in poles(r))
        yield "image", spectrum_of_rational(r)
        yield "mixture", analyze(parse(text)).spectrum
    for text in ["sinc(1e-12)", "rcos(7/4)", "(1+i)*sinc(3)"]:
        a = analyze(parse(text))
        assert all(p.exact is not None for p in a.finite_points)
        yield "equation", a.spectrum
    den = (CPoly([0, 1]) - CPoly([1j])) * (
        CPoly([0, 1]) - CPoly([1j * (1 + 1e-10)]))
    sys = weylode.OdeSystem(weylode.WeylOp.D, RatFunc(CPoly.ONE, den))
    assert all(p.exact is not None for p in weylode.finite_singularities(sys))
    yield "equation", weylode.spectrum_of_ode(sys)


def test_exact_frequencies_are_the_imaginary_parts_of_the_sources():
    routes = set()
    for route, spec in _exact_spectra():
        want = {src.location.imag for src in spec.sources} - {0.0}
        assert spec.frequencies == tuple(sorted(want)), route
        routes.add(route)
    assert routes == {"image", "mixture", "equation"}
