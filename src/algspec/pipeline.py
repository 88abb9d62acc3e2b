"""Routing from a parsed expression to its spectrum.

Exponential polynomials read their spectrum off their exact rates, which
are the poles of their rational image; the Dirac impulse maps to a
constant, which has no poles, so its spectrum is empty; catalog atoms go
through their defining operational equation and its singular points, each
classified once: the same pass fills the explanation and yields the
spectrum.  Anything else is refused rather than approximated.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import opcalc, weylode
from .ratfield import RatFunc, Spectrum
from .sigexpr import (SignalClass, SignalExpr, ExpressionError, classify,
                      split_scale)
from .weylode import OdeSystem, SingularPoint

__all__ = ["SpectrumAnalysis", "analyze"]


@dataclass(frozen=True)
class SpectrumAnalysis:
    """Spectrum plus the intermediate objects that explain it."""

    expression: SignalExpr
    signal_class: SignalClass
    spectrum: Spectrum
    rational: RatFunc | None = None           # operational image
    system: OdeSystem | None = None           # equation route
    finite_points: tuple = ()
    infinity: SingularPoint | None = None


def analyze(e: SignalExpr) -> SpectrumAnalysis:
    """Compute the spectrum of a supported expression."""
    kind = classify(e)
    if kind == SignalClass.EXP_POLYNOMIAL:
        x = opcalc.from_signal(e)
        return SpectrumAnalysis(e, kind, opcalc.spectrum_of_exppoly(x),
                                rational=opcalc.to_rational(x))
    if kind == SignalClass.DIRAC:
        scale, _ = split_scale(e)
        return SpectrumAnalysis(e, kind, Spectrum((), ()),
                                rational=opcalc.dirac_image() * RatFunc(scale))
    if kind == SignalClass.ODE_DEFINED:
        sys = weylode.catalog_equation(e)
        finite = tuple(weylode.finite_singularities(sys))
        infinity = weylode.singularity_at_infinity(sys)
        return SpectrumAnalysis(
            e, kind, weylode.spectrum_of_points(sys, finite, infinity),
            system=sys, finite_points=finite, infinity=infinity)
    raise ExpressionError(
        "no spectrum method for this expression; supported classes are "
        "exponential polynomials, the impulse, and the catalog atoms")
