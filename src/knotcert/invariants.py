"""Closed-form knot invariants.

Torus knot Alexander polynomials, determinants and genera, and the genus
of positive knot diagrams.
"""

from __future__ import annotations

import math

from .braid import _check_integers, _check_size, _shown
from .diagram import LinkDiagram, component_count, is_positive, seifert_circle_count

__all__ = [
    "torus_alexander",
    "det_from_alexander",
    "torus_det_4x",
    "positive_genus",
    "torus_genus",
]


def _t_power_minus_one(k: int) -> list[int]:
    """Coefficients of t^k - 1, from t^0 up."""
    return [-1] + [0] * (k - 1) + [1]


def _multiply(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, c in enumerate(p):
        for j, d in enumerate(q):
            out[i + j] += c * d
    return out


def _divexact(num: list[int], den: list[int]) -> list[int]:
    """Quotient of polynomial division; raises if the remainder is nonzero."""
    rem = list(num)
    quo = [0] * (len(num) - len(den) + 1)
    for k in range(len(quo) - 1, -1, -1):
        q, r = divmod(rem[k + len(den) - 1], den[-1])
        if r:
            raise ValueError("inexact polynomial division (leading coefficient)")
        quo[k] = q
        for i, d in enumerate(den):
            rem[k + i] -= q * d
    if any(rem):
        raise ValueError("inexact polynomial division (nonzero remainder)")
    return quo


def _evaluate(p: list[int] | tuple[int, ...], x: int) -> int:
    return sum(c * x**e for e, c in enumerate(p))


def _derivative(p: list[int]) -> list[int]:
    return [e * c for e, c in enumerate(p)][1:]


def _torus_quotient(a: int, b: int) -> tuple[list[int], list[int]]:
    """Numerator and denominator of (t^(ab) - 1)(t - 1) / ((t^a - 1)(t^b - 1))."""
    return (_multiply(_t_power_minus_one(a * b), _t_power_minus_one(1)),
            _multiply(_t_power_minus_one(a), _t_power_minus_one(b)))


def torus_alexander(a: int, b: int) -> tuple[int, ...]:
    """Alexander polynomial of the (a, b) torus knot,
    (t^(ab) - 1)(t - 1) / ((t^a - 1)(t^b - 1)), as coefficients from t^0 up.
    The division is quadratic in a*b, so a torus braid of more than
    MAX_INPUT_LETTERS crossings, (a - 1) * b, is refused first."""
    _check_integers("torus knot parameters", a, b)
    if a < 1 or b < 1:
        raise ValueError(f"torus knot parameters must be positive, got ({_shown(a)}, {_shown(b)})")
    if math.gcd(a, b) != 1:
        raise ValueError(f"torus knot parameters must be coprime, got ({_shown(a)}, {_shown(b)})")
    _check_size("torus braid of", (a - 1) * b, "crossings")
    return tuple(_divexact(*_torus_quotient(a, b)))


def det_from_alexander(p: tuple[int, ...]) -> int:
    """Knot determinant |p(-1)| of coefficients p from t^0 up."""
    return abs(_evaluate(p, -1))


def torus_det_4x(x: int) -> int:
    """Determinant of the (4, x) torus knot, evaluated two independent ways.

    The defining quotient (t^(4x)-1)(t-1) / ((t^4-1)(t^x-1)) has numerator
    and denominator both vanishing at t = -1, so the evaluation uses the
    derivative quotient there; the result is cross-checked against the
    explicit polynomial division.  Both paths must give x.  As in
    torus_alexander, a torus braid of more than MAX_INPUT_LETTERS
    crossings, 3x, is refused first.
    """
    _check_integers("torus knot parameters", x)
    if x < 1 or x % 2 == 0:
        raise ValueError(f"(4, x) torus knots need odd positive x, got {_shown(x)}")
    _check_size("torus braid of", 3 * x, "crossings")
    num, den = _torus_quotient(4, x)
    if _evaluate(num, -1) != 0 or _evaluate(den, -1) != 0:
        raise AssertionError("expected a 0/0 evaluation at t = -1")
    dn = _evaluate(_derivative(num), -1)
    dd = _evaluate(_derivative(den), -1)
    if dd == 0 or dn % dd != 0:
        raise AssertionError("derivative quotient at t = -1 is not an integer")
    via_derivative = abs(dn // dd)
    via_division = det_from_alexander(tuple(_divexact(num, den)))
    if via_derivative != via_division:
        raise AssertionError(f"determinant paths disagree for (4, {_shown(x)}): "
                             f"{_shown(via_derivative)} vs {_shown(via_division)}")
    return via_derivative


def positive_genus(d: LinkDiagram) -> int:
    """Genus of a positive knot diagram: Seifert's algorithm gives a surface
    of minimal genus (crossings - circles + 1) / 2."""
    if not is_positive(d):
        raise ValueError("genus formula requires a positive diagram")
    if component_count(d) != 1:
        raise ValueError("genus formula requires a single-component diagram")
    c = len(d.crossings)
    circles = seifert_circle_count(d)
    if (c - circles + 1) % 2:
        raise AssertionError("crossings - circles + 1 must be even for a knot")
    return (c - circles + 1) // 2


def torus_genus(a: int, b: int) -> int:
    """Genus of the (a, b) torus knot, (a-1)(b-1)/2."""
    _check_integers("torus knot parameters", a, b)
    if a < 1 or b < 1 or math.gcd(a, b) != 1:
        raise ValueError(
            f"torus knot parameters must be positive and coprime: ({_shown(a)}, {_shown(b)})")
    return (a - 1) * (b - 1) // 2
