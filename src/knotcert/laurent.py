"""Sparse Laurent polynomials with exact integer coefficients.

Two small containers: one variable for Alexander-style computations and
Hecke coefficient rings, two variables for the framed link polynomial.
Both store {exponent: coefficient} dicts with zero coefficients stripped,
so equality is structural equality of the stored terms.
"""

from __future__ import annotations

__all__ = ["LaurentPoly1", "LaurentPoly2"]


class LaurentPoly1:
    """Laurent polynomial in one variable t over the integers."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        clean: dict[int, int] = {}
        if coeffs:
            for e, c in coeffs.items():
                if not isinstance(e, int) or not isinstance(c, int):
                    raise ValueError(f"bad term {c!r}*t^{e!r}: exponents and coefficients must be int")
                if c != 0:
                    clean[e] = c
        self.coeffs = clean

    @classmethod
    def zero(cls) -> "LaurentPoly1":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly1":
        return cls({0: 1})

    @classmethod
    def term(cls, coeff: int, exp: int) -> "LaurentPoly1":
        return cls({exp: coeff})

    def is_zero(self) -> bool:
        return not self.coeffs

    def min_exp(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no exponents")
        return min(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LaurentPoly1({0: other})
        if not isinstance(other, LaurentPoly1):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __neg__(self) -> "LaurentPoly1":
        return LaurentPoly1({e: -c for e, c in self.coeffs.items()})

    def __add__(self, other: "LaurentPoly1 | int") -> "LaurentPoly1":
        if isinstance(other, int):
            other = LaurentPoly1({0: other})
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly1(out)

    __radd__ = __add__

    def __sub__(self, other: "LaurentPoly1 | int") -> "LaurentPoly1":
        if isinstance(other, int):
            other = LaurentPoly1({0: other})
        return self + (-other)

    def __mul__(self, other: "LaurentPoly1 | int") -> "LaurentPoly1":
        if isinstance(other, int):
            return LaurentPoly1({e: c * other for e, c in self.coeffs.items()})
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly1(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly1":
        if n < 0:
            raise ValueError("negative powers are not supported")
        result = LaurentPoly1.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shifted(self, d: int) -> "LaurentPoly1":
        return LaurentPoly1({e + d: c for e, c in self.coeffs.items()})

    def derivative(self) -> "LaurentPoly1":
        return LaurentPoly1({e - 1: c * e for e, c in self.coeffs.items() if e != 0})

    def evaluate(self, x: int) -> int:
        """Exact evaluation at an integer point.

        Negative exponents are only meaningful at x = 1 or x = -1, where
        t^-e equals t^e; other points raise.
        """
        total = 0
        for e, c in self.coeffs.items():
            if e < 0:
                if x not in (1, -1):
                    raise ValueError(f"cannot evaluate t^{e} at x={x} exactly")
                e = -e
            total += c * x**e
        return total

    def divexact(self, other: "LaurentPoly1") -> "LaurentPoly1":
        """Exact division; raises if the remainder is nonzero."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return LaurentPoly1.zero()
        shift = self.min_exp() - other.min_exp()
        num = dict(self.shifted(-self.min_exp()).coeffs)
        den = other.shifted(-other.min_exp()).coeffs
        dd = max(den)
        dl = den[dd]
        quo: dict[int, int] = {}
        while num:
            nd = max(num)
            if nd < dd:
                raise ValueError("inexact polynomial division (remainder of lower degree)")
            lead = num[nd]
            if lead % dl != 0:
                raise ValueError("inexact polynomial division (leading coefficient)")
            q = lead // dl
            quo[nd - dd] = q
            for e, c in den.items():
                k = e + nd - dd
                v = num.get(k, 0) - q * c
                if v:
                    num[k] = v
                else:
                    num.pop(k, None)
        return LaurentPoly1(quo).shifted(shift)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(f"{self.coeffs[e]}*t^{e}" for e in sorted(self.coeffs))

    def __repr__(self) -> str:
        return f"LaurentPoly1({self.coeffs!r})"


class LaurentPoly2:
    """Laurent polynomial in two variables with integer coefficients.

    Keys are (i, j) exponent pairs; ``str`` prints them as a^i*z^j.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[tuple[int, int], int] | None = None):
        clean: dict[tuple[int, int], int] = {}
        if coeffs:
            for (i, j), c in coeffs.items():
                if not (isinstance(i, int) and isinstance(j, int) and isinstance(c, int)):
                    raise ValueError(f"bad term {c!r}*a^{i!r}*z^{j!r}: exponents and "
                                     "coefficients must be int")
                if c != 0:
                    clean[(i, j)] = c
        self.coeffs = clean

    @classmethod
    def zero(cls) -> "LaurentPoly2":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly2":
        return cls({(0, 0): 1})

    @classmethod
    def term(cls, coeff: int, i: int, j: int) -> "LaurentPoly2":
        return cls({(i, j): coeff})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LaurentPoly2({(0, 0): other})
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __neg__(self) -> "LaurentPoly2":
        return LaurentPoly2({k: -c for k, c in self.coeffs.items()})

    def __add__(self, other: "LaurentPoly2 | int") -> "LaurentPoly2":
        if isinstance(other, int):
            other = LaurentPoly2({(0, 0): other})
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return LaurentPoly2(out)

    __radd__ = __add__

    def __sub__(self, other: "LaurentPoly2 | int") -> "LaurentPoly2":
        if isinstance(other, int):
            other = LaurentPoly2({(0, 0): other})
        return self + (-other)

    def __mul__(self, other: "LaurentPoly2 | int") -> "LaurentPoly2":
        if isinstance(other, int):
            return LaurentPoly2({k: c * other for k, c in self.coeffs.items()})
        out: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, 0) + c1 * c2
        return LaurentPoly2(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly2":
        if n < 0:
            raise ValueError("negative powers are not supported")
        result = LaurentPoly2.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def mul_term(self, coeff: int, di: int, dj: int) -> "LaurentPoly2":
        return LaurentPoly2({(i + di, j + dj): c * coeff for (i, j), c in self.coeffs.items()})

    def exponents_first(self) -> list[int]:
        return sorted({i for (i, _j) in self.coeffs})

    def terms(self) -> list[tuple[int, int, int]]:
        """Sorted (i, j, coeff) triples."""
        return [(i, j, self.coeffs[(i, j)]) for (i, j) in sorted(self.coeffs)]

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(f"{self.coeffs[(i, j)]}*a^{i}*z^{j}" for (i, j) in sorted(self.coeffs))

    def __repr__(self) -> str:
        return f"LaurentPoly2({self.coeffs!r})"
