"""Sparse Laurent polynomials in two variables with exact integer coefficients.

One small container for the skein polynomial and the Hecke-algebra trace
that computes it.  It stores an {(i, j): coefficient} dict with zero
coefficients stripped, so equality is structural equality of the stored
terms.
"""

from __future__ import annotations

__all__ = ["LaurentPoly2"]


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
    def one(cls) -> "LaurentPoly2":
        return cls({(0, 0): 1})

    @classmethod
    def term(cls, coeff: int, i: int, j: int) -> "LaurentPoly2":
        return cls({(i, j): coeff})

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LaurentPoly2({(0, 0): other})
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __neg__(self) -> "LaurentPoly2":
        return LaurentPoly2({k: -c for k, c in self.coeffs.items()})

    def __add__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return LaurentPoly2(out)

    def __sub__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        out: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, 0) + c1 * c2
        return LaurentPoly2(out)

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
