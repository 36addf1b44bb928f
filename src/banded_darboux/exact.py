"""Exact rational scalars, dense polynomials, and small dense matrices.

Everything in this package computes over `fractions.Fraction`; there is no
floating point anywhere. The identities being certified are exact
nonvanishing conditions, which rounding could neither establish nor refute.

Wire format for scalars: the canonical `str` of a Fraction, i.e. "num/den"
in lowest terms with a positive denominator, plain "num" for integers.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import Callable, Iterable, Union

from .errors import ConfigError, NotSquare, ShapeMismatch

ScalarLike = Union[Fraction, int, str]


def rational(value: ScalarLike) -> Fraction:
    """Coerce an int, Fraction, or "num/den" string to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def integer_image(values: Iterable[Fraction]) -> tuple[list[int], int]:
    """Numerators over the least common denominator d: values[i] = nums[i] / d."""
    values = list(values)
    d = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


# ASCII digits only: `\d` would also match other scripts' digits.
_WIRE_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def parse_rational(text: str | int) -> Fraction:
    """Parse the "num/den" (or "num") wire form; an int is taken as is.

    Only an optional minus sign, ASCII digits and one "/" are allowed: no
    spaces, "+", "_", decimal point or exponent (ValueError). A zero
    denominator raises ZeroDivisionError.
    """
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str) or not _WIRE_RATIONAL.fullmatch(text):
        raise ValueError(f"{text!r} is not a rational of the form num or num/den")
    return Fraction(text)


def _unprintable() -> ConfigError:
    return ConfigError(
        f"a value exceeds Python's {sys.get_int_max_str_digits()}-digit "
        "int-to-str limit; N or bound is too large for exact JSON output"
    )


def format_rational(value: Fraction) -> str:
    """Canonical "num/den" wire form, lowest terms, "num" for integers.

    Raises ConfigError when the numerator or denominator has more digits
    than Python's int-to-str limit (`sys.get_int_max_str_digits()`).
    """
    try:
        return str(value)
    except ValueError as exc:
        raise _unprintable() from exc


def check_printable(values: Iterable[Fraction]) -> None:
    """Raise format_rational's ConfigError unless it can print every value.

    With L = sys.get_int_max_str_digits(), str() fails exactly when
    |numerator| >= 10^L or denominator >= 10^L; L = 0 means no limit. This
    compares sizes only, so a command can refuse an unprintable result
    before it formats or writes any of it.
    """
    limit = sys.get_int_max_str_digits()
    if not limit:
        return
    bound = 10**limit
    for v in values:
        if not -bound < v.numerator < bound or v.denominator >= bound:
            raise _unprintable()


class Polynomial:
    """Dense univariate polynomial in z with Fraction coefficients.

    Immutable. `coefficients[k]` is the coefficient of z^k; trailing zeros
    are trimmed, so the zero polynomial has an empty coefficient tuple and
    degree -1.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable[ScalarLike] = ()):
        coeffs = [rational(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "_coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self._coeffs) and self._coeffs[-1] == 1

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self._coeffs)

    def __repr__(self):
        return f"Polynomial({self})"

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self._coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                var = "z" if k == 1 else f"z^{k}"
                body = var if mag == 1 else f"{mag}*{var}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = (first_sign if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


class DenseMatrix:
    """Small immutable dense matrix of Fractions (row-major)."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Iterable[ScalarLike]]):
        grid = tuple(tuple(rational(v) for v in row) for row in rows)
        if grid:
            width = len(grid[0])
            if any(len(row) != width for row in grid):
                raise ShapeMismatch("ragged rows")
        object.__setattr__(self, "_rows", grid)

    def __setattr__(self, name, value):
        raise AttributeError("DenseMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "DenseMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def from_function(cls, rows: int, cols: int, fn: Callable[[int, int], ScalarLike]) -> "DenseMatrix":
        return cls(tuple(tuple(fn(i, j) for j in range(cols)) for i in range(rows)))

    @property
    def rows(self) -> int:
        return len(self._rows)

    @property
    def cols(self) -> int:
        return len(self._rows[0]) if self._rows else 0

    def entry(self, i: int, j: int) -> Fraction:
        return self._rows[i][j]

    def as_rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._rows

    def __mul__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeMismatch(f"{self.rows}x{self.cols} times {other.rows}x{other.cols}")
        ocols = other.cols
        out = []
        for i in range(self.rows):
            arow = self._rows[i]
            out.append(
                tuple(
                    sum((arow[k] * other._rows[k][j] for k in range(self.cols)), Fraction(0))
                    for j in range(ocols)
                )
            )
        return DenseMatrix(out)

    def __eq__(self, other):
        if isinstance(other, DenseMatrix):
            return self._rows == other._rows
        return NotImplemented

    def __hash__(self):
        return hash(self._rows)

    def __repr__(self):
        body = "; ".join(" ".join(str(v) for v in row) for row in self._rows)
        return f"DenseMatrix[{body}]"


def det_exact(m: DenseMatrix) -> Fraction:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Rows are first scaled to integers; the Bareiss recurrence then keeps all
    intermediates integral, which bounds coefficient blowup compared with
    naive rational elimination. Row swaps only flip the sign, so the result
    does not depend on pivot choices.
    """
    if m.rows != m.cols:
        raise NotSquare(f"{m.rows}x{m.cols}")
    n = m.rows
    if n == 0:
        return Fraction(1)
    scale = 1
    work: list[list[int]] = []
    for row in m.as_rows():
        ints, mult = integer_image(row)
        scale *= mult
        work.append(ints)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if work[k][k] == 0:
            for i in range(k + 1, n):
                if work[i][k] != 0:
                    work[k], work[i] = work[i], work[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot = work[k][k]
        for i in range(k + 1, n):
            row_i = work[i]
            row_k = work[k]
            lead = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return Fraction(sign * work[n - 1][n - 1], scale)

