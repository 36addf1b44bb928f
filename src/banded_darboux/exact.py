"""Exact rational scalars: coercion, parsing and printing.

Everything in this package computes over `fractions.Fraction`; there is no
floating point anywhere. The identities being certified are exact
nonvanishing conditions, which rounding could neither establish nor refute.
This module holds scalar helpers only. A polynomial is an integer row
(nums, d): its coefficients are nums[i] / d, lowest degree first, as
`integer_image` gives them; `format_row` prints one.

Wire format for scalars: the canonical `str` of a Fraction, i.e. "num/den"
in lowest terms with a positive denominator, plain "num" for integers.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import ConfigError

ScalarLike = Union[Fraction, int, str]
# A polynomial as an integer row (nums, d): coefficients nums[i] / d.
IntegerRow = tuple[list[int], int]


def rational(value: ScalarLike) -> Fraction:
    """Coerce an int, Fraction, or "num/den" string to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def integer_image(values: Iterable[Fraction]) -> IntegerRow:
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


def format_row(row: IntegerRow) -> list[str]:
    """The wire forms of an integer row's coefficients nums[i] / d, lowest
    degree first; each Fraction is formed as it is printed."""
    nums, d = row
    return [format_rational(Fraction(c, d)) for c in nums]


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


def format_polynomial(coeffs: Sequence[str]) -> str:
    """The polynomial sum_k coeffs[k] z^k as text, highest degree first,
    from its coefficients' wire forms (`format_rational`).

    For example ("1", "-3/2", "0", "1") reads "z^3 - 3/2*z + 1". Zero
    coefficients are skipped, and a polynomial without nonzero ones reads "0".
    """
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == "0":
            continue
        negative = c[0] == "-"
        mag = c[1:] if negative else c
        if k == 0:
            body = mag
        else:
            var = "z" if k == 1 else f"z^{k}"
            body = var if mag == "1" else f"{mag}*{var}"
        terms.append(("- " if negative else "+ ") + body)
    if not terms:
        return "0"
    text = " ".join(terms)
    return text[2:] if text[0] == "+" else "-" + text[2:]
