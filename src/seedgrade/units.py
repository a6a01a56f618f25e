"""Physical quantities: scientific-notation parsing, SI dimension vectors,
and relative-tolerance comparison."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .errors import DimensionMismatch, NoNumber, UnknownUnit

BASE_UNITS = ("m", "kg", "s", "A", "K", "mol", "cd")

# tried in this order: the exact token first, then the prefixes longest first
PREFIXES = {
    "": 1.0,
    "mu": 1e-6,
    "f": 1e-15,
    "p": 1e-12,
    "n": 1e-9,
    "u": 1e-6,
    "m": 1e-3,
    "c": 1e-2,
    "d": 1e-1,
    "k": 1e3,
    "M": 1e6,
    "G": 1e9,
    "T": 1e12,
}


@dataclass(frozen=True)
class Quantity:
    magnitude: float  # in SI base units
    dimension: tuple  # 7 rational exponents over (m, kg, s, A, K, mol, cd)
    si_scale: float = 1.0  # factor that was applied to reach base units

    def __post_init__(self):
        if not (self.magnitude == self.magnitude and abs(self.magnitude) != float("inf")):
            raise ValueError("magnitude must be finite")


def read_table(text: str) -> dict:
    """token -> (dimension, scale) from the `units.tab` format (docs/grammar.md)."""
    table = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        token, scale, factors = map(str.strip, re.split("[=;]", line, maxsplit=2))
        if token in table:
            raise ValueError(f"line {lineno}: duplicate unit token {token!r}")
        dim = [Fraction(0)] * 7
        for factor in factors.split():
            m = re.fullmatch(r"([a-zA-Z]+)(?:\^(-?\d+(?:/\d+)?))?", factor)
            if not m or m.group(1) not in BASE_UNITS:
                raise ValueError(f"line {lineno}: bad dimension factor {factor!r}")
            dim[BASE_UNITS.index(m.group(1))] += Fraction(m.group(2) or 1)
        table[token] = (tuple(dim), float(scale))
    return table


# the bundled units.tab, read on first use
_UNITS: dict = {}


def _resolve(token: str) -> tuple:
    """(dimension, scale) of a unit token: a prefix, maybe empty, and a table token."""
    for prefix, factor in PREFIXES.items():
        if token.startswith(prefix) and len(token) > len(prefix):
            hit = _UNITS.get(token[len(prefix):])
            if hit is not None:
                return hit[0], hit[1] * factor
    raise UnknownUnit(token)


# a thousands separator: `,`, `{,}`, or a thin space (`\,`, a plain space once normalized)
_SEP = r"(?:,|\{,\}|\\,| )"
# a decimal comma: `,` or `{,}` before a run of digits that is not exactly three
# long (a digit must follow, so the `,` inside a grouping `{,}` never matches alone)
_COMMA = r"(?:,|\{,\})(?=\d)(?!\d{3}(?!\d))"
# a decimal literal; its integer part may be grouped by threes (`12,345,678`),
# or it may have a decimal comma (`1,5`, `3{,}14`)
_NUM = (
    rf"(?:[1-9]\d{{0,2}}(?:{_SEP}\d{{3}})+(?!\d)(?:\.\d*)?|\d+{_COMMA}\d+|\d+\.?\d*|\.\d+)"
    r"(?:[eE][+-]?\d+)?"
)
# a decimal literal, or `\frac{a}{b}` of two of them
_NUMBER_RE = re.compile(rf"([+-]?)\\frac\s*\{{\s*({_NUM})\s*\}}\s*\{{\s*({_NUM})\s*\}}|[+-]?{_NUM}")
# finds the decimal comma of a literal; a grouped literal has none
_COMMA_RE = re.compile(_COMMA)
# deletes the separators from a grouped literal
_UNGROUPED = str.maketrans("", "", ",{} \\")
# what may stand before a number that takes a bare `^{k}`: nothing, `\approx` or `\sim`
_LEAD_RE = re.compile(r"(?:\\approx|\\sim)?\s*")
# `\times 10^{b}` after the number or after `(a \pm c)`, or a bare `^{b}` after a leading literal
_POWER_RE = re.compile(
    rf"\s*(?:\\pm\s*{_NUM}\s*\))?\s*((?:\\times|\\cdot|\*|x)\s*10\s*)?\^\s*\{{?\s*([+-]?\d+)\s*\}}?"
)
# `\pm`, the `/` after which exponents are negated, or a unit word and its exponent
_UNIT_RE = re.compile(r"(\\pm(?![a-zA-Z]))|(/)|\\?([a-zA-Z]+)\s*(?:\^\s*(-?\d+(?:/\d+)?))?")


def _value(literal: str) -> float:
    """The float of a decimal literal: a decimal comma is a point, and the
    separators of grouped digits go."""
    return float(_COMMA_RE.sub(".", literal).translate(_UNGROUPED))


def parse_quantity(text: str) -> Quantity:
    """Parse `<number> [\\pm <number>] [x 10^b] [unit product]` into an SI-base
    Quantity; the uncertainty after `\\pm` is dropped. A leading decimal
    literal b, after a sign, `\\approx` or `\\sim`, may take a bare `^{k}`
    (b^k). Its integer part may be grouped by threes, and a `,` or `{,}`
    before a run of digits that is not three long is a decimal comma. A
    magnitude or unit scale that is not finite (out of float range, a zero
    denominator) raises NoNumber."""
    text = text.strip()
    if not _UNITS:
        bundled = resources.files("seedgrade.data").joinpath("units.tab")
        _UNITS.update(read_table(bundled.read_text("utf-8")))

    m = _NUMBER_RE.search(text)
    if m is None:
        raise NoNumber(f"no numeric literal in {text!r}")
    rest = text[m.end():]
    try:
        lead, num, den = m.groups()
        if num:
            magnitude = _value(lead + num) / _value(den)
        else:
            magnitude = _value(m.group(0))
        p = _POWER_RE.match(rest)
        if p and (p.group(1) or (not num and _LEAD_RE.fullmatch(text, 0, m.start()))):
            k = float(p.group(2))
            # a bare power takes the sign outside: `-10^{3}` is -(10^3)
            magnitude = magnitude * 10.0 ** k if p.group(1) else math.copysign(abs(magnitude) ** k, magnitude)
            rest = rest[p.end():]

        # one scan of the unit product; a detached `\mu`/`u` prefixes the next word
        dim = [Fraction(0)] * 7
        scale = 1.0
        sign = 1
        micro = None
        product = re.sub(r"\\cdot|\\times|[{}*]", " ", rest)
        for pm, slash, word, exp in _UNIT_RE.findall(product):
            if pm:
                if scale != 1.0 or any(dim):
                    break  # `a m \pm b m`: the uncertainty repeats the unit
                continue  # `a \pm b m`: its digits are skipped like any others
            if slash:
                sign = -1
                continue
            if micro:
                if word in ("mu", "u"):
                    raise UnknownUnit(micro)
                word, micro = "mu" + word, None
            elif word in ("mu", "u"):
                micro = word
                continue
            tdim, tscale = _resolve(word)
            e = sign * Fraction(exp or 1)
            dim = [d + t * e for d, t in zip(dim, tdim)]
            scale *= tscale ** float(e)
        if micro:
            raise UnknownUnit(micro)
        magnitude *= scale
    except (ArithmeticError, ValueError):  # overflow, 1/0, an exponent past the int-string limit
        magnitude = math.inf
    if not math.isfinite(magnitude):
        raise NoNumber(f"no finite magnitude in {text!r}")
    return Quantity(magnitude=magnitude, dimension=tuple(dim), si_scale=scale)


def compare_quantities(pred: Quantity, gt: Quantity, rtol: float = 1e-2) -> bool:
    """True iff dimensions match and magnitudes agree within relative tolerance."""
    if rtol <= 0:
        raise ValueError("rtol must be positive")
    if pred.dimension != gt.dimension:
        raise DimensionMismatch(
            f"dimension {_fmt_dim(pred.dimension)} vs {_fmt_dim(gt.dimension)}"
        )
    if gt.magnitude == 0:
        return abs(pred.magnitude) <= rtol * gt.si_scale
    return abs(pred.magnitude - gt.magnitude) <= rtol * abs(gt.magnitude)


def _fmt_dim(dim: tuple) -> str:
    parts = [
        f"{u}^{e}" for u, e in zip(BASE_UNITS, dim) if e != 0
    ]
    return " ".join(parts) if parts else "1"
