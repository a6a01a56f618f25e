"""Physical quantities: unit products read into SI dimension vectors and
scales, and relative-tolerance comparison. A numeric answer's value is read
by the expression parser and canon (see grader.read_answer)."""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .errors import DimensionMismatch, UnknownUnit

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


# the `/` after which exponents are negated, or a unit word and its exponent
_UNIT_RE = re.compile(r"(/)|\\?([a-zA-Z]+)\s*(?:\^\s*(-?\d+(?:/\d+)?))?")


def parse_quantity(magnitude: float, product: str) -> Quantity:
    """The Quantity `magnitude` times one unit of the unit `product`
    (`km/s^2`, `J \\cdot s`; empty for a plain number), in SI base units.
    One scan; a detached `\\mu`/`u` prefixes the next word. Raises
    UnknownUnit for a word that is no unit, and ValueError or
    ArithmeticError for a magnitude or unit scale that is not finite."""
    if not _UNITS:
        bundled = resources.files("seedgrade.data").joinpath("units.tab")
        _UNITS.update(read_table(bundled.read_text("utf-8")))
    dim = [Fraction(0)] * 7
    scale = 1.0
    sign = 1
    micro = None
    for slash, word, exp in _UNIT_RE.findall(re.sub(r"\\cdot|\\times|[{}*]", " ", product)):
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
        e = Fraction(exp) * sign if exp else sign
        for i, t in enumerate(tdim):
            if t:  # only the unit's own exponents: most units have one or two
                dim[i] += t * e
        scale *= tscale ** float(e)
    if micro:
        raise UnknownUnit(micro)
    return Quantity(magnitude=magnitude * scale, dimension=tuple(dim), si_scale=scale)


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
