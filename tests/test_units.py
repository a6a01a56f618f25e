import hashlib
import random
from fractions import Fraction

import pytest

from seedgrade import units
from seedgrade.errors import DimensionMismatch, NoNumber, UnknownUnit
from seedgrade.units import (
    BASE_UNITS,
    Quantity,
    compare_quantities,
    parse_quantity,
    read_table,
)


def dim(**kw):
    d = [Fraction(0)] * 7
    for unit, exp in kw.items():
        d[BASE_UNITS.index(unit)] = Fraction(exp)
    return tuple(d)


class TestParseQuantity:
    def test_scientific_notation(self):
        q = parse_quantity(r"3.0 \times 10^{8} m/s")
        assert q.magnitude == pytest.approx(3e8)
        assert q.dimension == dim(m=1, s=-1)

    def test_e_notation(self):
        q = parse_quantity("3.0e8 m/s")
        assert q.magnitude == pytest.approx(3e8)

    def test_bare_power_of_ten(self):
        q = parse_quantity("10^{-3} m")
        assert q.magnitude == pytest.approx(1e-3)

    def test_prefix(self):
        assert parse_quantity("2 km").magnitude == pytest.approx(2000)
        assert parse_quantity("5 meV").magnitude == pytest.approx(5e-3 * 1.602176634e-19)

    def test_kg_is_exact_before_prefix_split(self):
        q = parse_quantity("1 kg")
        assert q.magnitude == pytest.approx(1.0)
        assert q.dimension == dim(kg=1)

    def test_compound_units(self):
        q = parse_quantity(r"2 J \cdot s")
        assert q.dimension == dim(m=2, kg=1, s=-1)

    def test_exponents(self):
        q = parse_quantity("9.8 m/s^2")
        assert q.dimension == dim(m=1, s=-2)

    def test_detached_micro_prefix(self):
        q = parse_quantity(r"3 \mu m")
        assert q.magnitude == pytest.approx(3e-6)
        assert q.dimension == dim(m=1)

    def test_dimensionless(self):
        q = parse_quantity("0.5")
        assert q.dimension == dim()

    def test_no_number(self):
        with pytest.raises(NoNumber):
            parse_quantity("m/s")

    def test_unknown_unit(self):
        with pytest.raises(UnknownUnit):
            parse_quantity("3 florps")

    def test_frac_of_literals(self):
        q = parse_quantity(r"\frac{1}{2} m")
        assert q.magnitude == 0.5
        assert q.dimension == dim(m=1)
        assert parse_quantity(r"-\frac{3}{4}").magnitude == -0.75

    @pytest.mark.parametrize("text", [
        r"3 \pm 0.1 m", r"(3 \pm 0.1) m", r"3 m \pm 0.1 m", r"3 \pm 0.1 \times 10^{-3} m",
    ])
    def test_uncertainty_dropped(self, text):
        q = parse_quantity(text)
        assert q.magnitude == 3.0
        assert q.dimension == dim(m=1)

    def test_uncertainty_before_power_of_ten(self):
        q = parse_quantity(r"(3.0 \pm 0.1) \times 10^{8} m/s")
        assert q.magnitude == pytest.approx(3e8)
        assert q.dimension == dim(m=1, s=-1)

    def test_rational_exponent_read_before_division(self):
        q = parse_quantity(r"2 m^{1/2} K")
        assert q.dimension == dim(m=Fraction(1, 2), K=1)

    @pytest.mark.parametrize("text, magnitude", [
        (r"-10^{3} m", -1000.0), (r"2^{10} m", 1024.0), (r"\approx 10^{3} m", 1000.0),
        (r"\sim 1.5^{2} m", 2.25), (r"-2^{-3} m", -0.125),
    ])
    def test_power_of_a_leading_literal(self, text, magnitude):
        q = parse_quantity(text)
        assert q.magnitude == magnitude
        assert q.dimension == dim(m=1)

    @pytest.mark.parametrize("text, magnitude", [
        ("1,500 m", 1500.0), (r"1{,}500 m", 1500.0), (r"1\,500 m", 1500.0), ("1 500 m", 1500.0),
        ("12,345,678 m", 12345678.0), ("-1,500.25 m", -1500.25), (r"\frac{3,000}{4} m", 750.0),
    ])
    def test_thousands_separators(self, text, magnitude):
        q = parse_quantity(text)
        assert q.magnitude == magnitude
        assert q.dimension == dim(m=1)

    @pytest.mark.parametrize("text, magnitude", [
        ("1,5 m", 1.5), ("1,5000 m", 1.5), (r"3{,}14 m", 3.14), ("-0,25 m", -0.25),
        ("1,5e3 m", 1500.0), (r"\frac{1,5}{3} m", 0.5),
    ])
    def test_decimal_comma(self, text, magnitude):
        q = parse_quantity(text)
        assert q.magnitude == magnitude
        assert q.dimension == dim(m=1)

    @pytest.mark.parametrize("text, magnitude", [
        ("0,001 m", 0.0), ("1234,567 m", 1234.0),
    ])
    def test_other_commas_end_the_number(self, text, magnitude):
        assert parse_quantity(text).magnitude == magnitude

    @pytest.mark.parametrize("text", [
        r"3 \times 10^{400} m", "2 km^{999}", "1e999 m", r"\frac{1}{0} m", "2 m^{1/0}",
        "2^{5000} m", "0^{-1} m",
        pytest.param("2 m^{" + "9" * 5000 + "}", id="exponent-past-int-string-limit"),
    ])
    def test_out_of_range_is_no_number(self, text):
        with pytest.raises(NoNumber, match="no finite magnitude"):
            parse_quantity(text)


class TestCompare:
    def test_within_rtol(self):
        a = parse_quantity("3.0e8 m/s")
        b = parse_quantity("299792458 m/s")
        assert compare_quantities(a, b, rtol=1e-2)

    def test_outside_rtol(self):
        a = parse_quantity("3.2e8 m/s")
        b = parse_quantity("299792458 m/s")
        assert not compare_quantities(a, b, rtol=1e-2)

    def test_cross_unit(self):
        a = parse_quantity("1 eV")
        b = parse_quantity("1.602e-19 J")
        assert compare_quantities(a, b, rtol=1e-2)

    def test_dimension_mismatch_raises(self):
        a = parse_quantity("1 J")
        b = parse_quantity("1 C")
        with pytest.raises(DimensionMismatch):
            compare_quantities(a, b)

    def test_zero_ground_truth_uses_scale(self):
        z = parse_quantity("0 m")
        assert compare_quantities(parse_quantity("0.001 m"), z, rtol=1e-2)
        assert not compare_quantities(parse_quantity("1 m"), z, rtol=1e-2)

    def test_bad_rtol(self):
        with pytest.raises(ValueError):
            compare_quantities(parse_quantity("1 m"), parse_quantity("1 m"), rtol=0)


class TestUnitTable:
    def test_from_text(self, monkeypatch):
        t = read_table("pc = 3.0857e16 ; m\n# comment\n")
        d, s = t["pc"]
        assert d == dim(m=1)
        assert s == pytest.approx(3.0857e16)
        # prefixes compose with the table's entries
        monkeypatch.setattr(units, "_UNITS", t)
        q = parse_quantity("1 kpc")
        assert q.dimension == dim(m=1)
        assert q.si_scale == pytest.approx(3.0857e19)

    def test_duplicate_token_rejected(self):
        with pytest.raises(ValueError):
            read_table("m = 1 ; m\nm = 2 ; m\n")

    def test_rational_exponent(self):
        d, _ = read_table("weird = 2 ; m^1/2\n")["weird"]
        assert d == dim(m=Fraction(1, 2))

    def test_finite_magnitude_required(self):
        with pytest.raises(ValueError):
            Quantity(float("inf"), dim())


def _quantity_text(rng):
    numbers = ["3", "-2.5", ".5", "6.02e23", "10", "0", "9.81", "+4", "1.5e-3",
               r"3.0 \times 10^{8}", r"2 \cdot 10^{-3}", "10^{-3}", "4 x 10^5", "7 * 10^{2}",
               r"\frac{1}{2}", r"-\frac{3}{4}", r"3 \pm 0.1", r"(2.0 \pm 0.1) \times 10^{3}"]
    words = ["m", "kg", "s", "km", "mm", r"\mu m", r"\mu", "u", "um", "eV", "meV", "GeV", "J",
             "N", "kPa", r"\Omega", r"k\Omega", "mol", "K", "MHz", "G", "mT", "min", "h", "AA",
             "mL", "kcal", "florps", "pm", "rad", "cd", "mumol", "ns", "cm", "mg", "yr", "ly"]
    exponents = ["", "", "", "^2", "^{-1}", "^ {3}", "^{ -2 }", "^-2", "^{1/2}", "^{-3/2}"]
    separators = [" ", " ", "/", " / ", r" \cdot ", "*", r"\,", "", "(", ")", ","]
    text = rng.choice(numbers) + rng.choice(separators)
    for _ in range(rng.randint(0, 3)):
        text += rng.choice(words) + rng.choice(exponents) + rng.choice(separators)
    return text


class TestGoldenQuantities:
    """Quantities read from seeded generated texts, pinned by a sha256
    digest: a rewrite of the reader must keep every magnitude, dimension,
    scale and error."""

    def test_digest(self):
        rng = random.Random(2017)
        h = hashlib.sha256()
        read = 0
        for _ in range(2000):
            text = _quantity_text(rng)
            try:
                q = parse_quantity(text)
                out = repr((q.magnitude, q.dimension, q.si_scale))
                read += 1
            except (NoNumber, UnknownUnit) as exc:
                out = f"{type(exc).__name__}: {exc}"
            h.update(f"{text}\n{out}\n".encode())
        assert (read, h.hexdigest()) == GOLDEN_QUANTITIES


GOLDEN_QUANTITIES = (1690, "d560419aa3e16872a6083ee7dfa66d4f669e6f14028e06730104d9b1c1edb1d1")
