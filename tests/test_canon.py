import hashlib
import random
from fractions import Fraction

import pytest

from oracle import evaluate_exact
from test_acceptance import EQUIVALENT_PAIRS, INEQUIVALENT_PAIRS
from seedgrade import canon as canon_mod
from seedgrade import nodes
from seedgrade.canon import (
    P,
    canonicalize,
    equivalent,
    standardize_relation,
)
from seedgrade.config import GradeConfig
from seedgrade.errors import Inconclusive, NotARelation
from seedgrade.grader import grade, grade_equation
from seedgrade.nodes import AnswerType, Kind, add, const, mul, num, pow_, relation, sym
from seedgrade.parser import parse_expression
from seedgrade.preprocess import canonicalize_latex

x, y, z, M = sym("x"), sym("y"), sym("z"), sym("M")


def parse(s):
    return parse_expression(canonicalize_latex(s))


def canon(node):
    return canonicalize(node).root


class TestNodes:
    @pytest.mark.parametrize("field", ["kind", "payload", "children", "_hash", "_key"])
    def test_every_field_is_immutable(self, field):
        node = add(x, y)
        with pytest.raises(AttributeError):
            setattr(node, field, None)

    def test_caches_fill(self):
        node = add(x, mul(num(2), y))
        assert node._hash is None and node._key is None
        h = hash(node)
        assert node._hash == h
        assert canon_mod.sort_key(node) is node._key is not None

    def test_one_node_per_leaf(self):
        assert num(2) is num(Fraction(2)) is num("2")
        assert num(Fraction(1, 2)) is nodes.HALF and num(-1) is nodes.MINUS_ONE
        assert sym("x") is sym("x") is not sym("y")
        assert const("pi") is const("pi")
        assert num(1) is not sym("1") and num(0) is not const("e")

    def test_leaf_table_is_bounded(self):
        table = nodes._leaf
        assert table.cache_info().maxsize == nodes.LEAVES
        first = sym("leaf-0")
        for k in range(nodes.LEAVES):
            sym(f"leaf-{k + 1}")
        assert table.cache_info().currsize == nodes.LEAVES
        # an evicted leaf stays valid; the next one is an equal node
        again = sym("leaf-0")
        assert again is not first and again == first and hash(again) == hash(first)

    def test_equal_nodes_with_cached_hashes(self):
        a, b = add(x, mul(num(2), y)), add(x, mul(num(2), y))
        assert hash(a) == hash(b) and a == b
        assert hash(add(x, y)) != hash(add(x, z)) and add(x, y) != add(x, z)
        assert add(x, y) != "x + y"


class TestCanonicalTree:
    def test_digest_and_size_on_first_read(self):
        node = add(x, mul(num(2), pow_(y, num(3))))
        tree = canonicalize(node)
        assert tree._digest is None and tree._size is None
        assert tree.digest == hashlib.sha1(repr(tree.root).encode()).hexdigest()
        assert tree.size == tree.root.size() == 7
        assert tree.digest is tree._digest and tree.size is tree._size


class TestRewrites:
    def test_like_terms_collect(self):
        assert canon(add(x, x)) == mul(num(2), x)

    def test_like_bases_collect(self):
        assert canon(mul(pow_(M, num(2)), pow_(M, num(-1)))) == M

    def test_constant_folding(self):
        assert canon(parse(r"\frac{2}{4}")) == num(Fraction(1, 2))
        assert canon(parse("2^3")) == num(8)

    def test_commutativity_normalized(self):
        assert canon(add(x, y)) == canon(add(y, x))
        assert canon(mul(x, y, z)) == canon(mul(z, y, x))

    def test_pow_distributes_over_mul(self):
        assert canon(parse(r"\sqrt{4x}")) == canon(parse(r"2\sqrt{x}"))

    def test_nested_pow_folds(self):
        assert canon(parse(r"\sqrt[3]{x^6}")) == pow_(x, num(2))

    def test_zero_and_one_annihilate(self):
        assert canon(mul(num(0), x)) == num(0)
        assert canon(pow_(x, num(0))) == num(1)
        assert canon(add(x, mul(num(-1), x))) == num(0)
        assert canon(add(x, mul(num(-1), x), y)) == y

    def test_numeric_power_tried_once(self, monkeypatch):
        calls = []
        real = canon_mod._rational_pow
        monkeypatch.setattr(canon_mod, "_rational_pow", lambda b, e: calls.append((b, e)) or real(b, e))
        assert canon(parse(r"x \sqrt{2}")) == mul(x, pow_(num(2), num(Fraction(1, 2))))
        assert calls == [(2, Fraction(1, 2))]
        # a bucket that sums exponents folds again
        calls.clear()
        assert canon(parse(r"x \sqrt{2} \sqrt{2}")) == mul(num(2), x)
        assert len(calls) == 3
        assert canon(mul(x, pow_(num(1), num(10**6)))) == x

    def test_idempotent(self):
        t = parse(r"\frac{(x+y)^2 - x^2}{2y} + \sqrt{x^4}")
        once = canon(t)
        assert canon(once) == once

    def test_sum_past_the_bit_budget_idempotent(self):
        # eleven numbers within the bit budget, whose sum is not, stay eleven terms
        once = canon(parse(" + ".join([r"3^{4761} 7^{2399}"] * 11)))
        assert once.kind is Kind.ADD and len(once.children) == 11
        assert canon(once) == once
        assert canon(add(once, x)) == add(*once.children, x)
        # terms of a collected base whose coefficients would pass it
        once = canon(parse(" + ".join([r"3^{4761} 7^{2399} x"] * 11)))
        assert once.kind is Kind.ADD and len(once.children) == 11
        assert canon(once) == once

    @pytest.mark.parametrize("text", [
        r"(\sqrt{2 \cdot 10^{300}})^{28} (\sqrt{3 \cdot 10^{300}})^{28}",
        r"(3^{4761} 7^{2399}+1)(3^{4761} 7^{2399}+1)",
        r"\frac{1}{3^{4761} 7^{2399}+1} \cdot \frac{1}{3^{4761} 7^{2399}+2}",
    ])
    def test_numbers_past_the_bit_budget_idempotent(self, text):
        # two numbers within the bit budget, whose product is not: the second stays n^1
        once = canon(parse(text))
        assert once.kind is Kind.MUL and once.children[0].kind is Kind.NUMBER
        kept = once.children[1]
        assert kept.kind is Kind.POW and kept.children[0].kind is Kind.NUMBER
        assert kept.children[1] == num(1)
        assert canon(once) == once
        times_x = canon(mul(once, x))
        assert set(times_x.children) == {*once.children, x}
        assert canon(times_x) == times_x

    def test_numbers_that_cancel_fold_past_the_bit_budget(self):
        # N^2 does not fit the bit budget, N^2 / N does: the N left out folds
        # once 1/N has (N = 3^4761 7^2399, as numbers, so no base collects them)
        n = 3**4761 * 7**2399
        for factors in ((n, n, Fraction(1, n)), (n, Fraction(1, n), n), (Fraction(1, n), n, n)):
            once = canon(mul(*map(num, factors)))
            assert once == num(n)
            assert canon(once) == once

    def test_int_nth_root(self):
        rng = random.Random(4761)
        for _ in range(2000):
            n = rng.randint(2, 12)
            root = rng.randint(2, 10 ** rng.randint(1, 300))
            power = root**n
            assert canon_mod._int_nth_root(power, n) == root
            assert canon_mod._int_nth_root(power - 1, n) is None
            assert canon_mod._int_nth_root(power + 1, n) is None
        assert [canon_mod._int_nth_root(v, 2) for v in (-4, 0, 1, 2, 4)] == [None, 0, 1, None, 2]
        # past the float range: 3^4761 has 2272 digits
        assert canon_mod._int_nth_root(3**4760, 2) == 3**2380
        # a root index past the bits of x: 2^(n-1) would not fit in memory
        assert canon_mod._int_nth_root(2, 3**40) is None
        assert canon_mod._int_nth_root(2**64 + 1, 65) is None

    def test_sign_not_globally_normalized(self):
        # x - y and y - x must stay distinct expressions
        assert canon(add(x, mul(num(-1), y))) != canon(add(y, mul(num(-1), x)))


class TestStandardizeRelation:
    def test_scale_and_flip(self):
        a = standardize_relation(parse(r"2a \le 2b"))
        b = standardize_relation(parse(r"a \le b"))
        c = standardize_relation(parse(r"b \ge a"))
        assert a == b == c
        assert a[0] == "<="

    def test_equalities_direction_free(self):
        a = standardize_relation(parse("E = m c^2"))
        b = standardize_relation(parse("m c^2 = E"))
        assert a == b

    def test_strict_flip(self):
        a = standardize_relation(parse("b > a"))
        assert a[0] == "<"

    def test_scale_that_cancels_folds(self):
        # the scale N multiplies 1/N to 1 within the bit budget, so no
        # (1/N)·N^1 factor is left (N = 3^4761 7^2399); N·N stays N·N^1
        n = r"3^{4761} 7^{2399}"
        side = standardize_relation(parse(rf"{n} x = \frac{{y}}{{{n}}}"))[1]
        assert mul(num(-1), y) in side.root.children
        assert side.size == 10
        assert canon(side.root) == side.root

    def test_non_relation_rejected(self):
        with pytest.raises(NotARelation):
            standardize_relation(x)

    def test_side_is_a_rewrite_fixed_point(self):
        # standardize_relation wraps the side without rewriting it again
        relations = [parse(src) for pair in EQUIVALENT_PAIRS + INEQUIVALENT_PAIRS for src in pair]
        relations = [r for r in relations if r.kind is Kind.RELATION]
        assert len(relations) >= 10
        for r in relations:
            side = standardize_relation(r)[1]
            assert repr(canon_mod._rewrite(side.root)) == repr(side.root)
            assert side == canonicalize(side.root)


class TestEvaluate:
    def test_exact_rational(self):
        t = parse(r"\frac{x^2 - 1}{x - 1}")
        env = {"x": Fraction(3)}
        assert evaluate_exact(canon(t), env) == Fraction(4)

    def test_exact_pole(self):
        with pytest.raises(ZeroDivisionError):
            evaluate_exact(canon(parse(r"\frac{1}{x}")), {"x": Fraction(0)})


class TestEquivalent:
    CFG = GradeConfig()

    def test_structural(self):
        assert equivalent(parse("x + y"), parse("y + x"), self.CFG)

    def test_rational_identity(self):
        assert equivalent(parse(r"\frac{x^2-y^2}{x-y}"), parse("x + y"), self.CFG)

    def test_float_identity(self):
        assert equivalent(parse(r"\sin^2 x + \cos^2 x"), parse("1"), self.CFG)

    def test_rejects_perturbation(self):
        assert not equivalent(parse("2x"), parse("3x"), self.CFG)
        assert not equivalent(parse("x^2"), parse("x^3"), self.CFG)

    def test_non_evaluable_is_structural_only(self):
        a = parse(r"\frac{d}{dx} x^2")
        b = parse(r"\frac{d}{dx} (x x)")
        c = parse(r"\frac{d}{dx} x^3")
        assert equivalent(a, b, self.CFG)
        assert not equivalent(a, c, self.CFG)

    def test_exact_pole_everywhere_is_inconclusive(self):
        # the denominator is 0 at every point but not canonically 0
        with pytest.raises(Inconclusive):
            equivalent(parse(r"\frac{1}{(x+1)^2 - x^2 - 2x - 1}"), parse("1"), self.CFG)

    def test_deterministic(self):
        a, b = parse(r"e^{x} e^{y}"), parse(r"e^{x+y}")
        results = {equivalent(a, b, self.CFG) for _ in range(5)}
        assert results == {True}

    def test_equation_equivalent(self):
        def same(a, b):
            return grade_equation(parse(a), parse(b), self.CFG).equivalent

        assert same("E = m c^2", "m c^2 = E")
        assert same("a < b", "b > a")
        assert not same("a < b", r"a \le b")
        assert not same("x + y = 1", "x - y = 1")

    def test_relation_kind_not_equivalent_raw(self):
        assert equivalent(
            relation("=", x, y), relation("=", x, y), self.CFG
        )


@pytest.fixture
def float_calls(monkeypatch):
    """Counts the float path's evaluations."""
    calls = []
    original = canon_mod.evaluate_float

    def counted(code, env):
        calls.append(1)
        return original(code, env)

    monkeypatch.setattr(canon_mod, "evaluate_float", counted)
    return calls


class TestAtoms:
    """Functions, constants and non-integer powers as opaque GF(P) operands."""

    CFG = GradeConfig()

    @pytest.mark.parametrize(
        "a,b",
        [
            (r"\frac{a\sin x+b\sin x}{\sin x}", "a+b"),
            (r"\sqrt{x}\cdot\frac{y}{y}", r"\sqrt{x}"),
            (r"\frac{\sqrt{x}y+\sqrt{x}}{y+1}", r"\sqrt{x}"),
            (r"\frac{e^{x}\pi - \pi}{\pi}", r"e^{x} - 1"),
        ],
    )
    def test_proven_without_floats(self, monkeypatch, a, b):
        def refuse(code, env):
            raise AssertionError("float path reached")

        monkeypatch.setattr(canon_mod, "evaluate_float", refuse)
        assert equivalent(parse(a), parse(b), self.CFG)

    @pytest.mark.parametrize(
        "a,b", [(r"\sin^2x+\cos^2x", "1"), (r"i\cdot i", "-1"), (r"\sin(\pi-x)", r"\sin x")]
    )
    def test_atom_disagreement_falls_back_to_floats(self, float_calls, a, b):
        assert equivalent(parse(a), parse(b), self.CFG)
        assert float_calls

    def test_atom_poles_fall_back_to_floats(self, float_calls):
        # the denominator is 0 at every point of GF(P), with or without atoms
        a = parse(r"\frac{\sin x}{(x+1)^2 - x^2 - 2x - 1}")
        try:
            equivalent(a, parse(r"\sin x"), self.CFG)
        except Inconclusive:
            pass
        assert float_calls

    def test_rational_disagreement_is_final(self, float_calls):
        assert not equivalent(parse("x^2 + 1"), parse("x^2"), self.CFG)
        assert not float_calls

    def test_atoms_count_toward_degree_guard(self):
        # over GF(P), a^P = a for every atom value a, so both sides would
        # agree at every point if the atom path took them
        r = grade(rf"\boxed{{(\sin x+1)^{{{P}}}}}", rf"\sin^{{{P}}}x+1", AnswerType.EXPRESSION)
        assert r.score < 100 and not r.equivalent
