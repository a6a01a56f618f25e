"""Property-based invariants for canonicalization, evaluation, distance,
and the value of a numeric answer."""

import math
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracle import evaluate_exact
from seedgrade.canon import _rewrite, canonicalize, equivalent, standardize_relation
from seedgrade.grader import read_answer
from seedgrade.nodes import HALF, MINUS_ONE, AnswerType, Kind, MathNode, const, mul, num, pow_, relation, sym
from seedgrade.parser import parse_expression, serialize
from seedgrade.preprocess import canonicalize_latex
from seedgrade.ted import tree_edit_distance
from seedgrade.units import read_table

try:
    import sympy
except ImportError:  # the sympy check is skipped, as in test_differential.py
    sympy = None

leaves = st.one_of(
    st.builds(sym, st.sampled_from(["x", "y", "z"])),
    st.builds(
        num,
        st.fractions(
            min_value=Fraction(-6), max_value=Fraction(6), max_denominator=4
        ),
    ),
)


def _nary(kind):
    return lambda kids: MathNode(kind, None, tuple(kids))


trees = st.recursive(
    leaves,
    lambda ch: st.one_of(
        st.builds(_nary(Kind.ADD), st.lists(ch, min_size=2, max_size=3)),
        st.builds(_nary(Kind.MUL), st.lists(ch, min_size=2, max_size=3)),
        st.builds(lambda b, e: pow_(b, num(e)), ch, st.integers(-2, 3)),
    ),
    max_leaves=8,
)

envs = st.fixed_dictionaries(
    {
        name: st.fractions(
            min_value=Fraction(-5), max_value=Fraction(5), max_denominator=3
        )
        for name in ("x", "y", "z")
    }
)


@given(trees)
def test_canonicalize_idempotent(t):
    once = canonicalize(t).root
    assert canonicalize(once).root == once


@given(trees, trees, st.sampled_from(["=", "<", "<=", ">", ">="]))
def test_standardized_relation_side_is_a_rewrite_fixed_point(lhs, rhs, op):
    r = relation(op, lhs, rhs)
    side = standardize_relation(r)[1]
    assert repr(_rewrite(side.root)) == repr(side.root)
    assert side == canonicalize(side.root)


# 3^4761 7^2399: 4299 digits, within the bit budget, as is its reciprocal;
# a product or sum of two such exponents is not
BIG = 3**4761 * 7**2399

big_exponent_trees = st.recursive(
    st.one_of(st.builds(sym, st.sampled_from(["x", "y"])), st.builds(num, st.integers(2, 5))),
    lambda ch: st.one_of(
        st.builds(_nary(Kind.MUL), st.lists(ch, min_size=2, max_size=4)),
        st.builds(pow_, ch, st.sampled_from([BIG, BIG + 1, Fraction(1, BIG), 2, -1]).map(num)),
    ),
    max_leaves=6,
)


@settings(deadline=None)
@given(big_exponent_trees)
def test_exponent_arithmetic_past_the_bit_budget(t):
    once = _rewrite(t)
    assert repr(_rewrite(once)) == repr(once)
    assert equivalent(t, t)


def _copy(node):
    """A structurally equal tree made of new nodes."""
    return MathNode(node.kind, node.payload, tuple(_copy(c) for c in node.children))


def _subtrees(node):
    out = [node]
    for c in node.children:
        out += _subtrees(c)
    return out


@given(trees, trees, st.data())
def test_rewrite_through_a_filled_table(t, other, data):
    """_rewrite through a table filled by another tree gives the canonical
    form it gives without one, whether the tree shares subtrees with t or not."""
    expected = repr(_rewrite(t))
    unrelated: dict = {}
    _rewrite(other, unrelated)
    assert repr(_rewrite(_copy(t), unrelated)) == expected
    shared = data.draw(st.sampled_from(_subtrees(t)))
    sharing: dict = {}
    _rewrite(MathNode(Kind.MUL, None, (other, _copy(shared))), sharing)
    assert repr(_rewrite(_copy(t), sharing)) == expected


@given(trees, envs)
def test_canonicalization_preserves_value(t, env):
    try:
        before = evaluate_exact(t, env)
        after = evaluate_exact(canonicalize(t).root, env)
    except ZeroDivisionError:
        assume(False)
    assert before == after


@given(st.lists(trees, min_size=2, max_size=4), st.randoms(use_true_random=False))
def test_add_order_invariance(terms, rnd):
    a = MathNode(Kind.ADD, None, tuple(terms))
    shuffled = list(terms)
    rnd.shuffle(shuffled)
    b = MathNode(Kind.ADD, None, tuple(shuffled))
    assert canonicalize(a).root == canonicalize(b).root


@given(trees)
def test_serialize_round_trip(t):
    rendered = serialize(t)
    back = parse_expression(canonicalize_latex(rendered))
    assert canonicalize(back).root == canonicalize(t).root


@settings(max_examples=40)
@given(trees, trees)
def test_distance_metric_axioms(a, b):
    ca = canonicalize(a).root
    cb = canonicalize(b).root
    dab, _ = tree_edit_distance(ca, cb)
    dba, _ = tree_edit_distance(cb, ca)
    assert dab == dba
    assert dab >= 0
    assert tree_edit_distance(ca, ca)[0] == 0
    if ca == cb:
        assert dab == 0


@settings(max_examples=25)
@given(trees, trees, trees)
def test_distance_triangle_inequality(a, b, c):
    ca, cb, cc = (canonicalize(t).root for t in (a, b, c))
    dab = tree_edit_distance(ca, cb)[0]
    dbc = tree_edit_distance(cb, cc)[0]
    dac = tree_edit_distance(ca, cc)[0]
    assert dac <= dab + dbc


# constant trees: integers, decimals, fractions and small integer powers; the
# irrational ones add pi, e and square roots (of positive leaves only: a root
# of a negative square is the canon_pow branch question of ROADMAP item 5)
_decimals = st.builds(lambda n, k: num(Fraction(n, 10**k)), st.integers(-999, 999), st.integers(1, 3))
_positive = st.one_of(st.integers(1, 12).map(num), st.sampled_from([const("pi"), const("e")]))


def _constant_trees(leaves):
    return st.recursive(
        leaves,
        lambda ch: st.one_of(
            st.builds(_nary(Kind.ADD), st.lists(ch, min_size=2, max_size=3)),
            st.builds(_nary(Kind.MUL), st.lists(ch, min_size=2, max_size=3)),
            st.builds(lambda a, b: mul(a, pow_(b, MINUS_ONE)), ch, ch),
            st.builds(lambda b, e: pow_(b, num(e)), ch, st.integers(-2, 3)),
        ),
        max_leaves=6,
    )


rational_constants = _constant_trees(st.one_of(st.integers(0, 12).map(num), _decimals))
constants = _constant_trees(st.one_of(
    st.integers(0, 12).map(num), _decimals, _positive, _positive.map(lambda b: pow_(b, HALF))))
_TABLE = read_table(resources.files("seedgrade.data").joinpath("units.tab").read_text("utf-8"))
unit_words = st.sampled_from(sorted(_TABLE))


def _assert_read(t, word, value):
    """The quantity read from `t` rendered with the unit `word` is `value`
    of that unit, within 1e-12 relative (1e-12 of the unit where it is 0)."""
    scale = _TABLE[word][1]
    q = read_answer(f"{serialize(t)} {word}", AnswerType.NUMERIC).quantity
    assert q.dimension == _TABLE[word][0]
    assert math.isclose(q.magnitude, float(value) * scale, rel_tol=1e-12, abs_tol=1e-12 * scale)


@settings(deadline=None)
@given(rational_constants, unit_words)
def test_quantity_value_of_a_rational_tree(t, word):
    try:
        value = evaluate_exact(t, {})
    except ZeroDivisionError:
        assume(False)
    _assert_read(t, word, value)


def _to_sympy(t: MathNode):
    if t.kind is Kind.NUMBER:
        return sympy.Rational(t.payload.numerator, t.payload.denominator)
    if t.kind is Kind.CONSTANT:
        return sympy.pi if t.payload == "pi" else sympy.E
    kids = [_to_sympy(c) for c in t.children]
    return {Kind.ADD: sympy.Add, Kind.MUL: sympy.Mul, Kind.POW: sympy.Pow}[t.kind](*kids)


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@settings(deadline=None)
@given(constants, unit_words)
def test_quantity_value_of_a_constant_tree(t, word):
    value = sympy.N(_to_sympy(t), 50)
    assume(value.is_finite)
    _assert_read(t, word, value)
