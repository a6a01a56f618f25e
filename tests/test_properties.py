"""Property-based invariants for canonicalization, evaluation, and distance."""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracle import evaluate_exact
from seedgrade.canon import _rewrite, canonical_relation, canonicalize, standardize_relation
from seedgrade.nodes import Kind, MathNode, num, pow_, relation, sym
from seedgrade.parser import parse_expression, serialize
from seedgrade.preprocess import canonicalize_latex
from seedgrade.ted import tree_edit_distance

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
    side = standardize_relation(r).children[0]
    assert repr(_rewrite(side)) == repr(side)
    assert canonical_relation(r)[1] == canonicalize(side)


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
