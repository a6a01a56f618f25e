"""`equivalent` against sympy on random rational trees over x, y and z.

Each example draws a tree and builds two partners: an equal one by a rewrite
that canonicalization does not undo, and one random edit away.  On every
pair that is not inconclusive, `equivalent` must agree with
`sympy.cancel(a - b) == 0`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seedgrade.canon import equivalent
from seedgrade.errors import Inconclusive
from seedgrade.nodes import Kind, MathNode, add, mul, num, pow_, sym
from test_properties import trees

sympy = pytest.importorskip("sympy")


def to_sympy(t: MathNode):
    k = t.kind
    if k is Kind.NUMBER:
        return sympy.Rational(t.payload.numerator, t.payload.denominator)
    if k is Kind.SYMBOL:
        return sympy.Symbol(t.payload)
    kids = [to_sympy(c) for c in t.children]
    if k is Kind.ADD:
        return sympy.Add(*kids)
    if k is Kind.MUL:
        return sympy.Mul(*kids)
    return sympy.Pow(*kids)


def _nodes(t: MathNode, path=()):
    yield path, t
    for i, c in enumerate(t.children):
        yield from _nodes(c, path + (i,))


def _replace(t: MathNode, path, new: MathNode) -> MathNode:
    if not path:
        return new
    kids = list(t.children)
    kids[path[0]] = _replace(kids[path[0]], path[1:], new)
    return MathNode(t.kind, t.payload, tuple(kids))


def rewrite(t: MathNode, rnd) -> MathNode:
    """An equal tree: one product distributed over one of its sums, or, when
    there is none, t times (s^2 - 1) / ((s + 1)(s - 1))."""
    spots = [
        (path, n, i)
        for path, n in _nodes(t)
        if n.kind is Kind.MUL
        for i, c in enumerate(n.children)
        if c.kind is Kind.ADD
    ]
    if spots:
        path, n, i = rnd.choice(spots)
        rest = n.children[:i] + n.children[i + 1:]
        return _replace(t, path, add(*(mul(*rest, term) for term in n.children[i].children)))
    s = sym(rnd.choice("xyz"))
    unit = mul(
        add(pow_(s, num(2)), num(-1)),
        pow_(mul(add(s, num(1)), add(s, num(-1))), num(-1)),
    )
    return mul(t, unit)


def edit(t: MathNode, rnd) -> MathNode:
    """One random leaf edit: a number (exponents too) plus one, or a symbol renamed."""
    path, leaf = rnd.choice([(p, n) for p, n in _nodes(t) if not n.children])
    if leaf.kind is Kind.NUMBER:
        return _replace(t, path, num(leaf.payload + 1))
    return _replace(t, path, sym({"x": "y", "y": "z", "z": "x"}[leaf.payload]))


def agrees(a: MathNode, b: MathNode) -> bool:
    try:
        verdict = equivalent(a, b)
    except Inconclusive:
        return True
    sa, sb = to_sympy(a), to_sympy(b)
    if sa.has(sympy.zoo, sympy.nan) or sb.has(sympy.zoo, sympy.nan):
        return True  # undefined everywhere, e.g. 0 * 0^-1, which canonicalization folds to 0
    return verdict == (sympy.cancel(sa - sb) == 0)


@settings(max_examples=60, deadline=None)
@given(trees, st.randoms(use_true_random=False))
def test_equivalent_agrees_with_sympy(t, rnd):
    assert agrees(t, rewrite(t, rnd))
    assert agrees(t, edit(t, rnd))
