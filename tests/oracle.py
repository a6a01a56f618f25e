"""Independent oracles the tests check seedgrade against.

`brute_distance` enumerates every order- and ancestor-preserving node mapping
between two trees and returns the minimal total cost. Exponential, so only
usable for small trees; exists purely to cross-check the dynamic program.

`evaluate_exact` evaluates a rational tree exactly over the rationals, to
check that canonicalization preserves value.
"""

from fractions import Fraction
from functools import lru_cache

from seedgrade.nodes import Kind, MathNode
from seedgrade.config import GradeConfig

_F1 = Fraction(1)


def evaluate_exact(node: MathNode, env: dict) -> Fraction:
    """Exact rational evaluation; raises ZeroDivisionError at poles."""
    k = node.kind
    if k is Kind.NUMBER:
        return node.payload
    if k is Kind.SYMBOL:
        return env[node.payload]
    if k is Kind.ADD:
        return sum(evaluate_exact(c, env) for c in node.children)
    if k is Kind.MUL:
        r = _F1
        for c in node.children:
            r *= evaluate_exact(c, env)
        return r
    if k is Kind.POW:
        base = evaluate_exact(node.children[0], env)
        exp = node.children[1].payload
        if base == 0 and exp < 0:
            raise ZeroDivisionError("0 ** negative")
        return base ** int(exp)
    raise ValueError(f"not exactly evaluable: {node.kind}")


def _postorder(root):
    nodes, lml = [], []

    def rec(n):
        first = None
        for c in n.children:
            fl = rec(c)
            if first is None:
                first = fl
        i = len(nodes)
        nodes.append(n)
        lml.append(first if first is not None else i)
        return lml[i]

    rec(root)
    return nodes, lml


def brute_distance(a: MathNode, b: MathNode, cm: GradeConfig = GradeConfig()) -> int:
    A, la = _postorder(a)
    B, lb = _postorder(b)
    n, m = len(A), len(B)

    def anc(lml, p, q):
        # p is a strict ancestor of q (postorder indices)
        return lml[p] <= q < p

    best = [n * cm.delete_cost + m * cm.insert_cost]

    def rec(i, last_j, pairs, cost):
        if cost >= best[0]:
            return
        if i == n:
            total = cost + (m - 1 - last_j) * cm.insert_cost
            if total < best[0]:
                best[0] = total
            return
        for j in range(last_j + 1, m):
            ok = True
            for pi, pj in pairs:
                if anc(la, i, pi) != anc(lb, j, pj) or anc(la, pi, i) != anc(lb, pj, j):
                    ok = False
                    break
            if ok:
                pairs.append((i, j))
                rec(
                    i + 1,
                    j,
                    pairs,
                    cost
                    + (j - last_j - 1) * cm.insert_cost
                    + cm.relabel(A[i], B[j]),
                )
                pairs.pop()
        rec(i + 1, last_j, pairs, cost + cm.delete_cost)

    rec(0, -1, [], 0)
    return best[0]


@lru_cache(maxsize=None)
def tree_shapes(n: int):
    """All ordered tree shapes with exactly n nodes, as nested tuples."""
    if n == 1:
        return ((),)
    out = []
    for parts in _compositions(n - 1):
        for combo in _products([tree_shapes(p) for p in parts]):
            out.append(tuple(combo))
    return tuple(out)


def _compositions(n):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def _products(choice_lists):
    if not choice_lists:
        yield []
        return
    for head in choice_lists[0]:
        for tail in _products(choice_lists[1:]):
            yield [head] + tail


def label_shape(shape, rng, alphabet="abc", kinds=(Kind.FUNCTION,)) -> MathNode:
    """Attach random labels from the alphabet to a tree shape.

    With more than one kind, each node also draws its kind; a single kind
    draws nothing for it, so the label sequence for a seed stays the same.
    """
    children = tuple(label_shape(c, rng, alphabet, kinds) for c in shape)
    kind = rng.choice(kinds) if len(kinds) > 1 else kinds[0]
    return MathNode(kind, rng.choice(alphabet), children)
