"""Canonical forms and semantic equivalence for expression trees.

Canonicalization is purely syntactic: flatten associative operators, fold
exact rational arithmetic, collect like terms and like bases, and sort
children under a fixed total order.  Deeper identities (different fraction
or radical arrangements) are caught by randomized evaluation at exact
rational or high-precision points, so no symbolic expansion is ever needed.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .config import GradeConfig
from .errors import Inconclusive, NotARelation
from .nodes import (
    KIND_RANK,
    Kind,
    MathNode,
    free_symbols,
    num,
    relation,
    walk,
)

ZERO = num(0)
ONE = num(1)
_F0 = Fraction(0)
_F1 = Fraction(1)


# resamples per equivalence trial before a singular point makes it inconclusive
MAX_RETRIES = 5


@dataclass(frozen=True)
class CanonicalTree:
    root: MathNode
    size: int
    digest: str


# --- total order ------------------------------------------------------------

def sort_key(node: MathNode):
    k = node._key
    if k is not None:
        return k
    payload = node.payload
    if payload is None:
        pk = ""
    elif isinstance(payload, Fraction):
        pk = payload
    else:
        pk = str(payload)
    k = (
        KIND_RANK[node.kind],
        pk,
        len(node.children),
        tuple(sort_key(c) for c in node.children),
    )
    object.__setattr__(node, "_key", k)
    return k


# --- canonical constructors --------------------------------------------------

def _split_term(t: MathNode):
    """Split an Add term into (rational coefficient, base tree)."""
    if t.kind is Kind.NUMBER:
        return t.payload, ONE
    if t.kind is Kind.MUL and t.children[0].kind is Kind.NUMBER:
        rest = t.children[1:]
        base = rest[0] if len(rest) == 1 else MathNode(Kind.MUL, None, rest)
        return t.children[0].payload, base
    return _F1, t


def _with_coeff(coeff: Fraction, base: MathNode) -> MathNode:
    if base == ONE:
        return num(coeff)
    if coeff == 0:
        return ZERO
    if coeff == 1:
        return base
    if base.kind is Kind.MUL:
        return MathNode(Kind.MUL, None, (num(coeff),) + base.children)
    return MathNode(Kind.MUL, None, (num(coeff), base))


def canon_add(terms) -> MathNode:
    flat = []
    stack = list(terms)
    while stack:
        t = stack.pop()
        if t.kind is Kind.ADD:
            stack.extend(t.children)
        else:
            flat.append(t)
    constant = _F0
    buckets: dict = {}
    for t in flat:
        coeff, base = _split_term(t)
        if base == ONE:
            constant += coeff
            continue
        key = sort_key(base)
        entry = buckets.get(key)
        if entry is None:
            buckets[key] = [coeff, base]
        else:
            entry[0] += coeff
    out = []
    for coeff, base in buckets.values():
        if coeff == 0:
            continue
        out.append(_with_coeff(coeff, base))
    if constant != 0:
        out.append(num(constant))
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    out.sort(key=sort_key)
    return MathNode(Kind.ADD, None, tuple(out))


def _split_pow(f: MathNode):
    if f.kind is Kind.POW:
        return f.children[0], f.children[1]
    return f, ONE


def _int_nth_root(x: int, n: int):
    if x < 0:
        return None
    r = round(x ** (1.0 / n))
    for cand in (r - 1, r, r + 1):
        if cand >= 0 and cand**n == x:
            return cand
    return None


def _rational_pow(base: Fraction, exp: Fraction):
    """Exact value of base**exp, or None when it is irrational/complex."""
    if exp.denominator == 1:
        e = exp.numerator
        if base == 0 and e < 0:
            return None
        return base**e
    if base < 0:
        return None
    if base == 0:
        return _F0 if exp > 0 else None
    t = base ** Fraction(exp.numerator)
    rn = _int_nth_root(t.numerator, exp.denominator)
    rd = _int_nth_root(t.denominator, exp.denominator)
    if rn is None or rd is None:
        return None
    return Fraction(rn, rd)


def canon_pow(base: MathNode, exp: MathNode) -> MathNode:
    if exp == ZERO:
        return ONE
    if exp == ONE:
        return base
    if base == ONE:
        return ONE
    if base == ZERO:
        return ZERO
    if base.kind is Kind.NUMBER and exp.kind is Kind.NUMBER:
        folded = _rational_pow(base.payload, exp.payload)
        if folded is not None:
            return num(folded)
        return MathNode(Kind.POW, None, (base, exp))
    if base.kind is Kind.MUL:
        # (x*y)^a -> x^a * y^a; sound under the positive-real reading that
        # physics answers carry
        return canon_mul([canon_pow(f, exp) for f in base.children])
    if base.kind is Kind.POW:
        b2, e2 = base.children
        if e2.kind is Kind.NUMBER and exp.kind is Kind.NUMBER:
            return canon_pow(b2, num(e2.payload * exp.payload))
        if exp.kind is Kind.NUMBER and exp.payload.denominator == 1:
            return canon_pow(b2, canon_mul([e2, exp]))
    return MathNode(Kind.POW, None, (base, exp))


def canon_mul(factors) -> MathNode:
    flat = []
    stack = list(factors)
    while stack:
        f = stack.pop()
        if f.kind is Kind.MUL:
            stack.extend(f.children)
        else:
            flat.append(f)
    coeff = _F1
    buckets: dict = {}
    order = []
    for f in flat:
        if f.kind is Kind.NUMBER:
            if f.payload == 0:
                return ZERO
            coeff *= f.payload
            continue
        base, exp = _split_pow(f)
        key = sort_key(base)
        entry = buckets.get(key)
        if entry is None:
            buckets[key] = [base, [exp]]
            order.append(key)
        else:
            entry[1].append(exp)
    out = []
    for key in order:
        base, exps = buckets[key]
        if len(exps) == 1:
            exp_node = exps[0]
        elif all(e.kind is Kind.NUMBER for e in exps):
            exp_node = num(sum(e.payload for e in exps))
        else:
            exp_node = canon_add(exps)
        if exp_node == ZERO:
            continue
        if base.kind is Kind.NUMBER and exp_node.kind is Kind.NUMBER:
            folded = _rational_pow(base.payload, exp_node.payload)
            if folded is not None:
                coeff *= folded
                continue
        factor = canon_pow(base, exp_node)
        if factor.kind is Kind.NUMBER:
            coeff *= factor.payload
            continue
        out.append(factor)
    if coeff == 0:
        return ZERO
    if not out:
        return num(coeff)
    out.sort(key=sort_key)
    if coeff != 1:
        out.insert(0, num(coeff))
    if len(out) == 1:
        return out[0]
    return MathNode(Kind.MUL, None, tuple(out))


def _rewrite(node: MathNode) -> MathNode:
    k = node.kind
    if not node.children:
        return node
    kids = [_rewrite(c) for c in node.children]
    if k is Kind.ADD:
        return canon_add(kids)
    if k is Kind.MUL:
        return canon_mul(kids)
    if k is Kind.POW:
        return canon_pow(kids[0], kids[1])
    return MathNode(k, node.payload, tuple(kids))


def canonicalize(node: MathNode) -> CanonicalTree:
    root = _rewrite(node)
    digest = hashlib.sha1(repr(root).encode()).hexdigest()
    return CanonicalTree(root=root, size=root.size(), digest=digest)


def as_canonical(tree) -> CanonicalTree:
    """The tree itself if already canonical, else its canonical form."""
    return tree if isinstance(tree, CanonicalTree) else canonicalize(tree)


# --- relations ---------------------------------------------------------------

_FLIP = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "=": "="}


def _frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    return Fraction(
        math.gcd(a.numerator, b.numerator),
        math.lcm(a.denominator, b.denominator),
    )


def _leading_and_gcd(tree: MathNode):
    """(sign of the canonically-first term's coefficient, gcd of rational coeffs)."""
    if tree.kind is Kind.ADD:
        pairs = [_split_term(t) for t in tree.children]
        pairs.sort(key=lambda cb: sort_key(cb[1]))
        lead = pairs[0][0]
        g = _F0
        for c, _ in pairs:
            g = _frac_gcd(g, abs(c))
        return lead, g
    coeff, _ = _split_term(tree)
    return coeff, abs(coeff)


def _scale_tree(tree: MathNode, s: Fraction) -> MathNode:
    if s == 1:
        return tree
    if tree.kind is Kind.ADD:
        return canon_add(
            [_with_coeff(c * s, b) for c, b in (_split_term(t) for t in tree.children)]
        )
    coeff, base = _split_term(tree)
    return _with_coeff(coeff * s, base)


def standardize_relation(node: MathNode) -> MathNode:
    """Rewrite `lhs # rhs` as `f # 0` with a positive, gcd-reduced leading term."""
    if node.kind is not Kind.RELATION:
        raise NotARelation(f"expected a relation, got {node.kind.name}")
    lhs = _rewrite(node.children[0])
    rhs = _rewrite(node.children[1])
    diff = canon_add([lhs, canon_mul([num(-1), rhs])])
    op = node.payload
    if diff == ZERO:
        return relation(op, ZERO, ZERO)
    lead, g = _leading_and_gcd(diff)
    scale = _F1
    if g not in (0, 1):
        scale = 1 / g
    if lead < 0:
        scale = -scale
        op = _FLIP[op]
    diff = _scale_tree(diff, scale)
    return relation(op, diff, ZERO)


def equation_equivalent(a: MathNode, b: MathNode, cfg: GradeConfig = GradeConfig()) -> bool:
    """Same solution set: equal up to positive rational scale (any nonzero
    rational scale for equalities, which sign standardization absorbs)."""
    sa = standardize_relation(a)
    sb = standardize_relation(b)
    if sa.payload != sb.payload:
        return False
    return equivalent(sa.children[0], sb.children[0], cfg)


# --- evaluation --------------------------------------------------------------

_RATIONAL_KINDS = (Kind.NUMBER, Kind.SYMBOL, Kind.ADD, Kind.MUL)

_MP_FUNCS = {
    "sin": mpmath.sin, "cos": mpmath.cos, "tan": mpmath.tan,
    "exp": mpmath.exp, "log": mpmath.log, "ln": mpmath.log,
    "sinh": mpmath.sinh, "cosh": mpmath.cosh, "tanh": mpmath.tanh,
    "arctan": mpmath.atan, "arcsin": mpmath.asin, "arccos": mpmath.acos,
    "factorial": lambda x: mpmath.gamma(x + 1),
}


def is_rational_tree(node: MathNode) -> bool:
    for n in walk(node):
        k = n.kind
        if k in _RATIONAL_KINDS:
            continue
        if (
            k is Kind.POW
            and n.children[1].kind is Kind.NUMBER
            and n.children[1].payload.denominator == 1
        ):
            continue
        return False
    return True


def is_evaluable(node: MathNode) -> bool:
    for n in walk(node):
        k = n.kind
        if k in (Kind.NUMBER, Kind.SYMBOL, Kind.CONSTANT, Kind.ADD, Kind.MUL, Kind.POW):
            continue
        if k is Kind.FUNCTION and n.payload in _MP_FUNCS:
            continue
        return False
    return True


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


def evaluate_float(node: MathNode, env: dict):
    """High-precision evaluation via mpmath (dps set by the caller)."""
    k = node.kind
    if k is Kind.NUMBER:
        return mpmath.mpf(node.payload.numerator) / node.payload.denominator
    if k is Kind.SYMBOL:
        return env[node.payload]
    if k is Kind.CONSTANT:
        if node.payload == "pi":
            return +mpmath.pi
        if node.payload == "e":
            return +mpmath.e
        return mpmath.mpc(0, 1)
    if k is Kind.ADD:
        r = mpmath.mpf(0)
        for c in node.children:
            r = r + evaluate_float(c, env)
        return r
    if k is Kind.MUL:
        r = mpmath.mpf(1)
        for c in node.children:
            r = r * evaluate_float(c, env)
        return r
    if k is Kind.POW:
        base = evaluate_float(node.children[0], env)
        exp = evaluate_float(node.children[1], env)
        return base**exp
    if k is Kind.FUNCTION:
        fn = _MP_FUNCS.get(node.payload)
        if fn is None:
            raise ValueError(f"no evaluator for function {node.payload!r}")
        return fn(evaluate_float(node.children[0], env))
    raise ValueError(f"not evaluable: {node.kind}")


_SAMPLE_PRIMES = (2, 3, 5, 7, 11, 13)
_SAMPLE_DENOMS = (1, 2, 3)


def _pair_seed(cfg_seed: int, da: str, db: str) -> int:
    lo, hi = sorted((da, db))
    h = hashlib.sha1(f"{cfg_seed}|{lo}|{hi}".encode()).digest()
    return int.from_bytes(h[:8], "big")


def equivalent(a, b, cfg: GradeConfig = GradeConfig()) -> bool:
    """Structural canonical equality, else randomized-evaluation agreement.

    a and b are MathNodes or CanonicalTrees; only MathNodes are canonicalized.
    Raises Inconclusive when every sample hits a singularity; callers fall
    back to tree distance.
    """
    ca = as_canonical(a)
    cb = as_canonical(b)
    if ca.root == cb.root:
        return True
    ra, rb = ca.root, cb.root
    if not (is_evaluable(ra) and is_evaluable(rb)):
        return False

    symbols = sorted(free_symbols(ra) | free_symbols(rb))
    rng = random.Random(_pair_seed(cfg.seed, ca.digest, cb.digest))
    exact = is_rational_tree(ra) and is_rational_tree(rb)

    for _ in range(cfg.trials):
        done = False
        for _retry in range(MAX_RETRIES):
            if exact:
                env = {
                    s: Fraction(rng.choice(_SAMPLE_PRIMES), rng.choice(_SAMPLE_DENOMS))
                    for s in symbols
                }
                try:
                    va = evaluate_exact(ra, env)
                    vb = evaluate_exact(rb, env)
                except ZeroDivisionError:
                    continue
                if va != vb:
                    return False
                done = True
                break
            env = {
                s: mpmath.mpf(rng.uniform(0.3, 2.7)) for s in symbols
            }
            try:
                with mpmath.workdps(30):
                    va = evaluate_float(ra, env)
                    vb = evaluate_float(rb, env)
            except (ZeroDivisionError, ValueError, OverflowError):
                continue
            diff = abs(va - vb)
            if diff > cfg.eval_rtol * (1 + abs(va) + abs(vb)):
                return False
            done = True
            break
        if not done:
            raise Inconclusive("all evaluation samples hit singularities")
    return True
