"""Canonical forms and semantic equivalence for expression trees.

Canonicalization is purely syntactic: flatten associative operators, fold
exact rational arithmetic, collect like terms and like bases, and sort
children under a fixed total order.  Deeper identities (different fraction
or radical arrangements) are caught by randomized evaluation, so no symbolic
expansion is ever needed.  A rational tree (numbers, symbols, sums, products,
integer powers) is evaluated exactly in GF(P), P = 2^61 - 1, at points drawn
uniformly from the field: a false "equivalent" then has chance at most
deg/P per trial, where deg bounds the degree of the difference.  Any other
evaluable tree is evaluated in 30-digit mpmath at random real points.  Each
canonical tree builds its evaluation plan (a postorder stack program with
its constants converted once) on first use and keeps it.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath

from .config import GradeConfig
from .errors import Inconclusive, NotARelation
from .nodes import (
    KIND_RANK,
    Kind,
    MathNode,
    num,
    relation,
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
    _plan: "Plan | None" = field(default=None, init=False, repr=False, compare=False)

    def plan(self) -> "Plan":
        """The evaluation plan, built on first use and kept with the tree."""
        p = self._plan
        if p is None:
            p = Plan(self.root)
            object.__setattr__(self, "_plan", p)
        return p


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
    if base.kind is Kind.NUMBER and exp.kind is Kind.NUMBER:
        # 0^e folds to 0 only for e > 0: zero to a negative power is undefined
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
    """The tree itself if already canonical, else its canonical form, which
    is computed once per node and kept on it."""
    if isinstance(tree, CanonicalTree):
        return tree
    c = tree._canon
    if not isinstance(c, CanonicalTree):
        c = canonicalize(tree)
        object.__setattr__(tree, "_canon", c)
    return c


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


def canonical_relation(node: MathNode) -> tuple:
    """(operator, canonical f) of the relation standardized as `f # 0`,
    computed once per node and kept on it."""
    c = node._canon
    if not isinstance(c, tuple):
        s = standardize_relation(node)
        c = (s.payload, canonicalize(s.children[0]))
        object.__setattr__(node, "_canon", c)
    return c


def equation_equivalent(a: MathNode, b: MathNode, cfg: GradeConfig = GradeConfig()) -> bool:
    """Same solution set: equal up to positive rational scale (any nonzero
    rational scale for equalities, which sign standardization absorbs)."""
    sa = standardize_relation(a)
    sb = standardize_relation(b)
    if sa.payload != sb.payload:
        return False
    return equivalent(sa.children[0], sb.children[0], cfg)


# --- evaluation --------------------------------------------------------------

# The exact path evaluates in the field GF(P).  Two rational functions whose
# difference has a numerator of total degree d, with integer coefficients not
# all multiples of P, agree at a uniform random point with chance at most d/P
# (Schwartz 1980, Zippel 1979).
P = (1 << 61) - 1
# A tree whose degree bound reaches this takes the float path: the numerator
# of a difference of two exact trees then has degree below P - 1, so Fermat's
# x^(P-1) = 1 cannot make two different functions agree at every point.
_MAX_DEGREE = (P - 1) // 2

_MP_FUNCS = {
    "sin": mpmath.sin, "cos": mpmath.cos, "tan": mpmath.tan,
    "exp": mpmath.exp, "log": mpmath.log, "ln": mpmath.log,
    "sinh": mpmath.sinh, "cosh": mpmath.cosh, "tanh": mpmath.tanh,
    "arctan": mpmath.atan, "arcsin": mpmath.asin, "arccos": mpmath.acos,
    "factorial": lambda x: mpmath.gamma(x + 1),
}

# opcodes of a plan's postorder stack program, with their argument:
#   _NUM a number, _SYM a symbol name, _CONST a constant name, _ADD and _MUL
#   the operand count, _POWI an integer exponent (the base is on the stack),
#   _POW none (base and exponent are), _FN (function, operand count)
_NUM, _SYM, _CONST, _ADD, _MUL, _POWI, _POW, _FN = range(8)


def _int_exponent(node: MathNode):
    """The exponent of a POW node as a Fraction when it is an integer, else None."""
    e = node.children[1]
    if e.kind is Kind.NUMBER and e.payload.denominator == 1:
        return e.payload
    return None


class Plan:
    """What the equivalence check needs of one canonical tree, from one walk.

    `code` is the tree as a postorder stack program; `symbols` its free
    symbols; `evaluable` whether every node can be evaluated; `degree` a bound
    on the total degree of the tree as a ratio of polynomials when GF(P) can
    evaluate it (numbers, symbols, sums, products and integer powers, no
    denominator divisible by P, degree below _MAX_DEGREE), else None.
    The numbers of `code` are converted once per tree for each path.
    """

    __slots__ = ("code", "symbols", "evaluable", "degree", "_exact", "_float")

    def __init__(self, root: MathNode):
        self.code = []
        self.symbols = set()
        self.evaluable = True
        self.degree = None
        self._exact = self._float = None
        order = []
        stack = [root]
        while stack:
            n = stack.pop()
            order.append(n)
            if n.kind is Kind.POW and _int_exponent(n) is not None:
                stack.append(n.children[0])
            else:
                stack.extend(n.children)
        emit = self.code.append
        degrees = []  # degree bound of each value the program leaves on its stack
        exact = True
        for n in reversed(order):
            k = n.kind
            if k is Kind.NUMBER:
                emit((_NUM, n.payload))
                degrees.append(0)
                exact = exact and n.payload.denominator % P != 0
            elif k is Kind.SYMBOL:
                emit((_SYM, n.payload))
                degrees.append(1)
                self.symbols.add(n.payload)
            elif k is Kind.ADD or k is Kind.MUL:
                arity = len(n.children)
                emit((_ADD if k is Kind.ADD else _MUL, arity))
                # a sum or product of ratios n_i/d_i is one ratio of degree <= sum
                d = sum(degrees[-arity:])
                del degrees[-arity:]
                degrees.append(d)
            elif k is Kind.POW:
                e = _int_exponent(n)
                if e is None:
                    emit((_POW, None))
                    del degrees[-1]
                    exact = False
                else:
                    emit((_POWI, e))
                    degrees[-1] *= abs(e.numerator)
            elif k is Kind.CONSTANT:
                emit((_CONST, n.payload))
                degrees.append(0)
                exact = False
            elif k is Kind.FUNCTION and n.payload in _MP_FUNCS:
                arity = len(n.children)
                emit((_FN, (_MP_FUNCS[n.payload], arity)))
                del degrees[-arity:]
                degrees.append(0)
                exact = False
            else:
                self.evaluable = False
                self.code.clear()
                return
        if exact and degrees[0] < _MAX_DEGREE:
            self.degree = degrees[0]

    def exact_code(self) -> list:
        """`code` with each number n/d as n * d^-1 mod P (needs `degree`)."""
        if self._exact is None:
            self._exact = [
                (op, arg.numerator * pow(arg.denominator, -1, P) % P) if op == _NUM
                else (op, arg.numerator) if op == _POWI
                else (op, arg)
                for op, arg in self.code
            ]
        return self._exact

    def float_code(self) -> list:
        """`code` with numbers, exponents and constants as mpmath values, built
        at the caller's working precision."""
        if self._float is None:
            self._float = [
                (_NUM, _mp_constant(arg)) if op == _CONST
                else (op, mpmath.mpf(arg.numerator) / arg.denominator) if op in (_NUM, _POWI)
                else (op, arg)
                for op, arg in self.code
            ]
        return self._float


def _mp_constant(name: str):
    if name == "pi":
        return +mpmath.pi
    if name == "e":
        return +mpmath.e
    return mpmath.mpc(0, 1)


def evaluate_exact(code: list, env: dict) -> int:
    """A plan's exact program at one point of GF(P) (symbol -> int in [0, P)).

    Raises ZeroDivisionError at a pole: zero to a negative power.
    """
    stack = []
    push, pop = stack.append, stack.pop
    for op, arg in code:
        if op == _SYM:
            push(env[arg])
        elif op == _NUM:
            push(arg)
        elif op == _MUL:
            r = pop()
            for _ in range(arg - 1):
                r = r * pop() % P
            push(r)
        elif op == _ADD:
            r = sum(stack[-arg:]) % P
            del stack[-arg:]
            push(r)
        else:  # _POWI
            b = pop()
            if arg < 0 and b == 0:
                raise ZeroDivisionError("0 ** negative")
            push(pow(b, arg, P))
    return stack[0]


def evaluate_float(code: list, env: dict):
    """A plan's float program at one point, in mpmath at the caller's working
    precision; operands combine left to right."""
    stack = []
    push, pop = stack.append, stack.pop
    for op, arg in code:
        if op == _SYM:
            push(env[arg])
        elif op == _NUM:
            push(arg)
        elif op == _POWI:
            push(pop() ** arg)
        elif op == _ADD or op == _MUL:
            vals = stack[-arg:]
            del stack[-arg:]
            r = vals[0]
            if op == _ADD:
                for v in vals[1:]:
                    r = r + v
            else:
                for v in vals[1:]:
                    r = r * v
            push(r)
        elif op == _POW:
            e = pop()
            push(pop() ** e)
        else:  # _FN
            fn, arity = arg
            vals = stack[-arity:]
            del stack[-arity:]
            push(fn(vals[0]))
    return stack[0]


def _pair_seed(cfg_seed: int, da: str, db: str) -> int:
    lo, hi = sorted((da, db))
    h = hashlib.sha1(f"{cfg_seed}|{lo}|{hi}".encode()).digest()
    return int.from_bytes(h[:8], "big")


def equivalent(a, b, cfg: GradeConfig = GradeConfig()) -> bool:
    """Structural canonical equality, else randomized-evaluation agreement.

    a and b are MathNodes or CanonicalTrees; only MathNodes are canonicalized.
    Two rational trees are compared at `cfg.trials` random points of GF(P),
    anything else evaluable at random real points in 30-digit mpmath.
    Raises Inconclusive when every sample of a trial hits a singularity;
    callers fall back to tree distance.
    """
    ca = as_canonical(a)
    cb = as_canonical(b)
    if ca.root == cb.root:
        return True
    pa, pb = ca.plan(), cb.plan()
    if not (pa.evaluable and pb.evaluable):
        return False

    symbols = sorted(pa.symbols | pb.symbols)
    rng = random.Random(_pair_seed(cfg.seed, ca.digest, cb.digest))
    exact = pa.degree is not None and pb.degree is not None
    if exact:
        ea, eb = pa.exact_code(), pb.exact_code()
    else:
        with mpmath.workdps(30):
            fa, fb = pa.float_code(), pb.float_code()

    for _ in range(cfg.trials):
        for _retry in range(MAX_RETRIES):
            if exact:
                env = {s: rng.randrange(P) for s in symbols}
                try:
                    va = evaluate_exact(ea, env)
                    vb = evaluate_exact(eb, env)
                except ZeroDivisionError:
                    continue
                if va != vb:
                    return False
                break
            env = {
                s: mpmath.mpf(rng.uniform(0.3, 2.7)) for s in symbols
            }
            try:
                with mpmath.workdps(30):
                    va = evaluate_float(fa, env)
                    vb = evaluate_float(fb, env)
            except (ZeroDivisionError, ValueError, OverflowError):
                continue
            diff = abs(va - vb)
            if diff > cfg.eval_rtol * (1 + abs(va) + abs(vb)):
                return False
            break
        else:
            raise Inconclusive("all evaluation samples hit singularities")
    return True
