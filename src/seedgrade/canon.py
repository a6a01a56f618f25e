"""Canonical forms and semantic equivalence for expression trees.

Canonicalization is purely syntactic: flatten associative operators, fold
exact rational arithmetic, collect like terms and like bases, and sort
children under a fixed total order.  Deeper identities (different fraction
or radical arrangements) are caught by randomized evaluation, so no symbolic
expansion is ever needed.

Every evaluable tree is first evaluated exactly in GF(P), P = 2^61 - 1, at
points drawn uniformly from the field.  Each function call, constant and
power with a non-integer exponent is an *atom*: an opaque operand, keyed by
its canonical subtree, drawn as one more variable (Gonnet's signature
method, SYMSAC 1986).  Two trees that agree as rational functions of their
symbols and atoms are equal wherever both are defined, whatever values the
atoms take; a false "equivalent" has chance at most deg/P per trial, where
deg bounds the degree of the difference.  A rational tree is a tree with no
atoms, so a disagreement proves it different.  A disagreement between trees
with atoms proves nothing (sin^2 x + cos^2 x against 1), so those pairs,
and trees that GF(P) cannot take, are evaluated in 30-digit mpmath at random
real points, and the first agreeing point is confirmed at 60 digits.  Each
canonical tree builds its evaluation plan (two postorder stack programs
with their constants converted once), its size and its digest on first use
and keeps them.

Canonicalization goes through a subtree table, a dict from raw subtrees to
their canonical forms (see _rewrite). Nothing here keeps a table or a
canonical tree: the grader's canonicalize stage (grader.grade_parsed) keeps
a ground truth's table and trees on its TypedAnswer, and canonicalizes each
prediction through one copy of that table, so a subtree that a prediction
shares with its ground truth is rewritten once per ground truth.
"""

from __future__ import annotations

import hashlib
import math
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath

from .config import GradeConfig
from .errors import Inconclusive, NotARelation
from .nodes import KIND_RANK, MINUS_ONE, ONE, ZERO, Kind, MathNode, num, relation, set_key

_F0 = Fraction(0)
_F1 = Fraction(1)


# resamples per equivalence trial before a singular point makes it inconclusive
MAX_RETRIES = 5


@dataclass(frozen=True)
class CanonicalTree:
    """A canonical tree. Its size, digest and evaluation plan are each
    computed on first read and kept with the tree: grading reads the size of
    ground truths only, and the digest only of pairs that are not
    structurally equal."""

    root: MathNode
    _size: "int | None" = field(default=None, init=False, repr=False, compare=False)
    _digest: "str | None" = field(default=None, init=False, repr=False, compare=False)
    _plan: "Plan | None" = field(default=None, init=False, repr=False, compare=False)

    @property
    def size(self) -> int:
        s = self._size
        if s is None:
            s = self.root.size()
            object.__setattr__(self, "_size", s)
        return s

    @property
    def digest(self) -> str:
        d = self._digest
        if d is None:
            d = hashlib.sha1(repr(self.root).encode()).hexdigest()
            object.__setattr__(self, "_digest", d)
        return d

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
    set_key(node, k)
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


def _has_zero_pole(node: MathNode) -> bool:
    """Whether node holds a power of the number 0. canon_pow keeps one only
    when it is undefined or its exponent is symbolic, so a zero coefficient
    must not absorb it."""
    stack = [node]
    while stack:
        n = stack.pop()
        if n.kind is Kind.POW and n.children[0] == ZERO:
            return True
        stack.extend(n.children)
    return False


def _with_coeff(coeff: Fraction, base: MathNode) -> MathNode:
    if base.kind is Kind.NUMBER and base.payload == 1:
        return num(coeff)
    if coeff == 0 and not _has_zero_pole(base):
        return ZERO
    if coeff == 1:
        return base
    if base.kind is Kind.MUL:
        return MathNode(Kind.MUL, None, (num(coeff),) + base.children)
    return MathNode(Kind.MUL, None, (num(coeff), base))


def _summed(coeffs: list) -> list:
    """[the sum of coeffs], or coeffs themselves, unsummed, when the sum
    would pass the bit budget: it could not be printed, and terms kept
    apart sum the same way when rewritten again."""
    if len(coeffs) < 2:
        return coeffs
    total = sum(coeffs, _F0)
    if total.numerator.bit_length() + total.denominator.bit_length() > _bit_budget():
        return coeffs
    return [total]


def canon_add(terms) -> MathNode:
    flat = []
    stack = list(terms)
    while stack:
        t = stack.pop()
        if t.kind is Kind.ADD:
            stack.extend(t.children)
        else:
            flat.append(t)
    constants = []
    buckets: dict = {}
    for t in flat:
        coeff, base = _split_term(t)
        if base.kind is Kind.NUMBER and base.payload == 1:
            constants.append(coeff)
            continue
        # keyed by the node: its hash is cached, a sort key's tuple hash is not
        c = buckets.get(base)
        if c is None:
            buckets[base] = [coeff]
        else:
            c.append(coeff)
    out = []
    for base, coeffs in buckets.items():
        for coeff in _summed(coeffs):
            if coeff != 0 or _has_zero_pole(base):
                out.append(_with_coeff(coeff, base))
    for constant in _summed(constants):
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
    """The integer n-th root of x when x is a perfect n-th power, else None.
    Newton's iteration in integers, from a power of two above the root: a
    float root would overflow past 2^1024."""
    if x < 2:
        return x if x >= 0 else None
    r = 1 << -(-x.bit_length() // n)
    while True:
        s = ((n - 1) * r + x // r ** (n - 1)) // n
        if s >= r:
            return r if r**n == x else None
        r = s


def _bit_budget() -> float:
    """The bits of the largest number that Python's int-string limit lets
    print: no folded number may pass them."""
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    return limit * math.log2(10)


def _rational_pow(base: Fraction, exp: Fraction):
    """Exact value of base**exp, or None when it is irrational/complex or
    too large to fold: base**numerator(exp) has at most (bits(numerator) +
    bits(denominator)) * |numerator(exp)| bits, and past the bit budget it
    could not even be printed.  The POW node then stays, and GF(p)
    evaluates it in microseconds."""
    bits = base.numerator.bit_length() + base.denominator.bit_length()
    if bits * abs(exp.numerator) > _bit_budget():
        return None
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
    if exp.kind is Kind.NUMBER:
        if exp.payload == 0:
            return ONE
        if exp.payload == 1:
            return base
    if base.kind is Kind.NUMBER and base.payload == 1:
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
    out = []
    numbers = []  # (plain number, its value), folded first
    powers = []  # (numeric power, its value), folded after the numbers
    for f in flat:
        if f.kind is Kind.NUMBER:
            numbers.append((f, f.payload))
            continue
        base, exp = _split_pow(f)
        if base.kind is Kind.NUMBER and exp.kind is Kind.NUMBER:
            folded = _rational_pow(base.payload, exp.payload)
            if folded is not None:
                powers.append((f, folded))
                continue
        if base.kind is Kind.NUMBER and base.payload == 0:
            # 0^a * 0^b is not 0^(a+b) where either one is undefined: the
            # sum can cancel a pole (0^x * 0^-x), so each is kept apart
            out.append(f)
            continue
        exps = buckets.get(base)
        if exps is None:
            buckets[base] = [exp]
        else:
            exps.append(exp)
    for base, exps in buckets.items():
        if len(exps) == 1:
            exp_node = exps[0]
            if base.kind is Kind.NUMBER and exp_node.kind is Kind.NUMBER and base.payload != 1:
                # the loop above failed to fold it, and canon_pow would too
                # (it takes 1^e to 1 past the bit budget)
                out.append(MathNode(Kind.POW, None, (base, exp_node)))
                continue
        elif all(e.kind is Kind.NUMBER for e in exps):
            exp_node = num(sum(e.payload for e in exps))
        else:
            exp_node = canon_add(exps)
        if exp_node.kind is Kind.NUMBER and exp_node.payload == 0:
            continue
        if base.kind is Kind.NUMBER and exp_node.kind is Kind.NUMBER:
            folded = _rational_pow(base.payload, exp_node.payload)
            if folded is not None:
                powers.append((MathNode(Kind.POW, None, (base, exp_node)), folded))
                continue
        factor = canon_pow(base, exp_node)
        if factor.kind is Kind.NUMBER:
            numbers.append((factor, factor.payload))
            continue
        out.append(factor)
    # each number and power folds into the coefficient only while it stays
    # within the bit budget (the first always does: it is a number already);
    # one that would pass it stays a factor, which GF(p) evaluates: a number
    # as n^1, which _factor and this loop leave unfolded, so that a rewrite
    # again keeps it
    budget = _bit_budget()
    for f, folded in numbers + powers:
        bits = (coeff.numerator.bit_length() + coeff.denominator.bit_length()
                + folded.numerator.bit_length() + folded.denominator.bit_length())
        if coeff == 1 or bits <= budget:
            coeff *= folded
        elif f.kind is Kind.NUMBER:
            out.append(MathNode(Kind.POW, None, (f, ONE)))
        else:
            out.append(f)
    if coeff == 0 and not any(map(_has_zero_pole, out)):
        return ZERO
    if not out:
        return num(coeff)
    out.sort(key=sort_key)
    if coeff != 1:
        out.insert(0, num(coeff))
    if len(out) == 1:
        return out[0]
    return MathNode(Kind.MUL, None, tuple(out))


def _rewrite(node: MathNode, table: "dict | None" = None) -> MathNode:
    """The canonical form of node. `table` maps raw subtrees to their
    canonical forms; it is read and filled at every internal node, so a
    subtree equal to one already in it is not rewritten again (the result
    depends only on the subtree's structure, and nodes compare and hash by
    structure). Leaves are their own canonical forms and are not stored.
    Without a table, one is made for this call."""
    if not node.children:
        return node
    if table is None:
        table = {}
    c = table.get(node)
    if c is not None:
        return c
    k = node.kind
    if k is Kind.MUL:
        c = canon_mul([_factor(f, table) if f.kind is Kind.POW else _rewrite(f, table)
                       for f in node.children])
    else:
        kids = [_rewrite(c, table) for c in node.children]
        if k is Kind.ADD:
            c = canon_add(kids)
        elif k is Kind.POW:
            c = canon_pow(kids[0], kids[1])
        else:
            c = MathNode(k, node.payload, tuple(kids))
    table[node] = c
    return c


def _factor(node: MathNode, table: dict) -> MathNode:
    """The canonical form of a product's power factor, except that a power
    of two numbers stays unfolded: canon_mul folds it into the coefficient
    only within the bit budget."""
    b, e = _rewrite(node.children[0], table), _rewrite(node.children[1], table)
    if b.kind is Kind.NUMBER and e.kind is Kind.NUMBER:
        return MathNode(Kind.POW, None, (b, e))
    return _rewrite(node, table)


def canonicalize(node: MathNode, table: "dict | None" = None) -> CanonicalTree:
    return CanonicalTree(_rewrite(node, table))


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


def standardize_relation(node: MathNode, table: "dict | None" = None) -> MathNode:
    """Rewrite `lhs # rhs` as `f # 0` with a positive, gcd-reduced leading
    term; the sides are canonicalized through `table` (see _rewrite)."""
    if node.kind is not Kind.RELATION:
        raise NotARelation(f"expected a relation, got {node.kind.name}")
    lhs = _rewrite(node.children[0], table)
    rhs = _rewrite(node.children[1], table)
    diff = canon_add([lhs, canon_mul([MINUS_ONE, rhs])])
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


def canonical_relation(node: MathNode, table: "dict | None" = None) -> tuple:
    """(operator, canonical f) of the relation standardized as `f # 0`; the
    sides are canonicalized through `table` (see _rewrite)."""
    s = standardize_relation(node, table)
    # built by the canonical constructors, so rewriting it again is a no-op
    return s.payload, CanonicalTree(s.children[0])


# --- evaluation --------------------------------------------------------------

# The first path evaluates in the field GF(P).  Two rational functions whose
# difference has a numerator of total degree d, with integer coefficients not
# all multiples of P, agree at a uniform random point with chance at most d/P
# (Schwartz 1980, Zippel 1979).
P = (1 << 61) - 1
# A tree whose degree bound reaches this takes the float path: the numerator
# of a difference of two GF(P) programs then has degree below P - 1, so
# Fermat's x^(P-1) = 1 cannot make two different functions agree at every
# point.
_MAX_DEGREE = (P - 1) // 2
# The first float sample that passes `eval_rtol` at 30 digits is evaluated
# again at 60 digits (see _confirms). The rounding error of a true identity
# falls by about 10^-30 with the 30 extra digits; a real difference, such as
# an offset of 10^-11 or two sides that differ but are both tiny, keeps its
# size.
ESCALATED_RTOL = 1e-45
ESCALATED_SHRINK = 1e-15

_MP_FUNCS = {
    "sin": mpmath.sin, "cos": mpmath.cos, "tan": mpmath.tan,
    "exp": mpmath.exp, "log": mpmath.log, "ln": mpmath.log,
    "sinh": mpmath.sinh, "cosh": mpmath.cosh, "tanh": mpmath.tanh,
    "arctan": mpmath.atan, "arcsin": mpmath.asin, "arccos": mpmath.acos,
    "factorial": lambda x: mpmath.gamma(x + 1),
}

# opcodes of a plan's postorder stack programs, with their argument:
#   _NUM a number, _SYM a symbol name (or, in the GF(P) program, an atom
#   node), _CONST a constant name, _ADD and _MUL the operand count, _POWI an
#   integer exponent (the base is on the stack), _POW none (base and exponent
#   are), _FN (function, operand count)
_NUM, _SYM, _CONST, _ADD, _MUL, _POWI, _POW, _FN = range(8)


def _int_exponent(node: MathNode):
    """The exponent of a POW node as a Fraction when it is an integer of
    magnitude below _MAX_DEGREE, else None: the power is then an atom, whose
    float value evaluate_float refuses past that bound."""
    e = node.children[1]
    if e.kind is Kind.NUMBER and e.payload.denominator == 1 and abs(e.payload) < _MAX_DEGREE:
        return e.payload
    return None


class Plan:
    """What the equivalence check needs of one canonical tree, from one walk.

    `code` is the tree as a postorder stack program for mpmath. `gf` is the
    same tree as a program over GF(P) in which each *atom* (a function call,
    a constant, or a power whose exponent is not an integer below
    _MAX_DEGREE) is one `_SYM`
    operand keyed by the atom node itself; a rational tree has no atoms.
    `symbols` are the free symbols, `atoms` the atoms that `gf` reads, and
    `evaluable` says whether every node can be evaluated. `degree` bounds
    the total degree of `gf` as a ratio of polynomials in its symbols and
    atoms (an atom counts 1), or is None when GF(P) cannot take the tree: a
    number outside the atoms has a denominator divisible by P, or the bound
    reaches _MAX_DEGREE. The numbers of `gf` are converted (n * d^-1 mod P)
    in the walk; those of `code` once per precision, on first use.
    """

    __slots__ = ("code", "gf", "symbols", "atoms", "evaluable", "degree", "_float")

    def __init__(self, root: MathNode):
        self.code = []
        self.gf = []
        self.symbols = set()
        self.atoms = set()
        self.evaluable = True
        self.degree = None
        self._float = {}
        order = []  # preorder
        in_atom = []  # whether order[i] lies inside an atom
        stack, flags = [root], [False]
        while stack:
            n = stack.pop()
            inside = flags.pop()
            order.append(n)
            in_atom.append(inside)
            kids = n.children
            if not kids:
                continue
            k = n.kind
            if k is Kind.POW and _int_exponent(n) is not None:
                stack.append(kids[0])
                flags.append(inside)
            else:
                # any other POW (a non-integer or huge exponent) is an atom
                stack.extend(kids)
                flags.extend([inside or k is Kind.POW or k is Kind.FUNCTION] * len(kids))
        emit, gf = self.code.append, self.gf.append
        degrees = []  # degree bound of each value `gf` leaves on its stack
        exact = True
        for n, inside in zip(reversed(order), reversed(in_atom)):
            k = n.kind
            if k is Kind.NUMBER:
                emit((_NUM, n.payload))
                if not inside:
                    v, q = n.payload.numerator, n.payload.denominator
                    if q == 1:
                        gf((_NUM, v % P))
                    elif q % P:
                        gf((_NUM, v * pow(q, -1, P) % P))
                    else:
                        exact = False
                    degrees.append(0)
                continue
            if k is Kind.SYMBOL:
                emit((_SYM, n.payload))
                self.symbols.add(n.payload)
                if not inside:
                    gf((_SYM, n.payload))
                    degrees.append(1)
                continue
            if k is Kind.ADD or k is Kind.MUL:
                op = _ADD if k is Kind.ADD else _MUL
                arity = len(n.children)
                emit((op, arity))
                if not inside:
                    gf((op, arity))
                    # a sum or product of ratios n_i/d_i is one ratio of degree <= sum
                    d = sum(degrees[-arity:])
                    del degrees[-arity:]
                    degrees.append(d)
                continue
            if k is Kind.POW:
                e = _int_exponent(n)
                if e is not None:
                    emit((_POWI, e))
                    if not inside:
                        gf((_POWI, e.numerator))
                        degrees[-1] *= abs(e.numerator)
                    continue
                emit((_POW, None))
            elif k is Kind.CONSTANT:
                emit((_CONST, n.payload))
            elif k is Kind.FUNCTION and n.payload in _MP_FUNCS:
                emit((_FN, (_MP_FUNCS[n.payload], len(n.children))))
            else:
                self.evaluable = False
                self.code.clear()
                self.gf.clear()
                return
            if not inside:  # an atom
                gf((_SYM, n))
                degrees.append(1)
                self.atoms.add(n)
        if exact and degrees[0] < _MAX_DEGREE:
            self.degree = degrees[0]

    def float_code(self, dps: int) -> list:
        """`code` with numbers, exponents and constants as mpmath values at
        `dps` significant digits, converted once per precision."""
        fc = self._float.get(dps)
        if fc is None:
            with mpmath.workdps(dps):
                fc = self._float[dps] = [
                    (_NUM, _mp_constant(arg)) if op == _CONST
                    else (op, mpmath.mpf(arg.numerator) / arg.denominator)
                    if op in (_NUM, _POWI)
                    else (op, arg)
                    for op, arg in self.code
                ]
        return fc


def _mp_constant(name: str):
    if name == "pi":
        return +mpmath.pi
    if name == "e":
        return +mpmath.e
    return mpmath.mpc(0, 1)


def evaluate_exact(code: list, env: dict) -> int:
    """A plan's GF(P) program at one point (symbol or atom -> int in [0, P)).

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
    precision; operands combine left to right. Raises OverflowError for a
    power whose exponent reaches _MAX_DEGREE in magnitude."""
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
            if abs(e) >= _MAX_DEGREE:  # mpmath would take seconds: x^(3^4761) took 10 s
                raise OverflowError("exponent too large to evaluate")
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


def _field_agrees(ga: list, gb: list, keys: list, rng, trials: int):
    """Whether two GF(P) programs agree at `trials` random points: True, False
    at the first point where they differ, or None when every sample of a
    trial hits a pole. Each sample draws `keys` in order."""
    for _ in range(trials):
        for _retry in range(MAX_RETRIES):
            env = {k: rng.randrange(P) for k in keys}
            try:
                va = evaluate_exact(ga, env)
                vb = evaluate_exact(gb, env)
            except ZeroDivisionError:
                continue
            if va != vb:
                return False
            break
        else:
            return None
    return True


def _evaluate_pair(fa: list, fb: list, env: dict, dps: int):
    """Two float programs at one point at `dps` digits, or None where either
    is singular."""
    try:
        with mpmath.workdps(dps):
            va = evaluate_float(fa, env)
            vb = evaluate_float(fb, env)
    except (ZeroDivisionError, ValueError, OverflowError):
        return None
    if not (mpmath.isfinite(va) and mpmath.isfinite(vb)):
        # 0 to a negative real power reads as inf, and inf - inf
        # as nan, which no tolerance test would reject
        return None
    return va, vb


def _close(va, vb, rtol: float) -> bool:
    return abs(va - vb) <= rtol * (1 + abs(va) + abs(vb))


def _confirms(d30, va, vb) -> bool:
    """Whether 60-digit values va and vb confirm a sample whose 30-digit
    difference was d30: their difference is 0 or below ESCALATED_RTOL of
    |va| + |vb|, or it shrank by ESCALATED_SHRINK from d30. The absolute floor
    of _close applies only where d30 is exactly 0, so that no shrink can be
    seen (sin^2 x + cos^2 x - 1 against 0 at some points); two tiny sides
    that differ keep their difference at both precisions."""
    d60 = abs(va - vb)
    if d60 <= ESCALATED_RTOL * (abs(va) + abs(vb)) or d60 <= ESCALATED_SHRINK * d30:
        return True
    return d30 == 0 and _close(va, vb, ESCALATED_RTOL)


def _floats_agree(pa: Plan, pb: Plan, symbols: list, rng, cfg: GradeConfig) -> bool:
    """Whether two plans agree within `eval_rtol` at `cfg.trials` random real
    points in 30-digit mpmath, the first of them confirmed at 60 digits
    (_confirms). Raises Inconclusive when every sample of a trial is
    singular."""
    fa, fb = pa.float_code(30), pb.float_code(30)
    confirmed = False
    for _ in range(cfg.trials):
        for _retry in range(MAX_RETRIES):
            env = {s: mpmath.mpf(rng.uniform(0.3, 2.7)) for s in symbols}
            values = _evaluate_pair(fa, fb, env, 30)
            if values is None:
                continue
            if not _close(*values, cfg.eval_rtol):
                return False
            if not confirmed:
                d30 = abs(values[0] - values[1])
                values = _evaluate_pair(pa.float_code(60), pb.float_code(60), env, 60)
                if values is None:
                    continue
                if not _confirms(d30, *values):
                    return False
                confirmed = True
            break
        else:
            raise Inconclusive("all evaluation samples hit singularities")
    return True


def equivalent(a, b, cfg: GradeConfig = GradeConfig()) -> bool:
    """Structural canonical equality, else randomized-evaluation agreement.

    a and b are MathNodes or CanonicalTrees; only MathNodes are canonicalized.
    Two evaluable trees are first compared at `cfg.trials` random points of
    GF(P), with each atom drawn as one more variable. Agreement proves them
    equal wherever both are defined. Disagreement proves two rational trees
    different; with atoms it proves nothing (sin^2 x + cos^2 x against 1),
    so such a pair, like a tree that GF(P) cannot take, goes to the float
    path. Raises Inconclusive when every sample of a trial hits a
    singularity on the path that decides; callers fall back to tree
    distance.
    """
    ca = as_canonical(a)
    cb = as_canonical(b)
    if ca.root == cb.root:
        return True
    pa, pb = ca.plan(), cb.plan()
    if not (pa.evaluable and pb.evaluable):
        return False

    symbols = sorted(pa.symbols | pb.symbols)
    seed = _pair_seed(cfg.seed, ca.digest, cb.digest)
    if pa.degree is not None and pb.degree is not None:
        atoms = sorted(pa.atoms | pb.atoms, key=sort_key)
        agreed = _field_agrees(pa.gf, pb.gf, symbols + atoms, random.Random(seed), cfg.trials)
        if agreed:
            return True
        if not atoms:
            if agreed is None:
                raise Inconclusive("all evaluation samples hit singularities")
            return False
    return _floats_agree(pa, pb, symbols, random.Random(seed), cfg)
