"""Expression tree nodes shared by every pipeline stage."""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache


class Kind(Enum):
    # members compare by identity; Enum's own __hash__ is Python code
    __hash__ = object.__hash__

    NUMBER = "number"
    CONSTANT = "constant"
    SYMBOL = "symbol"
    POW = "pow"
    FUNCTION = "function"
    MUL = "mul"
    ADD = "add"
    DERIVATIVE = "derivative"
    MATRIX = "matrix"
    RELATION = "relation"


# Rank used by the canonical total order; numerics sort first so sign
# handling only ever needs to look at the head of a product.
KIND_RANK = {
    Kind.NUMBER: 0,
    Kind.CONSTANT: 1,
    Kind.SYMBOL: 2,
    Kind.POW: 3,
    Kind.FUNCTION: 4,
    Kind.MUL: 5,
    Kind.ADD: 6,
    Kind.DERIVATIVE: 7,
    Kind.MATRIX: 8,
    Kind.RELATION: 9,
}

CONSTANT_NAMES = ("pi", "e", "i")

_OPEN = {k: k.name + "(" for k in Kind}  # the head of each node's repr


class _NodeSlots:
    """The storage of MathNode. Its constructor and caches write these slots
    through their descriptors, which MathNode's __setattr__ guard does not
    see, at about half the cost of object.__setattr__."""

    __slots__ = ("kind", "payload", "children", "_hash", "_key")


_set_kind = _NodeSlots.kind.__set__
_set_payload = _NodeSlots.payload.__set__
_set_children = _NodeSlots.children.__set__
_set_hash = _NodeSlots._hash.__set__
# canon.sort_key fills this cache, once per node
set_key = _NodeSlots._key.__set__


class MathNode(_NodeSlots):
    """Immutable tagged tree node.

    Nodes are shared (a ground truth's subtree table hands its canonical
    subtrees to every prediction graded against it, the ground-truth memo
    keeps parsed ground truths for the process, and `num`, `sym` and
    `const` return one node per distinct leaf), so assigning any attribute
    raises AttributeError. A node caches its hash and its canonical sort
    key; a ground truth's canonical trees are kept on its TypedAnswer (see
    grader.grade_parsed).

    payload depends on kind:
      NUMBER    -> Fraction (exact, nonzero denominator)
      SYMBOL    -> str name ("x", "mu", "k_x")
      CONSTANT  -> "pi" | "e" | "i"
      FUNCTION  -> str function name
      RELATION  -> "=" | "<" | "<=" | ">" | ">="
      MATRIX    -> (rows: int, cols: int); children row-major
      others    -> None
    """

    __slots__ = ()

    def __init__(self, kind: Kind, payload=None, children: tuple = ()):
        _set_kind(self, kind)
        _set_payload(self, payload)
        _set_children(self, children if children.__class__ is tuple else tuple(children))
        _set_hash(self, None)
        set_key(self, None)  # canon.sort_key, filled on first use

    def __setattr__(self, name, value):
        raise AttributeError("MathNode is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not MathNode:
            return NotImplemented
        h, ho = self._hash, other._hash
        if h is not None and ho is not None and h != ho:
            return False
        return (
            self.kind is other.kind
            and self.payload == other.payload
            and self.children == other.children
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.kind, self.payload, self.children))
            _set_hash(self, h)
        return h

    def __repr__(self):
        # `KIND(payload; child, child)`, from an explicit stack: deep trees do not recurse
        out = []
        stack = [self]
        while stack:
            node = stack.pop()
            if node.__class__ is str:
                out.append(node)
                continue
            kids = node.children
            head = _OPEN[node.kind]
            if node.payload is not None:
                head += repr(node.payload) + ("; " if kids else "")
            out.append(head if kids else head + ")")
            if kids:
                stack.append(")")
                for i in range(len(kids) - 1, 0, -1):
                    stack += (kids[i], ", ")
                stack.append(kids[0])
        return "".join(out)

    def size(self) -> int:
        return 1 + sum(c.size() for c in self.children)

    def label(self) -> str:
        """Short node label used for edit-distance costs and edit scripts."""
        k = self.kind
        if k is Kind.NUMBER:
            return str(self.payload)
        if k in (Kind.SYMBOL, Kind.CONSTANT, Kind.FUNCTION, Kind.RELATION):
            return str(self.payload)
        if k is Kind.ADD:
            return "+"
        if k is Kind.MUL:
            return "*"
        if k is Kind.POW:
            return "^"
        if k is Kind.DERIVATIVE:
            return "d/d"
        if k is Kind.MATRIX:
            r, c = self.payload
            return f"matrix{r}x{c}"
        raise AssertionError(k)


# -- constructors -----------------------------------------------------------

LEAVES = 4096  # distinct leaves kept in the leaf table


@lru_cache(maxsize=LEAVES)
def _leaf(kind: Kind, key) -> MathNode:
    """The one node of a leaf (the leaf half of hash-consing): nodes are
    immutable and compare by structure, so every leaf of one kind and
    payload can be the same object, whose hash and sort key are computed
    once. A number is keyed by its (numerator, denominator), whose hash is
    C code (a Fraction's is not). A leaf evicted from the table stays valid;
    the next one just is another object."""
    return MathNode(kind, Fraction(*key) if kind is Kind.NUMBER else key)


def num(value) -> MathNode:
    if type(value) is not Fraction:
        value = Fraction(value)
    return _leaf(Kind.NUMBER, (value.numerator, value.denominator))


def sym(name: str) -> MathNode:
    return _leaf(Kind.SYMBOL, name)


def const(name: str) -> MathNode:
    if name not in CONSTANT_NAMES:
        raise ValueError(f"not a constant: {name}")
    return _leaf(Kind.CONSTANT, name)


def add(*terms: MathNode) -> MathNode:
    return MathNode(Kind.ADD, None, terms)


def mul(*factors: MathNode) -> MathNode:
    return MathNode(Kind.MUL, None, factors)


def pow_(base: MathNode, exponent: MathNode) -> MathNode:
    return MathNode(Kind.POW, None, (base, exponent))


def func(name: str, *args: MathNode) -> MathNode:
    return MathNode(Kind.FUNCTION, name, args)


def relation(op: str, lhs: MathNode, rhs: MathNode) -> MathNode:
    assert op in ("=", "<", "<=", ">", ">=")
    return MathNode(Kind.RELATION, op, (lhs, rhs))


ZERO = num(0)
ONE = num(1)
# the parser's own numbers (from `-`, `/`, `\frac`, `\sqrt`), built once here
MINUS_ONE = num(-1)
HALF = num(Fraction(1, 2))


def neg(node: MathNode) -> MathNode:
    if node.kind is Kind.NUMBER:
        return num(-node.payload)
    return mul(MINUS_ONE, node)


class AnswerType(Enum):
    __hash__ = object.__hash__  # as Kind's

    EXPRESSION = "expression"
    EQUATION = "equation"
    NUMERIC = "numeric"
    TUPLE = "tuple"
    INTERVAL = "interval"


class TypedAnswer:
    """An answer tagged with one of the five grading types.

    `parts` are the trees that grading compares: the one expression or
    relation, a tuple's components, or an interval's two endpoints, whose
    `(lower_open, upper_open)` is `openness`. A numeric answer has no parts
    and a `quantity`.

    Two slots are filled when the answer is graded against as a ground
    truth (see grader.grade_parsed), and live as long as the answer:
    - `trees` holds the canonical forms of the parts, in order (an
      equation's is its standardized `(op, f)`). Each is built on first use.
    - `subtrees` maps each raw subtree of those trees to its canonical form
      (see canon._rewrite). Every prediction graded against the answer reads
      a copy of it.
    """

    __slots__ = ("answer_type", "parts", "quantity", "openness", "subtrees", "trees")

    def __init__(self, answer_type: AnswerType, parts: tuple, quantity=None, openness=None):
        self.answer_type = answer_type
        self.parts = tuple(parts)
        self.quantity = quantity
        self.openness = openness
        self.subtrees: dict = {}
        self.trees: tuple = ()
        if answer_type is AnswerType.TUPLE and len(self.parts) < 2:
            raise ValueError("tuple answers need at least two parts")

    def fresh(self) -> "TypedAnswer":
        """A copy with the same parts, quantity and openness and with empty
        `trees` and `subtrees`: what grading against it builds ends with
        the copy."""
        return TypedAnswer(self.answer_type, self.parts, self.quantity, self.openness)

    def __repr__(self):
        return f"TypedAnswer({self.answer_type.value}, {self.parts!r})"

