"""Expression tree nodes shared by every pipeline stage."""

from __future__ import annotations

from enum import Enum
from fractions import Fraction


class Kind(Enum):
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
    TUPLE = "tuple"
    INTERVAL = "interval"
    UNIT = "unit"


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
    Kind.TUPLE: 10,
    Kind.INTERVAL: 11,
    Kind.UNIT: 12,
}

CONSTANT_NAMES = ("pi", "e", "i")


class MathNode:
    """Immutable tagged tree node.

    payload depends on kind:
      NUMBER    -> Fraction (exact, nonzero denominator)
      SYMBOL    -> str name ("x", "mu", "k_x")
      CONSTANT  -> "pi" | "e" | "i"
      FUNCTION  -> str function name
      RELATION  -> "=" | "<" | "<=" | ">" | ">="
      INTERVAL  -> (lower_open: bool, upper_open: bool)
      MATRIX    -> (rows: int, cols: int); children row-major
      others    -> None
    """

    __slots__ = ("kind", "payload", "children", "_hash", "_key", "_canon")

    def __init__(self, kind: Kind, payload=None, children: tuple = ()):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "payload", payload)
        object.__setattr__(self, "children", tuple(children))
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_key", None)  # canon.sort_key, filled on first use
        # canon.as_canonical (or canon.canonical_relation), filled on first use
        object.__setattr__(self, "_canon", None)

    def __setattr__(self, name, value):
        raise AttributeError("MathNode is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, MathNode):
            return NotImplemented
        return (
            self.kind is other.kind
            and self.payload == other.payload
            and self.children == other.children
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.kind, self.payload, self.children))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        inner = "" if self.payload is None else repr(self.payload)
        if self.children:
            kids = ", ".join(repr(c) for c in self.children)
            inner = f"{inner}; {kids}" if inner else kids
        return f"{self.kind.name}({inner})"

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
        if k is Kind.INTERVAL:
            lo, hi = self.payload
            return ("(" if lo else "[") + "," + (")" if hi else "]")
        if k is Kind.TUPLE:
            return "tuple"
        if k is Kind.UNIT:
            return f"qty{self.payload}"
        raise AssertionError(k)


# -- constructors -----------------------------------------------------------

def num(value) -> MathNode:
    return MathNode(Kind.NUMBER, value if type(value) is Fraction else Fraction(value))


def sym(name: str) -> MathNode:
    return MathNode(Kind.SYMBOL, name)


def const(name: str) -> MathNode:
    if name not in CONSTANT_NAMES:
        raise ValueError(f"not a constant: {name}")
    return MathNode(Kind.CONSTANT, name)


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


def neg(node: MathNode) -> MathNode:
    if node.kind is Kind.NUMBER:
        return num(-node.payload)
    return mul(num(-1), node)


ZERO = num(0)
ONE = num(1)


class AnswerType(Enum):
    EXPRESSION = "expression"
    EQUATION = "equation"
    NUMERIC = "numeric"
    TUPLE = "tuple"
    INTERVAL = "interval"


class TypedAnswer:
    """An answer tagged with one of the five grading types."""

    __slots__ = ("answer_type", "parts", "quantity")

    def __init__(self, answer_type: AnswerType, parts: tuple, quantity=None):
        self.answer_type = answer_type
        self.parts = tuple(parts)
        self.quantity = quantity
        if answer_type is AnswerType.TUPLE and len(self.parts) < 2:
            raise ValueError("tuple answers need at least two parts")

    def __repr__(self):
        return f"TypedAnswer({self.answer_type.value}, {self.parts!r})"

