"""Tokenizer and recursive-descent parser for the supported LaTeX subset.

The grammar is a closed whitelist (see docs/grammar.md); unknown commands
raise UnknownCommand instead of silently becoming symbols.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError, TypeMismatch, UnknownCommand
from .nodes import (
    AnswerType,
    Kind,
    MathNode,
    TypedAnswer,
    const,
    func,
    mul,
    neg,
    num,
    pow_,
    relation,
    sym,
)
from .preprocess import CleanLatex

GREEK_NAMES = {
    "alpha", "beta", "gamma", "delta", "epsilon", "varepsilon", "zeta",
    "eta", "theta", "vartheta", "iota", "kappa", "lambda", "mu", "nu",
    "xi", "rho", "varrho", "sigma", "varsigma", "tau", "upsilon", "phi",
    "varphi", "chi", "psi", "omega",
    "Gamma", "Delta", "Theta", "Lambda", "Xi", "Pi", "Sigma", "Upsilon",
    "Phi", "Psi", "Omega",
}

SYMBOL_COMMANDS = GREEK_NAMES | {"hbar", "ell", "infty", "partial", "nabla"}

FUNCTION_COMMANDS = {
    "sin", "cos", "tan", "exp", "log", "ln",
    "sinh", "cosh", "tanh", "arctan", "arcsin", "arccos",
}

MATRIX_ENVS = {"pmatrix", "bmatrix", "vmatrix", "Vmatrix", "matrix"}

_OPERAND_ENDERS = {"num", "sym", "const", "rparen", "rbrack", "rbrace", "bang", "prime"}
_OPERAND_STARTERS = {"num", "sym", "const", "lparen", "frac", "sqrt", "func", "begin"}


class Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind: str, value=None, pos: int = -1):
        self.kind = kind
        self.value = value
        self.pos = pos

    def __repr__(self):
        return f"Token({self.kind}{'' if self.value is None else ':' + str(self.value)})"


# (kind, value) of each command and operator token
_FIXED_TOKENS = {
    **{"\\" + name: ("sym", name) for name in SYMBOL_COMMANDS},
    **{"\\" + name: ("func", name) for name in FUNCTION_COMMANDS},
    "\\pi": ("const", "pi"), "\\frac": ("frac", None), "\\sqrt": ("sqrt", None),
    "\\cdot": ("star", None), "\\times": ("star", None), "\\div": ("slash", None),
    "\\le": ("relop", "<="), "\\ge": ("relop", ">="), "\\\\": ("rowsep", None),
    "+": ("plus", None), "-": ("minus", None), "*": ("star", None),
    "/": ("slash", None), "^": ("caret", None), "_": ("under", None),
    "!": ("bang", None), "'": ("prime", None), "(": ("lparen", None),
    ")": ("rparen", None), "[": ("lbrack", None), "]": ("rbrack", None),
    "{": ("lbrace", None), "}": ("rbrace", None), ",": ("comma", None),
    "&": ("amp", None), "=": ("relop", "="), "<": ("relop", "<"), ">": ("relop", ">"),
}

# The spaces before a token (group 1), then one alternative per token class,
# tried in order (an environment before a command); the last takes any other
# character, which is an error.  It reads ASCII only, which is what
# canonicalize_latex emits; [\t-\r\x1c-\x20] is the ASCII whitespace of
# str.isspace.  A number's lastgroup is "frac" when it has a fractional part.
_TOKEN_RE = re.compile(
    r"( *)"
    r"(?:\\(?P<env>begin|end)[\t-\r\x1c-\x20]*\{(?P<env_name>[A-Za-z*]+)\}"
    r"|(?P<fixed>\\[A-Za-z]+|\\\\|[-+*/^_!'()\[\]{},&=<>])"
    r"|(?P<letter>[A-Za-z])"
    r"|(?P<int>[0-9]+)(?:\.(?P<frac>[0-9]+))?"
    r"|(?P<other>(?s:.)))"
)


def tokenize(src) -> list:
    """Longest-match tokenization of a clean LaTeX string.

    Adjacency that implies multiplication is made explicit with an `imul`
    token so the parser never guesses.
    """
    text = src.text if isinstance(src, CleanLatex) else src
    raw: list = []
    append = raw.append
    match = _TOKEN_RE.match
    # trailing spaces are cut off, so every match ends in a token
    end = len(text.rstrip(" "))
    i = 0
    while i < end:
        m = match(text, i, end)
        group = m.lastgroup
        pos = m.end(1)
        i = m.end()
        if group == "fixed":
            fixed = _FIXED_TOKENS.get(m.group(group))
            if fixed is None:
                raise UnknownCommand(m.group(group), pos)
            append(Token(*fixed, pos))
        elif group == "letter":
            ch = m.group(group)
            append(Token("const" if ch in "ei" else "sym", ch, pos))
        elif group == "int":
            append(Token("num", Fraction(int(m.group(group))), pos))
        elif group == "frac":
            whole, frac = m.group("int", group)
            scale = 10 ** len(frac)
            append(Token("num", Fraction(int(whole) * scale + int(frac), scale), pos))
        elif group == "env_name":
            append(Token(m.group("env"), m.group(group), pos))
        else:
            raise UnknownCommand(text[pos : pos + 2] if text[pos] == "\\" else text[pos], pos)

    glued = _glue_subscripts(raw)
    return _insert_implicit_mul(glued)


def _glue_subscripts(tokens: list) -> list:
    """Fold `_` subscripts (and \\Delta-prefixed symbols) into atomic names."""
    out: list = []
    i = 0
    n = len(tokens)
    while i < n:
        t = tokens[i]
        if t.kind in ("sym", "const") and i + 1 < n and tokens[i + 1].kind == "under":
            base = str(t.value)
            j = i + 2
            if j < n and tokens[j].kind in ("sym", "const", "num"):
                out.append(Token("sym", f"{base}_{tokens[j].value}", t.pos))
                i = j + 1
                continue
            if j < n and tokens[j].kind == "lbrace":
                depth = 0
                parts = []
                k = j
                while k < n:
                    tk = tokens[k]
                    if tk.kind == "lbrace":
                        depth += 1
                    elif tk.kind == "rbrace":
                        depth -= 1
                        if depth == 0:
                            break
                    elif tk.value is not None:
                        parts.append(str(tk.value))
                    elif tk.kind == "minus":
                        parts.append("-")
                    elif tk.kind == "plus":
                        parts.append("+")
                    k += 1
                if k == n:
                    raise ParseError(t.pos, "closing brace of subscript")
                out.append(Token("sym", f"{base}_{''.join(parts)}", t.pos))
                i = k + 1
                continue
            raise ParseError(t.pos, "subscript after '_'")
        if (
            t.kind == "sym"
            and t.value == "Delta"
            and i + 1 < n
            and tokens[i + 1].kind in ("sym", "const")
            and "_" not in str(tokens[i + 1].value)
        ):
            # a difference quantity like \Delta E is one physical symbol
            out.append(Token("sym", f"Delta_{tokens[i + 1].value}", t.pos))
            i += 2
            continue
        out.append(t)
        i += 1
    return out


def _insert_implicit_mul(tokens: list) -> list:
    out: list = []
    for t in tokens:
        if out and out[-1].kind in _OPERAND_ENDERS and t.kind in _OPERAND_STARTERS:
            out.append(Token("imul", None, t.pos))
        out.append(t)
    return out


_DIFFERENTIAL = sym("d")


class _Parser:
    """Recursive descent over a token list that ends in an `eof` sentinel, so
    the current token is always `self.tokens[self.pos]`."""

    def __init__(self, tokens: list):
        self.tokens = tokens + [Token("eof")]
        self.pos = 0

    def expect(self, kind: str) -> Token:
        t = self.tokens[self.pos]
        if t.kind != kind:
            raise ParseError(self.pos, kind)
        self.pos += 1
        return t

    # relation := additive (relop additive)?
    def relation(self) -> MathNode:
        lhs = self.additive()
        t = self.tokens[self.pos]
        if t.kind == "relop":
            self.pos += 1
            rhs = self.additive()
            if self.tokens[self.pos].kind == "relop":
                raise ParseError(self.pos, "at most one relation operator")
            return relation(t.value, lhs, rhs)
        return lhs

    def additive(self) -> MathNode:
        terms = [self.multive()]
        tokens = self.tokens
        while True:
            kind = tokens[self.pos].kind
            if kind != "plus" and kind != "minus":
                break
            self.pos += 1
            term = self.multive()
            terms.append(neg(term) if kind == "minus" else term)
        if len(terms) == 1:
            return terms[0]
        return MathNode(Kind.ADD, None, tuple(terms))

    def multive(self) -> MathNode:
        factors = [self.unary()]
        tokens = self.tokens
        while True:
            kind = tokens[self.pos].kind
            if kind != "star" and kind != "slash" and kind != "imul":
                break
            self.pos += 1
            f = self.unary()
            if kind == "slash":
                f = pow_(f, num(-1))
            factors.append(f)
        if len(factors) == 1:
            return factors[0]
        return MathNode(Kind.MUL, None, tuple(factors))

    def unary(self) -> MathNode:
        kind = self.tokens[self.pos].kind
        if kind == "minus":
            self.pos += 1
            return neg(self.unary())
        if kind == "plus":
            self.pos += 1
            return self.unary()
        return self.power()

    def power(self) -> MathNode:
        base = self.postfix()
        if self.tokens[self.pos].kind == "caret":
            self.pos += 1
            return pow_(base, self.exponent())
        return base

    def exponent(self) -> MathNode:
        """Exponent operand: brace group, signed atom, or parenthesized expr."""
        t = self.tokens[self.pos]
        if t.kind == "lbrace":
            self.pos += 1
            e = self.additive()
            self.expect("rbrace")
        elif t.kind == "minus":
            self.pos += 1
            return neg(self.exponent())
        elif t.kind in ("num", "sym", "const"):
            self.pos += 1
            e = _leaf(t)
        elif t.kind == "lparen":
            self.pos += 1
            e = self.additive()
            self.expect("rparen")
        else:
            raise ParseError(self.pos, "exponent")
        if self.tokens[self.pos].kind == "caret":
            self.pos += 1
            e = pow_(e, self.exponent())
        return e

    def postfix(self) -> MathNode:
        node = self.atom()
        tokens = self.tokens
        while True:
            kind = tokens[self.pos].kind
            if kind == "bang":
                node = func("factorial", node)
            elif kind == "prime":
                node = func("prime", node)
            else:
                return node
            self.pos += 1

    def brace_group(self) -> MathNode:
        self.expect("lbrace")
        node = self.additive()
        self.expect("rbrace")
        return node

    def atom(self) -> MathNode:
        t = self.tokens[self.pos]
        kind = t.kind
        if kind in ("num", "sym", "const"):
            self.pos += 1
            return _leaf(t)
        if kind == "lparen":
            self.pos += 1
            node = self.additive()
            self.expect("rparen")
            return node
        if kind == "lbrack":
            self.pos += 1
            node = self.additive()
            self.expect("rbrack")
            return node
        if kind == "lbrace":
            return self.brace_group()
        if kind == "frac":
            self.pos += 1
            return self.frac_tail()
        if kind == "sqrt":
            self.pos += 1
            index = None
            if self.tokens[self.pos].kind == "lbrack":
                self.pos += 1
                index = self.additive()
                self.expect("rbrack")
            arg = self.brace_group()
            if index is None:
                return pow_(arg, num(Fraction(1, 2)))
            if index.kind is Kind.NUMBER and index.payload != 0:
                return pow_(arg, num(Fraction(1, 1) / index.payload))
            return pow_(arg, pow_(index, num(-1)))
        if kind == "func":
            self.pos += 1
            return self.function_tail(t.value)
        if kind == "begin":
            self.pos += 1
            return self.matrix_tail(t.value)
        raise ParseError(self.pos, "operand")

    def frac_tail(self) -> MathNode:
        a = self.brace_group()
        b = self.brace_group()
        deriv = self._derivative_pattern(a, b)
        if deriv is not None:
            expr, var = deriv
            if expr is None:
                if self.tokens[self.pos].kind == "imul":
                    self.pos += 1
                expr = self.unary()
            return MathNode(Kind.DERIVATIVE, None, (expr, sym(var)))
        return mul(a, pow_(b, num(-1)))

    @staticmethod
    def _derivative_pattern(a: MathNode, b: MathNode):
        """Recognize \\frac{d}{dx} and \\frac{df}{dx} forms."""
        def d_times(node):
            if (
                node.kind is Kind.MUL
                and len(node.children) == 2
                and node.children[0] == _DIFFERENTIAL
            ):
                return node.children[1]
            return None

        den = d_times(b)
        if den is None or den.kind is not Kind.SYMBOL:
            return None
        if a == _DIFFERENTIAL:
            return (None, den.payload)
        numr = d_times(a)
        if numr is not None:
            return (numr, den.payload)
        return None

    def function_tail(self, name: str) -> MathNode:
        exp = None
        tokens = self.tokens
        if tokens[self.pos].kind == "caret":
            self.pos += 1
            exp = self.exponent()
        kind = tokens[self.pos].kind
        if kind == "imul":
            # adjacency after \sin^2 etc. is application, not multiplication
            self.pos += 1
            kind = tokens[self.pos].kind
        if kind == "lparen":
            self.pos += 1
            arg = self.additive()
            self.expect("rparen")
        elif kind == "lbrace":
            arg = self.brace_group()
        else:
            arg = self.power()
        node = func(name, arg)
        if exp is not None:
            node = pow_(node, exp)
        return node

    def matrix_tail(self, env: str) -> MathNode:
        if env not in MATRIX_ENVS:
            raise ParseError(self.pos, f"supported matrix environment, got {env}")
        rows = [[]]
        while True:
            rows[-1].append(self.additive())
            t = self.tokens[self.pos]
            if t.kind == "eof":
                raise ParseError(self.pos, f"\\end{{{env}}}")
            if t.kind == "amp":
                self.pos += 1
                continue
            if t.kind == "rowsep":
                self.pos += 1
                rows.append([])
                continue
            if t.kind == "end":
                if t.value != env:
                    raise ParseError(self.pos, f"\\end{{{env}}}")
                self.pos += 1
                break
            raise ParseError(self.pos, "'&', row separator, or \\end")
        if rows and not rows[-1]:
            rows.pop()
        if not rows:
            raise ParseError(self.pos, "nonempty matrix")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ParseError(self.pos, "rectangular matrix")
        cells = tuple(cell for row in rows for cell in row)
        return MathNode(Kind.MATRIX, (len(rows), ncols), cells)


def _leaf(t: Token) -> MathNode:
    if t.kind == "num":
        return num(t.value)
    if t.kind == "const":
        return const(t.value)
    return sym(t.value)


def parse_expression(tokens) -> MathNode:
    """Parse a full token sequence (or string/CleanLatex) to one tree."""
    if not isinstance(tokens, list):
        tokens = tokenize(tokens)
    p = _Parser(tokens)
    node = p.relation()
    if p.tokens[p.pos].kind != "eof":
        raise ParseError(p.pos, "end of input")
    return node


def _split_top_level(text: str) -> list:
    """Split on commas at bracket depth zero."""
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def _strip_outer(text: str) -> str:
    text = text.strip()
    while len(text) >= 2 and text[0] in "({" and text[-1] in ")}":
        depth = 0
        wraps = True
        for i, ch in enumerate(text):
            if ch in "([{":
                depth += 1
            elif ch in ")]}":
                depth -= 1
                if depth == 0 and i != len(text) - 1:
                    wraps = False
                    break
        if not wraps:
            break
        text = text[1:-1].strip()
    return text


def parse_answer(src: CleanLatex, declared: AnswerType) -> TypedAnswer:
    """Parse a clean answer string under the dataset-declared type."""
    text = src.text if isinstance(src, CleanLatex) else str(src)
    text = text.strip()
    if not text:
        raise TypeMismatch("empty answer text")

    if declared is AnswerType.EXPRESSION:
        node = parse_expression(CleanLatex(text))
        if node.kind is Kind.RELATION:
            if node.payload == "=":
                # answers often restate the symbol being solved for
                node = node.children[1]
            else:
                raise TypeMismatch("inequality given for expression answer")
        return TypedAnswer(AnswerType.EXPRESSION, (node,))

    if declared is AnswerType.EQUATION:
        node = parse_expression(CleanLatex(text))
        if node.kind is not Kind.RELATION:
            raise TypeMismatch("equation answer contains no relation operator")
        return TypedAnswer(AnswerType.EQUATION, (node,))

    if declared is AnswerType.TUPLE:
        inner = _strip_outer(text)
        parts = [p.strip() for p in _split_top_level(inner)]
        if len(parts) < 2 or any(not p for p in parts):
            raise TypeMismatch("tuple answer has no top-level comma")
        trees = []
        for p in parts:
            node = parse_expression(CleanLatex(p))
            if node.kind is Kind.RELATION and node.payload == "=":
                node = node.children[1]
            trees.append(node)
        return TypedAnswer(AnswerType.TUPLE, tuple(trees))

    if declared is AnswerType.INTERVAL:
        t = text
        eq = _find_top_level_eq(t)
        if eq is not None:
            t = t[eq + 1 :].strip()
        if len(t) < 2 or t[0] not in "([" or t[-1] not in ")]":
            raise TypeMismatch("interval answer lacks interval delimiters")
        lower_open = t[0] == "("
        upper_open = t[-1] == ")"
        parts = _split_top_level(t[1:-1])
        if len(parts) != 2:
            raise TypeMismatch("interval answer needs exactly two endpoints")
        lo = parse_expression(CleanLatex(parts[0].strip()))
        hi = parse_expression(CleanLatex(parts[1].strip()))
        node = MathNode(Kind.INTERVAL, (lower_open, upper_open), (lo, hi))
        return TypedAnswer(AnswerType.INTERVAL, (node,))

    if declared is AnswerType.NUMERIC:
        from .units import parse_quantity

        t = text
        eq = _find_top_level_eq(t)
        if eq is not None:
            t = t[eq + 1 :].strip()
        return TypedAnswer(AnswerType.NUMERIC, (), quantity=parse_quantity(t))

    raise AssertionError(declared)


def _find_top_level_eq(text: str):
    depth = 0
    last = None
    for i, ch in enumerate(text):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == "=" and depth == 0:
            last = i
    return last


# -- serialization -----------------------------------------------------------

_FUNC_LATEX = {name: "\\" + name for name in FUNCTION_COMMANDS}


def _sym_latex(name: str) -> str:
    base, _, sub = name.partition("_")
    if base in SYMBOL_COMMANDS:
        base = "\\" + base + " "
    if sub:
        return f"{base.rstrip()}_{{{sub}}}"
    return base


def _needs_parens_in_mul(node: MathNode) -> bool:
    return node.kind in (Kind.ADD, Kind.RELATION) or (
        node.kind is Kind.NUMBER and node.payload < 0
    )


def serialize(node: MathNode) -> str:
    """Render a tree back to parseable LaTeX."""
    k = node.kind
    if k is Kind.NUMBER:
        v = node.payload
        if v.denominator == 1:
            return str(v.numerator)
        s = f"\\frac{{{abs(v.numerator)}}}{{{v.denominator}}}"
        return "-" + s if v < 0 else s
    if k is Kind.SYMBOL:
        return _sym_latex(node.payload)
    if k is Kind.CONSTANT:
        return "\\pi" if node.payload == "pi" else node.payload
    if k is Kind.ADD:
        out = serialize(node.children[0])
        for c in node.children[1:]:
            s = serialize(c)
            if s.startswith("-"):
                out += " - " + s[1:]
            else:
                out += " + " + s
        return out
    if k is Kind.MUL:
        parts = []
        for c in node.children:
            s = serialize(c)
            if _needs_parens_in_mul(c):
                s = "(" + s + ")"
            parts.append(s)
        return " \\cdot ".join(parts)
    if k is Kind.POW:
        base, exp = node.children
        bs = serialize(base)
        if base.kind not in (Kind.SYMBOL, Kind.CONSTANT, Kind.FUNCTION) and not (
            base.kind is Kind.NUMBER
            and base.payload >= 0
            and base.payload.denominator == 1
        ):
            bs = "(" + bs + ")"
        return f"{bs}^{{{serialize(exp)}}}"
    if k is Kind.FUNCTION:
        if node.payload == "factorial":
            return "(" + serialize(node.children[0]) + ")!"
        if node.payload == "prime":
            return "(" + serialize(node.children[0]) + ")'"
        return _FUNC_LATEX.get(node.payload, "\\" + node.payload) + "(" + serialize(node.children[0]) + ")"
    if k is Kind.RELATION:
        op = {"<=": "\\le", ">=": "\\ge"}.get(node.payload, node.payload)
        return f"{serialize(node.children[0])} {op} {serialize(node.children[1])}"
    if k is Kind.DERIVATIVE:
        expr, var = node.children
        return f"\\frac{{d}}{{d {serialize(var)}}}({serialize(expr)})"
    if k is Kind.MATRIX:
        rows, cols = node.payload
        lines = []
        for r in range(rows):
            lines.append(
                " & ".join(serialize(node.children[r * cols + c]) for c in range(cols))
            )
        return "\\begin{pmatrix} " + " \\\\ ".join(lines) + " \\end{pmatrix}"
    if k is Kind.INTERVAL:
        lo, hi = node.payload
        return (
            ("(" if lo else "[")
            + serialize(node.children[0])
            + ", "
            + serialize(node.children[1])
            + (")" if hi else "]")
        )
    raise AssertionError(k)
