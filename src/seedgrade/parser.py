"""Reader and operator-precedence parser for the supported LaTeX subset.

The grammar is a closed whitelist (see docs/grammar.md); unknown commands
raise UnknownCommand instead of silently becoming symbols.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import NoNumber, ParseError, TypeMismatch, UnknownCommand
from .nodes import (
    HALF,
    MINUS_ONE,
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
_OPERAND_STARTERS = {"num", "sym", "const", "lparen", "lbrack", "frac", "sqrt", "func", "begin"}
_CLOSERS = {"lparen": "rparen", "lbrack": "rbrack", "lbrace": "rbrace"}


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

_DIFFERENTIAL = sym("d")


class _Parser:
    """An operator-precedence parser that reads its tokens straight from the text.

    The current token is `self.kind`/`self.value`, already in its final form:
    a subscript is glued onto its symbol (`T_{c}` is the symbol `T_c`),
    `\\Delta` onto the symbol after it (`\\Delta T_c` is `Delta_T_c`), and an
    `imul` token stands between two adjacent operands (`2x`, `(a)(b)`), so the
    grammar never guesses.  `self.pos` counts these tokens; the first fault
    met in reading order is the one raised.
    """

    def __init__(self, text: str):
        self.text = text
        # trailing spaces are cut off, so every match ends in a token
        self.end = len(text.rstrip(" "))
        self.at = 0
        self.peeked = None  # a raw token read ahead and not used yet
        self.pending = None  # the token an `imul` stands before
        self.kind = None
        self.pos = -1
        # the digits its literals may still spend: two literals that each fit
        # Python's int-string limit can fold into a number that does not
        self.digits = sys.get_int_max_str_digits() or float("inf")
        self.advance()

    def advance(self) -> None:
        self.pos += 1
        if self.pending is not None:
            self.kind, self.value = self.pending
            self.pending = None
            return
        kind, value, at = self._raw()
        if kind == "sym" or kind == "const":
            kind, value = self._subscript(kind, value)
            if value == "Delta":
                # a difference quantity like \Delta E is one physical symbol
                nxt = self._raw()
                if nxt[0] == "sym" or nxt[0] == "const":
                    value = "Delta_" + self._subscript(nxt[0], nxt[1])[1]
                else:
                    self.peeked = nxt
        elif kind == "unknown":
            raise UnknownCommand(value, at)
        elif kind == "long":
            raise self._long_number()
        if self.kind in _OPERAND_ENDERS and kind in _OPERAND_STARTERS:
            self.pending = kind, value
            kind, value = "imul", None
        self.kind = kind
        self.value = value

    def _raw(self) -> tuple:
        """(kind, value, character position) of the next token of the text,
        before any glue.  An unknown command comes back as kind "unknown"
        and a number past the text's digit budget as kind "long"; each is
        raised only where it is used, so a look ahead raises nothing."""
        t = self.peeked
        if t is not None:
            self.peeked = None
            return t
        if self.at >= self.end:
            return "eof", None, self.end
        m = _TOKEN_RE.match(self.text, self.at, self.end)
        self.at = m.end()
        group = m.lastgroup
        pos = m.end(1)
        if group == "fixed":
            lexeme = m.group(group)
            return (*_FIXED_TOKENS.get(lexeme, ("unknown", lexeme)), pos)
        if group == "letter":
            ch = m.group(group)
            return "const" if ch in "ei" else "sym", ch, pos
        if group == "int" or group == "frac":
            whole, frac = m.group("int", "frac")
            self.digits -= len(whole) + len(frac or "")
            if self.digits < 0:
                return "long", None, pos
            if frac:
                return "num", Fraction(int(whole + frac), 10 ** len(frac)), pos
            return "num", Fraction(int(whole)), pos
        if group == "env_name":
            return m.group("env"), m.group(group), pos
        text = self.text
        return "unknown", text[pos : pos + 2] if text[pos] == "\\" else text[pos], pos

    def _index(self) -> int:
        """The token index of the operand being read: one past `self.pos`
        when an `imul` goes before it."""
        return self.pos + (self.kind in _OPERAND_ENDERS)

    def _long_number(self) -> ParseError:
        limit = sys.get_int_max_str_digits()
        return ParseError(self._index(), f"number of at most {limit} digits")

    def _subscript(self, kind: str, value) -> tuple:
        """Glue a `_` subscript (one token or a brace group) onto a symbol:
        the symbol's name ends in the subscript's source text, spaces
        dropped, so that distinct subscripts give distinct symbols."""
        t = self._raw()
        if t[0] != "under":
            self.peeked = t
            return kind, value
        depth = 0
        while True:
            kind, sub, pos = self._raw()
            if kind == "unknown":
                raise UnknownCommand(sub, pos)
            if kind == "long":
                raise self._long_number()
            if kind == "lbrace":
                if depth == 0:
                    start = self.at
                depth += 1
            elif depth == 0:
                if kind not in ("sym", "const", "num"):
                    raise ParseError(self._index(), "subscript after '_'")
                start, end = pos, self.at
                break
            elif kind == "rbrace":
                depth -= 1
                if depth == 0:
                    end = pos
                    break
            elif kind == "eof":
                raise ParseError(self._index(), "closing brace of subscript")
        return "sym", f"{value}_{self.text[start:end].replace(' ', '')}"

    def expect(self, kind: str) -> None:
        if self.kind != kind:
            raise ParseError(self.pos, kind)
        self.advance()

    def expression(self, relation_ok: bool = False) -> MathNode:
        """Factors joined by `* / imul` into a flat MUL, those products
        joined by `+ -` into a flat ADD, and, where `relation_ok`, one
        relation operator between two such sums."""
        op = lhs = None
        terms = []
        minus = False
        factors = [self.factor()]
        while True:
            kind = self.kind
            if kind == "star" or kind == "slash" or kind == "imul":
                self.advance()
                f = self.factor()
                factors.append(pow_(f, MINUS_ONE) if kind == "slash" else f)
                continue
            term = factors[0] if len(factors) == 1 else MathNode(Kind.MUL, None, tuple(factors))
            terms.append(neg(term) if minus else term)
            if kind == "plus" or kind == "minus":
                minus = kind == "minus"
            elif kind == "relop" and relation_ok:
                if op is not None:
                    raise ParseError(self.pos, "at most one relation operator")
                op, lhs, terms, minus = self.value, _joined(Kind.ADD, terms), [], False
            else:
                break
            self.advance()
            factors = [self.factor()]
        node = _joined(Kind.ADD, terms)
        return node if op is None else relation(op, lhs, node)

    def factor(self) -> MathNode:
        """Leading signs, then an atom or a bracket group, its postfix `!`/`'`
        and a `^` exponent; a sign binds looser than the power."""
        kind = self.kind
        negations = 0
        while kind == "minus" or kind == "plus":
            negations += kind == "minus"
            self.advance()
            kind = self.kind
        node = self.group(kind) if kind in _CLOSERS else self.atom()
        kind = self.kind
        while kind == "bang" or kind == "prime":
            node = func("factorial" if kind == "bang" else "prime", node)
            self.advance()
            kind = self.kind
        if kind == "caret":
            self.advance()
            node = pow_(node, self.exponent())
        while negations:
            node = neg(node)
            negations -= 1
        return node

    def group(self, opener: str) -> MathNode:
        """`opener`, an expression, and the bracket that closes it."""
        self.expect(opener)
        node = self.expression()
        self.expect(_CLOSERS[opener])
        return node

    def exponent(self) -> MathNode:
        """Exponent operand: brace group, signed atom, or parenthesized expr."""
        kind = self.kind
        if kind == "lbrace" or kind == "lparen":
            e = self.group(kind)
        elif kind == "minus":
            self.advance()
            return neg(self.exponent())
        elif kind in ("num", "sym", "const"):
            e = self.leaf()
        else:
            raise ParseError(self.pos, "exponent")
        if self.kind == "caret":
            self.advance()
            e = pow_(e, self.exponent())
        return e

    def leaf(self) -> MathNode:
        kind, value = self.kind, self.value
        self.advance()
        if kind == "num":
            return num(value)
        if kind == "const":
            return const(value)
        return sym(value)

    def atom(self) -> MathNode:
        kind = self.kind
        if kind in ("num", "sym", "const"):
            return self.leaf()
        if kind == "frac":
            self.advance()
            return self.frac_tail()
        if kind == "sqrt":
            self.advance()
            index = self.group("lbrack") if self.kind == "lbrack" else None
            arg = self.group("lbrace")
            if index is None:
                return pow_(arg, HALF)
            if index.kind is Kind.NUMBER and index.payload != 0:
                return pow_(arg, num(Fraction(1, 1) / index.payload))
            return pow_(arg, pow_(index, MINUS_ONE))
        if kind == "func":
            name = self.value
            self.advance()
            return self.function_tail(name)
        if kind == "begin":
            env = self.value
            self.advance()
            return self.matrix_tail(env)
        raise ParseError(self.pos, "operand")

    def frac_tail(self) -> MathNode:
        a = self.group("lbrace")
        b = self.group("lbrace")
        deriv = self._derivative_pattern(a, b)
        if deriv is not None:
            expr, var = deriv
            if expr is None:
                if self.kind == "imul":
                    self.advance()
                expr = self.factor()
            return MathNode(Kind.DERIVATIVE, None, (expr, sym(var)))
        return mul(a, pow_(b, MINUS_ONE))

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
        if self.kind == "caret":
            self.advance()
            exp = self.exponent()
        if self.kind == "imul":
            # adjacency after \sin^2 etc. is application, not multiplication
            self.advance()
        kind = self.kind
        if kind == "lparen" or kind == "lbrace":
            arg = self.group(kind)
        elif kind == "minus" or kind == "plus":
            raise ParseError(self.pos, "operand")  # a bare argument takes no sign
        else:
            arg = self.factor()
        node = func(name, arg)
        if exp is not None:
            node = pow_(node, exp)
        return node

    def matrix_tail(self, env: str) -> MathNode:
        if env not in MATRIX_ENVS:
            raise ParseError(self.pos, f"supported matrix environment, got {env}")
        rows = [[]]
        while True:
            rows[-1].append(self.expression())
            kind = self.kind
            if kind == "eof":
                raise ParseError(self.pos, f"\\end{{{env}}}")
            if kind == "amp":
                self.advance()
                continue
            if kind == "rowsep":
                self.advance()
                rows.append([])
                continue
            if kind == "end":
                if self.value != env:
                    raise ParseError(self.pos, f"\\end{{{env}}}")
                self.advance()
                break
            raise ParseError(self.pos, "'&', row separator, or \\end")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ParseError(self.pos, "rectangular matrix")
        cells = tuple(cell for row in rows for cell in row)
        return MathNode(Kind.MATRIX, (len(rows), ncols), cells)


def _joined(kind: Kind, items: list) -> MathNode:
    """The one item, or a flat `kind` node of all of them."""
    return items[0] if len(items) == 1 else MathNode(kind, None, tuple(items))


def parse_expression(src) -> MathNode:
    """Parse a string or CleanLatex to one tree."""
    p = _Parser(src.text if isinstance(src, CleanLatex) else src)
    node = p.expression(relation_ok=True)
    if p.kind != "eof":
        raise ParseError(p.pos, "end of input")
    return node


def _top_level(text: str, chars: str) -> list:
    """Indices of the `chars` in `text` at bracket depth zero; a closing
    bracket stands at the depth it closes to."""
    found = []
    depth = 0
    for i, ch in enumerate(text):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        if depth == 0 and ch in chars:
            found.append(i)
    return found


def _split_top_level(text: str) -> list:
    """Split on commas at bracket depth zero."""
    cuts = [-1, *_top_level(text, ","), len(text)]
    return [text[a + 1 : b] for a, b in zip(cuts, cuts[1:])]


def _strip_outer(text: str) -> str:
    text = text.strip()
    while len(text) >= 2 and text[0] in "({" and text[-1] in ")}":
        closes = _top_level(text, ")]}")
        if closes and closes[0] != len(text) - 1:
            break
        text = text[1:-1].strip()
    return text


_RELATION_RE = re.compile(r"=|\\(?:approx|sim)(?![A-Za-z])")


def _after_top_level_eq(text: str) -> str:
    """The text after its last `=`, `\\approx` or `\\sim` at bracket depth
    zero, if it has one."""
    cut = 0
    for i in _top_level(text, "=\\"):
        m = _RELATION_RE.match(text, i)
        if m:
            cut = m.end()
    return text[cut:].strip() if cut else text


def parse_answer(src: CleanLatex, declared: AnswerType) -> TypedAnswer:
    """Parse a clean answer string under the dataset-declared type. A
    numeric answer is read by grader.read_answer, from split_quantity."""
    text = src.text if isinstance(src, CleanLatex) else str(src)
    text = text.strip()
    if not text:
        raise TypeMismatch("empty answer text")

    if declared is AnswerType.EXPRESSION:
        node = parse_expression(text)
        if node.kind is Kind.RELATION:
            if node.payload == "=":
                # answers often restate the symbol being solved for
                node = node.children[1]
            else:
                raise TypeMismatch("inequality given for expression answer")
        return TypedAnswer(AnswerType.EXPRESSION, (node,))

    if declared is AnswerType.EQUATION:
        node = parse_expression(text)
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
            node = parse_expression(p)
            if node.kind is Kind.RELATION and node.payload == "=":
                node = node.children[1]
            trees.append(node)
        return TypedAnswer(AnswerType.TUPLE, tuple(trees))

    if declared is AnswerType.INTERVAL:
        t = _after_top_level_eq(text)
        if len(t) < 2 or t[0] not in "([" or t[-1] not in ")]":
            raise TypeMismatch("interval answer lacks interval delimiters")
        parts = _split_top_level(t[1:-1])
        if len(parts) != 2:
            raise TypeMismatch("interval answer needs exactly two endpoints")
        return TypedAnswer(
            AnswerType.INTERVAL,
            (parse_expression(parts[0].strip()), parse_expression(parts[1].strip())),
            openness=(t[0] == "(", t[-1] == ")"),
        )

    raise AssertionError(declared)


# a thousands separator: `,`, `{,}`, or a thin space (`\,`, a plain space once normalized)
_SEP = r"(?:,|\{,\}|\\,| )"
# a decimal comma: `,` or `{,}` before a run of digits that is not exactly three
# long (a digit must follow, so the `,` inside a grouping `{,}` never matches alone)
_COMMA = r"(?:,|\{,\})(?=\d)(?!\d{3}(?!\d))"
# a decimal literal, whose integer part may be grouped by threes (`12,345,678`)
# or which may have a decimal comma (`1,5`, `3{,}14`), and its e-notation exponent
_LITERAL_RE = re.compile(
    rf"([1-9]\d{{0,2}}(?:{_SEP}\d{{3}})+(?!\d)(?:\.\d*)?|\d+{_COMMA}\d+|\d+\.?\d*|\.\d+)(?:[eE]([+-]?\d+))?"
)
# finds the decimal comma of a literal; a grouped literal has none
_COMMA_RE = re.compile(_COMMA)
# deletes the separators from a grouped literal
_UNGROUPED = str.maketrans("", "", ",{} \\")
# an `x` that is a times sign: before `10^`
_TIMES_RE = re.compile(r"(?<![a-zA-Z\\])x(?=\s*10\s*\^)")
# a word, a bracket, or a character that a value holds only inside braces
_STOP_RE = re.compile(r"(\\?[a-zA-Z]+)|([({\[])|([)}\]])|([^\s\d.+\-*/^])")
# the words that a quantity's value holds outside braces: the grammar's
# function, constant, fraction, root and operator commands, `\pm` (whose
# uncertainty is dropped) and the constant `e`
_VALUE_KINDS = ("func", "const", "frac", "sqrt", "star", "slash")
_VALUE_WORDS = {word for word, (kind, _) in _FIXED_TOKENS.items() if kind in _VALUE_KINDS} | {"\\pm", "e"}
# `\pm` and the uncertainty that it drops, up to a bracket that it did not
# open: `(a \pm b) \times 10^{k}` is a times 10^k
_PM_RE = re.compile(r"\\pm(?:[^()]|\([^()]*\))*")


def _literal(m: re.Match) -> str:
    """A decimal literal as the expression grammar reads it: a decimal comma
    is a point, the separators of grouped digits go, and an e-notation
    exponent is a `\\times 10^{k}`."""
    digits = _COMMA_RE.sub(".", m[1]).translate(_UNGROUPED)
    digits = ("0" + digits if digits[0] == "." else digits).rstrip(".")
    return f"({digits} \\times 10^{{{m[2]}}})" if m[2] else digits


def _value_end(text: str) -> int:
    """Where the value of a rewritten quantity text ends: outside braces,
    before a word that is not a value word, a closing bracket that the
    value did not open, or any other character than a digit, a point, a
    space, an operator or a bracket (so a comma that no literal took ends
    it: `0,001` is 0)."""
    depth = braces = 0  # open brackets, and the braces among them
    for m in _STOP_RE.finditer(text):
        word, opener, closer, other = m.groups()
        depth += bool(opener) - bool(closer)
        braces += (opener == "{") - (closer == "}")
        if depth < 0 or not braces and (other or word and word not in _VALUE_WORDS):
            return m.start()
    return len(text)


def split_quantity(text: str) -> tuple:
    """Split a numeric answer `[label =] <value> [\\pm <uncertainty>] [unit
    product]` into the value's tree and the unit product's text. An outer
    bracket pair goes (`(3 m)`), then the literals are rewritten for the
    expression grammar (see _literal; `x` before `10^` is a times sign).
    The value ends where _value_end says; operators and opening brackets at
    its end go with the unit product (`3 / m`), and the uncertainty after
    `\\pm` is dropped from both. An empty value raises NoNumber."""
    text = _strip_outer(_after_top_level_eq(text.strip()))
    rewritten = _LITERAL_RE.sub(_literal, _TIMES_RE.sub(r"\\times", text))
    value = rewritten[: _value_end(rewritten)]
    while value != (value := value.rstrip(" +-*/^([").removesuffix(r"\cdot").removesuffix(r"\times")):
        pass
    unit = rewritten[len(value):].partition(r"\pm")[0]
    value = _PM_RE.sub(" ", value)
    if not value.strip():
        raise NoNumber(f"no numeric literal in {text!r}")
    return parse_expression(value), unit


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
    raise AssertionError(k)
