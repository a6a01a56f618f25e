"""Turn raw model output into a single clean LaTeX answer string.

Two stages: extract_final_answer picks the answer segment out of a long
response (boxed group > display math > inline math > last line), and
canonicalize_latex normalizes the segment into the ASCII LaTeX subset the
parser understands.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import EmptyResponse, Unbalanceable

UNICODE_MAP = {
    "\u2212": "-",  # unicode minus
    "\u2013": "-",
    "\u2014": "-",
    "\u00d7": " \\times ",
    "\u22c5": " \\cdot ",
    "\u00b7": " \\cdot ",
    "\u00f7": "/",
    "\u2264": " \\le ",
    "\u2265": " \\ge ",
    "\u221e": " \\infty ",
    "\u221a": " \\sqrt",
    "\u2032": "'",
    "\u00a0": " ",
    "\u200b": "",
    "\u210f": " \\hbar ",
    "\u0127": " \\hbar ",
}

_GREEK = {
    "α": "alpha", "β": "beta", "γ": "gamma", "δ": "delta", "ϵ": "epsilon",
    "ε": "varepsilon", "ζ": "zeta", "η": "eta", "θ": "theta", "ι": "iota",
    "κ": "kappa", "λ": "lambda", "μ": "mu", "µ": "mu", "ν": "nu", "ξ": "xi",
    "π": "pi", "ρ": "rho", "σ": "sigma", "τ": "tau", "υ": "upsilon",
    "φ": "phi", "ϕ": "varphi", "χ": "chi", "ψ": "psi", "ω": "omega",
    "Γ": "Gamma", "Δ": "Delta", "Θ": "Theta", "Λ": "Lambda", "Ξ": "Xi",
    "Π": "Pi", "Σ": "Sigma", "Υ": "Upsilon", "Φ": "Phi", "Ψ": "Psi",
    "Ω": "Omega",
}
for _ch, _name in _GREEK.items():
    UNICODE_MAP[_ch] = f" \\{_name} "

DEFAULT_BOILERPLATE_PREFIXES = (
    "final answer",
    "answer",
    "result",
    "solution",
)

# Long unit words allowed to survive inside \text{...}
_UNIT_WORDS = {
    "mol", "bar", "atm", "cal", "amu", "erg", "rad", "gauss", "barn",
    "Hz", "kHz", "MHz", "GHz", "THz", "meV", "keV", "MeV", "GeV", "TeV",
}

_FONT_COMMANDS = {"mathrm", "mathcal", "mathbb", "mathbf", "mathit", "mathsf", "mathscr"}
_SPACING_COMMANDS = {"quad", "qquad", "displaystyle", "textstyle", "limits", "nonumber"}
_SIZE_COMMANDS = {
    "big", "Big", "bigg", "Bigg", "bigl", "bigr", "Bigl", "Bigr",
    "biggl", "biggr", "Biggl", "Biggr", "bigm", "Bigm",
}


@dataclass(frozen=True)
class CleanLatex:
    """ASCII-normalized LaTeX plus the identifiers of the rules that fired."""

    text: str
    notes: tuple = field(default_factory=tuple)


def _match_brace(s: str, i: int) -> int:
    """Index of the brace matching s[i] == '{'; -1 if unbalanced."""
    depth = 0
    for j in range(i, len(s)):
        if s[j] == "{":
            depth += 1
        elif s[j] == "}":
            depth -= 1
            if depth == 0:
                return j
    return -1


def _looks_like_unit(content: str) -> bool:
    content = content.strip()
    if not content or len(content) > 24:
        return False
    if not re.fullmatch(r"[A-Za-z0-9Ωµμ\\{}^/*. \u22c5\u00b7-]+", content):
        return False
    words = re.findall(r"[A-Za-z]+", content.replace("\\cdot", " "))
    if not words:
        return False
    return all(len(w) <= 3 or w in _UNIT_WORDS for w in words)


def _strip_boilerplate(text: str) -> tuple:
    notes = []
    changed = True
    text = text.strip()
    while changed:
        changed = False
        low = text.lower()
        for p in DEFAULT_BOILERPLATE_PREFIXES:
            if low.startswith(p):
                rest = text[len(p):].lstrip()
                rest = re.sub(r"^(is\b|:|=)\s*", "", rest, flags=re.IGNORECASE)
                if rest != text:
                    text = rest
                    notes.append("boilerplate")
                    changed = True
                    break
    # trailing sentence punctuation
    new = text.rstrip()
    while new.endswith((".", ",", ";")) and not re.search(r"\d\.$", new):
        new = new[:-1].rstrip()
        notes.append("boilerplate")
    return new, notes


# Non-letter escapes: a row separator is kept, spacing and math delimiters
# become a space, escaped braces become parentheses, a trailing backslash goes.
_ESCAPES = {
    **dict.fromkeys(",;:! []()", " "),
    "\\": "\\\\", "{": "(", "}": ")", "": "",
}
_ALIASES = {
    "dfrac": "\\frac", "tfrac": "\\frac", "cfrac": "\\frac",
    "leq": "\\le ", "geq": "\\ge ",
}
# Commands whose brace group is spliced back into the text, with their note
# (\text picks its note by its content)
_WRAPPERS = {
    "boxed": "boxed", "operatorname": "alias", "text": None,
    **dict.fromkeys(_FONT_COMMANDS, "font-unwrap"),
}

_COMMAND_RE = re.compile(r"\\([A-Za-z]+)")
_SPACES_RE = re.compile(" *")


def _group_at(s: str, pos: int):
    """(content, end) of the brace group at s[pos], after spaces; None if
    there is no closed group there."""
    pos = _SPACES_RE.match(s, pos).end()
    if s.startswith("{", pos):
        end = _match_brace(s, pos)
        if end != -1:
            return s[pos + 1 : end], end + 1
    return None


def _rewrite_commands(s: str, notes: list) -> str:
    """Single scanner pass over LaTeX commands.

    Wrapper contents are spliced back into the unprocessed remainder so
    nested wrappers are handled without extra passes.
    """
    out = []
    i = 0
    while (j := s.find("\\", i)) != -1:
        out.append(s[i:j])
        m = _COMMAND_RE.match(s, j)
        if m is None:
            nxt = s[j + 1 : j + 2]
            if nxt in ("{", "}"):
                notes.append("escaped-brace")
            out.append(_ESCAPES.get(nxt, "\\" + nxt))
            i = j + 2
            continue
        name = m.group(1)
        i = m.end()
        if name in _WRAPPERS:
            group = _group_at(s, i)
            if group is None:
                continue
            content, after = group
            note = _WRAPPERS[name]
            if name == "text":
                kept = _looks_like_unit(content)
                note = "text-unit-kept" if kept else "text-dropped"
                content = f" {content} " if kept else " "
            elif name == "operatorname":
                content = "\\" + content.strip() + " "
            notes.append(note)
            s, i = content + s[after:], 0
        elif name in ("left", "right"):
            notes.append("left-right")
            k = _SPACES_RE.match(s, i).end()
            if s.startswith(".", k):
                i = k + 1  # \left. has no visible delimiter
        elif name in _ALIASES:
            notes.append("alias")
            out.append(_ALIASES[name])
        elif name in _SPACING_COMMANDS:
            out.append(" ")
        elif name not in _SIZE_COMMANDS:
            out.append("\\" + name)
    out.append(s[i:])
    return "".join(out)


def _class_balanced(text: str) -> bool:
    """Balanced when ( and [ (and ) and ]) are interchangeable, as in the
    half-open interval [0, L)."""
    depth = 0
    brace = 0
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
            if depth < 0:
                return False
        elif ch == "{":
            brace += 1
        elif ch == "}":
            brace -= 1
            if brace < 0:
                return False
    return depth == 0 and brace == 0


def _balance(text: str, limit: int, notes: list) -> str:
    if _class_balanced(text):
        return text
    pairs = {")": "(", "]": "[", "}": "{"}
    openers = {"(", "[", "{"}
    stack = []
    prepend = []
    for ch in text:
        if ch in openers:
            stack.append(ch)
        elif ch in pairs:
            if stack and stack[-1] == pairs[ch]:
                stack.pop()
            else:
                prepend.append(pairs[ch])
    closers = {"(": ")", "[": "]", "{": "}"}
    append = [closers[c] for c in reversed(stack)]
    inserted = len(prepend) + len(append)
    if inserted > limit:
        raise Unbalanceable(
            f"balancing needs {inserted} bracket insertions (limit {limit})"
        )
    if prepend:
        notes.extend(["balance-prepend"] * len(prepend))
        text = "".join(prepend) + text
    if append:
        notes.extend(["balance-append"] * len(append))
        text = text + "".join(append)
    return text


_ARG_COMMAND_RE = re.compile(r"\\(frac|sqrt)(?![A-Za-z])")


def _brace_arg(text: str, i: int, cmd: str, notes: list) -> tuple:
    """(argument of \\cmd at text[i] as a brace group, end): a brace group, or
    a single alphanumeric or command, which gets braces."""
    i = _SPACES_RE.match(text, i).end()
    if text.startswith("{", i):
        end = _match_brace(text, i)
        if end == -1:
            raise Unbalanceable(f"unclosed brace in \\{cmd} argument")
        return text[i : end + 1], end + 1
    if text[i : i + 1].isalnum():
        arg = text[i]
    elif text.startswith("\\", i):
        m = _COMMAND_RE.match(text, i)
        if m is None:
            raise Unbalanceable(f"malformed \\{cmd} argument")
        arg = m.group(0)
    else:
        raise Unbalanceable(f"\\{cmd} is missing an argument")
    notes.append(f"{cmd}-braces")
    return "{" + arg + "}", i + len(arg)


def _brace_frac_args(text: str, notes: list) -> str:
    """Ensure \\frac and \\sqrt arguments are brace groups."""
    out = []
    i = 0
    while (m := _ARG_COMMAND_RE.search(text, i)) is not None:
        out.append(text[i : m.end()])
        i = m.end()
        cmd = m.group(1)
        if cmd == "sqrt":
            k = _SPACES_RE.match(text, i).end()
            if text.startswith("[", k):
                end = text.find("]", k)
                if end == -1:
                    raise Unbalanceable("unclosed \\sqrt index")
                out.append(text[k : end + 1])
                i = end + 1
        for _ in range(2 if cmd == "frac" else 1):
            arg, i = _brace_arg(text, i, cmd, notes)
            out.append(arg)
    out.append(text[i:])
    return "".join(out)


def canonicalize_latex(raw: str, max_bracket_inserts: int = 3) -> CleanLatex:
    """Normalize a LaTeX answer string. Idempotent on its own output."""
    notes: list = []
    text = raw

    if not text.isascii():  # every UNICODE_MAP key is non-ASCII
        for ch, repl in UNICODE_MAP.items():
            if ch in text:
                text = text.replace(ch, repl)
                notes.append("unicode")
        # remaining non-ascii characters carry no math meaning we support
        if not text.isascii():
            text = "".join(c if ord(c) < 128 else " " for c in text)
            notes.append("nonascii-dropped")

    if "$" in text:
        text = text.replace("$", " ")
        notes.append("math-delimiters")

    text, bnotes = _strip_boilerplate(text)
    notes.extend(bnotes)

    text = _rewrite_commands(text, notes)
    text = _balance(text, max_bracket_inserts, notes)
    text = _brace_frac_args(text, notes)

    collapsed = re.sub(r"\s+", " ", text).strip()
    if collapsed != text:
        notes.append("whitespace")
    return CleanLatex(collapsed, tuple(notes))


_BOX_RE = re.compile(r"\\boxed\s*\{")
_DISPLAY_RE = re.compile(r"\$\$(.+?)\$\$|\\\[(.+?)\\\]", re.DOTALL)
_INLINE_RE = re.compile(r"\$([^$]+)\$")


def _last_boxed(text: str):
    """Content of the last \\boxed group; None if there is none or it is
    unclosed."""
    m = None
    for m in _BOX_RE.finditer(text):
        pass
    if m is None:
        return None
    end = _match_brace(text, m.end() - 1)
    return None if end == -1 else text[m.end() : end]


def extract_final_answer(text: str) -> str:
    """Pick the answer segment out of a full model response.

    Priority: last \\boxed group, last display-math block, last inline math
    segment, last non-empty line.
    """
    candidate = _last_boxed(text)

    if candidate is None:
        blocks = [(m.end(), m.group(1) or m.group(2)) for m in _DISPLAY_RE.finditer(text)]
        blocks = [(pos, b) for pos, b in blocks if b and b.strip()]
        if blocks:
            candidate = blocks[-1][1]

    if candidate is None:
        segs = [m.group(1) for m in _INLINE_RE.finditer(text) if m.group(1).strip()]
        if segs:
            candidate = segs[-1]

    if candidate is None:
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if lines:
            candidate = lines[-1]

    if candidate is None or not candidate.strip():
        raise EmptyResponse("no answer segment found")

    candidate, _ = _strip_boilerplate(candidate.strip())
    if not candidate.strip():
        raise EmptyResponse("answer segment is empty after label removal")
    # a boxed group nested inside the chosen segment still wins
    if "\\boxed" in candidate:
        boxed = _last_boxed(candidate)
        if boxed is not None:
            candidate = boxed
        candidate = candidate.replace("\\boxed", " ").strip()
        if not candidate:
            raise EmptyResponse("no answer segment found")
    return candidate.strip()
