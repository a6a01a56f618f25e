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


def _strip_boilerplate(text: str, prefixes) -> tuple:
    notes = []
    changed = True
    text = text.strip()
    while changed:
        changed = False
        low = text.lower()
        for p in prefixes:
            pl = p.lower()
            if low.startswith(pl):
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


def _rewrite_commands(s: str, notes: list) -> str:
    """Single scanner pass over LaTeX commands.

    Wrapper contents are spliced back into the unprocessed remainder so
    nested wrappers are handled without extra passes.
    """
    out = []
    i = 0
    while i < len(s):
        ch = s[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= len(s):
            i += 1
            continue
        nxt = s[i + 1]
        if not nxt.isalpha():
            if nxt == "\\":
                out.append("\\\\")  # matrix row separator
            elif nxt in ",;:! ":
                out.append(" ")
            elif nxt in "[]()":
                out.append(" ")  # display/inline math delimiters
            elif nxt in "{}":
                out.append("(" if nxt == "{" else ")")
                notes.append("escaped-brace")
            else:
                out.append(s[i : i + 2])
            i += 2
            continue
        j = i + 1
        while j < len(s) and s[j].isalpha():
            j += 1
        name = s[i + 1 : j]
        rest = j

        def group_at(pos):
            while pos < len(s) and s[pos] == " ":
                pos += 1
            if pos < len(s) and s[pos] == "{":
                end = _match_brace(s, pos)
                if end != -1:
                    return s[pos + 1 : end], end + 1
            return None, pos

        if name in ("left", "right"):
            notes.append("left-right")
            k = rest
            while k < len(s) and s[k] == " ":
                k += 1
            if k < len(s) and s[k] == ".":
                rest = k + 1  # \left. has no visible delimiter
            i = rest
            continue
        if name in _SIZE_COMMANDS:
            i = rest
            continue
        if name == "boxed":
            content, after = group_at(rest)
            if content is not None:
                notes.append("boxed")
                s = content + s[after:]
                i = 0
                out_s = "".join(out)
                out = [out_s]
                continue
            i = rest
            continue
        if name in _FONT_COMMANDS:
            content, after = group_at(rest)
            if content is not None:
                notes.append("font-unwrap")
                s = content + s[after:]
                out = ["".join(out)]
                i = 0
                continue
            i = rest
            continue
        if name == "text":
            content, after = group_at(rest)
            if content is not None:
                if _looks_like_unit(content):
                    notes.append("text-unit-kept")
                    s = " " + content + " " + s[after:]
                else:
                    notes.append("text-dropped")
                    s = " " + s[after:]
                out = ["".join(out)]
                i = 0
                continue
            i = rest
            continue
        if name == "operatorname":
            content, after = group_at(rest)
            if content is not None:
                notes.append("alias")
                s = "\\" + content.strip() + " " + s[after:]
                out = ["".join(out)]
                i = 0
                continue
            i = rest
            continue
        if name in ("dfrac", "tfrac", "cfrac"):
            notes.append("alias")
            out.append("\\frac")
            i = rest
            continue
        if name == "leq":
            notes.append("alias")
            out.append("\\le ")
            i = rest
            continue
        if name == "geq":
            notes.append("alias")
            out.append("\\ge ")
            i = rest
            continue
        if name in _SPACING_COMMANDS:
            out.append(" ")
            i = rest
            continue
        out.append("\\" + name)
        # keep a separator so adjacent letters do not merge into the command
        if rest < len(s) and s[rest].isalpha():
            out.append(" ")
        i = rest
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


def _brace_frac_args(text: str, notes: list) -> str:
    """Ensure \\frac and \\sqrt arguments are brace groups."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        if text.startswith("\\frac", i) and not (
            i + 5 < n and text[i + 5].isalpha()
        ):
            out.append("\\frac")
            i += 5
            for _ in range(2):
                while i < n and text[i] == " ":
                    i += 1
                if i < n and text[i] == "{":
                    end = _match_brace(text, i)
                    if end == -1:
                        raise Unbalanceable("unclosed brace in \\frac argument")
                    out.append(text[i : end + 1])
                    i = end + 1
                elif i < n and (text[i].isalnum()):
                    out.append("{" + text[i] + "}")
                    notes.append("frac-braces")
                    i += 1
                elif i < n and text[i] == "\\":
                    m = re.match(r"\\[a-zA-Z]+", text[i:])
                    if not m:
                        raise Unbalanceable("malformed \\frac argument")
                    out.append("{" + m.group(0) + "}")
                    notes.append("frac-braces")
                    i += len(m.group(0))
                else:
                    raise Unbalanceable("\\frac is missing an argument")
            continue
        if text.startswith("\\sqrt", i) and not (
            i + 5 < n and text[i + 5].isalpha()
        ):
            out.append("\\sqrt")
            i += 5
            while i < n and text[i] == " ":
                i += 1
            if i < n and text[i] == "[":
                end = text.find("]", i)
                if end == -1:
                    raise Unbalanceable("unclosed \\sqrt index")
                out.append(text[i : end + 1])
                i = end + 1
                while i < n and text[i] == " ":
                    i += 1
            if i < n and text[i] == "{":
                end = _match_brace(text, i)
                if end == -1:
                    raise Unbalanceable("unclosed brace in \\sqrt argument")
                out.append(text[i : end + 1])
                i = end + 1
            elif i < n and text[i].isalnum():
                out.append("{" + text[i] + "}")
                notes.append("sqrt-braces")
                i += 1
            elif i < n and text[i] == "\\":
                m = re.match(r"\\[a-zA-Z]+", text[i:])
                if not m:
                    raise Unbalanceable("malformed \\sqrt argument")
                out.append("{" + m.group(0) + "}")
                notes.append("sqrt-braces")
                i += len(m.group(0))
            else:
                raise Unbalanceable("\\sqrt is missing an argument")
            continue
        out.append(text[i])
        i += 1
    return "".join(out)


def canonicalize_latex(
    raw: str,
    max_bracket_inserts: int = 3,
    boilerplate_prefixes=DEFAULT_BOILERPLATE_PREFIXES,
) -> CleanLatex:
    """Normalize a LaTeX answer string. Idempotent on its own output."""
    notes: list = []
    text = raw

    for ch, repl in UNICODE_MAP.items():
        if ch in text:
            text = text.replace(ch, repl)
            notes.append("unicode")
    # remaining non-ascii characters carry no math meaning we support
    if any(ord(c) > 127 for c in text):
        text = "".join(c if ord(c) < 128 else " " for c in text)
        notes.append("nonascii-dropped")

    if "$" in text:
        text = text.replace("$", " ")
        notes.append("math-delimiters")

    text, bnotes = _strip_boilerplate(text, boilerplate_prefixes)
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


def extract_final_answer(text: str) -> str:
    """Pick the answer segment out of a full model response.

    Priority: last \\boxed group, last display-math block, last inline math
    segment, last non-empty line.
    """
    candidate = None

    last = None
    for m in _BOX_RE.finditer(text):
        last = m
    if last is not None:
        end = _match_brace(text, last.end() - 1)
        if end != -1:
            candidate = text[last.end() : end]

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

    candidate, _ = _strip_boilerplate(candidate.strip(), DEFAULT_BOILERPLATE_PREFIXES)
    if not candidate.strip():
        raise EmptyResponse("answer segment is empty after label removal")
    # a boxed group nested inside the chosen segment still wins
    if "\\boxed" in candidate:
        last = None
        for m in _BOX_RE.finditer(candidate):
            last = m
        if last is not None:
            end = _match_brace(candidate, last.end() - 1)
            if end != -1:
                candidate = candidate[last.end() : end]
        candidate = candidate.replace("\\boxed", " ")
    return candidate.strip()
