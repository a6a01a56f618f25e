"""Seeded corpus generator for the seedgrade benchmark.

Writes a dataset (`dataset.jsonl`), model responses (`responses.jsonl`) and
equivalence labels (`labels.json`) for one workload.  The generator keeps its
own expression trees, its own LaTeX renderer and its own evaluator, so it
imports nothing from seedgrade: the program under test only ever sees the
generated JSONL, and a change to seedgrade cannot change the inputs.

Workloads:

- ``mini``: the 12-item x 2-model corpus bundled with seedgrade, copied into
  ``perfbench/mini`` so that it stays fixed.  Labels were set by hand.
- ``synth-correct``: 300 items x 4 models, all five answer types, trees of
  10-60 nodes (10-30 for equations).  Every prediction is equivalent to its
  ground truth by construction (rearranged, expanded or rescaled, then
  wrapped in prose and LaTeX/unicode noise); half of the tree items carry a
  transcendental function and a quarter of the responses copy another
  model's response verbatim.
- ``synth-miss``: expression items, 1 model, trees of 150-400 nodes.  Each
  prediction is 1-3 random node edits away from its ground truth and is
  labelled non-equivalent.

Every label is checked by evaluating both trees at random points with exact
rationals or 40-digit mpmath, independently of seedgrade's own evaluator.

Usage: python3 perfbench/corpus.py --workload synth-correct --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
from fractions import Fraction
from pathlib import Path

import mpmath

MINI_DIR = Path(__file__).resolve().parent / "mini"
WORKLOADS = ("mini", "synth-correct", "synth-miss")

TOPICS = (
    "Magnetism",
    "Superconductivity",
    "StronglyCorrelated",
    "Semiconductors",
    "TheoreticalFoundations",
    "Others",
)

# Single letters the seedgrade tokenizer reads as plain symbols: `e` and `i`
# are constants and `d` can start a derivative, so they are left out.
LETTERS = "abcfghkmnpqrstuvwxyzABCFGHKMNPQRSTUVWXYZ"
GREEK = {
    "alpha": "α", "beta": "β", "gamma": "γ", "theta": "θ", "kappa": "κ",
    "lambda": "λ", "mu": "μ", "nu": "ν", "rho": "ρ", "sigma": "σ",
    "tau": "τ", "omega": "ω", "Omega": "Ω", "Gamma": "Γ",
}
FUNCTIONS = ("sin", "cos", "exp", "log", "tanh", "sinh", "arctan")

# --- trees ------------------------------------------------------------------
#
# ("num", Fraction) ("sym", name) ("add", [t...]) ("mul", [t...])
# ("div", num, den) ("pow", base, int) ("sqrt", t) ("fn", name, t)
# A symbol name is "x", "x_3" or a Greek name such as "alpha".


def size(t) -> int:
    """Node count in the shape seedgrade's parser gives the rendered tree."""
    k = t[0]
    if k in ("num", "sym"):
        return 1
    if k in ("add", "mul"):
        return 1 + sum(size(c) for c in t[1])
    if k == "div":
        return 3 + size(t[1]) + size(t[2])
    if k == "pow":
        return 2 + size(t[1])
    if k == "sqrt":
        return 2 + size(t[1])
    return 1 + size(t[2])


def has_function(t) -> bool:
    k = t[0]
    if k == "fn":
        return True
    if k in ("add", "mul"):
        return any(has_function(c) for c in t[1])
    if k == "div":
        return has_function(t[1]) or has_function(t[2])
    if k in ("pow", "sqrt"):
        return has_function(t[1])
    return False


def is_rational(t) -> bool:
    k = t[0]
    if k in ("sqrt", "fn"):
        return False
    if k in ("add", "mul"):
        return all(is_rational(c) for c in t[1])
    if k == "div":
        return is_rational(t[1]) and is_rational(t[2])
    if k == "pow":
        return is_rational(t[1])
    return True


def symbols(t, out=None) -> set:
    out = set() if out is None else out
    k = t[0]
    if k == "sym":
        out.add(t[1])
    elif k in ("add", "mul"):
        for c in t[1]:
            symbols(c, out)
    elif k == "div":
        symbols(t[1], out)
        symbols(t[2], out)
    elif k in ("pow", "sqrt"):
        symbols(t[1], out)
    elif k == "fn":
        symbols(t[2], out)
    return out


def evaluate(t, env):
    """Exact Fraction value for rational trees, an mpmath number otherwise."""
    k = t[0]
    if k == "num":
        return t[1]
    if k == "sym":
        return env[t[1]]
    if k in ("add", "mul", "div"):
        vals = [evaluate(c, env) for c in (t[1] if k != "div" else t[1:])]
        if not all(isinstance(v, Fraction) for v in vals):
            vals = [_mp(v) for v in vals]
        if k == "add":
            return sum(vals[1:], vals[0])
        if k == "div":
            return vals[0] / vals[1]
        r = vals[0]
        for v in vals[1:]:
            r = r * v
        return r
    if k == "pow":
        return evaluate(t[1], env) ** t[2]
    if k == "sqrt":
        return mpmath.sqrt(_mp(evaluate(t[1], env)))
    return getattr(mpmath, {"arctan": "atan"}.get(t[1], t[1]))(_mp(evaluate(t[2], env)))


def _mp(v):
    return mpmath.mpf(v.numerator) / v.denominator if isinstance(v, Fraction) else v


def _sample_env(rng, names):
    # a point set far larger than any fixed grid: denominators up to 97
    return {n: Fraction(rng.randint(30, 290), rng.randint(61, 97)) for n in sorted(names)}


def same_value(a, b, rng, points: int = 4) -> bool:
    """True iff a and b agree at `points` random points (False on a
    difference at any point).  Points where either side is singular are
    redrawn."""
    names = symbols(a) | symbols(b)
    exact = is_rational(a) and is_rational(b)
    agreed = 0
    for _ in range(points * 10):
        env = _sample_env(rng, names)
        with mpmath.workdps(40):
            try:
                va, vb = evaluate(a, env), evaluate(b, env)
            except (ZeroDivisionError, ValueError, OverflowError):
                continue
            if exact:
                if va != vb:
                    return False
            else:
                va, vb = _mp(va), _mp(vb)
                if abs(va - vb) > mpmath.mpf(10) ** -25 * (1 + abs(va) + abs(vb)):
                    return False
        agreed += 1
        if agreed == points:
            return True
    raise ValueError("no regular sample point found")


# --- random trees -----------------------------------------------------------


def _symbol_pool(rng, n):
    pool = list(LETTERS) + list(GREEK)
    pool += [f"{rng.choice('xyzkq')}_{j}" for j in range(1, 10)]
    rng.shuffle(pool)
    return pool[:n]


def _leaf(rng, pool, p_num=0.25):
    if rng.random() < p_num:
        if rng.random() < 0.7:
            return ("num", Fraction(rng.randint(2, 9)))
        return ("num", Fraction(rng.randint(1, 7), rng.choice((2, 3, 4, 5))))
    return ("sym", rng.choice(pool))


def random_tree(rng, budget, pool, p_fn):
    """A tree of about `budget` nodes (sizes as `size` counts them).
    Functions, powers and roots only wrap small subtrees."""
    if budget <= 2:
        return _leaf(rng, pool)
    roll = rng.random()
    if budget <= 9:
        if roll < p_fn:
            return ("fn", rng.choice(FUNCTIONS), random_tree(rng, budget - 1, pool, 0))
        if roll < p_fn + 0.15:
            return ("pow", random_tree(rng, budget - 2, pool, 0), rng.choice((2, 3, -1)))
        if roll < p_fn + 0.2 and p_fn > 0:  # a root takes the float path too
            return ("sqrt", random_tree(rng, budget - 2, pool, 0))
    elif roll < 0.08:
        left = (budget - 3) // 2
        return ("div", random_tree(rng, left, pool, p_fn),
                random_tree(rng, budget - 3 - left, pool, p_fn))
    kind = "add" if rng.random() < 0.5 else "mul"
    arity = max(2, min(rng.randint(2, 4), (budget - 1) // 2))
    kids = [random_tree(rng, s, pool, p_fn) for s in _split(rng, budget - 1, arity)]
    if kind == "mul":
        # one numeric factor at most, as a product is written
        nums = [c for c in kids if c[0] == "num"]
        kids = [c for c in kids if c[0] != "num"] + nums[:1]
        if len(kids) == 1:
            kids.append(("sym", rng.choice(pool)))
    return (kind, kids)


def _split(rng, total, parts):
    cuts = sorted(rng.sample(range(1, total), parts - 1)) if total > parts else []
    if not cuts:
        return [max(1, total // parts)] * parts
    bounds = [0] + cuts + [total]
    return [bounds[j + 1] - bounds[j] for j in range(parts)]


def tree_near(rng, target, pool, p_fn):
    """A tree within 5 % of `target` nodes that carries a function iff
    p_fn > 0; redrawn until it does, so deterministic in rng."""
    tol = max(2, target // 20)
    budget = target
    while True:
        t = random_tree(rng, budget, pool, p_fn)
        n = size(t)
        if abs(n - target) <= tol and has_function(t) == (p_fn > 0):
            return t
        budget = max(3, min(4 * target, round(budget * target / max(n, 1))))


def polynomial(rng, target, pool):
    """A sum of monomials of about `target` nodes.  The term shapes follow a
    fixed cycle (coefficient, then symbols, powers, small sums and now and
    then a function) and the seed draws only the symbols and numbers, so the
    edit-distance cost per table cell stays even across seeds."""
    shapes = ("s", "cs", "cps", "sa", "cspa", "ps", "csa", "cpp", "sas", "cf")
    terms, n, j = [], 1, 0
    while n < target:
        factors = []
        for kind in shapes[j % len(shapes)]:
            if kind == "c":
                factors.append(("num", Fraction(rng.randint(2, 9))))
            elif kind == "s":
                factors.append(("sym", rng.choice(pool)))
            elif kind == "p":
                factors.append(("pow", ("sym", rng.choice(pool)), rng.choice((2, 3))))
            elif kind == "a":
                factors.append(("add", [("sym", rng.choice(pool)), _leaf(rng, pool)]))
            else:
                factors.append(("fn", rng.choice(FUNCTIONS),
                                ("mul", [("sym", rng.choice(pool)), ("sym", rng.choice(pool))])))
        term = factors[0] if len(factors) == 1 else ("mul", factors)
        terms.append(term)
        n += size(term)
        j += 1
    return ("add", terms)


def ladder(rng, n, lo, hi):
    """n sizes evenly spread over [lo, hi], in random order: the seed moves
    which item gets which size but not the size distribution."""
    out = [lo + ((hi - lo) * j) // max(1, n - 1) for j in range(n)]
    rng.shuffle(out)
    return out


# --- equivalence-preserving rewrites ----------------------------------------


def rearrange(t, rng):
    k = t[0]
    if k in ("add", "mul"):
        kids = [rearrange(c, rng) for c in t[1]]
        rng.shuffle(kids)
        return (k, kids)
    if k == "div":
        return ("div", rearrange(t[1], rng), rearrange(t[2], rng))
    if k == "pow":
        return ("pow", rearrange(t[1], rng), t[2])
    if k == "sqrt":
        return ("sqrt", rearrange(t[1], rng))
    if k == "fn":
        return ("fn", t[1], rearrange(t[2], rng))
    return t


def expand(t):
    """Distribute the first product over a sum it contains: a(b+c) -> ab+ac."""
    k = t[0]
    if k == "mul":
        for j, c in enumerate(t[1]):
            if c[0] == "add":
                rest = t[1][:j] + t[1][j + 1:]
                return ("add", [("mul", rest + [term]) for term in c[1]])
        for j, c in enumerate(t[1]):
            e = expand(c)
            if e is not c:
                return ("mul", t[1][:j] + [e] + t[1][j + 1:])
        return t
    if k == "add":
        for j, c in enumerate(t[1]):
            e = expand(c)
            if e is not c:
                return ("add", t[1][:j] + [e] + t[1][j + 1:])
        return t
    if k == "div":
        e = expand(t[1])
        return t if e is t[1] else ("div", e, t[2])
    return t


def rescale(t, rng):
    """Multiply a fraction's numerator and denominator by the same integer."""
    f = ("num", Fraction(rng.randint(2, 7)))
    if t[0] == "div":
        return ("div", ("mul", [f, t[1]]), ("mul", [f, t[2]]))
    return ("div", ("mul", [f, t]), f)


REWRITES = (
    ("rearrange",), ("expand",), ("rescale",), ("rearrange", "expand"),
    ("rearrange", "rescale"), ("expand", "rescale"), ("rearrange", "expand", "rescale"),
)


def equivalent_variant(t, rng, k: int):
    """A tree equal in value to t, built by the k-th set of rewrites."""
    out = t
    for op in REWRITES[k % len(REWRITES)]:
        if op == "rearrange":
            out = rearrange(out, rng)
        elif op == "expand":
            out = expand(out)
        else:
            out = rescale(out, rng)
    return out


# --- near-miss edits --------------------------------------------------------


def _paths(t, path=()):
    yield path, t
    k = t[0]
    if k in ("add", "mul"):
        for j, c in enumerate(t[1]):
            yield from _paths(c, path + (j,))
    elif k == "div":
        yield from _paths(t[1], path + (0,))
        yield from _paths(t[2], path + (1,))
    elif k in ("pow", "sqrt"):
        yield from _paths(t[1], path + (0,))
    elif k == "fn":
        yield from _paths(t[2], path + (0,))


def _replace(t, path, new):
    if not path:
        return new
    j, rest = path[0], path[1:]
    k = t[0]
    if k in ("add", "mul"):
        kids = list(t[1])
        kids[j] = _replace(kids[j], rest, new)
        return (k, kids)
    if k == "div":
        return ("div", _replace(t[1], rest, new), t[2]) if j == 0 else ("div", t[1], _replace(t[2], rest, new))
    if k == "pow":
        return ("pow", _replace(t[1], rest, new), t[2])
    if k == "sqrt":
        return ("sqrt", _replace(t[1], rest, new))
    return ("fn", t[1], _replace(t[2], rest, new))


def random_edit(t, rng, pool):
    """One relabel, delete or insert at a random node."""
    nodes = list(_paths(t))
    while True:
        path, node = rng.choice(nodes)
        op = rng.random()
        if node[0] == "sym" and op < 0.5:
            other = rng.choice([s for s in pool if s != node[1]])
            return _replace(t, path, ("sym", other))
        if node[0] == "num" and op < 0.5:
            return _replace(t, path, ("num", node[1] + rng.randint(1, 3)))
        if node[0] in ("add", "mul") and len(node[1]) >= 3 and op < 0.75:
            kids = list(node[1])
            del kids[rng.randrange(len(kids))]
            return _replace(t, path, (node[0], kids))
        if node[0] in ("add", "mul") and op >= 0.75:
            kids = list(node[1])
            kids.insert(rng.randrange(len(kids) + 1), ("sym", rng.choice(pool)))
            return _replace(t, path, (node[0], kids))


# --- rendering --------------------------------------------------------------


class Style:
    """Per-response rendering choices: the noise a model response carries."""

    def __init__(self, rng, noisy: bool):
        self.frac = rng.choice(("\\dfrac", "\\frac")) if noisy else "\\frac"
        self.left = noisy and rng.random() < 0.5
        self.mul = rng.choice((" ", " \\cdot ", " × ", " · ")) if noisy else " "
        self.unicode = noisy and rng.random() < 0.4
        self.minus = "−" if noisy and rng.random() < 0.3 else "-"
        self.decimal = noisy and rng.random() < 0.3

    def paren(self, s):
        return f"\\left({s}\\right)" if self.left else f"({s})"


def _sym(name, st):
    base, _, sub = name.partition("_")
    if base in GREEK:
        base = GREEK[base] if st.unicode else "\\" + base + " "
    return f"{base.rstrip()}_{{{sub}}} " if sub else base


def _num(v, st):
    if v.denominator == 1:
        return str(v.numerator)
    if st.decimal and 10**6 % v.denominator == 0:
        return str(v.numerator / v.denominator)
    return f"{st.frac}{{{v.numerator}}}{{{v.denominator}}}"


def render(t, st) -> str:
    k = t[0]
    if k == "num":
        return _num(t[1], st)
    if k == "sym":
        return _sym(t[1], st)
    if k == "add":
        out = render(t[1][0], st)
        for c in t[1][1:]:
            s = render(c, st)
            out += f" {st.minus} " + s[1:] if s.startswith("-") else " + " + s
        return out
    if k == "mul":
        parts = []
        for j, c in enumerate(t[1]):
            s = render(c, st)
            if c[0] == "add" or (c[0] == "num" and j > 0):
                s = st.paren(s)
            if parts and st.mul == " " and s[0].isdigit():
                parts.append(" \\cdot ")
            elif parts:
                parts.append(st.mul)
            parts.append(s)
        return "".join(parts)
    if k == "div":
        return f"{st.frac}{{{render(t[1], st)}}}{{{render(t[2], st)}}}"
    if k == "pow":
        b = render(t[1], st)
        if t[1][0] != "sym" and not (t[1][0] == "num" and t[1][1].denominator == 1):
            b = st.paren(b)
        return f"{b}^{{{t[2]}}}"
    if k == "sqrt":
        return f"\\sqrt{{{render(t[1], st)}}}"
    return f"\\{t[1]}" + st.paren(render(t[2], st))


PROSE_BEFORE = (
    "Collecting the leading terms of the expansion, we obtain",
    "Solving the coupled equations and simplifying,",
    "After substituting the boundary conditions the result reads",
    "Using the symmetry of the problem, the answer is",
    "Putting everything together:",
)
PROSE_AFTER = ("", " This is the final result.", " as required.", "")


def wrap(answer: str, rng) -> str:
    """Embed an answer in response prose, with one of the answer markers a
    model uses (boxed, display math, inline math after a label)."""
    before = rng.choice(PROSE_BEFORE)
    after = rng.choice(PROSE_AFTER)
    if rng.random() < 0.3:
        before = "Let $x$ denote the variable. " + before
    form = rng.random()
    if form < 0.55:
        return f"{before} \\boxed{{{answer}}}{after}"
    if form < 0.75:
        return f"{before}\n$${answer}$$\n{after}".rstrip()
    if form < 0.9:
        return f"{before}\n\\[ \\boxed{{{answer}}} \\]"
    return f"{before}\nFinal answer: ${answer}$"




# --- numeric quantities -----------------------------------------------------

# (unit, the same unit with a prefix, power of ten the prefix stands for)
UNITS = (
    ("m/s", "km/s", 3),
    ("J", "kJ", 3),
    ("m", "cm", -2),
    ("kg", "g", -3),
    ("Hz", "MHz", 6),
    ("N", "kN", 3),
    ("V", "mV", -3),
    ("s", "ms", -3),
)


def random_quantity(rng):
    """(mantissa, power of ten, unit index)."""
    return Fraction(rng.randint(1001, 9999), 1000), rng.randint(-12, 12), rng.randrange(len(UNITS))


def render_quantity(q, rng, noisy: bool):
    """A LaTeX quantity string and its exact value in the unprefixed unit."""
    mant, exp, u = q
    unit, alt, shift = UNITS[u]
    value = mant * Fraction(10) ** exp
    form = rng.random() if noisy else 1.0
    if form < 0.4:
        return f"{float(mant)} \\times 10^{{{exp - shift}}}\\ \\text{{{alt}}}", \
            mant * Fraction(10) ** (exp - shift) * Fraction(10) ** shift
    if form < 0.7:
        return f"{float(mant * 10)} \\times 10^{{{exp - 1}}}\\,\\text{{{unit}}}", \
            mant * 10 * Fraction(10) ** (exp - 1)
    if form < 1.0:
        return f"{float(mant)} × 10^{{{exp}}} \\text{{ {unit}}}", value
    return f"{float(mant)} \\times 10^{{{exp}}} \\text{{ {unit}}}", value


# --- workloads --------------------------------------------------------------


def _item(rng, j, answer_type, gt):
    return {
        "id": f"q{j:04d}",
        "topic": rng.choice(TOPICS),
        "answer_type": answer_type,
        "problem": f"Synthetic problem {j}.",
        "ground_truth": gt,
    }


def _render_gt(atype, trees, lhs, bounds, plain):
    if atype == "expression":
        return render(trees[0], plain)
    if atype == "equation":
        return f"{_sym(lhs, plain)} = {render(trees[0], plain)}"
    if atype == "tuple":
        return "(" + ", ".join(render(t, plain) for t in trees) + ")"
    return bounds[0] + render(trees[0], plain) + ", " + render(trees[1], plain) + bounds[1]


def _render_pred(atype, variants, lhs, bounds, st, rng, k):
    if atype == "expression":
        s = render(variants[0], st)
        # models often restate the symbol solved for
        return f"{_sym(lhs, st)} = {s}" if rng.random() < 0.3 else s
    if atype == "equation":
        left, right = _sym(lhs, st), render(variants[0], st)
        if k % 3 == 0:
            return f"{right} = {left}"
        if k % 3 == 1:
            c = rng.randint(2, 5)
            return f"{c} {left} = {c}{st.paren(right)}"
        return f"{left} - {st.paren(right)} = 0"
    if atype == "tuple":
        return st.paren(", ".join(render(v, st) for v in variants))
    inner = f"{render(variants[0], st)}, {render(variants[1], st)}"
    if st.left:
        return f"\\left{bounds[0]}{inner}\\right{bounds[1]}"
    return bounds[0] + inner + bounds[1]


def synth_correct(seed: int, n_items: int = 300, n_models: int = 4):
    """Items of all five types; every prediction equivalent by construction.

    Type counts, the size ladder, the share of items with a function, the
    number of copied responses and the mix of rewrites are fixed; the seed
    draws everything else."""
    rng = random.Random(seed)
    check_rng = random.Random(seed ^ 0x5EED)
    shares = {"expression": 0.4, "equation": 0.2, "numeric": 0.15, "tuple": 0.15}
    types = [t for t, share in shares.items() for _ in range(round(share * n_items))]
    types += ["interval"] * (n_items - len(types))
    rng.shuffle(types)
    n_trees = sum(t != "numeric" for t in types)
    targets = iter(ladder(rng, n_trees, 10, 60))
    with_fn = iter(rng.sample([j < n_trees // 2 for j in range(n_trees)], n_trees))
    slots = [(j, m) for j in range(n_items) for m in range(1, n_models)]
    copies = set(rng.sample(slots, round(n_items * n_models / 4)))
    plain = Style(rng, noisy=False)
    items, responses, labels, sizes, transcendental = [], [], {}, [], []
    for j, atype in enumerate(types):
        pool = _symbol_pool(rng, 6)
        trees, quantity, lhs, bounds = [], None, pool[0], None
        if atype == "numeric":
            quantity = random_quantity(rng)
            gt, gt_value = render_quantity(quantity, rng, noisy=False)
        else:
            target, p_fn = next(targets), 0.25 if next(with_fn) else 0.0
            if atype == "equation":
                # seedgrade misgrades about a tenth of these equivalent
                # equations and falls back to tree edit distance on them;
                # right-hand sides of 10-30 nodes keep that fallback from
                # swinging throughput between seeds (the verdicts still show)
                target = 10 + (target - 10) * 2 // 5
            parts = {"tuple": rng.randint(2, 3), "interval": 2}.get(atype, 1)
            trees = [tree_near(rng, max(3, target // parts), pool, p_fn if k == 0 else 0.0)
                     for k in range(parts)]
            if atype == "interval":
                bounds = (rng.choice("(["), rng.choice(")]"))
            gt = _render_gt(atype, trees, lhs, bounds, plain)
        item = _item(rng, j, atype, gt)
        items.append(item)
        sizes.append(sum(size(t) for t in trees) if trees else 1)
        transcendental.append(any(has_function(t) for t in trees))
        seen = []
        for m in range(n_models):
            if (j, m) in copies:
                text = rng.choice(seen)  # a verbatim copy of another model's response
            else:
                st = Style(rng, noisy=True)
                if atype == "numeric":
                    ans, value = render_quantity(quantity, rng, noisy=True)
                    if value != gt_value:
                        raise AssertionError(f"label check failed for {item['id']}")
                else:
                    # rewrites and equation forms cycle over (item, model),
                    # so every seed has the same mix of them
                    variants = [equivalent_variant(t, rng, 4 * j + m) for t in trees]
                    for t, v in zip(trees, variants):
                        _check(True, t, v, check_rng, item["id"])
                    ans = _render_pred(atype, variants, lhs, bounds, st, rng, j + m)
                text = wrap(ans, rng)
                seen.append(text)
            model = f"model-{m}"
            responses.append({"id": item["id"], "model": model, "response": text})
            labels[f"{item['id']}|{model}"] = True
    return items, responses, labels, {"sizes": sizes, "transcendental": transcendental}


def synth_miss(seed: int, n_items: int = 12):
    """Large expression items, one model, each prediction 1-3 edits away."""
    rng = random.Random(seed)
    check_rng = random.Random(seed ^ 0x5EED)
    plain = Style(rng, noisy=False)
    items, responses, labels, sizes, transcendental = [], [], {}, [], []
    for j, target in enumerate(ladder(rng, n_items, 150, 400)):
        pool = _symbol_pool(rng, 30)
        gt_tree = polynomial(rng, target, pool)
        while True:
            pred_tree = gt_tree
            for _ in range(rng.randint(1, 3)):
                pred_tree = random_edit(pred_tree, rng, pool)
            if not same_value(gt_tree, pred_tree, check_rng):
                break
        item = _item(rng, j, "expression", render(gt_tree, plain))
        items.append(item)
        sizes.append(size(gt_tree))
        transcendental.append(has_function(gt_tree))
        st = Style(rng, noisy=True)
        responses.append({"id": item["id"], "model": "model-0",
                          "response": wrap(render(pred_tree, st), rng)})
        labels[f"{item['id']}|model-0"] = False
    return items, responses, labels, {"sizes": sizes, "transcendental": transcendental}


def _check(label: bool, a, b, rng, where: str):
    if same_value(a, b, rng) != label:
        raise AssertionError(f"label check failed for {where}")


def properties(items, responses, labels, shape) -> dict:
    """The input properties the workload's behaviour depends on."""
    per_gt: dict = {}
    for item in items:
        per_gt.setdefault(item["ground_truth"], []).append(item["id"])
    by_item: dict = {}
    for r in responses:
        by_item.setdefault(r["id"], []).append(r["model"])
    models_per_gt = [sum(len(by_item.get(i, ())) for i in ids) for ids in per_gt.values()]
    seen, dups = set(), 0
    for r in responses:
        key = (r["id"], r["response"])
        dups += key in seen
        seen.add(key)
    sizes = shape["sizes"]
    return {
        "items": len(items),
        "responses": len(responses),
        "models_per_gt": round(statistics.mean(models_per_gt), 3),
        "dup_share": round(dups / len(responses), 4),
        "equivalent_share": round(sum(labels.values()) / len(labels), 4),
        "nodes_q1_q2_q3": [round(v, 1) for v in statistics.quantiles(sizes, n=4)] if sizes else None,
        "transcendental_share": round(sum(shape["transcendental"]) / len(items), 4),
    }


def _read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def mini():
    items = _read_jsonl(MINI_DIR / "dataset.jsonl")
    responses = _read_jsonl(MINI_DIR / "responses.jsonl")
    labels = json.loads((MINI_DIR / "labels.json").read_text("utf-8"))
    # the bundled corpus is not generated as trees, so it has no size report
    shape = {"sizes": [], "transcendental": [False] * len(items)}
    return items, responses, labels, shape


def generate(workload: str, seed: int, out) -> dict:
    """Write the workload's files into `out` and return its property report."""
    if workload == "mini":
        items, responses, labels, shape = mini()
    elif workload == "synth-correct":
        items, responses, labels, shape = synth_correct(seed)
    elif workload == "synth-miss":
        items, responses, labels, shape = synth_miss(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    for name, rows in (("dataset.jsonl", items), ("responses.jsonl", responses)):
        with open(out / name, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n")
    (out / "labels.json").write_text(json.dumps(labels, sort_keys=True, indent=0), "utf-8")
    return properties(items, responses, labels, shape)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    print(json.dumps(generate(args.workload, args.seed, args.out), sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
