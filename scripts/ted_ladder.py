#!/usr/bin/env python3
"""Tree edit distance and equivalence time against tree size.

Usage:
    python scripts/ted_ladder.py [--seed 1] [--sizes 25,50,100,200,400] [--repeat 3]

For each size it builds a seeded random polynomial tree (a sum of products
of symbols, numbers and powers, the shape of large physics answers) and a
copy 0, 1, 3 or 10 random edits away (relabel a leaf, drop a term, add a
term), plus an unrelated tree of the same size ("far").  Each cell of the
first table prints the best of --repeat timings of `tree_edit_distance` in
ms, the distance, the DP it took ("s<w>" for a strip of w diagonals, "full"
for the full table), and after "t" how many keyroot tables (forest tables
and leaf columns) its forward passes ran.

The second table prints, for new polynomial trees of the same sizes, the
µs per tree that `parse_expression` takes on the tree rendered as LaTeX,
how many trees per second `canonicalize` handles, the same for a copy one
random edit away canonicalized through the tree's subtree table (a fresh
copy of the table each time, as a prediction is canonicalized against its
ground truth's), and the ms per pair of `equivalent` on an equal pair that
canonicalization does not make identical (the tree times
(s^2 - 1) / ((s + 1)(s - 1)) against the tree), so every trial runs: on the
exact GF(p) path, and on the float path with sin(x_0) added to both sides.
Each pair is timed on fresh canonical trees, so the cost of building their
evaluation plans is included.
"""

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from seedgrade import ted  # noqa: E402
from seedgrade.canon import canonicalize, equivalent  # noqa: E402
from seedgrade.config import GradeConfig  # noqa: E402
from seedgrade.nodes import MathNode, add, func, mul, num, pow_, sym  # noqa: E402
from seedgrade.parser import parse_expression, serialize  # noqa: E402
from seedgrade.ted import _Annotated, _solve, tree_edit_distance  # noqa: E402

EDITS = (0, 1, 3, 10)
NAMES = [f"x_{i}" for i in range(30)]


def _term(rng) -> MathNode:
    factors = [num(rng.randint(2, 9))]
    for _ in range(rng.randint(1, 3)):
        s = sym(rng.choice(NAMES))
        factors.append(pow_(s, num(rng.randint(2, 4))) if rng.random() < 0.4 else s)
    return mul(*factors)


def polynomial(rng, size: int) -> MathNode:
    terms = []
    while 1 + sum(t.size() for t in terms) < size:
        terms.append(_term(rng))
    return add(*terms)


def _relabel_leaf(rng, node: MathNode) -> MathNode:
    if not node.children:
        return sym(rng.choice(NAMES))
    k = rng.randrange(len(node.children))
    kids = list(node.children)
    kids[k] = _relabel_leaf(rng, kids[k])
    return MathNode(node.kind, node.payload, tuple(kids))


def edit(rng, tree: MathNode) -> MathNode:
    terms = list(tree.children)
    op = rng.random()
    if op < 0.5:
        k = rng.randrange(len(terms))
        terms[k] = _relabel_leaf(rng, terms[k])
    elif op < 0.75 and len(terms) > 1:
        del terms[rng.randrange(len(terms))]
    else:
        terms.insert(rng.randrange(len(terms) + 1), _term(rng))
    return add(*terms)


def _dp(a: MathNode, b: MathNode, cfg: GradeConfig) -> str:
    ids: dict = {}
    A, B = _Annotated(a, ids), _Annotated(b, ids)
    tables = 0
    real = ted._forest_table, ted._leaf_column

    def counted(fn):
        def run(*args):
            nonlocal tables
            tables += 1
            return fn(*args)
        return run

    ted._forest_table, ted._leaf_column = map(counted, real)
    try:
        lo, hi, _, _ = _solve(A, B, cfg)
    finally:
        ted._forest_table, ted._leaf_column = real
    dp = "full" if (lo, hi) == (-len(B), len(A)) else f"s{hi - lo + 1}"
    return f"{dp} t{tables}"


def _best(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t)
    return best


def _equiv_ms(a: MathNode, b: MathNode, cfg: GradeConfig, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        ca, cb = canonicalize(a), canonicalize(b)
        t = time.perf_counter()
        assert equivalent(ca, cb, cfg)
        best = min(best, time.perf_counter() - t)
    return best * 1e3


def equivalence_table(rng, sizes, repeat: int, cfg: GradeConfig) -> None:
    print(f"{'nodes':>5} {'parse':>12} {'canonicalize':>16} "
          f"{'1 edit, table':>16} {'exact equiv':>14} {'float equiv':>14}")
    for size in sizes:
        gt = polynomial(rng, size)
        text = serialize(gt)
        parse_us = _best(lambda: parse_expression(text), repeat) * 1e6
        s = sym(rng.choice(NAMES))
        unit = mul(add(pow_(s, num(2)), num(-1)),
                   pow_(mul(add(s, num(1)), add(s, num(-1))), num(-1)))
        pred = mul(gt, unit)
        wave = func("sin", sym(NAMES[0]))
        per_s = 1 / _best(lambda: canonicalize(gt), repeat)
        # its own generator, so that the trees drawn from rng stay the same
        variant = edit(random.Random(size), gt)
        table: dict = {}
        canonicalize(gt, table)
        shared_per_s = 1 / _best(lambda: canonicalize(variant, dict(table)), repeat)
        exact = _equiv_ms(pred, gt, cfg, repeat)
        flt = _equiv_ms(add(pred, wave), add(gt, wave), cfg, repeat)
        print(f"{gt.size():>5} {parse_us:>9.0f} us {per_s:>10.0f} tree/s "
              f"{shared_per_s:>10.0f} tree/s {exact:>11.2f} ms {flt:>11.2f} ms")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--sizes", default="25,50,100,200,400")
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()

    cfg = GradeConfig()
    rng = random.Random(args.seed)
    columns = [f"{k} edits" for k in EDITS] + ["far"]
    print(f"{'nodes':>5} " + " ".join(f"{c:>29}" for c in columns))
    sizes = [int(s) for s in args.sizes.split(",")]
    for size in sizes:
        gt = polynomial(rng, size)
        preds = []
        for k in EDITS:
            pred = gt
            for _ in range(k):
                pred = edit(rng, pred)
            preds.append(pred)
        preds.append(polynomial(rng, size))
        cells = []
        for pred in preds:
            best = float("inf")
            for _ in range(args.repeat):
                t = time.perf_counter()
                d, _ = tree_edit_distance(pred, gt, cfg)
                best = min(best, time.perf_counter() - t)
            cells.append(f"{best * 1e3:8.1f} ms d={d:<3} {_dp(pred, gt, cfg):>11}")
        print(f"{gt.size():>5} " + " ".join(f"{c:>29}" for c in cells))
    print()
    equivalence_table(rng, sizes, args.repeat, cfg)
    return 0


if __name__ == "__main__":
    sys.exit(main())
