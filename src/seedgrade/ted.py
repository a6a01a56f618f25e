"""Tree edit distance (Zhang–Shasha) and an optimal edit script.

Canonical child sorting upstream makes the ordered-tree assumption valid.
The edit script transforms the prediction's canonical tree into the ground
truth's; ties between optimal scripts prefer relabels over delete+insert
for more readable error localization.

The dynamic program works on per-tree postorder arrays built once per pair.
Each node's (kind, label) is interned to an integer id shared by both trees,
so a relabel costs 0 for equal ids, rename_cost for equal kinds and
kind_change_cost otherwise (the same as GradeConfig.relabel) without
calling label() in the inner loop.  A keyroot pair of two leaves gets no
table: its distance is the relabel cost, which is exact only because
GradeConfig enforces kind_change_cost <= insert_cost + delete_cost.  A
keyroot pair with a leaf on the ground-truth side fills one column instead
of a table.

The strip.  Every cell of the DP, in any table, compares the postorder
prefixes 0..i of a and 0..j of b (i = -1 or j = -1 for an empty one).  A
mapping passes through the cell only if it maps those prefixes into each
other, so it deletes at least i - j nodes there when i > j and inserts at
least j - i when j > i, and the same holds for the suffixes after i and j.
A mapping of cost <= K therefore only passes through cells whose diagonal
i - j lies in a range [lo, hi] fixed by K, the two tree sizes and the insert
and delete costs (Touzet, CPM 2005, with the suffix term added).  The
forward pass fills only those cells; the others hold +inf, so every value it
computes is the cost of some edit script and never below the true one, and
on every cell of an optimal mapping of cost <= K it is the true one.  A root
value <= K is then the exact distance.  The backtrace tests the same
candidates in the same order and an equality holds exactly where it holds in
the full table (a candidate on an optimal mapping is exact; any other one is
too large in both), so the edit script is the one the full table gives.

The cut bound.  A mapping that maps node i of a to node j of b, or that
passes through a cell (i, j) of any table, maps the postorder prefixes 0..i
and 0..j into each other and the suffixes after i and j into each other.
So it costs at least pre(i, j) + suf(i, j), the edit distances between
those prefixes and between those suffixes as label sequences.  Both are
filled on a strip of bound K or wider: pre by the pass that finds K
(below), suf by the same DP on the reversed sequences.  A strip value is
never below the true distance and is exact on every cell of an alignment
of cost <= K, so pre + suf > K rules out every mapping of cost <= K through
(i, j).  The other subtree pairs are live.

Identical pairs.  Each node also has a structural id, interned in the same
dict as the labels, that two subtrees share exactly when they are equal
label for label.  A live pair of identical subtrees gets td = 0 and no
table.  A table (x, y) writes td only where both nodes lie on the leftmost
paths of x and y, the nodes that x and y own, so a table runs only for the
keyroot pairs that own a live pair that is not identical, plus the root
pair, whose table the backtrace starts from.  Each ends at the last row
such a pair needs, and its rows before the strip are never iterated.  For
a near miss that leaves the pairs on the paths from the roots to the
edits: the cost follows the size of the edit, not the size of the trees.
The strip's argument holds as it stands: a pair that gets no table reads
+inf, so every value is still the cost of some script, and a mapping of
cost <= K maps only live pairs, each exact (an identical one is 0).

K starts at the edit distance between the postorder label sequences of the
two trees: a tree mapping is also an alignment of those sequences at the
same cost, so it is a lower bound, and for a few edits it is usually the
distance itself.  That sequence distance is found the same way, on a strip
from a bound on the (kind, label) multisets, which sends pairs that share
few labels to the full table without a pass.  When a pass returns a value
above K, the value is an upper bound, and the pass reruns with
K = min(2K, value), doubled again while that leaves the strip unchanged.
The full table runs instead when the strip would span more diagonals than
STRIP_SHARE of the smaller tree's nodes (near that width the strip saves
little and its reruns cost more; scripts/ted_ladder.py shows the switch)
and when insert_cost or delete_cost is 0 (the strip is then unbounded).

The backtrace starts from the root table of the forward pass and rebuilds,
on the same strip, the table of each subtree pair it descends into, unless
the two subtrees are identical.  Every cell of their table is 0, so its
walk takes the first candidate each time and gives a match per node, last
node first; the backtrace appends those ops directly, or nothing without
include_matches.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .config import GradeConfig
from .nodes import MathNode

INF = float("inf")
# the full table runs when the strip is wider than this share of the smaller tree
STRIP_SHARE = 0.5


@dataclass(frozen=True)
class EditOp:
    op: str  # insert | delete | relabel | match
    path: tuple  # path in the source tree (delete/relabel/match) or target (insert)
    before: str | None
    after: str | None
    target_path: tuple | None = None

    def __str__(self):
        loc = ".".join(map(str, self.path)) or "root"
        if self.op == "delete":
            return f"delete {self.before} at {loc}"
        if self.op == "insert":
            return f"insert {self.after} at {loc}"
        if self.op == "relabel":
            return f"relabel {self.before} -> {self.after} at {loc}"
        return f"match {self.before} at {loc}"


class _Annotated:
    """Postorder arrays of one tree: nodes, kinds, interned label ids,
    structural ids, leftmost-leaf indices, paths, keyroots, and for each
    node the keyroot whose leftmost path holds it."""

    def __init__(self, root: MathNode, ids: dict):
        self.nodes = nodes = []
        self.lml = lml = []
        self.paths = paths = []
        # (node, path, None) on the way down; (node, path, start) once its
        # children are queued, where start is the postorder index of its
        # first descendant, its leftmost leaf
        stack = [(root, (), None)]
        while stack:
            n, path, start = stack.pop()
            kids = n.children
            if start is None and kids:
                stack.append((n, path, len(nodes)))
                for idx in range(len(kids) - 1, -1, -1):
                    stack.append((kids[idx], path + (idx,), None))
                continue
            lml.append(len(nodes) if start is None else start)
            nodes.append(n)
            paths.append(path)
        self.kinds = [n.kind for n in nodes]
        self.ids = [ids.setdefault((n.kind, n.label()), len(ids)) for n in nodes]
        # structural ids, interned in the same dict: two subtrees get the same
        # id exactly when they are equal label for label; a leaf's is its
        # label id, an inner node's that of (label id, children's ids)
        self.same = same = []
        done: list = []  # the structural ids of the subtrees whose parent is to come
        for n, sid in zip(nodes, self.ids):
            if n.children:
                cut = len(done) - len(n.children)
                sid = ids.setdefault((sid, *done[cut:]), len(ids))
                del done[cut:]
            done.append(sid)
            same.append(sid)
        last_per_lml: dict = {}
        for i, l in enumerate(self.lml):
            last_per_lml[l] = i
        self.keyroots = sorted(last_per_lml.values())
        self.owner = [last_per_lml[l] for l in self.lml]

    def __len__(self):
        return len(self.nodes)


def _relabel(A: _Annotated, B: _Annotated, i: int, j: int, cfg: GradeConfig) -> int:
    """cfg.relabel(A.nodes[i], B.nodes[j]) on the interned ids."""
    if A.ids[i] == B.ids[j]:
        return 0
    return cfg.rename_cost if A.kinds[i] is B.kinds[j] else cfg.kind_change_cost


def _strip(n: int, m: int, k, cfg: GradeConfig):
    """(lo, hi): the diagonals i - j of the cells that a mapping of cost <= k
    between trees of n and m nodes can pass through.  Such a cell costs at
    least g(i - j) + g((n - m) - (i - j)), where g(t) is t deletions for
    t > 0 and -t insertions for t < 0.  Needs insert and delete costs > 0
    and k >= g(n - m), which every caller keeps, so lo <= 0 <= hi and the
    root cell's diagonal n - m lies in [lo, hi]."""
    dc, ic = cfg.delete_cost, cfg.insert_cost
    both = dc + ic
    return -int((k - (n - m) * dc) // both), int((k + (n - m) * ic) // both)


def _label_bound(A: _Annotated, B: _Annotated, cfg: GradeConfig):
    """A lower bound on both distances from the (kind, label) multisets: a
    node with no equal partner left in the other tree is deleted, inserted
    or relabelled, and a relabel costs at least rename_cost.  It is at
    least the size-difference bound."""
    common = sum((Counter(A.ids) & Counter(B.ids)).values())
    da, db = len(A) - common, len(B) - common
    both = min(da, db)
    return both * cfg.rename_cost + (da - both) * cfg.delete_cost + (db - both) * cfg.insert_cost


def _sequence_distance(ida, ka, idb, kb, cfg: GradeConfig, lo: int, hi: int):
    """Edit distance between two label sequences, given as interned ids and
    kinds, over the cells of the strip [lo, hi]: (the distance, its rows).
    For the postorder sequences of two trees it is a lower bound on the tree
    distance, exact when it is within the strip's bound.  Row di keeps the
    cell of diagonal di - dj = lo + p at index p, plus a trailing +inf that
    the first and last diagonals read as their off-strip neighbour."""
    dc, ic = cfg.delete_cost, cfg.insert_cost
    rc, kc = cfg.rename_cost, cfg.kind_change_cost
    n, m = len(ida), len(idb)
    width = hi - lo + 1
    prow = [-(lo + p) * ic if 0 <= -(lo + p) <= m else INF for p in range(width)] + [INF]
    rows = [prow]
    for di in range(1, n + 1):
        row = [INF] * (width + 1)
        if di <= hi:  # column 0
            row[di - lo] = di * dc
        first = di - hi if di - hi > 1 else 1
        stop = di - lo if di - lo < m else m
        left = row[di - first + 1 - lo]
        ia, ka_i = ida[di - 1], ka[di - 1]
        j = first - 1
        for p in range(di - first - lo, di - stop - lo - 1, -1):
            c = prow[p] + (0 if ia == idb[j] else rc if ka_i is kb[j] else kc)
            up = prow[p - 1] + dc
            if up < c:
                c = up
            left += ic
            if left < c:
                c = left
            row[p] = left = c
            j += 1
        rows.append(row)
        prow = row
    return prow[n - m - lo], rows


def _columns(B: _Annotated, y: int, cfg: GradeConfig):
    """What every table of B's subtree y shares: for each column j, the fd
    row index where the forest left of subtree j ends, and the first fd row."""
    lmb = B.lml
    ly = lmb[y]
    offs = [lmb[j] - ly for j in range(ly, y + 1)]
    first = [0]
    for _ in offs:
        first.append(first[-1] + cfg.insert_cost)
    return offs, first


def _forest_table(A: _Annotated, B: _Annotated, x: int, y: int, td, cfg: GradeConfig, cols, lo: int, hi: int, last: int):
    """Forest-distance DP table for the subtree pair rooted at (x, y), filled
    on the strip lo <= i - j <= hi up to row i = last.

    fd[di][dj] is the distance between the forests lml(x)..i and lml(y)..j,
    with di = i - lml(x) + 1 and dj = j - lml(y) + 1.  Cells where both i
    and j lie on the leftmost paths of x and y compare whole subtrees and
    fill td[i][j]; every other cell reads td from an earlier table.  Row 0
    and column 0 hold their exact values, other cells off the strip +inf.
    """
    lma, ida, idb, ka, kb = A.lml, A.ids, B.ids, A.kinds, B.kinds
    dc, ic = cfg.delete_cost, cfg.insert_cost
    rc, kc = cfg.rename_cost, cfg.kind_change_cost
    lx, ly = lma[x], B.lml[y]
    offs, first = cols
    w = len(offs)
    shift = lx - ly  # cell (di, dj) lies on the diagonal shift + di - dj
    blank = [INF] * (w + 1)
    top = max(1, lo - shift)
    fd = [first] + [blank] * (top - 1)
    prow = fd[-1]
    for di in range(top, last - lx + 2):
        i = lx + di - 1
        tdi = td[i]
        row = blank[:]
        left = row[0] = di * dc
        a = shift + di - hi
        if a > 1:
            left = INF
        else:
            a = 1
        b = shift + di - lo
        if b > w:
            b = w
        if lma[i] == lx:
            # i is on x's leftmost path: columns on y's leftmost path align
            # whole subtrees, the others extend the empty-prefix row fd[0]
            for dj in range(a, b + 1):
                off = offs[dj - 1]
                j = ly + dj - 1
                up = prow[dj] + dc
                if off == 0:  # _relabel, inlined
                    c = prow[dj - 1] + (
                        0 if ida[i] == idb[j] else rc if ka[i] is kb[j] else kc
                    )
                else:
                    c = first[off] + tdi[j]
                if up < c:
                    c = up
                left += ic
                if left < c:
                    c = left
                if off == 0:
                    tdi[j] = c
                row[dj] = left = c
        else:
            frow = fd[lma[i] - lx]
            for dj, off, t, up in zip(
                range(a, b + 1), offs[a - 1 : b], tdi[ly + a - 1 : ly + b], prow[a : b + 1]
            ):
                c = frow[off] + t
                up += dc
                if up < c:
                    c = up
                left += ic
                if left < c:
                    c = left
                row[dj] = left = c
        fd.append(row)
        prow = row
    return fd


def _leaf_column(A: _Annotated, B: _Annotated, x: int, y: int, td, cfg: GradeConfig, lo: int, last: int):
    """td for the subtree pair (x, y) when y is a leaf, on the strip from
    lo up to row i = last: the table has one column besides the empty
    forest's, and fd[di][0] is di * delete_cost."""
    lma, ida, ka = A.lml, A.ids, A.kinds
    dc, ic = cfg.delete_cost, cfg.insert_cost
    rc, kc = cfg.rename_cost, cfg.kind_change_cost
    idy, ky = B.ids[y], B.kinds[y]
    lx = lma[x]
    start = max(lx, y + lo)
    up = ic if start == lx else INF  # fd[di - 1][1]
    for i in range(start, last + 1):
        di = i - lx + 1
        if lma[i] == lx:  # _relabel, inlined
            c = (di - 1) * dc + (0 if ida[i] == idy else rc if ka[i] is ky else kc)
        else:
            c = (lma[i] - lx) * dc + td[i][y]
        up += dc
        if up < c:
            c = up
        left = di * dc + ic
        if left < c:
            c = left
        if lma[i] == lx:
            td[i][y] = c
        up = c


def _pairs(A: _Annotated, B: _Annotated, cfg: GradeConfig, lo: int, hi: int, k, td, seq):
    """(y, xs, lasts) for each keyroot y of B: the keyroots x of A whose
    table (x, y) the forward pass on the strip [lo, hi] of bound k runs, in
    ascending order, and for each one the last row i = last it needs.  Table
    (x, y) reads td only of pairs (x', y') with x' <= x and y' <= y, so B's
    keyroots can be the outer loop and each one builds its columns once.

    Table (x, y) fills td only on the leftmost paths of x and y, which hold
    exactly the nodes that x and y own.  On a strip it runs only for the
    live pairs (i, j) among those, where pre(i, j) + suf(i, j) <= k (the
    sequence distances of the postorder prefixes up to i and j and of the
    suffixes after them), and that are not identical; a live identical pair
    gets td = 0 here.  The root pair always runs, since the backtrace
    starts from its table.

    seq is (plo, phi, rows), the strip of the bound pass and its rows, or
    None.  The rows are pre when that strip holds [lo, hi]; else pre is
    filled on [lo, hi].  suf is filled on the same strip as pre; a cell
    off [lo, hi] is never live, since pre + suf is at least the strip's
    bound there."""
    n, m = len(A), len(B)
    if lo <= -m and hi >= n:  # the full table: every pair, each up to its root row x
        return [(y, A.keyroots, A.keyroots) for y in B.keyroots]
    if seq is None or seq[0] > lo or seq[1] < hi:
        seq = lo, hi, _sequence_distance(A.ids, A.kinds, B.ids, B.kinds, cfg, lo, hi)[1]
    plo, phi, pre = seq
    suf = _sequence_distance(A.ids[::-1], A.kinds[::-1], B.ids[::-1], B.kinds[::-1], cfg, plo, phi)[1]
    oa, ob, sa, sb = A.owner, B.owner, A.same, B.same
    # _strip is symmetric (n - m - phi == plo), so suf's cell for (i, j) has
    # index w - p where pre's has p = i - j - plo
    w = phi - plo
    need = {(m - 1, n - 1): n - 1}
    for i in range(n):
        row, back, x, s, tdi = pre[i + 1], suf[n - 1 - i], oa[i], sa[i], td[i]
        for p in range(max(0, i - plo - m + 1), min(w, i - plo) + 1):
            if row[p] + back[w - p] <= k:
                j = i - plo - p
                if sb[j] == s:
                    tdi[j] = 0
                else:
                    need[ob[j], x] = i
    rows: dict = {}
    for (y, x), last in sorted(need.items()):
        xs, lasts = rows.setdefault(y, ([], []))
        xs.append(x)
        lasts.append(last)
    return [(y, xs, lasts) for y, (xs, lasts) in rows.items()]


def _forward(A: _Annotated, B: _Annotated, cfg: GradeConfig, lo: int, hi: int, k, seq):
    """The Zhang–Shasha forward pass on the strip [lo, hi] of bound k (seq
    as in _pairs): the root value and (td, the root table), or (td, None)
    when b is a single node."""
    n, m = len(A), len(B)
    lma, ida, ka = A.lml, A.ids, A.kinds
    rc, kc = cfg.rename_cost, cfg.kind_change_cost
    td = [[INF] * m for _ in range(n)]
    fd = None
    for y, xs, lasts in _pairs(A, B, cfg, lo, hi, k, td, seq):
        if B.lml[y] == y:
            idy, ky = B.ids[y], B.kinds[y]
            for x, last in zip(xs, lasts):
                if lma[x] == x:
                    # a leaf pair: relabel <= kind_change <= insert + delete
                    # (GradeConfig enforces it), so its 2x2 table holds the
                    # relabel (_relabel, inlined)
                    td[x][y] = 0 if ida[x] == idy else rc if ka[x] is ky else kc
                else:
                    _leaf_column(A, B, x, y, td, cfg, lo, last)
        else:
            cols = _columns(B, y, cfg)
            for x, last in zip(xs, lasts):
                fd = _forest_table(A, B, x, y, td, cfg, cols, lo, hi, last)
    # the root pair (n-1, m-1) is on every strip and comes last
    return td[n - 1][m - 1], (td, fd)


def _exact(run, n: int, m: int, cfg: GradeConfig, k):
    """Call run(lo, hi, k) on the strip of bound k, then of wider bounds,
    until its value is within the bound and so exact: (value, lo, hi, run's
    state).  None once the strip would be wider than STRIP_SHARE of the
    smaller tree.  K doubles, up to run's value, until the strip widens:
    a bound on the same strip would run the same cells again."""
    while True:
        lo, hi = _strip(n, m, k, cfg)
        if hi - lo + 1 > STRIP_SHARE * min(n, m):
            return None
        value, state = run(lo, hi, k)
        if value <= k:
            return value, lo, hi, state
        k = min(2 * k, value)
        while k < value and _strip(n, m, k, cfg) == (lo, hi):
            k = min(2 * k, value)


def _solve(A: _Annotated, B: _Annotated, cfg: GradeConfig):
    """(lo, hi, td, fd) of a forward pass whose root value is exact: on a
    strip when one is narrow enough, else on the full table."""
    n, m = len(A), len(B)
    dc, ic = cfg.delete_cost, cfg.insert_cost
    if dc and ic:
        bound = _exact(
            lambda lo, hi, k: _sequence_distance(A.ids, A.kinds, B.ids, B.kinds, cfg, lo, hi),
            n, m, cfg, max(1, _label_bound(A, B, cfg)),
        )
        if bound is not None:
            # the first pass reuses the bound pass's rows: its bound is at
            # most the one they were found with
            found = _exact(
                lambda lo, hi, k: _forward(A, B, cfg, lo, hi, k, bound[1:]),
                n, m, cfg, max(1, bound[0]),
            )
            if found is not None:
                _, lo, hi, (td, fd) = found
                return lo, hi, td, fd
    td, fd = _forward(A, B, cfg, -m, n, INF, None)[1]
    return -m, n, td, fd


def _backtrace(A, B, x, y, td, cfg, lo, hi, out, matches, fd=None):
    """Append to `out`, last first, the edit ops of an optimal script for
    the subtree pair (x, y); "match" ops only when `matches` is set."""
    if fd is None:
        fd = _forest_table(A, B, x, y, td, cfg, _columns(B, y, cfg), lo, hi, x)
    lx, ly = A.lml[x], B.lml[y]
    p, q = x, y
    while p >= lx or q >= ly:
        di, dj = p - lx + 1, q - ly + 1
        if p >= lx and q >= ly:
            aligned = A.lml[p] == lx and B.lml[q] == ly
            if aligned:
                rl = _relabel(A, B, p, q, cfg)
                if fd[di][dj] == fd[di - 1][dj - 1] + rl:
                    if rl or matches:
                        out.append(
                            EditOp(
                                "relabel" if rl else "match",
                                A.paths[p],
                                A.nodes[p].label(),
                                B.nodes[q].label(),
                                target_path=B.paths[q],
                            )
                        )
                    p -= 1
                    q -= 1
                    continue
            else:
                jump_i, jump_j = A.lml[p] - lx, B.lml[q] - ly
                if fd[di][dj] == fd[jump_i][jump_j] + td[p][q]:
                    if A.same[p] != B.same[q]:
                        _backtrace(A, B, p, q, td, cfg, lo, hi, out, matches)
                    elif matches:
                        # an identical pair: the ops its table walk gives,
                        # a match per node, last first, without the table
                        out.extend(
                            EditOp(
                                "match",
                                A.paths[i],
                                A.nodes[i].label(),
                                B.nodes[j].label(),
                                target_path=B.paths[j],
                            )
                            for i, j in zip(range(p, A.lml[p] - 1, -1), range(q, B.lml[q] - 1, -1))
                        )
                    p = A.lml[p] - 1
                    q = B.lml[q] - 1
                    continue
        if p >= lx and fd[di][dj] == fd[di - 1][dj] + cfg.delete_cost:
            out.append(EditOp("delete", A.paths[p], A.nodes[p].label(), None))
            p -= 1
            continue
        assert q >= ly
        out.append(
            EditOp("insert", B.paths[q], None, B.nodes[q].label(), target_path=B.paths[q])
        )
        q -= 1


def tree_edit_distance(
    a: MathNode, b: MathNode, cfg: GradeConfig = GradeConfig(), include_matches: bool = False
):
    """Exact minimal edit cost and one optimal edit script from a to b."""
    ids: dict = {}
    A, B = _Annotated(a, ids), _Annotated(b, ids)
    n, m = len(A), len(B)
    lo, hi, td, fd = _solve(A, B, cfg)
    distance = td[n - 1][m - 1]
    ops: list = []
    # (n-1, m-1) is the last keyroot pair, so fd is the root table, or None
    # when b is a single node and the root pair took a leaf path
    _backtrace(A, B, n - 1, m - 1, td, cfg, lo, hi, ops, include_matches, fd)
    ops.reverse()
    return distance, ops

