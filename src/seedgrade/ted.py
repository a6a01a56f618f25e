"""Tree edit distance (Zhang–Shasha) and the partial-credit score mapping.

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
of a table.  The last keyroot pair is the pair of roots, so the backtrace
starts from the table the forward pass built last instead of building it
again; it still rebuilds the table of each subtree pair it descends into.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .canon import CanonicalTree, as_canonical, equivalent
from .config import GradeConfig
from .errors import Inconclusive
from .nodes import MathNode


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
    leftmost-leaf indices, paths and keyroots."""

    def __init__(self, root: MathNode, ids: dict):
        self.nodes: list = []
        self.lml: list = []
        self.paths: list = []

        def rec(n: MathNode, path: tuple) -> int:
            first = None
            for idx, c in enumerate(n.children):
                child_lml = rec(c, path + (idx,))
                if first is None:
                    first = child_lml
            i = len(self.nodes)
            self.nodes.append(n)
            self.paths.append(path)
            self.lml.append(first if first is not None else i)
            return self.lml[i]

        rec(root, ())
        self.kinds = [n.kind for n in self.nodes]
        self.ids = [ids.setdefault((n.kind, n.label()), len(ids)) for n in self.nodes]
        last_per_lml: dict = {}
        for i, l in enumerate(self.lml):
            last_per_lml[l] = i
        self.keyroots = sorted(last_per_lml.values())

    def __len__(self):
        return len(self.nodes)


def _relabel(A: _Annotated, B: _Annotated, i: int, j: int, cfg: GradeConfig) -> int:
    """cfg.relabel(A.nodes[i], B.nodes[j]) on the interned ids."""
    if A.ids[i] == B.ids[j]:
        return 0
    return cfg.rename_cost if A.kinds[i] is B.kinds[j] else cfg.kind_change_cost


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


def _forest_table(A: _Annotated, B: _Annotated, x: int, y: int, td, cfg: GradeConfig, cols):
    """Forest-distance DP table for the subtree pair rooted at (x, y).

    fd[di][dj] is the distance between the forests lml(x)..i and lml(y)..j,
    with di = i - lml(x) + 1 and dj = j - lml(y) + 1.  Cells where both i
    and j lie on the leftmost paths of x and y compare whole subtrees and
    fill td[i][j]; every other cell reads td from an earlier table.
    """
    lma, ida, idb, ka, kb = A.lml, A.ids, B.ids, A.kinds, B.kinds
    dc, ic = cfg.delete_cost, cfg.insert_cost
    rc, kc = cfg.rename_cost, cfg.kind_change_cost
    lx, ly = lma[x], B.lml[y]
    offs, first = cols
    fd = [first]
    prow = first
    for i in range(lx, x + 1):
        tdi = td[i]
        left = prow[0] + dc
        row = [left]
        if lma[i] == lx:
            # i is on x's leftmost path: columns on y's leftmost path align
            # whole subtrees, the others extend the empty-prefix row fd[0]
            for dj, off in enumerate(offs, 1):
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
                row.append(c)
                left = c
        else:
            frow = fd[lma[i] - lx]
            for off, t, up in zip(offs, tdi[ly : y + 1], prow[1:]):
                c = frow[off] + t
                up += dc
                if up < c:
                    c = up
                left += ic
                if left < c:
                    c = left
                row.append(c)
                left = c
        fd.append(row)
        prow = row
    return fd


def _leaf_column(A: _Annotated, B: _Annotated, x: int, y: int, td, cfg: GradeConfig):
    """td for the subtree pair (x, y) when y is a leaf: the table has one
    column besides the empty forest's, and fd[di][0] is di * delete_cost."""
    lma, ida, ka = A.lml, A.ids, A.kinds
    dc, ic = cfg.delete_cost, cfg.insert_cost
    rc, kc = cfg.rename_cost, cfg.kind_change_cost
    idy, ky = B.ids[y], B.kinds[y]
    lx = lma[x]
    up = ic  # fd[di - 1][1]
    for di, i in enumerate(range(lx, x + 1), 1):
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


def _backtrace(A, B, x, y, td, cfg, out, fd=None):
    if fd is None:
        fd = _forest_table(A, B, x, y, td, cfg, _columns(B, y, cfg))
    lx, ly = A.lml[x], B.lml[y]
    p, q = x, y
    while p >= lx or q >= ly:
        di, dj = p - lx + 1, q - ly + 1
        if p >= lx and q >= ly:
            aligned = A.lml[p] == lx and B.lml[q] == ly
            if aligned:
                rl = _relabel(A, B, p, q, cfg)
                if fd[di][dj] == fd[di - 1][dj - 1] + rl:
                    out.append(
                        EditOp(
                            "match" if rl == 0 else "relabel",
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
                    _backtrace(A, B, p, q, td, cfg, out)
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


def tree_edit_distance(a, b, cfg: GradeConfig = GradeConfig(), include_matches: bool = False):
    """Exact minimal edit cost and one optimal edit script from a to b."""
    ra = a.root if isinstance(a, CanonicalTree) else a
    rb = b.root if isinstance(b, CanonicalTree) else b
    ids: dict = {}
    A, B = _Annotated(ra, ids), _Annotated(rb, ids)
    n, m = len(A), len(B)
    td = [[0] * m for _ in range(n)]
    fd = None
    # Table (x, y) reads td only of pairs (x', y') with x' <= x and y' <= y,
    # so B's keyroots can be the outer loop: each one builds its columns once.
    for y in B.keyroots:
        if B.lml[y] == y:
            for x in A.keyroots:
                if A.lml[x] == x:
                    # a leaf pair: relabel <= kind_change <= insert + delete
                    # (GradeConfig enforces it), so its 2x2 table holds the relabel
                    td[x][y] = _relabel(A, B, x, y, cfg)
                else:
                    _leaf_column(A, B, x, y, td, cfg)
        else:
            cols = _columns(B, y, cfg)
            for x in A.keyroots:
                fd = _forest_table(A, B, x, y, td, cfg, cols)
    distance = td[n - 1][m - 1]
    ops: list = []
    # (n-1, m-1) is the last keyroot pair, so fd is the root table, or None
    # when b is a single node and the root pair took a leaf path
    _backtrace(A, B, n - 1, m - 1, td, cfg, ops, fd)
    ops.reverse()
    if not include_matches:
        ops = [o for o in ops if o.op != "match"]
    return distance, ops


@dataclass
class GradeResult:
    score: float
    equivalent: bool
    distance: float
    relative_distance: float
    edit_script: list = field(default_factory=list)
    diagnostics: list = field(default_factory=list)

    @classmethod
    def zero(cls, diagnostics) -> "GradeResult":
        return cls(
            score=0.0,
            equivalent=False,
            distance=float("inf"),
            relative_distance=float("inf"),
            diagnostics=list(diagnostics),
        )

    @classmethod
    def full(cls, cfg: GradeConfig, diagnostics) -> "GradeResult":
        return cls(
            score=cfg.max_score,
            equivalent=True,
            distance=0,
            relative_distance=0.0,
            diagnostics=list(diagnostics),
        )

    def to_dict(self) -> dict:
        d = float(self.distance)
        return {
            "score": round(self.score, 6),
            "equivalent": self.equivalent,
            "distance": d if d == d and abs(d) != float("inf") else None,
            "relative_distance": (
                round(self.relative_distance, 6)
                if abs(self.relative_distance) != float("inf")
                else None
            ),
            "edit_script": [str(op) for op in self.edit_script],
            "diagnostics": list(self.diagnostics),
        }


def distance_to_score(distance, gt_size: int, cfg: GradeConfig = GradeConfig()) -> float:
    """Linear partial credit: 100 at distance 0, 0 at relative distance >= cutoff."""
    if gt_size < 1:
        raise ValueError("ground-truth size must be >= 1")
    r = distance / gt_size
    score = cfg.max_score * max(0.0, 1.0 - r / cfg.zero_cutoff)
    return min(cfg.max_score, max(0.0, score))


def seed_score(pred, gt, cfg: GradeConfig = GradeConfig()) -> GradeResult:
    """Full credit on semantic equivalence, else edit-distance partial credit.

    pred and gt are MathNodes or CanonicalTrees; each is canonicalized at
    most once, and the canonical trees feed both the equivalence check and
    the edit distance.
    """
    diagnostics: list = []
    cp = as_canonical(pred)
    cg = as_canonical(gt)
    try:
        if equivalent(cp, cg, cfg):
            return GradeResult.full(cfg, diagnostics)
    except Inconclusive:
        diagnostics.append("equivalence-inconclusive: falling back to tree distance")
    distance, ops = tree_edit_distance(cp, cg, cfg)
    score = distance_to_score(distance, cg.size, cfg)
    return GradeResult(
        score=score,
        equivalent=False,
        distance=distance,
        relative_distance=distance / cg.size,
        edit_script=ops,
        diagnostics=diagnostics,
    )
