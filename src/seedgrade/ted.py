"""Tree edit distance (Zhang–Shasha) and the partial-credit score mapping.

Canonical child sorting upstream makes the ordered-tree assumption valid.
The edit script transforms the prediction's canonical tree into the ground
truth's; ties between optimal scripts prefer relabels over delete+insert
for more readable error localization.
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
    """Postorder node list with leftmost-leaf indices, keyroots, and paths."""

    def __init__(self, root: MathNode):
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
        last_per_lml: dict = {}
        for i, l in enumerate(self.lml):
            last_per_lml[l] = i
        self.keyroots = sorted(last_per_lml.values())

    def __len__(self):
        return len(self.nodes)


def _forest_table(A: _Annotated, B: _Annotated, x: int, y: int, td, cfg: GradeConfig):
    """Forest-distance DP table for the subtree pair rooted at (x, y)."""
    lx, ly = A.lml[x], B.lml[y]
    w, h = x - lx + 2, y - ly + 2
    fd = [[0] * h for _ in range(w)]
    for di in range(1, w):
        fd[di][0] = fd[di - 1][0] + cfg.delete_cost
    for dj in range(1, h):
        fd[0][dj] = fd[0][dj - 1] + cfg.insert_cost
    for i in range(lx, x + 1):
        di = i - lx + 1
        ai_lml = A.lml[i]
        row = fd[di]
        prow = fd[di - 1]
        for j in range(ly, y + 1):
            dj = j - ly + 1
            if ai_lml == lx and B.lml[j] == ly:
                cost = min(
                    prow[dj - 1] + cfg.relabel(A.nodes[i], B.nodes[j]),
                    prow[dj] + cfg.delete_cost,
                    row[dj - 1] + cfg.insert_cost,
                )
                td[i][j] = cost
                row[dj] = cost
            else:
                row[dj] = min(
                    fd[ai_lml - lx][B.lml[j] - ly] + td[i][j],
                    prow[dj] + cfg.delete_cost,
                    row[dj - 1] + cfg.insert_cost,
                )
    return fd


def _backtrace(A, B, x, y, td, cfg, out):
    fd = _forest_table(A, B, x, y, td, cfg)
    lx, ly = A.lml[x], B.lml[y]
    p, q = x, y
    while p >= lx or q >= ly:
        di, dj = p - lx + 1, q - ly + 1
        if p >= lx and q >= ly:
            aligned = A.lml[p] == lx and B.lml[q] == ly
            if aligned:
                rl = cfg.relabel(A.nodes[p], B.nodes[q])
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
    A, B = _Annotated(ra), _Annotated(rb)
    n, m = len(A), len(B)
    td = [[0] * m for _ in range(n)]
    for x in A.keyroots:
        for y in B.keyroots:
            _forest_table(A, B, x, y, td, cfg)
    distance = td[n - 1][m - 1]
    ops: list = []
    _backtrace(A, B, n - 1, m - 1, td, cfg, ops)
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
