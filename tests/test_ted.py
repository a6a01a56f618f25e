import gc
import hashlib
import random
import weakref
from fractions import Fraction

import pytest

from oracle import brute_distance, label_shape, tree_shapes
from seedgrade import ted
from seedgrade.canon import canonicalize
from seedgrade.config import GradeConfig
from seedgrade.nodes import Kind, MathNode, add, func, mul, num, pow_, sym
from seedgrade.grader import distance_to_score, seed_score
from seedgrade.ted import INF, _Annotated, _relabel, _solve, tree_edit_distance

x, y = sym("x"), sym("y")
CM = GradeConfig()
# rename < kind change < insert + delete, with insert != delete so that the
# direction of an edit shows in the cost
SKEWED = GradeConfig(insert_cost=2, delete_cost=3, rename_cost=1, kind_change_cost=4)
# free insertions leave the strip unbounded, so the full table must run
FREE_INSERT = GradeConfig(insert_cost=0, delete_cost=2, rename_cost=1, kind_change_cost=2)
# free renames: many optimal scripts tie, and subtrees that differ in labels
# only are at distance 0 without being identical
FREE_RENAME = GradeConfig(rename_cost=0)
# for label_shape: a FUNCTION and a SYMBOL with the same letter share a label
# but differ in kind, and every ADD reads "+" whatever its letter
MIXED_KINDS = (Kind.FUNCTION, Kind.SYMBOL, Kind.ADD)


def _random_node(rng, children=()):
    # labels collide across kinds: SYMBOL "1" and NUMBER 1 both read "1"
    kind = rng.choice((Kind.SYMBOL, Kind.FUNCTION, Kind.NUMBER, Kind.ADD, Kind.MUL))
    if kind is Kind.NUMBER:
        payload = Fraction(rng.randint(1, 3))
    elif kind in (Kind.ADD, Kind.MUL):
        payload = None
    else:
        payload = rng.choice(("a", "b", "1"))
    return MathNode(kind, payload, children)


def _random_tree(rng, size):
    """A random tree of exactly `size` nodes with mixed kinds and labels."""
    if size == 1:
        return _random_node(rng)
    rest, sizes = size - 1, []
    while rest:
        part = rng.randint(1, min(rest, max(1, size // 2)))
        sizes.append(part)
        rest -= part
    return _random_node(rng, tuple(_random_tree(rng, s) for s in sizes))


def _mutate(rng, node, p):
    """Near-miss copy: each node is relabelled, dropped (its children
    spliced into the parent) or wrapped in a new node with probability p."""
    kids = []
    for c in node.children:
        m = _mutate(rng, c, p)
        if len(node.children) > 1 and rng.random() < p / 3:
            kids.extend(m.children)
        else:
            kids.append(m)
    out = MathNode(node.kind, node.payload, tuple(kids))
    if rng.random() < p:
        out = _random_node(rng, out.children)
    if rng.random() < p / 3:
        out = _random_node(rng, (out,))
    return out


def _at(node, path):
    for i in path:
        node = node.children[i]
    return node


def _script_cost(a, b, ops, cfg):
    """What an edit script costs, each relabel priced by GradeConfig.relabel."""
    cost = 0
    for o in ops:
        if o.op == "insert":
            cost += cfg.insert_cost
        elif o.op == "delete":
            cost += cfg.delete_cost
        else:
            cost += cfg.relabel(_at(a, o.path), _at(b, o.target_path))
    return cost


def _chain(depth):
    node = sym("x")
    for _ in range(depth):
        node = func("f", node)
    return node


class TestCostModel:
    def test_relabel_costs(self):
        assert CM.relabel(x, x) == 0
        assert CM.relabel(x, y) == 1
        assert CM.relabel(x, num(1)) == 2  # kind change

    @pytest.mark.parametrize("cfg", [CM, SKEWED], ids=["default", "skewed"])
    def test_interned_cost_is_relabel(self, cfg):
        rng = random.Random(11)
        a, b = _random_tree(rng, 60), _random_tree(rng, 60)
        ids: dict = {}
        A, B = _Annotated(a, ids), _Annotated(b, ids)
        assert len(set(A.kinds + B.kinds)) >= 4
        seen = set()
        for i, na in enumerate(A.nodes):
            for j, nb in enumerate(B.nodes):
                want = cfg.relabel(na, nb)
                assert _relabel(A, B, i, j, cfg) == want
                seen.add(want)
        assert seen == {0, cfg.rename_cost, cfg.kind_change_cost}
        # equal labels of different kinds are a kind change, not a match
        ids = {}
        A, B = _Annotated(sym("1"), ids), _Annotated(num(1), ids)
        assert _relabel(A, B, 0, 0, cfg) == cfg.kind_change_cost

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            GradeConfig(insert_cost=1, delete_cost=1, rename_cost=3, kind_change_cost=3)
        with pytest.raises(ValueError):
            GradeConfig(kind_change_cost=0, rename_cost=1)


class TestDistance:
    def test_identity(self):
        t = add(x, mul(num(2), y))
        d, ops = tree_edit_distance(t, t)
        assert d == 0
        assert ops == []

    def test_single_relabel(self):
        d, ops = tree_edit_distance(add(x, y), add(x, sym("z")))
        assert d == 1
        assert len(ops) == 1
        assert ops[0].op == "relabel"

    def test_grow_by_two(self):
        d, _ = tree_edit_distance(x, mul(num(2), x))
        assert d == 2

    def test_symmetry(self):
        a = add(x, pow_(y, num(2)))
        b = mul(num(3), y)
        assert tree_edit_distance(a, b)[0] == tree_edit_distance(b, a)[0]

    def test_script_length_bounds_distance(self):
        a = add(x, pow_(y, num(2)), num(1))
        b = mul(num(3), y, x)
        d, ops = tree_edit_distance(a, b)
        # each op costs between 1 and kind_change/insert cost
        assert len(ops) <= d <= 2 * len(ops)

    def test_matches_included_on_request(self):
        _, ops = tree_edit_distance(add(x, y), add(x, y), include_matches=True)
        assert all(o.op == "match" for o in ops)
        assert len(ops) == 3


class TestAgainstOracle:
    def test_random_small_pairs(self):
        rng = random.Random(97)
        pool = [s for n in range(1, 6) for s in tree_shapes(n)]
        for _ in range(200):
            a = label_shape(rng.choice(pool), rng)
            b = label_shape(rng.choice(pool), rng)
            got, _ = tree_edit_distance(a, b, CM)
            want = brute_distance(a, b, CM)
            assert got == want, f"{a!r} vs {b!r}: {got} != {want}"

    @pytest.mark.parametrize("cfg", [CM, SKEWED], ids=["default", "skewed"])
    def test_mixed_kinds(self, cfg):
        rng = random.Random(4099)
        pool = [s for n in range(1, 6) for s in tree_shapes(n)]
        for _ in range(300):
            a = label_shape(rng.choice(pool), rng, "ab", MIXED_KINDS)
            b = label_shape(rng.choice(pool), rng, "ab", MIXED_KINDS)
            got, ops = tree_edit_distance(a, b, cfg)
            want = brute_distance(a, b, cfg)
            assert got == want, f"{a!r} vs {b!r}: {got} != {want}"
            assert _script_cost(a, b, ops, cfg) == got


class TestGoldenScripts:
    """Distances and edit scripts of seeded pairs, pinned by a sha256 digest:
    a faster DP must keep picking the same optimal script among ties."""

    @staticmethod
    def _cases():
        rng = random.Random(1989)
        pairs = []
        for _ in range(6):
            a = _random_tree(rng, rng.randint(20, 150))
            pairs.append((a, _mutate(rng, a, 0.08)))
        for _ in range(2):
            pairs.append((_random_tree(rng, rng.randint(20, 60)),
                          _random_tree(rng, rng.randint(20, 60))))
        leaf_a, leaf_b = sym("a"), func("a")
        deep = _chain(40)
        pairs += [
            (leaf_a, leaf_a), (leaf_a, sym("b")), (leaf_a, leaf_b), (leaf_a, num(1)),
            (leaf_a, deep), (deep, leaf_a), (sym("x"), deep), (deep, _chain(37)),
            (pairs[0][0], pairs[0][0]),
        ]
        return pairs

    def test_digest(self):
        h = hashlib.sha256()
        for a, b in self._cases():
            for cfg in (CM, SKEWED):
                for include in (False, True):
                    d, ops = tree_edit_distance(a, b, cfg, include_matches=include)
                    for o in ops:
                        h.update(repr((d, str(o), o.path, o.target_path)).encode())
                    h.update(f"|{d}|{len(ops)}\n".encode())
        assert h.hexdigest() == GOLDEN_SCRIPTS

    def test_edge_cases(self):
        a = sym("a")
        assert tree_edit_distance(a, a) == (0, [])
        assert tree_edit_distance(a, sym("b"), SKEWED)[0] == SKEWED.rename_cost
        assert tree_edit_distance(a, func("a"), SKEWED)[0] == SKEWED.kind_change_cost
        d, ops = tree_edit_distance(sym("x"), _chain(40))
        assert d == 40 and [o.op for o in ops] == ["insert"] * 40
        t = self._cases()[0][0]
        d, ops = tree_edit_distance(t, t, SKEWED, include_matches=True)
        assert d == 0 and len(ops) == t.size() and {o.op for o in ops} == {"match"}


GOLDEN_SCRIPTS = "d08fdecaf2daccc1726fce73fc0d231fcc4f66eb4efc70cf95f183e801660abb"


def _replace(node, path, new):
    if not path:
        return new
    kids = list(node.children)
    kids[path[0]] = _replace(kids[path[0]], path[1:], new)
    return MathNode(node.kind, node.payload, tuple(kids))


def _script(result):
    d, ops = result
    return d, [(str(o), o.path, o.target_path) for o in ops]


@pytest.fixture
def strip_passes(monkeypatch):
    """For each forward pass, whether it ran on a strip (else the full table)."""
    seen = []
    real = ted._forward

    def spy(A, B, cfg, lo, hi, *rest):
        seen.append((lo, hi) != (-len(B), len(A)))
        return real(A, B, cfg, lo, hi, *rest)

    monkeypatch.setattr(ted, "_forward", spy)
    return seen


class TestStrip:
    """The strip DP against the full table: same distances, same scripts."""

    @staticmethod
    def _pairs():
        rng = random.Random(2005)
        pairs = []
        for p in (0.003, 0.006, 0.01, 0.02, 0.03):
            a = _random_tree(rng, rng.randint(100, 400))
            pairs.append((a, _mutate(rng, a, p)))
        for _ in range(2):
            pairs.append((_random_tree(rng, rng.randint(100, 150)),
                          _random_tree(rng, rng.randint(100, 150))))
        return pairs

    @pytest.mark.parametrize("cfg", [CM, SKEWED], ids=["default", "skewed"])
    def test_same_as_full_table(self, cfg, strip_passes, monkeypatch):
        pairs = self._pairs()
        got, on_strip = [], []
        for a, b in pairs:
            got.append(_script(tree_edit_distance(a, b, cfg, include_matches=True)))
            on_strip.append(strip_passes[-1])
        # the near misses take the strip, the unrelated pairs the full table
        assert on_strip == [True] * 5 + [False] * 2
        monkeypatch.setattr(ted, "STRIP_SHARE", 0.0)  # every strip counts as too wide
        want = [_script(tree_edit_distance(a, b, cfg, include_matches=True)) for a, b in pairs]
        assert not any(strip_passes[-len(pairs):])
        assert got == want

    def test_near_misses_same_as_full_table(self, strip_passes, monkeypatch):
        """Seeded near misses of 3-250 nodes: the pruned strip gives the full
        table's distance, script and paths under three cost models, with and
        without match ops."""
        rng = random.Random(1989)
        pairs = []
        for t in range(200):
            # a few large pairs, since the full table that checks them is slow
            size = 250 if t == 0 else rng.randint(60, 200) if t % 50 == 0 else rng.randint(3, 40)
            a = _random_tree(rng, size)
            b = _mutate(rng, a, rng.choice((0.005, 0.01, 0.02, 0.05)))
            pairs.append((a, b) if t % 2 else (b, a))
        cases = [(a, b, cfg) for a, b in pairs for cfg in (CM, SKEWED, FREE_RENAME)]
        got, on_strip = [], []
        for a, b, cfg in cases:
            got.append([_script(tree_edit_distance(a, b, cfg, include_matches=include))
                        for include in (False, True)])
            on_strip.append(strip_passes[-1])
        assert sum(on_strip) > len(cases) / 2
        monkeypatch.setattr(ted, "STRIP_SHARE", 0.0)
        for n, (a, b, cfg) in enumerate(cases):
            d, ops = _script(tree_edit_distance(a, b, cfg, include_matches=True))
            # the walk does not depend on include_matches, only what it emits
            assert got[n] == [(d, [o for o in ops if not o[0].startswith("match ")]), (d, ops)], n

    def test_free_insertions_take_the_full_table(self, strip_passes):
        for a, b in self._pairs()[:2]:
            tree_edit_distance(a, b, FREE_INSERT)
        assert strip_passes == [False, False]

    def test_bound_doubles_past_an_unchanged_strip(self, monkeypatch):
        """Trees one node apart keep the strip (0, 1) at K = 1 and K = 2, so
        the bound pass goes from K = 1 to K = 4 without a pass at K = 2."""
        leaves = [sym(f"x_{k}") for k in range(10)]
        a = add(*leaves, y)
        b = add(leaves[-1], *leaves[:-1])
        calls = []
        real = ted._sequence_distance
        monkeypatch.setattr(ted, "_sequence_distance", lambda *args: calls.append(args[-2:]) or real(*args))
        got = _script(tree_edit_distance(a, b, CM, include_matches=True))
        # bound passes at K = 1 and K = 4, then the forward pass's suffix rows
        assert calls == [(0, 1), (-1, 2), (-1, 2)]
        monkeypatch.setattr(ted, "STRIP_SHARE", 0.0)
        assert got == _script(tree_edit_distance(a, b, CM, include_matches=True))
        assert got[0] == 3

    def test_one_edit_fills_a_sliver(self, monkeypatch):
        rng = random.Random(7)
        a = _random_tree(rng, 300)
        path = []
        while _at(a, path).children:
            path.append(len(_at(a, path).children) // 2)
        b = _replace(a, path, sym("q"))
        ids: dict = {}
        A, B = _Annotated(a, ids), _Annotated(b, ids)
        lo, hi, td, _ = _solve(A, B, CM)
        filled = sum(v != INF for row in td for v in row)
        assert (lo, hi) != (-len(B), len(A)) and filled < 0.1 * len(A) * len(B)
        # the forest tables of the keyroot pairs that own a cell on the strip
        listed = {(A.owner[i], B.owner[j]) for i in range(len(A))
                  for j in range(max(0, i - hi), min(len(B), i - lo + 1))
                  if B.lml[B.owner[j]] != B.owner[j]}
        tables = []
        real = ted._forest_table
        monkeypatch.setattr(ted, "_forest_table", lambda *args: tables.append(args[2:4]) or real(*args))
        got = _script(tree_edit_distance(a, b, include_matches=True))
        # only the pairs on the path to the edit run a table, the others
        # are identical or too far from any script of cost 1 or 2
        assert len(tables) < 0.05 * len(listed)
        assert got[0] == CM.relabel(_at(a, path), sym("q"))
        monkeypatch.setattr(ted, "STRIP_SHARE", 0.0)
        assert got == _script(tree_edit_distance(a, b, include_matches=True))


class TestScoreMapping:
    def test_endpoints(self):
        assert distance_to_score(0, 10) == 100.0
        assert distance_to_score(10, 10) == 0.0
        assert distance_to_score(25, 10) == 0.0

    def test_linear_midpoint(self):
        assert distance_to_score(5, 10) == pytest.approx(50.0)

    def test_cutoff_config(self):
        cfg = GradeConfig(zero_cutoff=0.5)
        assert distance_to_score(5, 10, cfg) == pytest.approx(0.0)
        assert distance_to_score(2, 10, cfg) == pytest.approx(60.0)

    def test_bad_gt_size(self):
        with pytest.raises(ValueError):
            distance_to_score(1, 0)


class TestSeedScore:
    def test_equivalent_short_circuits(self):
        r = seed_score(add(x, y), add(y, x))
        assert r.score == 100.0 and r.equivalent and r.edit_script == []

    def test_partial(self):
        gt = mul(num(2), x, y)
        pred = mul(num(3), x, y)
        r = seed_score(pred, gt)
        size = canonicalize(gt).size
        assert 0 < r.score < 100
        assert r.relative_distance == pytest.approx(r.distance / size)


class TestAnnotated:
    def test_freed_without_the_cycle_collector(self):
        gc.disable()
        try:
            annotated = ted._Annotated(_chain(20), {})
            ref = weakref.ref(annotated)
            del annotated
            assert ref() is None
        finally:
            gc.enable()

    def test_deep_chain(self):
        annotated = ted._Annotated(_chain(5000), {})
        assert len(annotated) == 5001
        assert annotated.lml == [0] * 5001
        assert annotated.paths[0] == (0,) * 5000 and annotated.paths[-1] == ()

    def test_postorder_arrays(self):
        t = add(mul(num(2), x), pow_(y, num(3)), x)
        a = ted._Annotated(t, {})
        assert [n.label() for n in a.nodes] == ["2", "x", "*", "y", "3", "^", "x", "+"]
        assert a.lml == [0, 1, 0, 3, 4, 3, 6, 0]
        assert a.paths == [(0, 0), (0, 1), (0,), (1, 0), (1, 1), (1,), (2,), ()]
        assert a.keyroots == [1, 4, 5, 6, 7]


def test_match_ops_built_only_when_asked(monkeypatch):
    built = []
    original = ted.EditOp

    def counted(*args, **kwargs):
        op = original(*args, **kwargs)
        built.append(op)
        return op

    monkeypatch.setattr(ted, "EditOp", counted)
    a, b = add(mul(num(2), x), y, sym("z")), add(mul(num(3), x), y)
    d, ops = tree_edit_distance(a, b)
    assert sorted(o.op for o in built) == sorted(o.op for o in ops) == ["delete", "relabel"]
    built.clear()
    assert len(tree_edit_distance(a, b, include_matches=True)[1]) == len(built) == 6
