import random

import pytest

from oracle import brute_distance, label_shape, tree_shapes
from seedgrade.canon import canonicalize
from seedgrade.config import GradeConfig
from seedgrade.nodes import add, mul, num, pow_, sym
from seedgrade.ted import distance_to_score, seed_score, tree_edit_distance

x, y = sym("x"), sym("y")
CM = GradeConfig()


class TestCostModel:
    def test_relabel_costs(self):
        assert CM.relabel(x, x) == 0
        assert CM.relabel(x, y) == 1
        assert CM.relabel(x, num(1)) == 2  # kind change

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
