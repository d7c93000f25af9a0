import math

import numpy as np
import pytest

from hjbsparse.exceptions import GridSpecError, OutOfDomainError
from hjbsparse.grid import (
    Box,
    NodeFamily,
    build_grid,
    delta_nodes,
    dense_size,
    grid_size,
    nodes_1d,
)

FAMILIES = list(NodeFamily)


class TestNodes1d:
    def test_classic_level1(self):
        assert nodes_1d(NodeFamily.CLASSIC, 1).tolist() == [0.0, 1.0]

    def test_modified_level1_is_midpoint(self):
        assert nodes_1d(NodeFamily.MODIFIED, 1).tolist() == [0.5]

    def test_cgl_level2(self):
        assert nodes_1d(NodeFamily.CGL, 2).tolist() == [0.0, 0.5, 1.0]

    def test_cgl_level3(self):
        got = nodes_1d(NodeFamily.CGL, 3)
        want = [0.0, 0.146447, 0.5, 0.853553, 1.0]
        assert np.allclose(got, want, atol=1e-6)

    def test_counts(self):
        for i in range(1, 13):
            assert len(nodes_1d(NodeFamily.CLASSIC, i)) == 2 ** (i - 1) + 1
        assert len(nodes_1d(NodeFamily.MODIFIED, 1)) == 1
        assert len(nodes_1d(NodeFamily.CGL, 1)) == 1
        for i in range(2, 13):
            assert len(nodes_1d(NodeFamily.MODIFIED, i)) == 2 ** (i - 1) + 1

    @pytest.mark.parametrize("family", FAMILIES)
    def test_sorted_unique_in_unit_interval(self, family):
        for i in range(1, 13):
            x = nodes_1d(family, i)
            assert np.all(np.diff(x) > 0)
            assert x[0] >= 0.0 and x[-1] <= 1.0

    @pytest.mark.parametrize("family", FAMILIES)
    def test_nestedness_bitexact_to_level_12(self, family):
        for i in range(2, 13):
            coarse = set(nodes_1d(family, i - 1).tolist())
            fine = set(nodes_1d(family, i).tolist())
            assert coarse <= fine


class TestDeltaNodes:
    def test_classic_level2(self):
        assert delta_nodes(NodeFamily.CLASSIC, 2).tolist() == [0.5]

    def test_modified_level2(self):
        assert delta_nodes(NodeFamily.MODIFIED, 2).tolist() == [0.0, 1.0]

    def test_classic_level3_odd_numerators(self):
        assert delta_nodes(NodeFamily.CLASSIC, 3).tolist() == [0.25, 0.75]

    @pytest.mark.parametrize("family", FAMILIES)
    def test_union_of_deltas_is_full_level(self, family):
        for top in range(1, 13):
            union = np.concatenate([delta_nodes(family, i) for i in range(1, top + 1)])
            assert sorted(union.tolist()) == nodes_1d(family, top).tolist()


class TestGridCounts:
    def test_published_counts(self):
        assert grid_size(NodeFamily.CLASSIC, 2, 8) == 385
        assert grid_size(NodeFamily.MODIFIED, 2, 8) == 321
        assert grid_size(NodeFamily.CGL, 6, 13) == 44689
        assert grid_size(NodeFamily.CGL, 4, 12) == 18945

    def test_enumerated_counts_match_published(self):
        assert len(build_grid(NodeFamily.CLASSIC, 2, 8)) == 385
        assert len(build_grid(NodeFamily.MODIFIED, 2, 8)) == 321

    @pytest.mark.parametrize("family", FAMILIES)
    def test_enumeration_matches_composition_formula(self, family):
        for d in range(1, 7):
            q_top = d + 8 if d <= 4 else d + 6  # largest grids checked by formula below
            for q in range(d, q_top + 1):
                expected = grid_size(family, d, q)
                if expected <= 60_000:
                    assert len(build_grid(family, d, q)) == expected

    def test_formula_full_range(self):
        # the exact-integer formula itself covers the whole invariant range
        for family in FAMILIES:
            for d in range(1, 7):
                for q in range(d, d + 9):
                    assert grid_size(family, d, q) > 0

    def test_dense_sizes(self):
        assert dense_size(NodeFamily.CGL, 6, 13) == 129**6
        assert dense_size(NodeFamily.CGL, 6, 13) > 4.6e12
        assert dense_size(NodeFamily.CGL, 4, 12) == 257**4
        assert dense_size(NodeFamily.CLASSIC, 1, 1) == 2

    def test_rejects_bad_depth(self):
        with pytest.raises(GridSpecError):
            build_grid(NodeFamily.CGL, 3, 2)
        with pytest.raises(GridSpecError):
            grid_size(NodeFamily.CGL, 0, 5)


class TestGridStructure:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_sparse_equals_full_level_in_1d(self, family):
        for q in range(1, 10):
            g = build_grid(family, 1, q)
            assert np.array_equal(np.sort(g.ref[:, 0]), nodes_1d(family, q))

    def test_no_duplicate_points(self):
        for family in FAMILIES:
            g = build_grid(family, 3, 7)
            ref = g.ref
            order = np.lexsort(ref.T)
            gaps = np.abs(np.diff(ref[order], axis=0)).max(axis=1)
            assert np.all(gaps > 1e-13)

    def test_deterministic_ordering(self):
        g1 = build_grid(NodeFamily.CGL, 3, 6)
        g2 = build_grid(NodeFamily.CGL, 3, 6)
        assert np.array_equal(g1.ref, g2.ref)
        assert np.array_equal(g1.levels, g2.levels)
        # cells ordered by (|i|, i) ascending
        sums = g1.cell_levels.sum(axis=1)
        assert np.all(np.diff(sums) >= 0)

    def test_point_accessor(self):
        g = build_grid(NodeFamily.MODIFIED, 2, 3)
        p = g.point(0)
        assert p.index == (1, 1)
        assert p.offset == (1, 1)
        assert p.ref == (0.5, 0.5)

    def test_point_keys_unique_and_level_stable(self):
        g = build_grid(NodeFamily.CGL, 4, 9)
        keys = g.point_keys()
        assert len(np.unique(keys)) == len(g)

    def test_offsets_match_delta_nodes(self):
        g = build_grid(NodeFamily.CGL, 2, 5)
        for idx in range(0, len(g), 7):
            p = g.point(idx)
            for k in range(2):
                dn = delta_nodes(g.family, p.index[k])
                assert p.ref[k] == dn[p.offset[k] - 1]


class TestDomainMaps:
    def test_midpoint(self):
        box = Box((-math.pi / 6,), (math.pi / 6,))
        assert box.to_phys(np.array([0.5]))[0] == pytest.approx(0.0, abs=1e-15)

    def test_lower_bound(self):
        box = Box((-math.pi / 6,), (math.pi / 6,))
        assert box.to_phys(np.array([0.0]))[0] == -math.pi / 6

    def test_linearity(self):
        box = Box((-math.pi / 8,), (math.pi / 8,))
        assert box.to_phys(np.array([0.25]))[0] == pytest.approx(-math.pi / 16, rel=1e-14)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        box = Box((-2.0, 0.0, 5.0), (2.0, 5.0, 5.5))
        pts = rng.uniform(0, 1, (200, 3))
        phys = box.to_phys(pts)
        back = box.to_ref(phys)
        assert np.abs(back - pts).max() <= 1e-14

    def test_out_of_box_raises(self):
        box = Box((0.0,), (1.0,))
        with pytest.raises(OutOfDomainError):
            box.to_ref(np.array([1.5]))
        with pytest.raises(OutOfDomainError):
            box.to_phys(np.array([-0.1]))

    def test_boundary_tolerance(self):
        box = Box((0.0,), (1.0,))
        assert box.to_ref(np.array([1.0 + 1e-13]))[0] == 1.0

    def test_empty_axis_rejected(self):
        with pytest.raises(GridSpecError):
            Box((1.0,), (1.0,))
