import warnings

import numpy as np
import pytest
from combination_oracle import eval_combination
from scipy.linalg import solve_triangular

from hjbsparse.exceptions import FitError, OutOfDomainError
from hjbsparse.grid import NodeFamily, build_grid, delta_count, delta_positions, node_count, nodes_1d, table_nodes
from hjbsparse.interp import (
    _NODE_HIT,
    _delta_table,
    _hierarchize,
    _poles,
    fit_hierarchical,
    lebesgue_bound,
    lebesgue_constant,
    x_basis_matrix,
)

FAMILIES = list(NodeFamily)
REF_LEVELS = range(1, 10)


def delta_basis_matrix(family: NodeFamily, i: int, x) -> np.ndarray:
    """Basis functions of the new nodes DX^i, columns in ascending node order."""
    return x_basis_matrix(family, i, x)[:, delta_positions(family, i) - 1]


def delta_table(family: NodeFamily, ref_level: int, x: np.ndarray) -> np.ndarray:
    """interp._delta_table at the 1-D coordinates x, point-major: shape (len(x), N_ref_level)."""
    return _delta_table(family, ref_level, np.asarray(x)[None]).T


def reference_table(family: NodeFamily, ref_level: int, x: np.ndarray) -> np.ndarray:
    """The 1-D table built level by level: the reference for interp._delta_table."""
    return np.hstack([delta_basis_matrix(family, lvl, x) for lvl in range(1, ref_level + 1)])


def column_levels(family: NodeFamily, ref_level: int) -> np.ndarray:
    """The level of every table_nodes column."""
    return np.repeat(np.arange(1, ref_level + 1), [delta_count(family, lvl) for lvl in range(1, ref_level + 1)])


def full_product_eval(it, pts: np.ndarray) -> np.ndarray:
    """Every point's basis as the product of all d of its table columns, in grid order: the kernel
    before it skipped the constant level-1 factors."""
    g = it.grid
    prod = np.prod([delta_table(g.family, g.ref_level, pts[:, k])[:, g.cols[:, k]] for k in range(g.d)], axis=0)
    return prod @ it.surpluses


def edge_points(g, rng, n: int) -> np.ndarray:
    """Random points of the cube mixed with grid nodes, exact 0.5 coordinates, 0.5 +- a few 1e-15,
    the cube's faces and table nodes."""
    pts = rng.uniform(0, 1, (6 * n, g.d))
    some = lambda: rng.uniform(size=(n, g.d)) < 0.5  # noqa: E731
    pts[:n] = g.ref[rng.choice(len(g), n)]
    pts[n : 2 * n, 0] = 0.5
    pts[2 * n : 3 * n][some()] = 0.5
    pts[3 * n : 4 * n] = np.where(some(), 0.5 + rng.choice([-3e-15, -1e-15, 1e-15, 3e-15], (n, g.d)), pts[3 * n : 4 * n])
    pts[4 * n : 5 * n] = np.where(some(), rng.choice([0.0, 1.0], (n, g.d)), pts[4 * n : 5 * n])
    pts[5 * n :] = rng.choice(table_nodes(g.family, g.ref_level), (n, g.d))
    return pts


class TestBasis:
    def test_classic_level1_published_labels(self):
        # published a^1_1 = x and a^1_2 = 1 - x peak at 1 and 0: in ascending node order 1 - x, x
        assert delta_table(NodeFamily.CLASSIC, 1, np.array([0.3])) == pytest.approx(np.array([[0.7, 0.3]]), abs=1e-14)

    def test_modified_level1_is_constant_one(self):
        xs = np.array([0.0, 0.12, 0.5, 0.99, 1.0])
        assert np.array_equal(delta_table(NodeFamily.MODIFIED, 1, xs), np.ones((5, 1)))

    def test_cgl_level2_kronecker(self):
        cols = np.eye(3)[:, delta_positions(NodeFamily.CGL, 2) - 1]
        at_nodes = delta_table(NodeFamily.CGL, 2, nodes_1d(NodeFamily.CGL, 2))[:, 1:]
        assert at_nodes == pytest.approx(cols, abs=1e-13)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_kronecker_property_all_levels(self, family):
        # the nodal basis of X^i at X^i is the identity, and the delta bases are its columns at the new nodes
        for i in range(1, 9):
            nodes = nodes_1d(family, i)
            eye = np.eye(len(nodes))
            assert x_basis_matrix(family, i, nodes) == pytest.approx(eye, abs=1e-11)
            cols = eye[:, delta_positions(family, i) - 1]
            assert delta_table(family, i, nodes)[:, -cols.shape[1]:] == pytest.approx(cols, abs=1e-11)

    def test_outside_support_is_zero(self):
        # the first level-4 hat, column N_3 = 5, sits at 0.125 with support [0, 0.25]
        assert delta_table(NodeFamily.CLASSIC, 4, np.array([0.6]))[0, 5] == 0.0

    def test_partition_of_unity_level1(self):
        xs = np.linspace(0, 1, 17)
        assert delta_table(NodeFamily.CLASSIC, 1, xs).sum(axis=1) == pytest.approx(np.ones(17), abs=1e-14)
        assert np.array_equal(delta_table(NodeFamily.MODIFIED, 1, xs), np.ones((17, 1)))


class TestDeltaTable:
    """The one-pass table against the per-level reference, for every family and ref level 1..9."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_random_points_agree_with_the_reference(self, family):
        rng = np.random.default_rng(17)
        for R in REF_LEVELS:
            x = rng.uniform(0, 1, 400)
            got, want = delta_table(family, R, x), reference_table(family, R, x)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            if family is not NodeFamily.CLASSIC:
                assert np.all(got[:, 0] == 1.0)  # level 1's single node
            if family is not NodeFamily.CGL:
                assert np.array_equal(got, want)  # slope 2^(l-1) scales as exactly as halfwidth 2^-(l-1)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_levels_with_a_node_at_x_are_bit_exact(self, family):
        # table nodes, 0, 0.5, 1, and points within _NODE_HIT of a node
        for R in REF_LEVELS:
            nodes = table_nodes(family, R)
            x = np.clip(np.concatenate([nodes, [0.0, 0.5, 1.0], nodes + 1e-15, nodes - 1e-15]), 0.0, 1.0)
            got, want = delta_table(family, R, x), reference_table(family, R, x)
            on_node = np.stack([(np.abs(x[:, None] - nodes_1d(family, lvl)) < _NODE_HIT).any(axis=1)
                                for lvl in range(1, R + 1)], axis=1)[:, column_levels(family, R) - 1]
            if family is NodeFamily.CGL:
                # such a level is its node's indicator; the other columns come from each level's
                # barycentric sum, which the reference adds up in another order
                assert np.array_equal(got[on_node], want[on_node])
                assert np.all((got[on_node] == 0.0) | (got[on_node] == 1.0))
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            else:
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_block_with_some_axes_on_nodes(self, family):
        g = build_grid(family, 4, 9)
        rng = np.random.default_rng(23)
        it = fit_hierarchical(g, np.stack([np.sin(g.ref @ rng.uniform(0.5, 2.0, 4)), g.ref.prod(axis=1)], axis=1))
        pts = rng.uniform(0, 1, (60, 4))
        on = (np.arange(60)[:, None] + np.arange(4)) % 3 == 0  # one or two of the four axes of each row
        pts[on] = rng.choice(table_nodes(family, g.ref_level), on.sum())
        prod = np.prod([reference_table(family, g.ref_level, pts[:, k])[:, g.cols[:, k]] for k in range(4)], axis=0)
        want = prod @ it.surpluses
        assert np.abs(np.asarray(it.eval(pts)) - want).max() <= 1e-12 * np.abs(want).max()

    def test_on_node_levels_do_not_spread_into_the_block(self):
        # at x = 0.5 level 1's barycentric sum is over the hit node alone, at 0 and 1 the hit node has
        # weight +-1/2, and near is within _NODE_HIT of a level-R node: none may leave a NaN, an
        # inf or a floating-point warning in the other levels or the other axes of the block
        g = build_grid(NodeFamily.CGL, 4, 9)  # 1,105 points: 29 query rows per block
        R = g.ref_level
        rng = np.random.default_rng(29)
        it = fit_hierarchical(g, np.stack([np.sin(g.ref @ rng.uniform(0.5, 2.0, 4)), g.ref.prod(axis=1)], axis=1))
        near = table_nodes(NodeFamily.CGL, R)[-1] + 0.5 * _NODE_HIT
        pts = rng.uniform(0, 1, (20, 4))
        pts[0] = 0.5
        on = (np.arange(1, 20)[:, None] + np.arange(4)) % 2 == 0
        pts[1:][on] = np.resize([0.5, 0.0, 1.0, near], on.sum())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = np.asarray(it.eval(pts))
            table = _delta_table(NodeFamily.CGL, R, pts.T).reshape(4, -1, len(pts))
        assert np.all(np.isfinite(got)) and np.all(np.isfinite(table))
        levels = column_levels(NodeFamily.CGL, R) - 1
        ref = [reference_table(NodeFamily.CGL, R, pts[:, k]) for k in range(4)]
        for k in range(4):
            hit = np.abs(pts[:, k, None] - table_nodes(NodeFamily.CGL, R)) < _NODE_HIT
            on_node = np.stack([hit[:, : node_count(NodeFamily.CGL, lvl)].any(axis=1)
                                for lvl in range(1, R + 1)], axis=1)[:, levels]
            assert np.array_equal(table[k].T[on_node], hit[on_node])
            assert np.array_equal(ref[k][on_node], hit[on_node])
        want = np.prod([ref[k][:, g.cols[:, k]] for k in range(4)], axis=0) @ it.surpluses
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestHierarchizationMatrix:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_delta_matrix_at_the_table_nodes_is_unit_lower_triangular(self, family):
        for R in REF_LEVELS:
            m = delta_table(family, R, table_nodes(family, R))
            assert np.all(np.diag(m) == 1.0)
            assert np.all(np.triu(m, 1) == 0.0)

    @pytest.mark.parametrize("family, d, q", [
        (NodeFamily.CGL, 6, 10),
        (NodeFamily.CGL, 1, 12),
        (NodeFamily.CLASSIC, 1, 12),
        (NodeFamily.MODIFIED, 2, 11),
    ])
    def test_surpluses_equal_those_of_the_reference_matrix(self, family, d, q):
        g = build_grid(family, d, q)
        z = g.ref @ np.linspace(0.5, 1.7, d)
        f = np.stack([np.sin(2.0 * z), np.exp(-(g.ref**2).sum(axis=1))], axis=1)
        nodes = table_nodes(g.family, g.ref_level)
        inv = solve_triangular(reference_table(g.family, g.ref_level, nodes), np.eye(len(nodes)),
                               lower=True, unit_diagonal=True)
        want = _hierarchize(inv, _poles(g), f)
        got = fit_hierarchical(g, f).surpluses
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


class TestHierarchicalFit:
    def test_constant_on_modified_grid(self):
        g = build_grid(NodeFamily.MODIFIED, 2, 5)
        it = fit_hierarchical(g, np.ones(len(g)))
        assert it.surpluses[0] == 1.0
        assert np.abs(it.surpluses[1:]).max() == 0.0

    def test_linear_on_classic_1d(self):
        g = build_grid(NodeFamily.CLASSIC, 1, 5)
        it = fit_hierarchical(g, 0.25 + 0.5 * g.ref[:, 0])
        deep = g.levels[:, 0] >= 2
        assert np.abs(it.surpluses[deep]).max() < 1e-14

    def test_quadratic_surplus_hand_value(self):
        g = build_grid(NodeFamily.CLASSIC, 1, 3)
        it = fit_hierarchical(g, g.ref[:, 0] ** 2)
        at_half = int(np.nonzero(np.abs(g.ref[:, 0] - 0.5) < 1e-14)[0][0])
        assert it.surpluses[at_half] == pytest.approx(-0.25, abs=1e-15)

    def test_root_surplus_equals_sample(self):
        for family in (NodeFamily.MODIFIED, NodeFamily.CGL):
            g = build_grid(family, 3, 6)
            rng = np.random.default_rng(4)
            f = rng.uniform(-1, 1, len(g))
            it = fit_hierarchical(g, f)
            assert it.surpluses[0] == f[0]

    def test_non_finite_sample_raises_with_ids(self):
        g = build_grid(NodeFamily.CLASSIC, 2, 4)
        vals = np.zeros(len(g))
        vals[7] = np.nan
        with pytest.raises(FitError, match="7"):
            fit_hierarchical(g, vals)

    def test_non_finite_sample_the_mask_keeps_raises_with_ids(self):
        g = build_grid(NodeFamily.CGL, 3, 7)
        vals = np.zeros(len(g))
        mask = np.ones(len(g), dtype=bool)
        mask[5] = False
        vals[5] = np.nan  # masked: ignored
        vals[11] = np.nan
        with pytest.raises(FitError, match=r"\[11\]"):
            fit_hierarchical(g, vals, mask=mask)

    def test_wrong_length_raises(self):
        g = build_grid(NodeFamily.CLASSIC, 2, 4)
        with pytest.raises(FitError):
            fit_hierarchical(g, np.zeros(3))

    def test_masked_points_get_zero_surplus_and_the_rest_interpolate(self):
        g = build_grid(NodeFamily.CGL, 4, 9)
        level_sum = g.levels.sum(axis=1)
        rng = np.random.default_rng(9)

        def finer(p, k):
            # a point one level finer on axis k at p's coordinates on the other axes
            levels = g.levels[p] + np.eye(4, dtype=int)[k]
            rest = np.arange(4) != k
            same = (g.levels == levels).all(axis=1) & (g.ref[:, rest] == g.ref[p, rest]).all(axis=1)
            return int(np.flatnonzero(same)[0])

        # a chain of masked points, each below the next, so the |i| order of the passes matters
        p7 = int(rng.choice(np.flatnonzero(level_sum == 7)))
        p8 = finer(p7, 0)
        p9 = finer(p8, 1)
        others = [int(rng.choice(np.flatnonzero(level_sum == l))) for l in (8, 9)]
        masked = np.unique([p7, p8, p9, *others])
        assert len(masked) == 5
        mask = np.ones(len(g), dtype=bool)
        mask[masked] = False
        z = g.ref @ np.array([0.7, 1.3, 0.9, 1.6])
        f = np.stack([np.sin(2.0 * z), np.exp(-(g.ref**2).sum(axis=1))], axis=1)
        f[masked] = np.nan
        it = fit_hierarchical(g, f, mask=mask)
        assert np.all(it.surpluses[masked] == 0.0)
        assert np.all(np.isfinite(it.surpluses))
        # downward closed: each unmasked surplus corrects the interpolant to its own sample
        assert np.abs(np.asarray(it.eval(g.ref))[mask] - f[mask]).max() <= 1e-12


class TestEval:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_reproduces_samples_at_grid_points(self, family):
        g = build_grid(family, 2, 7)
        rng = np.random.default_rng(11)
        f = np.cos(3.0 * g.ref[:, 0]) * (1.0 + g.ref[:, 1] ** 2) + rng.normal(0, 0.1, len(g))
        it = fit_hierarchical(g, f)
        tol = 1e-10 if family is not NodeFamily.CGL else 1e-8
        assert np.abs(np.asarray(it.eval(g.ref)) - f).max() < tol

    def test_constant_everywhere(self):
        for family in (NodeFamily.MODIFIED, NodeFamily.CGL):
            g = build_grid(family, 3, 6)
            it = fit_hierarchical(g, np.full(len(g), 2.5))
            rng = np.random.default_rng(0)
            pts = rng.uniform(0, 1, (40, 3))
            assert np.abs(np.asarray(it.eval(pts)) - 2.5).max() < 1e-12

    def test_linear_reproduction_value(self):
        g = build_grid(NodeFamily.CLASSIC, 2, 4)
        it = fit_hierarchical(g, g.ref[:, 0] + g.ref[:, 1])
        assert it.eval(np.array([0.3, 0.7])) == pytest.approx(1.0, abs=1e-12)

    def test_vector_fields_componentwise(self):
        g = build_grid(NodeFamily.CGL, 2, 6)
        f = np.stack([np.sin(g.ref[:, 0]), np.cos(g.ref[:, 1]), g.ref[:, 0] * g.ref[:, 1]], axis=1)
        it = fit_hierarchical(g, f)
        singles = [fit_hierarchical(g, f[:, k]) for k in range(3)]
        pts = np.random.default_rng(1).uniform(0, 1, (25, 2))
        got = np.asarray(it.eval(pts))
        for k in range(3):
            assert np.abs(got[:, k] - np.asarray(singles[k].eval(pts))).max() < 1e-13

    @pytest.mark.parametrize("family", FAMILIES)
    def test_batch_equals_single_queries_across_blocks(self, family):
        # CGL's 1,457 points: the kernel evaluates 22 query rows per block, so 120 rows span six blocks
        g = build_grid(family, 6, 10)
        z = g.ref @ np.linspace(0.5, 1.7, 6)
        it = fit_hierarchical(g, np.stack([np.sin(2.0 * z), np.exp(-(g.ref**2).sum(axis=1))], axis=1))
        pts = edge_points(g, np.random.default_rng(8), 20)
        batch = np.asarray(it.eval(pts))
        singles = np.array([it.eval(p) for p in pts])
        assert np.abs(batch - singles).max() <= 1e-12
        assert it.eval(np.empty((0, 6))).shape == (0, 2)

    def test_out_of_cube_raises(self):
        g = build_grid(NodeFamily.CLASSIC, 2, 4)
        it = fit_hierarchical(g, np.zeros(len(g)))
        with pytest.raises(OutOfDomainError):
            it.eval(np.array([0.5, 1.2]))

    def test_nan_point_raises(self):
        g = build_grid(NodeFamily.CLASSIC, 2, 4)
        it = fit_hierarchical(g, np.zeros(len(g)))
        with pytest.raises(OutOfDomainError):
            it.eval([float("nan"), 0.5])


class TestKernel:
    """The evaluation kernel, which gathers only each point's non-constant factors."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("d, q", [(1, 8), (2, 8), (4, 8), (6, 9)])
    def test_matches_the_combination_formula(self, family, d, q):
        g = build_grid(family, d, q)
        rng = np.random.default_rng(31 + d)
        z = g.ref @ np.linspace(0.5, 1.7, d)
        f = np.stack([np.sin(2.0 * z) + 1.5, np.exp(-(g.ref**2).sum(axis=1))], axis=1)
        it = fit_hierarchical(g, f)
        pts = edge_points(g, rng, 10)
        want = np.asarray(eval_combination(g, f, pts))
        got = np.asarray(it.eval(pts))
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("d, q", [(1, 9), (3, 8), (6, 10)])
    def test_matches_the_product_of_every_factor(self, family, d, q):
        g = build_grid(family, d, q)
        rng = np.random.default_rng(41 + d)
        it = fit_hierarchical(g, rng.uniform(-1.0, 1.0, (len(g), 3)))
        pts = edge_points(g, rng, 20)
        want = full_product_eval(it, pts)
        assert np.abs(np.asarray(it.eval(pts)) - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("family", [NodeFamily.MODIFIED, NodeFamily.CGL])
    def test_level1_column_is_exactly_one(self, family):
        # the kernel skips these factors, so they must be exactly 1.0, not close to it
        x = np.random.default_rng(12).uniform(0.0, 1.0, 10_000)
        step = np.array([-1.0, -1.0 + 1e-3, -0.5, 0.5, 1.0 - 1e-3, 1.0, 1.0 + 1e-3])
        # within, at and just beyond _NODE_HIT of every node of the table, the centre included
        edge = (table_nodes(family, 9)[:, None] + _NODE_HIT * step).ravel()
        edge = np.clip(np.concatenate([edge, [np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0)]]), 0.0, 1.0)
        for R in REF_LEVELS:
            assert np.all(delta_table(family, R, x)[:, 0] == 1.0)
            assert np.all(delta_table(family, R, edge)[:, 0] == 1.0)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("d, q", [(1, 1), (1, 6), (3, 3), (3, 8), (6, 9)])
    def test_layout_holds_each_points_non_constant_columns(self, family, d, q):
        g = build_grid(family, d, q)
        layout = g.factors
        width = len(table_nodes(family, g.ref_level))
        assert np.array_equal(np.sort(layout.order), np.arange(len(g)))
        sizes = [len(e) for e in layout.entries]
        assert sizes[0] == len(g) and sizes == sorted(sizes, reverse=True)
        constant = family is not NodeFamily.CLASSIC
        for rank, p in enumerate(layout.order):
            got = [(int(e[rank]) // width, int(e[rank]) % width) for e in layout.entries if rank < len(e)]
            want = [(k, int(c)) for k, c in enumerate(g.cols[p]) if c != 0 or not constant] or [(0, 0)]
            assert got == want
        # within a group the ids ascend
        count = np.array([sum(rank < s for s in sizes) for rank in range(len(g))])
        for m in np.unique(count):
            assert np.all(np.diff(layout.order[count == m]) > 0)

    def test_build_grid_does_not_build_the_layout(self):
        g = build_grid(NodeFamily.CGL, 4, 7)
        assert "factors" not in vars(g)
        it = fit_hierarchical(g, np.ones(len(g)))
        assert "factors" not in vars(g)
        assert it.eval(np.full(4, 0.3)) == pytest.approx(1.0, abs=1e-14)
        assert "factors" in vars(g)


class TestCombination:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_agrees_with_hierarchical_on_smooth_functions(self, family):
        rng = np.random.default_rng(21)
        for d in (1, 2, 3):
            q = d + 6
            g = build_grid(family, d, q)
            z = g.ref @ rng.uniform(0.5, 2.0, d)
            f = np.sin(2.0 * z) + 0.3 * np.cos(3.0 * g.ref[:, 0])
            it = fit_hierarchical(g, f)
            pts = rng.uniform(0, 1, (100, d))
            a = np.asarray(it.eval(pts))
            b = np.asarray(eval_combination(g, f, pts))
            scale = max(1.0, np.abs(a).max())
            assert np.abs(a - b).max() / scale < 1e-9

    def test_seven_dimensions(self):
        g = build_grid(NodeFamily.CGL, 7, 9)
        rng = np.random.default_rng(5)
        f = np.stack([np.exp(-(g.ref**2).sum(axis=1)), np.cos(g.ref @ rng.uniform(0.5, 2.0, 7))], axis=1)
        it = fit_hierarchical(g, f)
        assert np.abs(np.asarray(it.eval(g.ref)) - f).max() <= 1e-10
        pts = rng.uniform(0, 1, (50, 7))
        a = np.asarray(it.eval(pts))
        b = np.asarray(eval_combination(g, f, pts))
        assert np.abs(a - b).max() < 1e-9

    def test_constant_telescopes(self):
        g = build_grid(NodeFamily.CGL, 3, 7)
        pts = np.random.default_rng(2).uniform(0, 1, (30, 3))
        got = np.asarray(eval_combination(g, np.ones(len(g)), pts))
        assert np.abs(got - 1.0).max() < 1e-12

    def test_1d_reduces_to_single_level(self):
        q = 5
        g = build_grid(NodeFamily.CGL, 1, q)
        f = np.exp(g.ref[:, 0])
        pts = np.linspace(0, 1, 41)[:, None]
        got = np.asarray(eval_combination(g, f, pts))
        # direct Lagrange interpolation on X^q
        nodes = nodes_1d(NodeFamily.CGL, q)
        order = np.argsort(g.ref[:, 0])
        vals = f[order]
        direct = np.array([
            sum(v * np.prod([(x - nodes[m]) / (nodes[k] - nodes[m]) for m in range(len(nodes)) if m != k])
                for k, v in enumerate(vals))
            for x in pts[:, 0]
        ])
        assert np.abs(got - direct).max() < 1e-9

    def test_mode_reproduces_grid_samples(self):
        g = build_grid(NodeFamily.MODIFIED, 2, 6)
        f = np.sin(5 * g.ref[:, 0]) + g.ref[:, 1]
        assert np.abs(np.asarray(eval_combination(g, f, g.ref)) - f).max() < 1e-10


class TestLebesgue:
    def test_hat_families_exactly_one(self):
        for i in range(1, 9):
            assert lebesgue_constant(NodeFamily.CLASSIC, i) == 1.0
            assert lebesgue_constant(NodeFamily.MODIFIED, i) == 1.0

    def test_cgl_level1_is_one(self):
        assert lebesgue_constant(NodeFamily.CGL, 1) == 1.0

    def test_cgl_below_log_bound(self):
        for i in range(2, 8):
            assert lebesgue_constant(NodeFamily.CGL, i) <= lebesgue_bound(i)

    def test_cgl_level2_known_value(self):
        # three Chebyshev-Lobatto points: Lebesgue constant 1.25
        assert lebesgue_constant(NodeFamily.CGL, 2) == pytest.approx(1.25, rel=1e-6)

    def test_monotone_in_level(self):
        vals = [lebesgue_constant(NodeFamily.CGL, i) for i in range(1, 8)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("i, pinned", enumerate([1.0, 1.250000000125, 1.798761803502431, 2.2747307664612126,
                                                     2.7247086774885587, 3.1681543436656034, 3.609968926801448,
                                                     4.051375955087062], start=1))
    def test_cgl_pinned_and_not_below_the_full_interval_maximum(self, i, pinned):
        value = lebesgue_constant(NodeFamily.CGL, i)
        assert value == pytest.approx(pinned, rel=1e-13, abs=0.0)
        if 2 <= i <= 7:
            # the routine samples [0, 0.5] only; sample every interval of [0, 1] to check the mirror
            nodes = nodes_1d(NodeFamily.CGL, i)
            xs = np.linspace(nodes[:-1], nodes[1:], 1001, axis=1).ravel()
            assert value >= np.abs(x_basis_matrix(NodeFamily.CGL, i, xs)).sum(axis=1).max()


class TestPolynomialExactness:
    def test_cgl_exact_for_total_degree_two(self):
        rng = np.random.default_rng(3)
        for d in (1, 2, 3):
            q = d + 2
            g = build_grid(NodeFamily.CGL, d, q)
            coef = rng.uniform(-1, 1, (d, d))
            coef = coef + coef.T
            lin = rng.uniform(-1, 1, d)

            def poly(x):
                return np.einsum("pi,ij,pj->p", x, coef, x) + x @ lin + 0.7

            it = fit_hierarchical(g, poly(g.ref))
            pts = rng.uniform(0, 1, (60, d))
            assert np.abs(np.asarray(it.eval(pts)) - poly(pts)).max() < 1e-9
