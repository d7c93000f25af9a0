import numpy as np
import pytest

from hjbsparse.exceptions import FitError, OutOfDomainError
from hjbsparse.grid import NodeFamily, build_grid, delta_nodes, nodes_1d
from hjbsparse.interp import (
    basis_node,
    delta_position,
    eval_basis,
    eval_combination,
    eval_nodal_basis,
    fit_hierarchical,
    lebesgue_bound,
    lebesgue_constant,
    make_combination,
)

FAMILIES = list(NodeFamily)


class TestBasis:
    def test_classic_level1_published_labels(self):
        assert eval_basis(NodeFamily.CLASSIC, 1, 1, 0.3) == pytest.approx(0.3, abs=1e-14)
        assert eval_basis(NodeFamily.CLASSIC, 1, 2, 0.3) == pytest.approx(0.7, abs=1e-14)

    def test_modified_level1_is_constant_one(self):
        for x in (0.0, 0.12, 0.5, 0.99, 1.0):
            assert eval_basis(NodeFamily.MODIFIED, 1, 1, x) == 1.0

    def test_cgl_level2_kronecker(self):
        for j in (1, 2):
            own = basis_node(NodeFamily.CGL, 2, j)
            assert eval_basis(NodeFamily.CGL, 2, j, own) == pytest.approx(1.0, abs=1e-13)
            for other in nodes_1d(NodeFamily.CGL, 2):
                if abs(other - own) > 1e-13:
                    assert eval_basis(NodeFamily.CGL, 2, j, float(other)) == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_kronecker_property_all_levels(self, family):
        for i in range(1, 9):
            for j in range(1, len(delta_nodes(family, i)) + 1):
                own = basis_node(family, i, j)
                assert eval_basis(family, i, j, own) == pytest.approx(1.0, abs=1e-11)
                for other in nodes_1d(family, i):
                    if abs(other - own) > 1e-13:
                        assert abs(eval_basis(family, i, j, float(other))) < 1e-11

    def test_outside_support_is_zero(self):
        # level-4 hat at 0.125 has support [0, 0.25]
        assert eval_basis(NodeFamily.CLASSIC, 4, 1, 0.6) == 0.0

    def test_partition_of_unity_level1(self):
        for x in np.linspace(0, 1, 17):
            s = eval_basis(NodeFamily.CLASSIC, 1, 1, float(x)) + eval_basis(NodeFamily.CLASSIC, 1, 2, float(x))
            assert s == pytest.approx(1.0, abs=1e-14)
            assert eval_basis(NodeFamily.MODIFIED, 1, 1, float(x)) == 1.0

    @pytest.mark.parametrize("family", FAMILIES)
    def test_delta_and_nodal_bases_agree(self, family):
        # a^i_j equals u^i_k once k is the in-level position of the j-th new node
        xs = np.linspace(0, 1, 23)
        for i in range(2, 7):
            for j in range(1, len(delta_nodes(family, i)) + 1):
                k = delta_position(family, i, j)
                for x in xs:
                    assert eval_basis(family, i, j, float(x)) == pytest.approx(
                        eval_nodal_basis(family, i, k, float(x)), abs=1e-12
                    )

    def test_rejects_out_of_range(self):
        with pytest.raises(OutOfDomainError):
            eval_basis(NodeFamily.CLASSIC, 2, 1, 1.5)


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

    def test_wrong_length_raises(self):
        g = build_grid(NodeFamily.CLASSIC, 2, 4)
        with pytest.raises(FitError):
            fit_hierarchical(g, np.zeros(3))


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

    def test_out_of_cube_raises(self):
        g = build_grid(NodeFamily.CLASSIC, 2, 4)
        it = fit_hierarchical(g, np.zeros(len(g)))
        with pytest.raises(OutOfDomainError):
            it.eval(np.array([0.5, 1.2]))


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
        it = make_combination(g, f)
        assert np.abs(np.asarray(it.eval(g.ref)) - f).max() < 1e-10


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
