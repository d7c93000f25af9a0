import math
from itertools import product

import numpy as np
import pytest
from combination_oracle import eval_combination

import hjbsparse.errors as errmod
from hjbsparse.characteristics import CharacteristicRecord
from hjbsparse.errors import (
    coefficient_growth_check,
    mc_ebvp,
    worst_case_coefficient,
    validate,
)
from hjbsparse.exceptions import GridSpecError, ValidationError
from hjbsparse.grid import NodeFamily, build_grid, level_sum_coefficients
from hjbsparse.interp import lebesgue_bound, lebesgue_constant
from hjbsparse.util import make_rng


def closed_form_hat_coefficient(d, q):
    # with Lambda = 1 the coefficient is sum_l C(d-1, q-l) * C(l-1, d-1)
    return sum(math.comb(d - 1, q - l) * math.comb(l - 1, d - 1) for l in range(q - d + 1, q + 1))


class TestWorstCaseCoefficient:
    def test_hand_value_classic_d2_q3(self):
        rep = worst_case_coefficient(NodeFamily.CLASSIC, 2, 3)
        assert rep.S[2] == 1.0 and rep.S[3] == 2.0
        assert rep.coefficient == 3.0

    def test_closed_form_cross_check_exact(self):
        for d in range(1, 5):
            for q in range(d, 13):
                rep = worst_case_coefficient(NodeFamily.CLASSIC, d, q)
                assert rep.coefficient == closed_form_hat_coefficient(d, q)

    def test_one_dimensional_reduces_to_lebesgue(self):
        for q in (1, 3, 5):
            assert worst_case_coefficient(NodeFamily.CLASSIC, 1, q).coefficient == 1.0
        q = 4
        rep = worst_case_coefficient(NodeFamily.CGL, 1, q, lebesgue_mode="numeric")
        assert rep.coefficient == pytest.approx(lebesgue_constant(NodeFamily.CGL, q), rel=1e-12)

    def test_cgl_paper_scale_value(self):
        rep = worst_case_coefficient(NodeFamily.CGL, 6, 13)
        assert 3.66e4 * 0.95 <= rep.coefficient <= 3.66e4 * 1.05

    @pytest.mark.parametrize("family", list(NodeFamily))
    def test_unknown_lebesgue_mode_rejected_for_every_family(self, family):
        with pytest.raises(GridSpecError, match="unknown lebesgue mode"):
            worst_case_coefficient(family, 2, 4, lebesgue_mode="foo")

    def test_numeric_mode_below_bound_mode(self):
        b = worst_case_coefficient(NodeFamily.CGL, 4, 10, "bound").coefficient
        n = worst_case_coefficient(NodeFamily.CGL, 4, 10, "numeric").coefficient
        assert n < b

    def test_s_values_match_brute_force(self):
        lambdas = [1.0] + [lebesgue_bound(i) for i in range(2, 13)]
        for d in (2, 3, 4):
            got = level_sum_coefficients(lambdas[: 12 - d + 1], d, 12)
            for l in range(d, 13):
                brute = 0.0
                for combo in product(range(1, l - d + 2), repeat=d):
                    if sum(combo) == l:
                        brute += float(np.prod([lambdas[i - 1] for i in combo]))
                assert got[l] == pytest.approx(brute, rel=1e-12)


class TestCorollaryRates:
    def test_classic_d2_growth_degree(self):
        rep = coefficient_growth_check(NodeFamily.CLASSIC, 2, list(range(4, 11)))
        assert 0.5 <= rep.fitted_degree <= 1.5

    def test_one_dimensional_is_flat(self):
        rep = coefficient_growth_check(NodeFamily.CLASSIC, 1, [2, 4, 6, 8])
        assert rep.fitted_degree == pytest.approx(0.0, abs=1e-9)

    def test_cgl_monotone_increasing(self):
        rep = coefficient_growth_check(NodeFamily.CGL, 2, list(range(4, 11)))
        assert rep.monotone
        assert all(b > a for a, b in zip(rep.coefficients, rep.coefficients[1:]))


class TestMcEbvp:
    def test_reproducible(self):
        a = mc_ebvp(NodeFamily.CGL, 2, 6, n_eval=150, seed=42)
        b = mc_ebvp(NodeFamily.CGL, 2, 6, n_eval=150, seed=42)
        assert np.array_equal(a.ratios, b.ratios)
        assert a.max_ratio == b.max_ratio

    def test_zero_field_gives_zero(self):
        n = mc_ebvp(NodeFamily.CGL, 2, 6, n_eval=10, seed=0).grid_points
        rep = mc_ebvp(NodeFamily.CGL, 2, 6, n_eval=10, seed=0, eps_bar=np.zeros(n))
        assert rep.max_ratio == 0.0

    def test_linearity_in_field(self):
        rng = make_rng(6)
        probe = mc_ebvp(NodeFamily.CGL, 2, 7, n_eval=5, seed=0)
        eps = rng.uniform(-1, 1, probe.grid_points)
        base = mc_ebvp(NodeFamily.CGL, 2, 7, n_eval=80, seed=3, eps_bar=eps)
        scaled = mc_ebvp(NodeFamily.CGL, 2, 7, n_eval=80, seed=3, eps_bar=2.5 * eps)
        rel = np.abs(scaled.ratios - 2.5 * base.ratios).max() / max(1e-300, np.abs(scaled.ratios).max())
        assert rel <= 1e-12

    @pytest.mark.parametrize("family, d, q", [(NodeFamily.CGL, 4, 7), (NodeFamily.CLASSIC, 3, 8),
                                              (NodeFamily.MODIFIED, 3, 8)])
    def test_ratios_equal_the_combination_formula(self, family, d, q):
        grid = build_grid(family, d, q)
        eps = make_rng(4).uniform(-1, 1, len(grid))
        rep = mc_ebvp(family, d, q, n_eval=60, seed=12, eps_bar=eps)
        # with eps_bar given, the report's rng draws only the evaluation points
        pts = make_rng(12).uniform(0.0, 1.0, size=(60, d))
        oracle = eval_combination(grid, eps, pts)
        assert np.abs(rep.ratios - oracle).max() <= 1e-12 * np.abs(oracle).max()

    def test_histogram_accounts_for_every_point(self):
        rep = mc_ebvp(NodeFamily.CGL, 2, 6, n_eval=150, seed=1)
        assert sum(rep.histogram_counts) == 150
        assert len(rep.histogram_edges) == 51


class TestValidate:
    def test_report_shape_and_consistency(self, ex3, ex3_q9, workers):
        _, _, law = ex3_q9
        rep = validate(ex3, law, n_samples=40, tight_tol=1e-8, seed=5, workers=workers)
        assert rep.n_used == 40 and rep.n_oracle_failures == 0
        assert rep.mae <= rep.max_abs_error
        assert sum(rep.histogram_counts) == rep.n_used
        assert rep.relative_mae > 0
        assert len(rep.samples) == rep.n_used

    def test_grid_point_samples_within_sweep_tolerance(self, ex3, ex3_q9):
        grid, sol, law = ex3_q9
        rng = np.random.default_rng(2)
        ids = rng.choice(len(grid), 25, replace=False)
        for pid in ids:
            t0, x0 = float(grid.phys[pid][0]), grid.phys[pid][1:]
            assert law.value_at(t0, x0) == pytest.approx(sol.records[pid].V, abs=1e-6)

    def test_sampling_uniform_over_box(self, ex3, ex3_q9):
        _, _, law = ex3_q9
        seed, n = 5, 40
        pts = law.grid.domain.sample(make_rng(seed), n)
        width = law.grid.domain.width
        sigma = width / math.sqrt(12.0) / math.sqrt(n)
        mid = law.grid.domain.center
        assert np.all(np.abs(pts.mean(axis=0) - mid) <= 3.0 * sigma)

    def test_too_many_oracle_failures_invalidate(self, ex3, ex3_q9, monkeypatch):
        _, _, law = ex3_q9
        real = errmod.solve_point

        def flaky(problem, t0, x0, tol, point_id=0):
            rec = real(problem, t0, x0, tol)
            return CharacteristicRecord(rec.point_id, float("nan"), np.full(problem.n, np.nan),
                                        "NewtonDiverged", 1.0, rec.mesh)

        monkeypatch.setattr(errmod, "solve_point", flaky)
        with pytest.raises(ValidationError):
            validate(ex3, law, n_samples=10, tight_tol=1e-8, seed=1, workers=1)
