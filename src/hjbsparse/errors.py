"""Error analysis: worst-case interpolation amplification bounds, Monte-Carlo
estimates of the per-point-error functional, and validation against
independent tight-tolerance BVP solves.

The worst-case bound multiplies the per-point solver error eps by

    coefficient = sum_{l=q-d+1}^{q} C(d-1, q-l) * S_l,
    S_l = sum over |i| = l of Lambda_{i_1} * ... * Lambda_{i_d},

where Lambda_i is the level-i Lebesgue constant.  Hat bases give Lambda = 1
exactly; for CGL the primary path uses the logarithmic bound at levels >= 2
(and the exact value 1 at the single-node level).  The alternative takes
every level's constant from ``interp.lebesgue_constant``, which samples the
Lebesgue function on the lower half of [0, 1] (it is symmetric about 0.5),
re-samples around the best sample twice and inflates the maximum by 1e-10.

The Monte-Carlo estimate replaces the per-point errors by uniform [-1, 1]
draws, fits the interpolant of that error field and evaluates it at random
points; by linearity the result rescales exactly with the error magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .characteristics import ControlProblem, FeedbackLaw, map_chunks, point_args, solve_point
from .exceptions import GridSpecError, ValidationError
from .grid import NodeFamily, build_grid, level_sum_coefficients, unit_box
from .interp import fit_hierarchical, lebesgue_bound, lebesgue_constant
from .util import RNG_NAME, make_rng

_MAX_ORACLE_FAILURES = 0.05        # failed share of oracle solves that invalidates a report


@dataclass
class BoundReport:
    family: str
    d: int
    q: int
    lebesgue_mode: str
    lambdas: list[float]          # per level 1 .. q-d+1
    S: dict[int, float]           # l -> S_l for l = q-d+1 .. q
    coefficient: float


def _level_lambdas(family: NodeFamily, max_level: int, mode: str) -> list[float]:
    if mode not in ("bound", "numeric"):
        raise GridSpecError(f"unknown lebesgue mode {mode!r}; expected bound|numeric")
    return [lebesgue_bound(i) if mode == "bound" and family is NodeFamily.CGL and i >= 2
            else lebesgue_constant(family, i) for i in range(1, max_level + 1)]


def worst_case_coefficient(family: NodeFamily, d: int, q: int, lebesgue_mode: str = "bound") -> BoundReport:
    """Coefficient C with ||e_BVP||_inf < eps * C for per-point errors <= eps."""
    if q < d or d < 1:
        raise GridSpecError(f"need q >= d >= 1, got q={q}, d={d}")
    lambdas = _level_lambdas(family, q - d + 1, lebesgue_mode)
    S = level_sum_coefficients(lambdas, d, q)      # S_l = 0 below l = d: no composition of l into d parts
    coeff = sum(math.comb(d - 1, q - l) * S.get(l, 0.0) for l in range(q - d + 1, q + 1))
    return BoundReport(
        family=family.value, d=d, q=q, lebesgue_mode=lebesgue_mode,
        lambdas=[float(v) for v in lambdas],
        S={l: float(S.get(l, 0.0)) for l in range(q - d + 1, q + 1)},
        coefficient=float(coeff),
    )


@dataclass
class RateReport:
    family: str
    d: int
    q_values: list[int]
    coefficients: list[float]
    fitted_degree: float
    monotone: bool


def coefficient_growth_check(family: NodeFamily, d: int, q_values: list[int]) -> RateReport:
    """Fitted polynomial growth degree of the bound coefficient against q.

    For the hat families the coefficient grows like q^(d-1); for CGL the value
    is reported without asserting the (log N)^(2d-1) exponent (the bound uses
    Lebesgue estimates, not exact constants).
    """
    if len(q_values) < 4:
        raise GridSpecError("need at least 4 depths to fit a growth degree")
    coeffs = [worst_case_coefficient(family, d, q).coefficient for q in q_values]
    logs = np.log(np.asarray(coeffs))
    if np.ptp(logs) < 1e-12:
        degree = 0.0
    else:
        degree = float(np.polyfit(np.log(np.asarray(q_values, dtype=float)), logs, 1)[0])
    monotone = bool(np.all(np.diff(coeffs) > -1e-12))
    return RateReport(family=family.value, d=d, q_values=list(q_values),
                      coefficients=[float(c) for c in coeffs], fitted_degree=degree, monotone=monotone)


# ---------------------------------------------------------------------------
# Monte-Carlo estimate of the interpolated error functional
# ---------------------------------------------------------------------------

@dataclass
class McEbvpReport:
    family: str
    d: int
    q: int
    grid_points: int
    n_eval: int
    seed: int
    rng: str
    max_ratio: float
    mean_abs_ratio: float
    histogram_edges: list[float]
    histogram_counts: list[int]
    ratios: np.ndarray = field(repr=False, default=None)


def mc_ebvp(family: NodeFamily, d: int, q: int, n_eval: int, seed: int,
            eps_bar: np.ndarray | None = None) -> McEbvpReport:
    """Distribution of the error functional under random per-point errors.

    Per grid point one uniform [0, 1] draw is rescaled to a signed error
    sample on [-1, 1] (the per-point error model is uniform on [-eps, eps];
    the ratio e_BVP/eps is the interpolant of the rescaled field).  The
    interpolant is evaluated at n_eval uniform random points of the unit
    cube; max and histogram of the ratios are reported.  Pass eps_bar to
    evaluate it on an explicit error field instead (it is exactly linear in
    eps_bar).
    """
    if n_eval < 1:
        raise GridSpecError(f"n_eval must be >= 1, got {n_eval}")
    grid = build_grid(family, d, q, unit_box(d))
    rng = make_rng(seed)
    if eps_bar is None:
        eps_bar = 2.0 * rng.uniform(0.0, 1.0, size=len(grid)) - 1.0
    elif len(eps_bar) != len(grid):
        raise GridSpecError(f"eps_bar must have one entry per grid point ({len(grid)})")
    pts = rng.uniform(0.0, 1.0, size=(n_eval, d))
    ratios = fit_hierarchical(grid, eps_bar).eval(pts)
    counts, edges = np.histogram(ratios, bins=50)
    return McEbvpReport(
        family=family.value, d=d, q=q, grid_points=len(grid), n_eval=n_eval,
        seed=seed, rng=RNG_NAME,
        max_ratio=float(np.abs(ratios).max()),
        mean_abs_ratio=float(np.abs(ratios).mean()),
        histogram_edges=[float(e) for e in edges],
        histogram_counts=[int(c) for c in counts],
        ratios=ratios,
    )


# ---------------------------------------------------------------------------
# Validation against independent tight-tolerance solves
# ---------------------------------------------------------------------------

@dataclass
class SamplePoint:
    t: float
    x: list[float]
    oracle: float
    interpolated: float
    error: float


@dataclass
class ValidationReport:
    problem: str
    n_requested: int
    n_used: int
    n_oracle_failures: int
    tight_tol: float
    seed: int
    rng: str
    mae: float
    relative_mae: float
    max_abs_error: float
    error_variance: float
    histogram_edges: list[float]
    histogram_counts: list[int]
    samples: list[SamplePoint]


def _oracle_chunk(args):
    problem, tol, items = args
    return [solve_point(problem, t0, x0, tol).V for t0, x0 in items]   # NaN where the solve failed


def validate(problem: ControlProblem, law: FeedbackLaw, n_samples: int, tight_tol: float,
             seed: int, workers: int) -> ValidationReport:
    """Compare interpolated V with independent solves at tight_tol on random points.

    Sampling is uniform over the physical box (time axis included when the
    grid carries it).  Oracle failures are excluded and counted; more than
    5% of them invalidates the report.

    Relative error per sample is |err| / max(|oracle|, 1e-12) and its mean is
    reported (the floor avoids blowup where the value crosses zero).
    """
    if n_samples < 1:
        raise ValidationError(f"n_samples must be >= 1, got {n_samples}")
    rng = make_rng(seed)
    pts = law.grid.domain.sample(rng, n_samples)
    items = point_args(problem, pts)
    v_hat = law.value.eval(law.grid.domain.to_ref(pts))
    oracle = np.array(map_chunks(_oracle_chunk, problem, tight_tol, items, workers))
    ok = np.isfinite(oracle)
    n_fail = int((~ok).sum())
    if n_fail > _MAX_ORACLE_FAILURES * n_samples:
        raise ValidationError(f"{n_fail}/{n_samples} oracle solves failed")

    err = np.asarray(v_hat)[ok] - oracle[ok]
    abs_err = np.abs(err)
    rel = abs_err / np.maximum(np.abs(oracle[ok]), 1e-12)
    m = float(abs_err.max()) if len(err) else 0.0
    counts, edges = np.histogram(err, bins=50, range=(-m, m) if m > 0 else (-1e-300, 1e-300))
    samples = [
        SamplePoint(t=float(items[i][0]), x=[float(v) for v in items[i][1]],
                    oracle=float(oracle[i]), interpolated=float(np.asarray(v_hat)[i]),
                    error=float(np.asarray(v_hat)[i] - oracle[i]))
        for i in np.nonzero(ok)[0]
    ]
    return ValidationReport(
        problem=problem.name, n_requested=n_samples, n_used=int(ok.sum()),
        n_oracle_failures=n_fail, tight_tol=tight_tol, seed=seed, rng=RNG_NAME,
        mae=float(abs_err.mean()), relative_mae=float(rel.mean()),
        max_abs_error=m, error_variance=float(err.var()),
        histogram_edges=[float(e) for e in edges], histogram_counts=[int(c) for c in counts],
        samples=samples,
    )
