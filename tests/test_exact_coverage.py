"""The package's Wald and calibrated coverage held to exact finite-sample answers.

No sample size goes to infinity here: on the iid exponential the Wald
pivot's law is known at every n (:mod:`oracles`), so the coverage that
``draw`` and ``fit_stack`` give is held within 3 Monte Carlo standard
errors of it, a bound fixed before the first run.  On an exactly pivotal
model (the iid exponential, a LAN model) the bootstrap's pivots and the
observed one are iid whatever the fit, so the coverage that ``calibrate``'s
quantile gives lies in a bracket known exactly (:data:`BRACKET`), held to
it widened by 3 Monte Carlo standard errors, a bound also fixed before
the first run.  On LAN a double bootstrap's outer pivot and its B2 inner
pivots are iid, so the number of inner pivots at or below the outer one is
uniform on {0, ..., B2}: held to that by a chi-square test at p >= 0.001,
a bound fixed before the first run.
"""

import numpy as np
import pytest
from oracles import exponential_wald_coverage
from scipy import stats

from quadlik import ExponentialRateIid, calibrate, chisq_upper_quantile, lan_normal_location, make_wald_pivot
from quadlik.bootstrap import INNER_LEVEL_ROWS, _bootstrap_level, _samples
from quadlik.inference import fit_stack
from quadlik.parallel import draw

LEVEL = 0.95
REPS = 100_000
THETA = 2.0

B = 300
# type 7 puts calibrate's quantile at (B - 1) LEVEL = 284.05, between order
# statistics 285 and 286 of the B pivots; the observed pivot's rank among all
# B + 1 iid pivots is uniform, so it lies under the quantile with a
# probability between 285 / (B + 1) and 286 / (B + 1)
BRACKET = (285 / (B + 1), 286 / (B + 1))
CALIBRATED_REPS = 2_000
BLOCK = 250  # data sets whose bootstrap levels are drawn and refit as one stack


@pytest.mark.parametrize("n, exact", [(2, 0.9511), (5, 0.9562), (10, 0.9549), (50, 0.9512)])
def test_oracle_values(n, exact):
    assert round(exponential_wald_coverage(n, LEVEL), 4) == exact


@pytest.mark.parametrize("n", [2, 5, 10, 50])
def test_exponential_wald_coverage_is_exact(n):
    model = ExponentialRateIid(n)
    datas = draw(model, [[THETA]], REPS, 41, [("wald-oracle", n)])
    thetas, infos, _, holds, _ = fit_stack(model, datas, model.starts(datas))
    assert holds.all()
    pivots = (thetas[:, 0] - THETA) ** 2 * infos[:, 0, 0]
    coverage = float(np.mean(pivots < chisq_upper_quantile(1, 1.0 - LEVEL)))
    exact = exponential_wald_coverage(n, LEVEL)
    assert abs(coverage - exact) <= 3.0 * np.sqrt(exact * (1.0 - exact) / REPS)


@pytest.mark.parametrize(
    "model, theta",
    [(ExponentialRateIid(2), [THETA]), (lan_normal_location([[2.0, 0.5], [0.5, 1.0]]), [0.3, -0.2])],
    ids=["exponential-n2", "lan-dim2"],
)
def test_calibrated_coverage_lies_in_the_exact_bracket(model, theta):
    pivot = make_wald_pivot(model)
    datas = draw(model, [theta], CALIBRATED_REPS, 41, [("calibrated-oracle",)])
    thetas, infos, _, holds, _ = fit_stack(model, datas, model.starts(datas))
    assert holds.all()
    observed = pivot(thetas, infos, np.repeat([theta], CALIBRATED_REPS, axis=0))
    covered = []
    for start in range(0, CALIBRATED_REPS, BLOCK):
        block = range(start, min(start + BLOCK, CALIBRATED_REPS))
        _, values = _bootstrap_level(model, thetas[block], B, pivot, 41, [("calibrated-level", i) for i in block])
        assert np.isfinite(values).all()
        quantiles = [calibrate(_samples(row, 41), LEVEL, len(theta)).calibrated_quantile for row in values]
        covered.extend(observed[block] < quantiles)
    coverage = float(np.mean(covered))
    low, high = BRACKET
    se = lambda p: np.sqrt(p * (1.0 - p) / CALIBRATED_REPS)  # noqa: E731
    assert low - 3.0 * se(low) <= coverage <= high + 3.0 * se(high), coverage


DOUBLE_B1, DOUBLE_B2 = 2_000, 19


def test_double_bootstrap_inner_ranks_are_uniform():
    # double_bootstrap's levels: its outer streams, then the inner streams of
    # each outer refit i, in its blocks of whole outer refits
    model, theta = lan_normal_location([[2.0, 0.5], [0.5, 1.0]]), np.array([0.3, -0.2])
    pivot = make_wald_pivot(model)
    thetas, values = _bootstrap_level(model, [theta], DOUBLE_B1, pivot, 41, [("bootstrap", 0)])
    outer_thetas, outer_values = thetas[0], values[0]
    inner_values = np.empty((DOUBLE_B1, DOUBLE_B2))
    per_block = INNER_LEVEL_ROWS // DOUBLE_B2
    for start in range(0, DOUBLE_B1, per_block):
        block = np.arange(start, min(start + per_block, DOUBLE_B1))
        paths = [("bootstrap", 1, i) for i in block.tolist()]
        inner_values[block] = _bootstrap_level(model, outer_thetas[block], DOUBLE_B2, pivot, 41, paths)[1]
    assert np.isfinite(outer_values).all() and np.isfinite(inner_values).all()
    ranks = np.count_nonzero(inner_values <= outer_values[:, None], axis=1)
    counts = np.bincount(ranks, minlength=DOUBLE_B2 + 1)
    assert stats.chisquare(counts).pvalue >= 0.001, counts
