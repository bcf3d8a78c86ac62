"""The package's Wald coverage held to an exact finite-sample answer.

No sample size goes to infinity here: on the iid exponential the Wald
pivot's law is known at every n (:mod:`oracles`), so the coverage that
``draw`` and ``fit_stack`` give is held within 3 Monte Carlo standard
errors of it, a bound fixed before the first run.
"""

import numpy as np
import pytest
from oracles import exponential_wald_coverage

from quadlik import ExponentialRateIid, chisq_upper_quantile
from quadlik.inference import fit_stack
from quadlik.parallel import draw

LEVEL = 0.95
REPS = 100_000
THETA = 2.0


@pytest.mark.parametrize("n, exact", [(2, 0.9511), (5, 0.9562), (10, 0.9549), (50, 0.9512)])
def test_oracle_values(n, exact):
    assert round(exponential_wald_coverage(n, LEVEL), 4) == exact


@pytest.mark.parametrize("n", [2, 5, 10, 50])
def test_exponential_wald_coverage_is_exact(n):
    model = ExponentialRateIid(n)
    thetas, infos, _, holds, _ = fit_stack(model, draw(model, [[THETA]], REPS, 41, [("wald-oracle", n)]))
    assert holds.all()
    pivots = (thetas[:, 0] - THETA) ** 2 * infos[:, 0, 0]
    coverage = float(np.mean(pivots < chisq_upper_quantile(1, 1.0 - LEVEL)))
    exact = exponential_wald_coverage(n, LEVEL)
    assert abs(coverage - exact) <= 3.0 * np.sqrt(exact * (1.0 - exact) / REPS)
