"""Exact finite-sample answers for the package's studies, from ``scipy.stats`` only.

On an iid exponential sample of size n with rate theta the MLE is ``n / S``
and the observed information at it is ``n / theta_hat**2``, so the Wald
pivot is ``n (1 - G/n)**2`` with ``G = theta S ~ Gamma(n, 1)``, whatever
theta is.  The pivot is under ``kappa`` exactly where ``G`` lies within
``n r`` of ``n``, ``r = sqrt(kappa / n)``.
"""

import math

from scipy import stats


def exponential_wald_coverage(n: int, level: float) -> float:
    """The exact coverage of the level-``level`` Wald region (observed
    information, chi-square quantile) on an iid exponential sample of size n."""
    kappa = stats.chi2.ppf(level, 1)
    r = math.sqrt(kappa / n)
    gamma = stats.gamma(n)
    return float(gamma.cdf(n * (1.0 + r)) - gamma.cdf(max(0.0, n * (1.0 - r))))
