"""Calibration of the samplers: their draws follow the distributions they claim, not only their pins.

A byte pin tells a changed sampler from an unchanged one, but not a right one from a wrong
one.  These tests compare fixed-seed draws with their exact laws, each by a two-sided test
whose size was chosen before the first run.  Within each test function, a Bonferroni bound
gives its family-wise false-alarm rate: the chance that a correct sampler fails some check of
the function on seeds drawn at random (D'Agostino & Stephens, *Goodness-of-Fit Techniques*,
1986).  The seeds are fixed, so each outcome is deterministic.
"""

import math

import numpy as np
import pytest
from scipy import stats

from mottbox.chamber import AtomSpecies, isotropy_experiment, sample_gas
from mottbox.mott import ScatteringContext
from mottbox.numerics import RngStream

# the README chamber: its species, context and shell
SPECIES = AtomSpecies(width=1.0, g0=0.5, g1=0.5, delta_e=0.01)
CTX = ScatteringContext.from_wavenumber(10.0, 0.01)
INNER, OUTER = 12.0, 40.0
VOLUME = 4.0 * math.pi / 3.0 * (OUTER**3 - INNER**3)


def _two_sided(cdf: float, sf: float) -> float:
    # the two-sided p-value of a statistic with lower tail cdf and upper tail sf
    return min(1.0, 2.0 * min(cdf, sf))


def _binomial_p(k: int, n: int, p: float) -> float:
    return _two_sided(stats.binom.cdf(k, n, p), stats.binom.sf(k - 1, n, p))


# 2 densities x (10 seeds + their pooled count) = 22 tests at 4e-5 each: family-wise <= 8.8e-4
EMPTY_ALPHA = 4e-5
EMPTY_SEEDS = range(1, 11)
EMPTY_CONFIGS = 2000


@pytest.mark.parametrize("density", [1e-5, 2e-6])  # lambda = 2.61 and 0.52 atoms a gas
def test_isotropy_empty_configurations_are_binomial(density):
    # a configuration has no track exactly when it has no atom, which a Poisson(lambda) count
    # gives with probability e^-lambda, independently across configurations and seeds
    p_empty = math.exp(-density * VOLUME)
    n_empty = [isotropy_experiment(EMPTY_CONFIGS, density, INNER, OUTER, SPECIES, CTX, RngStream(seed),
                                   lambda *chunk: None).n_empty for seed in EMPTY_SEEDS]
    p_values = [_binomial_p(k, EMPTY_CONFIGS, p_empty) for k in n_empty]
    p_values.append(_binomial_p(sum(n_empty), EMPTY_CONFIGS * len(n_empty), p_empty))
    assert min(p_values) > EMPTY_ALPHA, (n_empty, EMPTY_CONFIGS * p_empty, p_values)


# 5 tests at 2e-4 each: family-wise <= 1e-3
GAS_ALPHA = 2e-4
GAS_DENSITY = 3e-4  # the README track: lambda = 78.3 atoms a gas
GAS_COUNT = 500


def test_sample_gas_follows_poisson_counts_and_uniform_shell_positions():
    gases = [sample_gas(GAS_DENSITY, INNER, OUTER, SPECIES, RngStream(20261022, i)) for i in range(GAS_COUNT)]
    lam = GAS_DENSITY * VOLUME
    counts = np.array([gas.n_atoms for gas in gases])
    total = int(counts.sum())
    dispersion = float(np.sum((counts - counts.mean()) ** 2) / counts.mean())  # chi^2(n - 1) for Poisson counts
    pos = np.concatenate([gas.atoms["position"] for gas in gases])
    r = np.sqrt(np.sum(pos**2, axis=1))
    p_values = {
        "total count, Poisson(n lambda)": _two_sided(stats.poisson.cdf(total, GAS_COUNT * lam),
                                                     stats.poisson.sf(total - 1, GAS_COUNT * lam)),
        "index of dispersion": _two_sided(stats.chi2.cdf(dispersion, GAS_COUNT - 1),
                                          stats.chi2.sf(dispersion, GAS_COUNT - 1)),
        # volume-uniform in the shell: r^3 uniform on [r_in^3, r_out^3]
        "r^3": stats.kstest((r**3 - INNER**3) / (OUTER**3 - INNER**3), "uniform").pvalue,
        # isotropic directions: z / r uniform on [-1, 1], phi uniform on [0, 2 pi)
        "z / r": stats.kstest((pos[:, 2] / r + 1.0) / 2.0, "uniform").pvalue,
        "phi": stats.kstest(np.arctan2(pos[:, 1], pos[:, 0]) / (2.0 * math.pi) % 1.0, "uniform").pvalue,
    }
    assert min(p_values.values()) > GAS_ALPHA, (total, GAS_COUNT * lam, p_values)
