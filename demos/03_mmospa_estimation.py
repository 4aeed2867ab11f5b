"""MMOSPA estimation for two indistinguishable standard-normal targets.

The posterior mean collapses both targets onto the origin (the labeled
estimate is useless when labels carry no information).  The label-free
optimum instead splits the estimates to the expected order statistics
-1/sqrt(pi) and +1/sqrt(pi), and the alternating assign/average descent
finds it.  The scalar sort oracle provides an independent exact reference.
"""

import math

import numpy as np

from mospa import (
    GaussianMixture,
    MmospaConfig,
    StackedState,
    gm_sample,
    mmospa_estimate,
    mospa_mc,
    scalar_sort_oracle,
)


def main():
    mixture = GaussianMixture.from_components(2, 1, [(1.0, [0.0, 0.0], np.eye(2))])
    samples = gm_sample(mixture, seed=4, m=200_000)

    result = mmospa_estimate(samples, config=MmospaConfig(seed=1))
    oracle = scalar_sort_oracle(samples)
    target = 1.0 / math.sqrt(math.pi)

    print("descent trace:", [round(v, 6) for v in result.descent_trace])
    print(f"estimate:        {result.estimate.data}")
    print(f"sort oracle:     {oracle.data}")
    print(f"analytic target: [{-target:.6f} {target:.6f}]")
    print(f"iterations={result.iterations} restarts={result.restarts_used} "
          f"converged={result.converged}")
    # a restart that reaches an estimate an earlier restart swept, and would
    # descend as that one did from there, takes its outcome without sweeping
    merged = sum(o.merged_into is not None for o in result.restart_outcomes)
    print(f"restarts that merged into an earlier one: {merged} of {result.restarts_used}")

    posterior_mean = StackedState(2, 1, [0.0, 0.0])
    mse = mospa_mc(samples, posterior_mean)
    print(f"objective at the posterior mean: {mse.value:.5f}")
    print(f"objective at the MMOSPA optimum: {result.empirical_mospa:.5f} "
          f"(analytic 2 - 2/pi = {2 - 2 / math.pi:.5f})")


if __name__ == "__main__":
    main()
