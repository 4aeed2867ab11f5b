"""The central identity: mean label-free squared error equals the squared
2-Wasserstein distance to a discrete measure built from the estimate.

The discrete measure puts, on each permutation of the estimate, the
probability mass of the region where that permutation is the optimal
alignment.  On a shared sample set the identity holds exactly; on disjoint
sample sets it holds statistically.
"""

import numpy as np

from mospa import (
    GaussianMixture,
    Scenario,
    StackedState,
    build_region_measure,
    estimate_region_masses,
    gm_sample,
    mospa_mc,
    verify_mospa_wasserstein,
    w2_squared,
)


def main():
    mixture = GaussianMixture.from_components(2, 1, [
        (0.5, [-4.0, 3.0], np.eye(2)),
        (0.5, [3.0, -4.0], np.eye(2)),
    ])
    x_hat = StackedState(2, 1, [-4.0, 3.0])

    samples = gm_sample(mixture, seed=20, m=2000)
    masses = estimate_region_masses(samples, x_hat)
    print("region masses:", masses)

    nu = build_region_measure(x_hat, masses)
    print("atoms of the induced measure:\n", nu.atoms)

    mospa = mospa_mc(samples, x_hat)
    transport = w2_squared(samples, nu)
    print(f"Monte Carlo MOSPA:     {mospa.value:.12f}")
    print(f"transport cost (LP):   {transport:.12f}")
    print(f"relative difference:   {abs(mospa.value - transport) / mospa.value:.2e}")

    # packaged checks, both evaluation modes
    scenario = Scenario(2, 1, mixture, seed=20, sample_count=20000)
    for mode in ("same-sample", "independent"):
        report = verify_mospa_wasserstein(scenario, x_hat, mode=mode)
        print(f"{mode:>12} mode: |diff| = {report.abs_diff:.3e} "
              f"(tolerance {report.tolerance:.3e}) -> passed={report.passed}")


if __name__ == "__main__":
    main()
