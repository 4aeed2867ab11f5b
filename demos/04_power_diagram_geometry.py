"""Power-diagram geometry of the MMOSPA optimum.

The permutation regions of an estimate are additively weighted Voronoi
cells with equal weights; their boundaries are hyperplanes.  This script
reproduces the two-target diagram, shifts a cell weight to show how the
boundary translates, shows the asymmetry a weighted distance introduces,
and checks cell/region agreement over a Gaussian cloud.  If matplotlib is
available, the diagram is saved as power_diagram.png.

The same cells come out of optimal transport.  Transport a sample cloud
onto the permuted estimates with any sink masses, not only the region
masses: complementary slackness sends a sample's mass only to sinks j that
minimise c_ij - v_j, where v are the optimal sink potentials.  So every
sample lies in the cell of each sink it feeds, in the power diagram with
sites at the atoms and additive weights -v (Aurenhammer, Hoffmann & Aronov,
Algorithmica 1998); masses other than the region masses move the boundary
off the equal-weight diagonal.
"""

import numpy as np

from mospa import (
    DiscreteMeasure,
    GaussianMixture,
    StackedState,
    WeightedSites,
    bisector,
    cells_match_regions,
    export_diagram_2d,
    gm_sample,
    permuted_atoms,
    solve_transport,
)
from mospa.geometry import power_costs


def main():
    x_hat = StackedState(2, 1, [-4.0, 3.0])
    atoms = permuted_atoms(x_hat)
    equal = WeightedSites(atoms, [0.0, 0.0])

    segments = export_diagram_2d(equal, bbox=(-10.0, 10.0))
    print("equal-weight boundary segments:")
    for (i, j), (a, b) in segments:
        print(f"  cells {i}|{j}: {a} -> {b}")

    # shifting one weight translates the boundary along its normal
    for delta in (2.0, -2.0):
        shifted = export_diagram_2d(WeightedSites(atoms, [0.0, delta]),
                                    bbox=(-10.0, 10.0))
        (_, (a, b)) = shifted[0]
        print(f"weight offset {delta:+}: segment {a} -> {b}")

    # a non-identity quadratic weight tilts the separating hyperplane
    plane = bisector(atoms[0], atoms[1], 0.0, 0.0, q=np.diag([4.0, 1.0]))
    print("weighted bisector normal:", plane.normal, "offset:", plane.offset)

    mixture = GaussianMixture.from_components(2, 1, [
        (0.5, [-4.0, 3.0], 9.0 * np.eye(2)),
        (0.5, [3.0, -4.0], 9.0 * np.eye(2)),
    ])
    cloud = gm_sample(mixture, seed=7, m=50_000)
    print("cell/region agreement, equal weights:",
          cells_match_regions(x_hat, cloud))
    print("cell/region agreement, one weight +0.5:",
          cells_match_regions(x_hat, cloud, site_weights=[0.5, 0.0]))

    # transport duals are power-diagram weights: every arc with flow stays in
    # its cell under weights -v (up to rounding; split samples sit on the
    # boundary, so compare costs rather than cell indices)
    sources = gm_sample(mixture, seed=8, m=2000)
    solution = solve_transport(sources, DiscreteMeasure(2, 1, atoms, [0.7, 0.3]))
    v = solution.sink_potentials
    scores = power_costs(sources.points, WeightedSites(atoms, -v))
    rows, cols = np.nonzero(solution.plan.flows > 0.0)
    excess = scores[rows, cols] - scores[rows].min(axis=1)
    print(f"transport onto masses 0.7/0.3: sink potentials {v}, "
          f"{len(rows)} arcs with flow, worst excess over the cell minimum {excess.max():.1e}")
    print("  shifted boundary:", export_diagram_2d(WeightedSites(atoms, -v),
                                                   bbox=(-10.0, 10.0))[0][1])

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed; skipping the figure")
        return
    fig, ax = plt.subplots(figsize=(5, 5))
    ax.scatter(cloud.points[::50, 0], cloud.points[::50, 1], s=2, alpha=0.25)
    ax.scatter(atoms[:, 0], atoms[:, 1], facecolors="none", edgecolors="k", s=90)
    for (i, j), (a, b) in segments:
        ax.plot([a[0], b[0]], [a[1], b[1]], "k-")
    for delta, style in ((2.0, "k:"), (-2.0, "k:")):
        (_, (a, b)) = export_diagram_2d(WeightedSites(atoms, [0.0, delta]),
                                        bbox=(-10.0, 10.0))[0]
        ax.plot([a[0], b[0]], [a[1], b[1]], style)
    ax.set_xlim(-10, 10)
    ax.set_ylim(-10, 10)
    ax.set_xlabel("first target")
    ax.set_ylabel("second target")
    fig.savefig("power_diagram.png", dpi=150, bbox_inches="tight")
    print("wrote power_diagram.png")


if __name__ == "__main__":
    main()
