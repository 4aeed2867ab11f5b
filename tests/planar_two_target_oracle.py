"""Exact empirical MMOSPA for two planar targets, by one sorted angle sweep;
a route that shares no code with the descent or the assignment solvers.

For a sample x = (a, b) and an estimate (p, r), the identity alignment costs
no more than the swap iff <a - b, p - r> >= 0.  Write z = a - b and
c = (a + b) / 2, and let an alignment flip sign s in {+1, -1} per sample:
the aligned blocks are c + s z / 2 and c - s z / 2.  With the estimate at
their weighted centroid, the objective is

    sum_s w_s |x_s|^2 - 2 |C|^2 - |V|^2 / 2,   C = sum w c,  V = sum w s z,

so the global optimum maximizes |V|.  For any signs, |V| = <V, V/|V|> is at
most sum_s w_s |<z_s, u>| at u = V/|V|, and that bound is met by the signs
s = sign(<z_s, u>).  So the optimum is the best of the sign patterns that
unit directions u induce.  In the plane they change only where u crosses a
line perpendicular to some z_s: sweeping u through half a turn, in the
order of those m critical angles, flips one sample at a time and passes
every pattern.  Every state on the way is a valid alignment, so the best
|V| seen is the optimum, ties among critical angles included.
"""

import numpy as np


def planar_mmospa(points, weights):
    """(estimate, objective) of the global empirical MMOSPA optimum for
    samples of two planar targets, rows (a_x, a_y, b_x, b_y), at least one
    with a != b.

    The estimate is the centroid of the best alignment, blocks in that
    alignment's order; the objective is the weighted mean of the smaller of
    the two alignment costs at that estimate.
    """
    points = np.asarray(points, dtype=float)
    w = np.asarray(weights, dtype=float)
    a, b = points[:, :2], points[:, 2:]
    z = a - b
    moving = np.flatnonzero(np.any(z != 0.0, axis=1))
    # critical angle of sample s: the direction perpendicular to z_s, mod pi
    crit = np.mod(np.arctan2(z[moving, 1], z[moving, 0]) + np.pi / 2, np.pi)
    # start the sweep in the middle of the widest gap between critical angles
    ordered = np.sort(crit)
    gaps = np.diff(np.append(ordered, ordered[0] + np.pi))
    widest = int(np.argmax(gaps))
    start = ordered[widest] + gaps[widest] / 2
    u = np.array([np.cos(start), np.sin(start)])

    signs = np.where(z @ u >= 0.0, 1.0, -1.0)
    v = (w * signs) @ z
    # each sample flips once, in order of its angle after the start
    order = moving[np.argsort(np.mod(crit - start, np.pi), kind="stable")]
    steps = -2.0 * (w[order] * signs[order])[:, None] * z[order]
    states = np.vstack([v, v + np.cumsum(steps, axis=0)])
    best = int(np.argmax(np.einsum("ij,ij->i", states, states)))
    signs[order[:best]] *= -1.0

    first = np.where(signs[:, None] > 0, a, b)
    second = np.where(signs[:, None] > 0, b, a)
    p = w @ first / w.sum()
    r = w @ second / w.sum()
    identity = np.sum((a - p) ** 2, axis=1) + np.sum((b - r) ** 2, axis=1)
    swap = np.sum((a - r) ** 2, axis=1) + np.sum((b - p) ** 2, axis=1)
    objective = float(w @ np.minimum(identity, swap) / w.sum())
    return np.concatenate([p, r]), objective
