"""Closed-form population MOSPA and region masses for two targets under a
Gaussian mixture, an exact route that shares no code with the sampler or the
assignment solvers.

For a state x = (a, b) and an estimate (p, r), with slot weights F0 and F1
(the diagonal blocks of a block-diagonal Q, or identities), the gap
L = D_id - D_swap between the identity and the swapped alignment is affine
in x:

    L = 2 a.F0(r - p) + 2 b.F1(p - r) + p.F0p - r.F0r + r.F1r - p.F1p.

So within mixture component c, L is Gaussian with mean mu_c and standard
deviation sigma_c, and with min(D_id, D_swap) = D_id - max(L, 0):

    MOSPA = sum_c w_c (E_c D_id - mu_c Phi(mu_c / sigma_c)
                       - sigma_c phi(mu_c / sigma_c)),
    P(identity region) = sum_c w_c Phi(-mu_c / sigma_c).

Phi comes from math.erf, so no statistics library is involved.
"""

import math

import numpy as np


def _std_normal_cdf(t: float) -> float:
    return 0.5 * (1.0 + math.erf(t / math.sqrt(2.0)))


def _std_normal_pdf(t: float) -> float:
    return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


def _components(mixture, x_hat, q):
    """(w_c, E_c D_id, mu_c, sigma_c) for each component of the mixture."""
    assert x_hat.n_targets == 2
    d = x_hat.state_dim
    weight = np.eye(2 * d) if q is None else np.asarray(q, dtype=float)
    f0, f1 = weight[:d, :d], weight[d:, d:]
    p, r = x_hat.blocks()
    g = np.concatenate([2.0 * f0 @ (r - p), 2.0 * f1 @ (p - r)])
    h = p @ f0 @ p - r @ f0 @ r + r @ f1 @ r - p @ f1 @ p
    for w, mean, cov in zip(mixture.weights, mixture.means, mixture.covariances):
        offset = mean - x_hat.data
        e_id = offset @ weight @ offset + np.trace(weight @ cov)
        yield float(w), float(e_id), float(g @ mean + h), math.sqrt(g @ cov @ g)


def population_mospa(mixture, x_hat, q=None) -> float:
    """E min over the two alignments of the (Q-weighted) squared distance."""
    total = 0.0
    for w, e_id, mu, sigma in _components(mixture, x_hat, q):
        t = mu / sigma
        total += w * (e_id - mu * _std_normal_cdf(t) - sigma * _std_normal_pdf(t))
    return total


def identity_region_mass(mixture, x_hat, q=None) -> float:
    """Probability that the identity alignment is optimal (D_id <= D_swap)."""
    return sum(w * _std_normal_cdf(-mu / sigma)
               for w, _, mu, sigma in _components(mixture, x_hat, q))
