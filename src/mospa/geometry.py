"""Additively weighted Voronoi (power-diagram) cells over stacked space.

A point belongs to the cell of the site minimizing squared (Q-weighted)
distance plus the site's additive weight.  With equal weights and sites at
the permutations of an estimate, the cells coincide with the permutation
regions of the metric layer; cells_match_regions measures that agreement
sample by sample through two independent classifiers, one quadform.row_chunks
chunk at a time.  Cells stay implicit (membership predicate); only the 2-D
export materializes boundary segments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assignment import _check_compatible
from .measures import EmpiricalMeasure
from .metrics import batch_region_ranks
from .quadform import point_cost_matrix, row_chunks, validate_spd
from .states import StackedState, _frozen_array, permuted_atoms

# Samples closer than this to a cost tie are excluded from agreement counts;
# ties live on measure-zero boundaries and carry no information.
TIE_BAND = 1e-9


@dataclass(frozen=True, eq=False)
class WeightedSites:
    """Cell centroids plus one additive weight per centroid."""

    points: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        pts = _frozen_array(np.atleast_2d(self.points), "sites")
        w = _frozen_array(self.weights, "site weights", (-1,))
        if pts.shape[0] != w.size:
            raise ValueError("centroids and weights must have equal length")
        if len(np.unique(pts, axis=0)) < pts.shape[0]:
            raise ValueError("centroids must be pairwise distinct")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True, eq=False)
class Hyperplane:
    """Locus normal . x == offset."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        normal = _frozen_array(self.normal, "normal", (-1,))
        if float(normal @ normal) == 0.0:
            raise ValueError("normal must be finite with positive norm")
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "offset", float(_frozen_array(self.offset, "offset")))


def power_costs(points: np.ndarray, sites: WeightedSites, q=None) -> np.ndarray:
    """(m, n_sites) matrix of weighted squared distance plus site weight."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != sites.dim:
        raise ValueError(f"point dim {points.shape[1]} != site dim {sites.dim}")
    if q is not None:
        validate_spd(q, sites.dim)
    costs = point_cost_matrix(points, sites.points, q)
    costs += sites.weights
    return costs


def power_cell_index(x, sites: WeightedSites, q=None) -> int:
    """Index of the cell containing x; ties go to the smallest index."""
    x = x.data if isinstance(x, StackedState) else np.asarray(x, dtype=float)
    costs = power_costs(x.reshape(1, -1), sites, q)
    return int(np.argmin(costs[0]))


def bisector(p_i, p_j, w_i: float, w_j: float, q=None) -> Hyperplane:
    """Hyperplane where the two weighted squared distances agree.

    The quadratic terms cancel, leaving normal = 2 Q (p_j - p_i) and
    offset = p_j^T Q p_j - p_i^T Q p_i + w_j - w_i.
    """
    p_i = np.asarray(p_i, dtype=float).reshape(-1)
    p_j = np.asarray(p_j, dtype=float).reshape(-1)
    if p_i.shape != p_j.shape:
        raise ValueError("centroids must share a dimension")
    if np.array_equal(p_i, p_j):
        raise ValueError("coincident centroids have no bisector")
    if q is None:
        qp_i, qp_j = p_i, p_j
    else:
        q = validate_spd(q, p_i.size)
        qp_i, qp_j = q @ p_i, q @ p_j
    normal = 2.0 * (qp_j - qp_i)
    offset = float(p_j @ qp_j - p_i @ qp_i) + (w_j - w_i)
    return Hyperplane(normal, offset)


def cells_match_regions(x_hat: StackedState, samples: EmpiricalMeasure, q=None,
                        site_weights=None) -> float:
    """Fraction of samples classified identically by the power diagram over
    the permuted estimates and by the assignment-based region labels.

    Samples within TIE_BAND of a cost tie (under either the weighted or the
    unweighted costs) are excluded from the fraction; with equal weights the
    remaining agreement is expected to be exactly 1.0.
    """
    _check_compatible(samples, x_hat)
    atoms = permuted_atoms(x_hat)
    if site_weights is None:
        site_weights = np.zeros(atoms.shape[0])
    sites = WeightedSites(atoms, site_weights)
    if len(sites) == 1:
        return 1.0
    m = len(samples)
    cell = np.empty(m, dtype=np.intp)
    keep = np.empty(m, dtype=bool)
    for lo, hi in row_chunks(m, sites.points.size):
        costs = power_costs(samples.points[lo:hi], sites, q)
        cell[lo:hi] = np.argmin(costs, axis=1)
        part = np.partition(costs, 1, axis=1)
        zpart = np.partition(costs - sites.weights[None, :], 1, axis=1)
        keep[lo:hi] = (part[:, 1] - part[:, 0] > TIE_BAND) & (zpart[:, 1] - zpart[:, 0] > TIE_BAND)
    if not np.any(keep):
        return 1.0
    region = batch_region_ranks(samples.points[keep], x_hat, q)
    return float(np.mean(cell[keep] == region))


def export_diagram_2d(sites: WeightedSites, q=None, bbox=(-10.0, 10.0)):
    """Boundary segments of the 2-D power diagram clipped to a square box.

    Returns a list of ((i, j), (endpoint_a, endpoint_b)) for every site pair
    whose bisector actually bounds the two cells inside the box.  Each
    bisector line is clipped by half-planes normal . x <= offset: the box's
    four sides, then the sides where site i beats every other site k.
    """
    if sites.dim != 2:
        raise ValueError(f"diagram export requires dimension 2, got {sites.dim}")
    if q is not None:
        q = validate_spd(q, 2)
    lo, hi = float(bbox[0]), float(bbox[1])
    if not -np.inf < lo < hi < np.inf:
        raise ValueError("bbox must be finite with lo < hi")
    box = [Hyperplane((1.0, 0.0), hi), Hyperplane((-1.0, 0.0), -lo),
           Hyperplane((0.0, 1.0), hi), Hyperplane((0.0, -1.0), -lo)]
    pts, w = sites.points, sites.weights
    n = len(sites)
    segments = []
    for i in range(n - 1):
        # points with beats[k].normal . x <= beats[k].offset prefer i over k
        beats = {k: bisector(pts[i], pts[k], w[i], w[k], q) for k in range(n) if k != i}
        for j in range(i + 1, n):
            normal = beats[j].normal
            p0 = normal * (beats[j].offset / float(normal @ normal))
            direction = np.array([-normal[1], normal[0]])
            direction = direction / float(np.hypot(*direction))
            t_lo, t_hi = -np.inf, np.inf
            for half in box + [plane for k, plane in beats.items() if k != j]:
                slope = float(half.normal @ direction)
                gap = half.offset - float(half.normal @ p0)
                if slope == 0.0:
                    if gap < 0.0:
                        break
                elif slope > 0.0:
                    t_hi = min(t_hi, gap / slope)
                else:
                    t_lo = max(t_lo, gap / slope)
                # a NaN width (both ends infinite, same sign) is empty too
                if not t_hi - t_lo > 1e-12:
                    break
            else:
                segments.append(((i, j), (p0 + t_lo * direction, p0 + t_hi * direction)))
    return segments
