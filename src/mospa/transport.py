"""Exact discrete optimal transport and the MOSPA/Wasserstein identity check.

solve_transport runs a primal transportation simplex on the dense bipartite
instance: greedy capacity-respecting initialization, Dantzig entering rule,
and randomized marginal perturbation against degenerate cycling.  The basis
is one tree over sources 0..m-1 and sinks m..m+k-1, hung once from the
start's neighbour lists at sink 0 and then held only in preorder: the node
order and each node's position in it as arrays, and each node's parent,
subtree size and arc to its parent as lists, read and written a few entries
per pivot.  The subtree that a leaving arc cuts off is one slice of the
order.  A pivot reverses the parents along the stem from the entering arc to
the cut, rebuilds the slice from the stem's pieces, moves it after its new
parent, and shifts its potentials by one constant; one pass in preorder sets
every potential from the costs at the start and after the last pivot.  The
optimal basis is re-solved on the unperturbed marginals by peeling its arcs'
leaves, so the plan carries no perturbation.  Pricing keeps, per source row,
either its least reduced cost over its non-basis arcs and its first column
(a fresh row) or a lower bound on that cost (a stale row); basis arcs are
excluded, so a row whose every arc is in the basis holds +inf.  A pivot
recomputes no row: the slice's rows become stale, their bounds lowered by a
rounding margin and, where the slice's sinks fell, by the shift; there a
fresh row whose column lies in the slice becomes stale too, and where they
rose every other row compares its cache with the slice's columns.  Before
each pivot the stale rows whose bound could beat the best fresh value are
recomputed, so the entering arc is the row-major first minimum of the whole
matrix, as if every row were exact.  Nothing is approximate; optimality is
certified before returning, by dual feasibility checked from the costs and
by the dual gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .estimation import mospa_mc
from .measures import (
    DiscreteMeasure,
    EmpiricalMeasure,
    build_region_measure,
    estimate_region_masses,
    gm_sample,
)
from .quadform import point_cost_matrix, row_chunks, validate_spd
from .states import StackedState, _check_target_count, _frozen_array

_MARGINAL_TOL = 1e-9
_EPS = float(np.finfo(float).eps)
# Cap on the number of empirical sources fed to the LP inside the independent
# verification mode; the extra Monte Carlo noise goes into the combined
# standard error.
_W2_SOURCE_CAP = 2048
_PERTURB_SEED = 0x5EED_0F_CABBA9E5
# Cap on sources x sinks: 2**25 entries is 256 MiB per dense float64 array,
# and a solve holds about four (cost, its transposed copy cost.T, the flows
# on the kept sinks, the plan).  Larger requests are refused before any is
# allocated, since under memory overcommit the allocation can succeed and the
# process die later.
_MAX_COST_ENTRIES = 1 << 25


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """Nonnegative coupling between two discrete weight vectors."""

    flows: np.ndarray
    source_marginal: np.ndarray
    sink_marginal: np.ndarray

    def __post_init__(self):
        flows = _frozen_array(self.flows, "flows")
        a = _frozen_array(self.source_marginal, "source_marginal", (-1,))
        b = _frozen_array(self.sink_marginal, "sink_marginal", (-1,))
        if flows.shape != (a.size, b.size):
            raise ValueError(f"flows shape {flows.shape} != ({a.size}, {b.size})")
        if np.any(flows < 0):
            raise ValueError("flows must be nonnegative")
        row_err = np.abs(flows.sum(axis=1) - a).max()
        col_err = np.abs(flows.sum(axis=0) - b).max()
        if row_err > _MARGINAL_TOL:
            raise ValueError(f"row sums violate the source marginal by {row_err:.3e}")
        if col_err > _MARGINAL_TOL:
            raise ValueError(f"column sums violate the sink marginal by {col_err:.3e}")
        object.__setattr__(self, "flows", flows)
        object.__setattr__(self, "source_marginal", a)
        object.__setattr__(self, "sink_marginal", b)


@dataclass(frozen=True, eq=False)
class TransportSolution:
    """Optimal coupling with its certificate.

    source_potentials and sink_potentials are optimal duals u, v with
    u_i + v_j <= c_ij and a @ u + b @ v == cost (to the certificate tolerance).
    A zero-mass sink is dropped before the solve, so its potential is NaN.
    pivots counts simplex pivots after the initial basis.  dual_gap is the
    certified |primal - dual|, dual_infeasibility the certified
    max(0, -min(c_ij - u_i - v_j)) over the kept sinks, and perturbation the
    size delta of the source marginal bump that the pivoting ran on (the
    plan itself is re-solved on the exact marginals).
    """

    plan: TransportPlan
    cost: float
    source_potentials: np.ndarray = field(repr=False)
    sink_potentials: np.ndarray = field(repr=False)
    pivots: int
    dual_gap: float
    perturbation: float
    dual_infeasibility: float


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one Monte Carlo check that MOSPA equals the squared
    2-Wasserstein distance to the induced discrete measure."""

    mospa_value: float
    w2_squared: float
    abs_diff: float
    rel_diff: float
    mode: str
    tolerance: float
    passed: bool
    mospa_std_error: float | None = None
    w2_std_error: float | None = None


def _greedy_basis(cost, a, b):
    """Feasible acyclic start: sources in order, cheapest sink with capacity.
    Returns its arcs (arc_i, arc_j, flow) and adj, each node's neighbours."""
    m, k = cost.shape
    # a sink is live while res[j] > 0; take is at most res[j], so an
    # exhausted sink's residual is exactly 0.0
    res = b.tolist()
    # each row's first cheapest sink; the masked search runs only once that
    # sink is exhausted, and finds the same first minimum while it is not
    first = cost.argmin(axis=1).tolist()
    arc_i: list[int] = []
    arc_j: list[int] = []
    flow: list[float] = []
    adj: list[list[int]] = [[] for _ in range(m + k)]
    slack = float(1e-14 * a.sum())
    for i, need in enumerate(a.tolist()):
        while need > slack:
            j = first[i]
            if res[j] <= 0:
                j = int(np.argmin(np.where(np.array(res) > 0, cost[i], np.inf)))
                if res[j] <= 0:
                    break  # capacity exhausted by rounding slack
            take = min(need, res[j])
            arc_i.append(i)
            arc_j.append(j)
            flow.append(take)
            adj[i].append(m + j)
            adj[m + j].append(i)
            need -= take
            res[j] -= take
    return arc_i, arc_j, flow, adj


def _complete_to_tree(adj, arc_i, arc_j, flow, cost):
    """Join the components of the basis graph into one spanning tree.

    adj holds each node's neighbours (sources 0..m-1, sinks m..m+k-1).  One
    DFS from every unseen node in ascending order finds the components, each
    from its smallest node; the first is home.  A later component joins home
    by one zero-flow arc: its smallest source to the first cheapest home sink,
    or a lone sink to the first cheapest home source, with home's sources and
    sinks listed in component order, ascending within each.  The arcs are
    appended in place to adj and to arc_i, arc_j and flow.
    """
    m, k = cost.shape
    seen = [False] * (m + k)
    home_srcs: list[int] = []
    home_sinks: list[int] = []
    for start in range(m + k):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        stack = [start]
        while stack:
            for y in adj[stack.pop()]:
                if not seen[y]:
                    seen[y] = True
                    comp.append(y)
                    stack.append(y)
        comp.sort()
        srcs = [n for n in comp if n < m]
        sinks = [n - m for n in comp if n >= m]
        if start:
            if srcs:
                i = srcs[0]
                j = home_sinks[int(np.argmin(cost[i, home_sinks]))]
            else:
                j = sinks[0]
                i = home_srcs[int(np.argmin(cost[home_srcs, j]))]
            arc_i.append(i)
            arc_j.append(j)
            flow.append(0.0)
            adj[i].append(m + j)
            adj[m + j].append(i)
        home_srcs += srcs
        home_sinks += sinks


def _plant(adj, m):
    """The spanning tree adj hung from the root m (sink 0) by one DFS: the
    nodes in preorder and each node's index in it, as arrays (order, at),
    and each node's parent and its subtree's size, as lists (pred, size)."""
    pred = [m] * len(adj)
    order, stack = [], [m]
    while stack:
        x = stack.pop()
        order.append(x)
        for y in adj[x]:
            if y != pred[x]:
                pred[y] = x
                stack.append(y)
    if len(order) != len(adj):
        raise RuntimeError("basis graph is not spanning")
    size = [1] * len(adj)
    for x in reversed(order[1:]):
        size[pred[x]] += size[x]
    order = np.array(order, dtype=np.intp)
    at = np.empty_like(order)
    at[order] = np.arange(len(adj))
    return order, at, pred, size


def _potentials(order, pred, cost, m):
    """Every potential from the costs by one pass in preorder: the root's is
    0 and each other node's follows u_i + v_j = c_ij from its parent's, so it
    depends only on the node's path to the root."""
    item = cost.item
    pot = [0.0] * order.size
    for x in order[1:].tolist():
        p = pred[x]
        pot[x] = (item(x, p - m) if x < m else item(p, x - m)) - pot[p]
    return np.array(pot)


def _perturbation(a):
    """Size delta of the marginal bump: source i gains delta * (1 + U_i) with
    U_i uniform in [0, 1), and the largest sink absorbs the total."""
    return a.sum() * 1e-11 / (a.size * a.size + 1)


def _transportation_simplex(cost, a, b):
    """Exact optimum of the dense transportation LP.

    Returns (flows, u, v, n_pivots) with flows re-solved on the exact input
    marginals from the optimal basis.
    """
    m, k = cost.shape
    cmax = float(cost.max(initial=0.0))
    reduced_tol = 1e-13 * max(cmax, 1e-300)

    # randomized marginal perturbation: uniform sample weights make every
    # basis massively degenerate, and distinct pseudo-random increments make
    # tied subset sums (the cycling fuel) measure-zero
    unit = rng.uniforms(_PERTURB_SEED, np.arange(m, dtype=np.uint64), 0)
    bump = _perturbation(a) * (1.0 + unit)
    a_p = a + bump
    b_p = b.copy()
    b_p[int(np.argmax(b_p))] += a_p.sum() - b_p.sum()

    arc_i, arc_j, flows_b, adj = _greedy_basis(cost, a_p, b_p)
    _complete_to_tree(adj, arc_i, arc_j, flows_b, cost)

    # the basis tree: preorder arrays, parent and subtree-size lists, and
    # each node's basis arc to its parent, all kept current by every pivot
    order, at, pred, size = _plant(adj, m)
    pot = _potentials(order, pred, cost, m)
    up_arc = [0] * (m + k)
    for p, (i, j) in enumerate(zip(arc_i, arc_j)):
        up_arc[i if pred[i] == m + j else m + j] = p
    arc_i = np.asarray(arc_i, dtype=np.intp)
    arc_j = np.asarray(arc_j, dtype=np.intp)
    u, v = pot[:m], pot[m:]  # views: the pivots shift the potentials in place
    sign = np.repeat([1.0, -1.0], [m, k])  # sources +1, sinks -1
    # Dantzig pricing by row: each row's least reduced cost (c_ij - u_i) - v_j
    # over its non-basis arcs, and its first column at that value, so the
    # entering arc is the row-major first minimum of the whole matrix.  A
    # fresh row holds that minimum; a stale one a lower bound on it, which
    # _select makes exact only where it could win (see _reprice)
    cost_t = np.ascontiguousarray(cost.T)
    row_min = np.empty(m)
    row_arg = np.empty(m, dtype=np.intp)
    fresh = np.empty(m, dtype=bool)
    _exact_rows(np.arange(m), cost, u, v, arc_i, arc_j, row_min, row_arg, fresh)
    # _reprice's rounding margin, from the largest |cost| once per solve
    c_abs = max(cmax, -float(cost.min(initial=0.0)))
    margin = 16 * _EPS * (m + k + 1) * c_abs

    max_pivots = 50 * (m + k) + 1000
    pivots = 0
    while True:
        ei = _select(cost, u, v, arc_i, arc_j, row_min, row_arg, fresh)
        if row_min[ei] >= -reduced_tol:
            break
        ej = row_arg.item(ei)
        pivots += 1
        if pivots > max_pivots:
            raise RuntimeError(f"transportation simplex exceeded {max_pivots} pivots")

        # the cycle ei .. apex .. m+ej: the apex is the first node up from ei
        # whose preorder slice holds m+ej
        up, down, pos = [ei], [m + ej], at.item(m + ej)
        while not 0 <= pos - at.item(up[-1]) < size[up[-1]]:
            up.append(pred[up[-1]])
        while down[-1] != up[-1]:
            down.append(pred[down[-1]])
        apex = len(up) - 1
        path = up + down[-2::-1]
        # arcs along the walk alternate -theta, +theta starting at the arc
        # leaving the entering source; the entering arc itself carries +theta
        cycle_arcs = [up_arc[x] for x in up[:-1] + down[-2::-1]]
        minus = cycle_arcs[::2]
        theta = min([flows_b[p] for p in minus])
        theta_pos = min(p for p in minus if flows_b[p] == theta)
        for p in minus:
            flows_b[p] -= theta
        for p in cycle_arcs[1::2]:
            flows_b[p] += theta
        # swap the leaving arc for the entering one, in place
        li, lj = arc_i.item(theta_pos), arc_j.item(theta_pos)
        arc_i[theta_pos] = ei
        arc_j[theta_pos] = ej
        flows_b[theta_pos] = theta

        # the leaving arc cuts off its lower end's subtree, which re-hangs from
        # the entering arc: the stem, from the entering endpoint inside it (the
        # source when the leaving arc is on the source's way up to the apex) up
        # to that lower end, reverses, and the ancestors below the apex change
        t = 2 * minus.index(theta_pos)
        if t < apex:
            stem, parent, lose, gain = path[:t + 1], m + ej, path[t + 1:apex], path[apex + 1:]
        else:
            stem, parent, lose, gain = path[:t:-1], ei, path[apex + 1:t + 1], path[:apex]
        top, old = stem[0], [size[x] for x in stem]
        first = [at.item(x) for x in stem]
        end = [f + s for f, s in zip(first, old)]
        # the slice's new preorder, top's subtree and then each stem node's
        # kept part, goes just after parent; what lies in between moves over
        pieces = [order[first[0]:end[0]]]
        for x in range(1, len(stem)):
            pieces += [order[first[x]:first[x - 1]], order[end[x - 1]:end[x]]]
        lo, hi, dest = first[-1], end[-1], at.item(parent) + 1
        span = slice(min(dest, lo), max(dest, hi))
        order[span] = np.concatenate(pieces + [order[dest:lo]] if dest <= lo
                                     else [order[hi:dest]] + pieces)
        at[order[span]] = np.arange(span.start, span.stop)
        sub = order[dest:dest + hi - lo] if dest <= lo else order[dest - hi + lo:dest]
        moved = hi - lo
        for x, below in zip(stem, [0] + old[:-1]):  # below: the stem node under x
            size[x] = moved - below
        for x in lose:
            size[x] -= moved
        for x in gain:
            size[x] += moved
        # bottom up, so that each stem node's arc is read before it moves down
        for x in range(len(stem) - 1, 0, -1):
            pred[stem[x]] = stem[x - 1]
            up_arc[stem[x]] = up_arc[stem[x - 1]]
        pred[top] = parent
        up_arc[top] = theta_pos
        # sources shift by the change at top and sinks by its negative (swapped
        # if top is a sink); the final recompute drops the rounding drift
        shift = (cost.item(ei, ej) - pot.item(parent) - pot.item(top)) * sign.item(top)
        pot[sub] += sign[sub] * shift
        # with the entering sink on top, shift is minus the entering arc's
        # reduced cost, > 0: the slice's sink potentials only fall
        _reprice(sub, cost, cost_t, u, v, row_min, row_arg, fresh, li, lj,
                 shift if top >= m else None, margin)

    pot = _potentials(order, pred, cost, m)  # every potential afresh from the costs
    return _resolve_tree_flows(arc_i, arc_j, a, b), pot[:m], pot[m:], pivots


def _reprice(sub, cost, cost_t, u, v, row_min, row_arg, fresh, li, lj, fell, margin):
    """Update the row pricing cache after the nodes `sub` got new potentials.

    No row is recomputed here.  A fresh row stays fresh only where its first
    minimum and column are known to hold; any other row becomes stale, with
    a bound at or below its least entry.  (li, lj) is the arc that just left
    the basis.  `fell` is the shift, > 0, by which the sinks of `sub` fell and
    its sources rose, or None where the sinks rose and the sources fell.
    An entry is fl(fl(c - u) - v) on a non-basis arc; basis arcs are
    excluded.  Rounding is monotone, so an entry whose potentials only fell
    only rises.

    `margin` covers what rounding adds to a shift.  An entry lies within
    eps/2 (2 C + 3 P) of c - u - v, with C the largest |cost| and P the
    largest |potential|, and a shifted potential is off its exact shift by
    eps/2 P: an entry of a row of `sub` falls by at most 2 eps (C + 2 P)
    beyond the shift.  The bound's update rounds by at most 2.5 eps (C + 2 P)
    more while the bound lies within 4 (C + 2 P) of zero, and 16 eps (C + P)
    covers the sum.  P is at most (m + k) C: a potential is an alternating
    sum of at most m + k - 1 costs along its tree path, and the pivots'
    rounding drift stays far below the C to spare.  A bound above zero is
    at most an entry, so it lies within that range; a bound further below
    zero lies below every entry anyway; and the bound of a row with no
    entry, every arc of it in the basis, is +inf and stays +inf.

    Each row of `sub` becomes stale, its bound lowered by `margin`, and also
    by `fell` on that side, where its entries outside the columns of `sub`
    fell by the shift; on the other side they only rose.  The left arc's row
    becomes stale too, its bound at most its entry there, which counts again
    now that the arc has left the basis.

    Where the sinks of `sub` fell, any other row's entries in the columns of
    `sub` only rose, and the one basis arc into `sub` from outside is the
    entering arc, whose row's first minimum it was and which that row now
    excludes.  A fresh row whose cached column lies in `sub` becomes stale
    with its old minimum as the bound, any other row keeps its cache, and no
    column is read.

    Where the sinks of `sub` rose, any other row keeps its entries outside
    the columns of `sub`, and its entries in them are read exactly from
    cost_t (cost transposed, contiguous); no basis arc lies there.  A fresh
    row takes their first minimum when it is below its cached one, or equal
    to it at a smaller column; this holds also when its cached column lies
    in `sub`, where the entry only fell.  A stale row becomes fresh with them
    only on a strict drop below its bound, which its other entries, all at
    or above the bound, cannot undercut.
    """
    m = u.size
    rows = sub[sub < m]
    cols = np.sort(sub[sub >= m] - m)
    row_min[rows] -= margin if fell is None else fell + margin
    fresh[rows] = False
    row_min[li] = min(row_min.item(li), (cost.item(li, lj) - u.item(li)) - v.item(lj))
    fresh[li] = False
    if not cols.size:
        return
    if fell is not None:
        hung = np.zeros(v.size, dtype=bool)
        hung[cols] = True
        fresh[hung[row_arg]] = False
        return
    block = cost_t[cols]
    block -= u
    block -= v[cols, None]
    cmin = np.minimum.reduce(block, axis=0)
    drop = cmin < row_min
    drop[rows] = False
    cand = np.flatnonzero(drop | ((cmin == row_min) & fresh))
    if cand.size:
        new_arg = cols[block[:, cand].argmin(axis=0)]
        row_arg[cand] = np.where(drop[cand], new_arg, np.minimum(row_arg[cand], new_arg))
        row_min[cand] = cmin[cand]
        fresh[cand] = True


def _select(cost, u, v, arc_i, arc_j, row_min, row_arg, fresh):
    """The entering arc's source: the first row of least row_min, once fresh.

    A stale row can beat the best fresh value only when its bound is at or
    below it, so those rows, and no others, are recomputed in one batch.
    Every stale row left then has a bound above the best fresh value, and the
    argmin is a fresh row: the first row whose exact minimum is least, as if
    every row were exact, and its cached column is the first at that value,
    the row-major first minimum of the whole reduced-cost matrix.
    """
    while True:
        ei = int(row_min.argmin())
        if fresh.item(ei):
            return ei
        best = row_min[fresh].min(initial=np.inf)
        stale = np.flatnonzero(~(row_min > best) & ~fresh)  # NaN bounds too
        _exact_rows(stale, cost, u, v, arc_i, arc_j, row_min, row_arg, fresh)


def _exact_rows(rows, cost, u, v, arc_i, arc_j, row_min, row_arg, fresh):
    """Recompute `rows` in full, over row_chunks: each row's least reduced
    cost fl(fl(c - u) - v) over its non-basis arcs (basis arcs at +inf), and
    its first column at it."""
    m, k = cost.shape
    slot = np.full(m, -1)
    slot[rows] = np.arange(rows.size)
    hit = slot[arc_i]
    basis = hit >= 0
    hit_row, hit_col = hit[basis], arc_j[basis]
    for lo, hi in row_chunks(rows.size, k):
        part = rows[lo:hi]
        reduced = cost[part]
        reduced -= u[part, None]
        reduced -= v
        here = (hit_row >= lo) & (hit_row < hi)
        reduced[hit_row[here] - lo, hit_col[here]] = np.inf
        arg = reduced.argmin(axis=1)
        row_arg[part] = arg
        row_min[part] = reduced[np.arange(hi - lo), arg]
    fresh[rows] = True


def _resolve_tree_flows(arc_i, arc_j, a, b):
    """Unique flows that the spanning tree of arcs (arc_i, arc_j) carries for
    the exact marginals a (sources) and b (sinks), by peeling leaves; a peel
    takes the leaf off its neighbour's degree and sum of neighbour ids, so a
    leaf's one unpeeled neighbour is its remaining sum, in any arc order.
    Degenerate arcs may pick up tiny negatives, clamped after a sanity bound."""
    m, k = a.size, b.size
    ends, nbrs = np.concatenate((arc_i, m + arc_j)), np.concatenate((m + arc_j, arc_i))
    degree = np.bincount(ends, minlength=m + k).tolist()
    nbr_sum = np.bincount(ends, nbrs, m + k).astype(np.intp).tolist()
    residual = a.tolist() + b.tolist()
    out = np.zeros((m, k))
    # peel source leaves before sink leaves: a source leaf's arc carries its
    # exact marginal, which keeps star-shaped bases free of subtraction noise
    src_stack = [n for n in range(m) if degree[n] == 1]
    sink_stack = [n for n in range(m, m + k) if degree[n] == 1]
    while src_stack or sink_stack:
        node = src_stack.pop() if src_stack else sink_stack.pop()
        if degree[node] != 1:
            continue
        other = nbr_sum[node]
        if node < m:
            out[node, other - m] = residual[node]
        else:
            out[other, node - m] = residual[node]
        residual[other] -= residual[node]
        nbr_sum[other] -= node
        degree[node] -= 1
        degree[other] -= 1
        if degree[other] == 1:
            (src_stack if other < m else sink_stack).append(other)
    if out.min(initial=0.0) < -1e-7:
        raise RuntimeError("degenerate basis produced a materially negative flow")
    np.maximum(out, 0.0, out=out)
    return out


def _check_pair(sources: EmpiricalMeasure, sinks: DiscreteMeasure, q):
    """Entry check of solve_transport and coupling_cost (ValueError): equal
    dims, sources x sinks within _MAX_COST_ENTRIES, and Q, when given,
    symmetric positive definite.  The measures check their own weights."""
    if sources.dim != sinks.dim:
        raise ValueError(f"source dim {sources.dim} != sink dim {sinks.dim}")
    if len(sources) * len(sinks) > _MAX_COST_ENTRIES:
        raise ValueError(f"{len(sources)} sources x {len(sinks)} sinks exceed the dense "
                         f"transport cap of {_MAX_COST_ENTRIES} cost entries")
    if q is not None:
        validate_spd(q, sources.dim)


def solve_transport(sources: EmpiricalMeasure, sinks: DiscreteMeasure,
                    q=None) -> TransportSolution:
    """Exact minimum-cost coupling under squared (Q-weighted) distances.

    Zero-mass sink atoms are dropped before the simplex runs (degenerate
    sinks break pivoting); their columns come back as zeros in the returned
    plan and their potentials as NaN.  Raises ValueError, before any dense
    array is built, on what _check_pair refuses (such as sources x sinks
    above _MAX_COST_ENTRIES), and RuntimeError when the certificate fails:
    a dual gap above 1e-7 relative, or a reduced cost c_ij - u_i - v_j below
    -1e-12 times the largest kept cost.
    """
    _check_pair(sources, sinks, q)
    keep = sinks.masses > 0.0
    atoms = sinks.atoms[keep]
    b = sinks.masses[keep]
    cost = point_cost_matrix(sources.points, atoms, q)
    flows_kept, u, v, pivots = _transportation_simplex(cost, sources.weights, b)

    total = float(np.sum(flows_kept * cost))
    dual = float(sources.weights @ u + b @ v)
    dual_gap = abs(total - dual)
    if dual_gap > 1e-7 * max(1.0, abs(total)):
        raise RuntimeError(
            f"optimality certificate failed: primal {total!r} vs dual {dual!r}"
        )
    # the gap holds on any basis tree; optimality needs u_i + v_j <= c_ij too
    infeasibility = 0.0
    for lo, hi in row_chunks(*cost.shape):
        infeasibility = max(infeasibility, -float((cost[lo:hi] - u[lo:hi, None] - v).min()))
    if infeasibility > 1e-12 * float(cost.max()):
        raise RuntimeError(f"optimality certificate failed: reduced cost {-infeasibility!r}")
    flows = np.zeros((len(sources), len(sinks)))
    flows[:, keep] = flows_kept
    sink_potentials = np.full(len(sinks), np.nan)
    sink_potentials[keep] = v
    # frozen here, so the plan keeps the flows uncopied and no caller can
    # edit a certified solution
    for arr in (flows, u, sink_potentials):
        arr.setflags(write=False)
    plan = TransportPlan(flows, sources.weights, sinks.masses)
    return TransportSolution(plan, total, u, sink_potentials, pivots, dual_gap,
                             _perturbation(sources.weights), infeasibility)


def coupling_cost(plan: TransportPlan, sources: EmpiricalMeasure,
                  sinks: DiscreteMeasure, q=None) -> float:
    """Transport cost of one feasible plan; at least the optimal cost.

    Raises ValueError on what solve_transport refuses (_check_pair) and, by
    TransportPlan's own check, on a plan whose shape or marginals do not match
    the measures; the measures' frozen arrays are not copied for it."""
    _check_pair(sources, sinks, q)
    flows = TransportPlan(plan.flows, sources.weights, sinks.masses).flows
    cost = point_cost_matrix(sources.points, sinks.atoms, q)
    return float(np.sum(flows * cost))


def _support(nu: DiscreteMeasure) -> DiscreteMeasure:
    """nu on its positive-mass atoms, in order: the sinks solve_transport keeps."""
    keep = nu.masses > 0.0
    return DiscreteMeasure(nu.n_targets, nu.state_dim, nu.atoms[keep], nu.masses[keep])


def w2_squared(samples: EmpiricalMeasure, nu: DiscreteMeasure, q=None) -> float:
    """Squared 2-Wasserstein distance (optimal transport cost, no root)."""
    return solve_transport(samples, _support(nu), q).cost


def verify_mospa_wasserstein(scenario, x_hat: StackedState, mode: str = "same-sample",
                             q=None) -> IdentityReport:
    """Numerically check that Monte Carlo MOSPA matches the optimal transport
    cost to the permutation measure induced by x_hat.

    same-sample mode evaluates both sides on one draw, where the identity
    holds exactly at the empirical level (the region coupling is feasible and
    every coupling is bounded below pointwise), so the tolerance is 1e-8
    relative.  independent mode estimates the region masses, the MOSPA
    average, and the transport side on disjoint draws and compares at 4
    combined standard errors.  Every draw has scenario.sample_count samples
    (the transport side's at most _W2_SOURCE_CAP).  Raises CapacityError for
    n_targets > MAX_TARGETS before any sample is drawn.
    """
    if mode not in ("same-sample", "independent"):
        raise ValueError(f"unknown mode {mode!r}")
    _check_target_count(x_hat.n_targets)
    mixture, seed, m = scenario.mixture, scenario.seed, scenario.sample_count

    mass_set = gm_sample(mixture, rng.derive_seed(seed, 1), m)
    if mode == "same-sample":
        mospa_set = w2_set = mass_set
    else:
        mospa_set = gm_sample(mixture, rng.derive_seed(seed, 2), m)
        w2_set = gm_sample(mixture, rng.derive_seed(seed, 3), min(m, _W2_SOURCE_CAP))

    est = mospa_mc(mospa_set, x_hat, q)
    masses = estimate_region_masses(mass_set, x_hat, q)
    nu = _support(build_region_measure(x_hat, masses))
    solution = solve_transport(w2_set, nu, q)
    w2 = solution.cost

    if mode == "same-sample":
        tolerance = 1e-8 * est.value
        se_w2 = None
    else:
        n_w2 = len(w2_set)
        u = solution.source_potentials
        se_w2 = float(np.std(u, ddof=1) / math.sqrt(n_w2)) if n_w2 > 1 else 0.0
        # multinomial mass noise propagated through the sink potentials
        b, v = nu.masses, solution.sink_potentials
        se_mass_sq = (float(b @ (v ** 2)) - float(b @ v) ** 2) / m
        combined = math.sqrt(est.std_error**2 + se_w2**2 + max(se_mass_sq, 0.0))
        tolerance = 4.0 * combined

    abs_diff = abs(est.value - w2)
    return IdentityReport(
        mospa_value=est.value,
        w2_squared=w2,
        abs_diff=abs_diff,
        rel_diff=abs_diff / max(est.value, 1e-300),
        mode=mode,
        tolerance=tolerance,
        passed=abs_diff <= tolerance,
        mospa_std_error=est.std_error,
        w2_std_error=se_w2,
    )
