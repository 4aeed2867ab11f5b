"""Exact discrete optimal transport and the MOSPA/Wasserstein identity check.

solve_transport runs a primal transportation simplex on the dense bipartite
instance: greedy capacity-respecting initialization, Dantzig entering rule,
and randomized marginal perturbation against degenerate cycling.  The basis
is one tree over sources 0..m-1 and sinks m..m+k-1, rooted at sink 0 and held
in preorder arrays (node order, position, parent, subtree size), so the
subtree that a leaving arc cuts off is one slice of the order.  A pivot
reverses the parents along the stem from the entering arc to the cut,
rebuilds the slice from the stem's pieces, moves it after its new parent,
and shifts its potentials by one constant; one pass from the root recomputes
every potential from the costs after the last pivot.  The optimal basis is
re-solved on the unperturbed marginals by peeling its leaves, so the plan
carries no perturbation.  Pricing keeps each source row's least reduced cost
and its first column: after a pivot the slice's rows are recomputed, and the
other rows compare their cached minimum with the slice's columns, unless the
slice's sink potentials only fell, which leaves those minima exact.  Nothing
is approximate; optimality is certified before returning, by dual feasibility
checked from the costs and by the dual gap.
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
    """Feasible acyclic start: sources in order, cheapest sink with capacity."""
    m, k = cost.shape
    res = b.copy()
    avail = res > 0
    # each row's first cheapest sink; the masked search runs only once that
    # sink is exhausted, and finds the same first minimum while it is not
    first = cost.argmin(axis=1).tolist()
    arc_i: list[int] = []
    arc_j: list[int] = []
    flow: list[float] = []
    slack = 1e-14 * a.sum()
    for i in range(m):
        need = a[i]
        while need > slack:
            j = first[i]
            if not avail[j]:
                j = int(np.argmin(np.where(avail, cost[i], np.inf)))
                if not avail[j]:
                    break  # capacity exhausted by rounding slack
            take = min(need, res[j])
            arc_i.append(i)
            arc_j.append(j)
            flow.append(take)
            res[j] -= take
            need -= take
            if res[j] <= 0:
                res[j] = 0.0
                avail[j] = False
    return arc_i, arc_j, flow


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


def _plant(adj, cost, m):
    """The basis tree adj hung from the root m (sink 0), as preorder arrays
    (order, at, pred, size, pot): the nodes in preorder, each node's index in
    order, its parent, its subtree's size and its potential.  Each potential
    follows u_i + v_j = c_ij from its parent's, so it depends only on the
    node's path to the root."""
    item = cost.item
    pred, pot = [m] * len(adj), [0.0] * len(adj)
    order, stack = [], [m]
    while stack:
        x = stack.pop()
        order.append(x)
        px, pot_x = pred[x], pot[x]
        for y in adj[x]:
            if y != px:
                pred[y] = x
                pot[y] = (item(y, x - m) if x >= m else item(x, y - m)) - pot_x
                stack.append(y)
    if len(order) != len(adj):
        raise RuntimeError("basis graph is not spanning")
    size = [1] * len(adj)
    for x in reversed(order[1:]):
        size[pred[x]] += size[x]
    order, pred, size = (np.array(x, dtype=np.intp) for x in (order, pred, size))
    at = np.empty_like(order)
    at[order] = np.arange(len(adj))
    return order, at, pred, size, np.array(pot)


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

    arc_i, arc_j, flow = _greedy_basis(cost, a_p, b_p)
    # the basis tree: each node's neighbours, kept current by every pivot
    adj: list[list[int]] = [[] for _ in range(m + k)]
    for i, j in zip(arc_i, arc_j):
        adj[i].append(m + j)
        adj[m + j].append(i)
    _complete_to_tree(adj, arc_i, arc_j, flow, cost)
    arc_i = np.asarray(arc_i, dtype=np.intp)
    arc_j = np.asarray(arc_j, dtype=np.intp)
    flows_b = np.asarray(flow, dtype=float)

    # the basis tree in preorder arrays, kept current by every pivot
    order, at, pred, size, pot = _plant(adj, cost, m)
    up_arc = np.empty(m + k, dtype=np.intp)  # the basis arc to each node's parent
    up_arc[np.where(pred[arc_i] == m + arc_j, arc_i, m + arc_j)] = np.arange(arc_i.size)
    u, v = pot[:m], pot[m:]  # views: the pivots shift the potentials in place
    sign = np.repeat([1.0, -1.0], [m, k])  # sources +1, sinks -1
    # Dantzig pricing by row: each row's least reduced cost (c_ij - u_i) - v_j,
    # basis arcs counted as 0, and its first column at that value, so the
    # entering arc is the row-major first minimum of the whole matrix
    cost_t = np.ascontiguousarray(cost.T)
    row_min = np.empty(m)
    row_arg = np.empty(m, dtype=np.intp)
    _reprice(np.arange(m), cost, cost_t, u, v, arc_i, arc_j, row_min, row_arg)

    max_pivots = 50 * (m + k) + 1000
    pivots = 0
    while True:
        ei = int(row_min.argmin())
        if row_min[ei] >= -reduced_tol:
            break
        ej = int(row_arg[ei])
        pivots += 1
        if pivots > max_pivots:
            raise RuntimeError(f"transportation simplex exceeded {max_pivots} pivots")

        # the cycle ei .. apex .. m+ej: the apex is the first node up from ei
        # whose preorder slice holds m+ej
        up, down, pos = [ei], [m + ej], at.item(m + ej)
        while not 0 <= pos - at.item(up[-1]) < size.item(up[-1]):
            up.append(pred.item(up[-1]))
        while down[-1] != up[-1]:
            down.append(pred.item(down[-1]))
        apex = len(up) - 1
        # arcs along the walk alternate -theta, +theta starting at the arc
        # leaving the entering source; the entering arc itself carries +theta
        cycle_arcs = up_arc[up[:-1] + down[-2::-1]]
        minus = cycle_arcs[::2].tolist()
        theta_pos = min(minus, key=lambda p: (flows_b.item(p), p))
        theta = flows_b[theta_pos]
        flows_b[cycle_arcs[::2]] -= theta
        flows_b[cycle_arcs[1::2]] += theta
        # swap the leaving arc for the entering one, in place
        li, lj = int(arc_i[theta_pos]), int(arc_j[theta_pos])
        arc_i[theta_pos] = ei
        arc_j[theta_pos] = ej
        flows_b[theta_pos] = theta
        adj[li].remove(m + lj)
        adj[m + lj].remove(li)
        adj[ei].append(m + ej)
        adj[m + ej].append(ei)

        # the leaving arc cuts off its lower end's subtree, which re-hangs from
        # the entering arc: the stem, from the entering endpoint inside it (the
        # source when the leaving arc is on the source's way up to the apex) up
        # to that lower end, reverses, and the ancestors below the apex change
        t = 2 * minus.index(theta_pos)
        path = np.array(up + down[-2::-1])
        if t < apex:
            stem, parent, lose, gain = path[:t + 1], m + ej, path[t + 1:apex], path[apex + 1:]
        else:
            stem, parent, lose, gain = path[:t:-1], ei, path[apex + 1:t + 1], path[:apex]
        top, old = int(stem[0]), size[stem]
        inner = np.concatenate(([0], old[:-1]))  # the subtree of the stem node below
        first, end = at[stem].tolist(), (at[stem] + old).tolist()
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
        size[stem] = hi - lo - inner
        size[lose] -= hi - lo
        size[gain] += hi - lo
        pred[stem[1:]] = stem[:-1]
        pred[top] = parent
        up_arc[stem[1:]] = up_arc[stem[:-1]]
        up_arc[top] = theta_pos
        # sources shift by the change at top and sinks by its negative (swapped
        # if top is a sink); the final recompute drops the rounding drift
        shift = (cost.item(ei, ej) - pot.item(parent) - pot.item(top)) * sign.item(top)
        pot[sub] += sign[sub] * shift
        # with the entering sink on top, shift is minus the entering arc's
        # reduced cost, > 0: the slice's sink potentials only fall
        _reprice(sub, cost, cost_t, u, v, arc_i, arc_j, row_min, row_arg,
                 li if top >= m else None)

    pot = _plant(adj, cost, m)[-1]  # every potential afresh from the costs
    return _resolve_tree_flows(adj, a, b, m, k), pot[:m], pot[m:], pivots


def _reprice(sub, cost, cost_t, u, v, arc_i, arc_j, row_min, row_arg, leaving=None):
    """Refresh the row pricing cache after the nodes `sub` got new potentials.

    A row of `sub`, or a row whose cached first minimum lies in a column of
    `sub`, is recomputed in full.  `leaving` is None when the sinks of `sub`
    rose.  Then any other row keeps its columns outside `sub` and their first
    minimum, and compares it with the first minimum of its columns in `sub`,
    read from cost_t (cost transposed, contiguous) in ascending column order;
    a tie goes to the smaller column.  The one basis arc into `sub` has its
    sink outside it, so no such row has a basis arc in those columns.

    Otherwise the sinks of `sub` fell, v' = fl(v - shift) <= v, and `leaving`
    is the source of the arc that just left the basis.  Rounding is monotone,
    so fl(fl(c - u) - v') >= fl(fl(c - u) - v): any other row's entries in
    the columns of `sub` rose or stayed, and its cached first minimum holds,
    except in `leaving`'s row, whose entry is no longer a basis arc's 0.0.
    That row is recomputed too, and no column is read.
    """
    m, k = cost.shape
    cols = np.sort(sub[sub >= m] - m)
    full = np.zeros(m, dtype=bool)
    full[sub[sub < m]] = True
    if cols.size:
        hung = np.zeros(k, dtype=bool)
        hung[cols] = True
        full |= hung[row_arg]
    if leaving is not None:
        full[leaving] = True
    elif cols.size:
        block = cost_t[cols]
        block -= u
        block -= v[cols, None]
        cmin = np.minimum.reduce(block, axis=0)
        cand = np.flatnonzero((cmin <= row_min) & ~full)
        if cand.size:
            new_min = cmin[cand]
            new_arg = cols[block[:, cand].argmin(axis=0)]
            old_arg = row_arg[cand]
            row_arg[cand] = np.where(new_min < row_min[cand], new_arg,
                                     np.minimum(old_arg, new_arg))
            row_min[cand] = new_min
        del block
    rows = np.flatnonzero(full)
    if rows.size:
        reduced = cost[rows]
        reduced -= u[rows, None]
        reduced -= v
        pos = np.full(m, -1)
        pos[rows] = np.arange(rows.size)
        hit = pos[arc_i] >= 0
        reduced[pos[arc_i[hit]], arc_j[hit]] = 0.0
        arg = reduced.argmin(axis=1)
        row_arg[rows] = arg
        row_min[rows] = reduced[np.arange(rows.size), arg]


def _resolve_tree_flows(adj, a, b, m, k):
    """Unique flows that the spanning basis tree adj carries for the exact
    marginals a (sources) and b (sinks), by peeling leaves; degenerate arcs
    may pick up tiny negatives, which are clamped after a sanity bound."""
    residual = a.tolist() + b.tolist()
    degree = [len(nbrs) for nbrs in adj]
    out = np.zeros((m, k))
    # peel source leaves before sink leaves: a source leaf's arc carries its
    # exact marginal, which keeps star-shaped bases free of subtraction noise
    src_stack = [n for n in range(m) if degree[n] == 1]
    sink_stack = [n for n in range(m, m + k) if degree[n] == 1]
    while src_stack or sink_stack:
        node = src_stack.pop() if src_stack else sink_stack.pop()
        if degree[node] != 1:
            continue
        # peeled neighbours are at degree 0, so this is the one arc left
        other = next(y for y in adj[node] if degree[y])
        if node < m:
            out[node, other - m] = residual[node]
        else:
            out[other, node - m] = residual[node]
        residual[other] -= residual[node]
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

    Raises ValueError on what solve_transport refuses (_check_pair) and on a
    plan whose shape or marginals do not match the measures."""
    _check_pair(sources, sinks, q)
    flows = plan.flows
    if flows.shape != (len(sources), len(sinks)):
        raise ValueError(f"plan shape {flows.shape} does not match the measures")
    row_err = np.abs(flows.sum(axis=1) - sources.weights)
    if row_err.max() > _MARGINAL_TOL:
        bad = int(np.argmax(row_err))
        raise ValueError(f"plan violates the source marginal at row {bad}")
    col_err = np.abs(flows.sum(axis=0) - sinks.masses)
    if col_err.max() > _MARGINAL_TOL:
        bad = int(np.argmax(col_err))
        raise ValueError(f"plan violates the sink marginal at column {bad}")
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
                             m: int | None = None, q=None) -> IdentityReport:
    """Numerically check that Monte Carlo MOSPA matches the optimal transport
    cost to the permutation measure induced by x_hat.

    same-sample mode evaluates both sides on one draw, where the identity
    holds exactly at the empirical level (the region coupling is feasible and
    every coupling is bounded below pointwise), so the tolerance is 1e-8
    relative.  independent mode estimates the region masses, the MOSPA
    average, and the transport side on disjoint draws and compares at 4
    combined standard errors.  Raises CapacityError for n_targets >
    MAX_TARGETS before any sample is drawn.
    """
    if mode not in ("same-sample", "independent"):
        raise ValueError(f"unknown mode {mode!r}")
    _check_target_count(x_hat.n_targets)
    mixture = scenario.mixture
    m = int(m if m is not None else scenario.sample_count)
    seed = scenario.seed

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
