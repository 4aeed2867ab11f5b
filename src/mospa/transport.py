"""Exact discrete optimal transport and the MOSPA/Wasserstein identity check.

solve_transport runs a primal transportation simplex on the dense bipartite
instance: greedy capacity-respecting initialization, Dantzig entering rule,
and randomized marginal perturbation against degenerate cycling.  Each pivot
re-roots only the subtree the leaving arc cuts off, at the entering arc, and
recomputes the potentials and reduced costs of that subtree's nodes alone.  The optimal basis is re-solved
against the unperturbed marginals, so the reported plan and cost carry no
perturbation.  No entropic or otherwise approximate scheme is involved
anywhere; optimality is certified by the dual gap before returning.
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
from .quadform import point_cost_matrix, validate_spd
from .states import StackedState

_MARGINAL_TOL = 1e-9
# Cap on the number of empirical sources fed to the LP inside the independent
# verification mode; the extra Monte Carlo noise goes into the combined
# standard error.
_W2_SOURCE_CAP = 2048
_PERTURB_SEED = 0x5EED_0F_CABBA9E5
# Cap on sources x sinks: 2**25 entries is 256 MiB per dense float64 array,
# and a solve holds about five (cost, reduced costs, resolved and kept flows,
# the plan).  Larger requests are refused before any is allocated, since
# under memory overcommit the allocation can succeed and the process die later.
_MAX_COST_ENTRIES = 1 << 25


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """Nonnegative coupling between two discrete weight vectors."""

    flows: np.ndarray
    source_marginal: np.ndarray
    sink_marginal: np.ndarray

    def __post_init__(self):
        flows = np.asarray(self.flows, dtype=float)
        a = np.asarray(self.source_marginal, dtype=float).reshape(-1)
        b = np.asarray(self.sink_marginal, dtype=float).reshape(-1)
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

    @property
    def n_sources(self) -> int:
        return self.flows.shape[0]

    @property
    def n_sinks(self) -> int:
        return self.flows.shape[1]


@dataclass(frozen=True, eq=False)
class TransportSolution:
    """Optimal coupling with its certificate.

    source_potentials and sink_potentials are optimal duals u, v with
    u_i + v_j <= c_ij and a @ u + b @ v == cost (to the certificate tolerance).
    A zero-mass sink is dropped before the solve, so its potential is NaN.
    pivots counts simplex pivots after the initial basis.  dual_gap is the
    certified |primal - dual| and perturbation the size delta of the source
    marginal bump that the pivoting ran on (the plan itself is re-solved on
    the exact marginals).
    """

    plan: TransportPlan
    cost: float
    source_potentials: np.ndarray = field(repr=False)
    sink_potentials: np.ndarray = field(repr=False)
    pivots: int
    dual_gap: float
    perturbation: float


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
    arc_i: list[int] = []
    arc_j: list[int] = []
    flow: list[float] = []
    slack = 1e-14 * a.sum()
    for i in range(m):
        need = a[i]
        while need > slack:
            masked = np.where(avail, cost[i], np.inf)
            j = int(np.argmin(masked))
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


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.parent[rx] = ry
        return True


def _complete_to_tree(arc_i, arc_j, flow, cost):
    """Add zero-flow arcs until the basis graph spans all m+k nodes."""
    m, k = cost.shape
    uf = _UnionFind(m + k)
    for i, j in zip(arc_i, arc_j):
        uf.union(i, m + j)
    roots: dict[int, list[int]] = {}
    for node in range(m + k):
        roots.setdefault(uf.find(node), []).append(node)
    comps = sorted(roots.values(), key=lambda nodes: nodes[0])
    home = comps[0]
    for comp in comps[1:]:
        sources = [n for n in comp if n < m]
        if sources:
            i = sources[0]
            sinks_home = np.array([n - m for n in home if n >= m], dtype=np.intp)
            j = int(sinks_home[np.argmin(cost[i, sinks_home])])
        else:
            j = comp[0] - m
            srcs_home = np.array([n for n in home if n < m], dtype=np.intp)
            i = int(srcs_home[np.argmin(cost[srcs_home, j])])
        arc_i.append(i)
        arc_j.append(j)
        flow.append(0.0)
        uf.union(i, m + j)
        home = home + comp
    return arc_i, arc_j, flow


def _hang(top, adj, pred, pot, cost, m):
    """Set pred and potentials below `top`, whose own are already set,
    walking the basis tree top-down away from pred[top]; returns the nodes
    of the subtree, `top` first.  Each potential follows u_i + v_j = c_ij from
    its parent, so it depends only on the node's path to the root."""
    item = cost.item
    nodes = [top]
    stack = [top]
    while stack:
        x = stack.pop()
        px = pred[x]
        pot_x = pot[x]
        for y in adj[x]:
            if y != px:
                pred[y] = x
                pot[y] = (item(y, x - m) if x >= m else item(x, y - m)) - pot_x
                nodes.append(y)
                stack.append(y)
    return nodes


def _path_to_root(node, pred, m):
    path = [node]
    while node != m:
        node = pred[node]
        path.append(node)
    return path


def _cycle_nodes(enter_i, enter_j, pred, m):
    """Node sequence enter_i .. LCA .. (m+enter_j) through the basis tree."""
    path_a = _path_to_root(enter_i, pred, m)
    path_b = _path_to_root(m + enter_j, pred, m)
    pos = {node: idx for idx, node in enumerate(path_a)}
    for bi, node in enumerate(path_b):
        if node in pos:
            return path_a[: pos[node] + 1] + path_b[:bi][::-1]
    raise RuntimeError("basis tree has no path between entering endpoints")


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
    arc_i, arc_j, flow = _complete_to_tree(arc_i, arc_j, flow, cost)
    arc_i = np.asarray(arc_i, dtype=np.intp)
    arc_j = np.asarray(arc_j, dtype=np.intp)
    flows_b = np.asarray(flow, dtype=float)
    arc_pos = {(int(i), int(j)): p for p, (i, j) in enumerate(zip(arc_i, arc_j))}

    adj: list[list[int]] = [[] for _ in range(m + k)]
    for i, j in zip(arc_i.tolist(), arc_j.tolist()):
        adj[i].append(m + j)
        adj[m + j].append(i)
    pred = [m] * (m + k)
    pot = [0.0] * (m + k)
    sub = _hang(m, adj, pred, pot, cost, m)
    if len(sub) != m + k:
        raise RuntimeError("basis graph is not spanning")
    reduced = np.empty_like(cost)

    max_pivots = 50 * (m + k) + 1000
    pivots = 0
    while True:
        # only the rows and columns of the re-hung nodes see new potentials
        # (all of them on the first pass)
        sub = np.array(sub)
        rows = sub[sub < m]
        cols = sub[sub >= m] - m
        u = np.array(pot[:m])
        v = np.array(pot[m:])
        reduced[rows] = cost[rows] - u[rows, None] - v[None, :]
        reduced[:, cols] = cost[:, cols] - u[:, None] - v[None, cols]
        reduced[arc_i, arc_j] = 0.0
        flat = int(np.argmin(reduced))
        ei, ej = divmod(flat, k)
        if reduced[ei, ej] >= -reduced_tol:
            break
        pivots += 1
        if pivots > max_pivots:
            raise RuntimeError(f"transportation simplex exceeded {max_pivots} pivots")

        nodes = _cycle_nodes(ei, ej, pred, m)
        # arcs along the walk alternate -theta, +theta starting at the arc
        # leaving the entering source; the entering arc itself carries +theta
        cycle_arcs = []
        signs = []
        for t in range(len(nodes) - 1):
            x, y = nodes[t], nodes[t + 1]
            key = (x, y - m) if x < m else (y, x - m)
            cycle_arcs.append(arc_pos[key])
            signs.append(-1.0 if t % 2 == 0 else 1.0)
        minus = [p for p, s in zip(cycle_arcs, signs) if s < 0]
        theta_pos = min(minus, key=lambda p: (flows_b[p], p))
        theta = flows_b[theta_pos]
        for p, s in zip(cycle_arcs, signs):
            flows_b[p] += s * theta
        # swap the leaving arc for the entering one, in place
        li, lj = int(arc_i[theta_pos]), int(arc_j[theta_pos])
        del arc_pos[(li, lj)]
        arc_i[theta_pos] = ei
        arc_j[theta_pos] = ej
        flows_b[theta_pos] = theta
        arc_pos[(ei, ej)] = theta_pos

        # the leaving arc cuts off the subtree below it; re-hang that subtree
        # from the entering arc's endpoint inside it, the entering source when
        # the leaving arc lies on the source's way up to the cycle's apex
        t = cycle_arcs.index(theta_pos)
        top, parent = (ei, m + ej) if pred[nodes[t]] == nodes[t + 1] else (m + ej, ei)
        adj[li].remove(m + lj)
        adj[m + lj].remove(li)
        adj[ei].append(m + ej)
        adj[m + ej].append(ei)
        pred[top] = parent
        pot[top] = cost.item(ei, ej) - pot[parent]
        sub = _hang(top, adj, pred, pot, cost, m)

    flows = _resolve_tree_flows(arc_i, arc_j, a, b, m, k)
    return flows, u, v, pivots


def _resolve_tree_flows(arc_i, arc_j, a, b, m, k):
    """Unique flows carried by a spanning basis for the exact marginals,
    by peeling leaves; degenerate arcs may pick up tiny negatives, which are
    clamped after a sanity bound."""
    n_arcs = len(arc_i)
    residual = np.concatenate([a, b])
    heads = np.asarray(arc_i, dtype=np.intp)
    tails = np.asarray(arc_j, dtype=np.intp) + m
    incident: list[list[int]] = [[] for _ in range(m + k)]
    for p in range(n_arcs):
        incident[heads[p]].append(p)
        incident[tails[p]].append(p)
    degree = np.array([len(lst) for lst in incident])
    alive = np.ones(n_arcs, dtype=bool)
    out = np.zeros((m, k))
    # peel source leaves before sink leaves: a source leaf's arc carries its
    # exact marginal, which keeps star-shaped bases free of subtraction noise
    src_stack = [n for n in range(m) if degree[n] == 1]
    sink_stack = [n for n in range(m, m + k) if degree[n] == 1]
    values = np.zeros(n_arcs)
    while src_stack or sink_stack:
        node = src_stack.pop() if src_stack else sink_stack.pop()
        if degree[node] != 1:
            continue
        arc = next(p for p in incident[node] if alive[p])
        other = tails[arc] if heads[arc] == node else heads[arc]
        values[arc] = residual[node]
        residual[other] -= residual[node]
        residual[node] = 0.0
        alive[arc] = False
        degree[node] -= 1
        degree[other] -= 1
        if degree[other] == 1:
            (src_stack if other < m else sink_stack).append(other)
    if values.min(initial=0.0) < -1e-7:
        raise RuntimeError("degenerate basis produced a materially negative flow")
    np.maximum(values, 0.0, out=values)
    out[np.asarray(arc_i, dtype=np.intp), np.asarray(arc_j, dtype=np.intp)] = values
    return out


def _check_pair(sources: EmpiricalMeasure, sinks: DiscreteMeasure):
    if sources.dim != sinks.dim:
        raise ValueError(f"source dim {sources.dim} != sink dim {sinks.dim}")
    if len(sources) * len(sinks) > _MAX_COST_ENTRIES:
        raise ValueError(f"{len(sources)} sources x {len(sinks)} sinks exceed the dense "
                         f"transport cap of {_MAX_COST_ENTRIES} cost entries")
    for name, s in (("source", sources.weights.sum()), ("sink", sinks.masses.sum())):
        if abs(s - 1.0) > _MARGINAL_TOL:
            raise ValueError(f"{name} marginal sums to {s!r}, expected 1 within 1e-9")


def solve_transport(sources: EmpiricalMeasure, sinks: DiscreteMeasure,
                    q=None) -> TransportSolution:
    """Exact minimum-cost coupling under squared (Q-weighted) distances.

    Zero-mass sink atoms are dropped before the simplex runs (degenerate
    sinks break pivoting); their columns come back as zeros in the returned
    plan and their potentials as NaN.  Raises ValueError, before any dense
    array is built, when sources x sinks exceed _MAX_COST_ENTRIES, and
    RuntimeError when the dual gap certificate fails.
    """
    _check_pair(sources, sinks)
    if q is not None:
        validate_spd(q, sources.dim)
    keep = sinks.masses > 0.0
    if not np.any(keep):
        raise ValueError("sink measure has no positive mass")
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
    flows = np.zeros((len(sources), len(sinks)))
    flows[:, keep] = flows_kept
    sink_potentials = np.full(len(sinks), np.nan)
    sink_potentials[keep] = v
    plan = TransportPlan(flows, sources.weights.copy(), sinks.masses.copy())
    return TransportSolution(plan, total, u, sink_potentials, pivots, dual_gap,
                             _perturbation(sources.weights))


def coupling_cost(plan: TransportPlan, sources: EmpiricalMeasure,
                  sinks: DiscreteMeasure, q=None) -> float:
    """Transport cost of one feasible plan; at least the optimal cost."""
    _check_pair(sources, sinks)
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


def w2_squared(samples: EmpiricalMeasure, nu: DiscreteMeasure, q=None) -> float:
    """Squared 2-Wasserstein distance (optimal transport cost, no root)."""
    return solve_transport(samples, nu, q).cost


def verify_mospa_wasserstein(scenario, x_hat: StackedState, mode: str = "same-sample",
                             m: int | None = None, q=None) -> IdentityReport:
    """Numerically check that Monte Carlo MOSPA matches the optimal transport
    cost to the permutation measure induced by x_hat.

    same-sample mode evaluates both sides on one draw, where the identity
    holds exactly at the empirical level (the region coupling is feasible and
    every coupling is bounded below pointwise), so the tolerance is 1e-8
    relative.  independent mode estimates the region masses, the MOSPA
    average, and the transport side on disjoint draws and compares at 4
    combined standard errors.
    """
    if mode not in ("same-sample", "independent"):
        raise ValueError(f"unknown mode {mode!r}")
    mixture = scenario.mixture
    m = int(m if m is not None else scenario.sample_count)
    seed = scenario.seed

    if mode == "same-sample":
        emp = gm_sample(mixture, rng.derive_seed(seed, 1), m)
        est = mospa_mc(emp, x_hat, q)
        masses = estimate_region_masses(emp, x_hat, q)
        nu = build_region_measure(x_hat, masses)
        w2 = w2_squared(emp, nu, q)
        tolerance = 1e-8 * est.value
        se_w2 = None
    else:
        mass_set = gm_sample(mixture, rng.derive_seed(seed, 1), m)
        mospa_set = gm_sample(mixture, rng.derive_seed(seed, 2), m)
        w2_set = gm_sample(mixture, rng.derive_seed(seed, 3), min(m, _W2_SOURCE_CAP))

        masses = estimate_region_masses(mass_set, x_hat, q)
        nu = build_region_measure(x_hat, masses)
        est = mospa_mc(mospa_set, x_hat, q)
        solution = solve_transport(w2_set, nu, q)
        w2 = solution.cost

        n_w2 = len(w2_set)
        u = solution.source_potentials
        se_w2 = float(np.std(u, ddof=1) / math.sqrt(n_w2)) if n_w2 > 1 else 0.0
        # multinomial mass noise propagated through the potentials of the
        # kept sinks (a dropped sink's potential is NaN)
        keep = nu.masses > 0.0
        b = nu.masses[keep]
        v = solution.sink_potentials[keep]
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
