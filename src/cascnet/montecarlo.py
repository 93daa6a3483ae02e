"""Node-level stochastic cascade simulation.

Two redistribution modes:

* complete: every network is fully connected, so a step's inbound load is
  shared equally by all survivors of the receiving network. Survivors of a
  network always carry the same cumulative extra load, kept as one float per
  network (`NodePopulation.shared`); no per-node `received` array is kept.
* local: load moves along edges. One rule places every share: a dead node's
  share for network j splits equally over its live neighbors in j's graph,
  plus, for an out-net share, the live node with the same index in j. A
  share with no live receiver goes to all live nodes of j. A share for a
  network with no survivors skips the neighbor lists and is re-routed over
  the survivors of every network, as any share stranded there would be.

Deaths are evaluated simultaneously after all shares of a step are placed,
and a node fails when its received load strictly exceeds its free space.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (AttackSpec, BarabasiAlbert, Complete, CouplingMatrix,
                   EdgeListTopology, ErdosRenyi, NetworkConfig, Topology)
from .distributions import dist_mean, dist_sample
from .meanfield import MeanFieldState, _routed_inbound
from .strategies import FCC, SWO, CouplingStrategy, NetView, decide

DEFAULT_MAX_STEPS = 1_000_000


class SimulationError(RuntimeError):
    pass


@dataclass
class Graph:
    """Undirected adjacency in CSR form."""
    indptr: np.ndarray
    indices: np.ndarray

    @property
    def node_count(self) -> int:
        return self.indptr.size - 1

    @property
    def edge_count(self) -> int:
        return self.indices.size // 2

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]


@dataclass
class NodePopulation:
    """One network's nodes and the cumulative extra load they carry."""
    load: np.ndarray
    space: np.ndarray
    alive: np.ndarray
    received: np.ndarray | None = None  # per node; None in a complete-graph run
    graph: Graph | None = None  # None: fully connected
    shared: float = 0.0  # every survivor's load in a complete-graph run

    @property
    def alive_count(self) -> int:
        return int(np.count_nonzero(self.alive))


@dataclass(frozen=True)
class SimOutcome:
    final_fractions: tuple[float, ...]
    steps: int
    breakdown: bool
    non_converged: bool = False
    trajectory: list[MeanFieldState] | None = None


# ---------------------------------------------------------------------------
# Graph generation
# ---------------------------------------------------------------------------

def _edges_to_csr(node_count: int, u: np.ndarray, v: np.ndarray) -> Graph:
    src = np.concatenate([u, v])
    dst = np.concatenate([v, u])
    size = src.size
    if node_count * size >= 2 ** 63:
        raise SimulationError(f"{node_count} nodes and {size} endpoints overflow the sort key")
    # Unique keys (src, position): an unstable sort gives the stable order.
    order = src * size + np.arange(size)
    order.sort()
    order %= size
    src, dst = src[order], dst[order]
    indptr = np.zeros(node_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=node_count), out=indptr[1:])
    return Graph(indptr, dst.astype(np.int64))


def _pair_from_index(k: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Invert the row-major upper-triangle linearization of node pairs."""
    kf = k.astype(np.float64)
    i = np.floor((2 * n - 1 - np.sqrt((2 * n - 1) ** 2 - 8.0 * kf)) / 2.0).astype(np.int64)
    # Guard against sqrt rounding at row boundaries.
    for _ in range(2):
        off = i * (2 * n - i - 1) // 2
        i = np.where(off > k, i - 1, i)
        off = i * (2 * n - i - 1) // 2
        nxt = (i + 1) * (2 * n - i - 2) // 2
        i = np.where(k >= nxt, i + 1, i)
    off = i * (2 * n - i - 1) // 2
    j = k - off + i + 1
    return i, j


def _erdos_renyi(node_count: int, mean_degree: float, rng: np.random.Generator) -> Graph:
    total_pairs = node_count * (node_count - 1) // 2
    p = mean_degree / (node_count - 1)
    m = int(rng.binomial(total_pairs, p))
    picked = np.empty(0, dtype=np.int64)
    while picked.size < m:
        need = m - picked.size
        extra = rng.integers(0, total_pairs, size=int(need * 1.2) + 16, dtype=np.int64)
        # Sorted de-duplication; np.unique's hash path is far slower here.
        picked = np.sort(np.concatenate([picked, extra]))
        picked = picked[np.concatenate(([True], picked[1:] != picked[:-1]))]
    if picked.size > m:
        picked = rng.permutation(picked)[:m]
    u, v = _pair_from_index(picked, node_count)
    return _edges_to_csr(node_count, u, v)


def _barabasi_albert(node_count: int, mean_degree: float, rng: np.random.Generator) -> Graph:
    m = max(1, math.ceil(mean_degree / 2.0))
    m0 = m + 1
    if node_count <= m0:
        raise SimulationError("node_count too small for the requested mean degree")
    clique_u, clique_v = np.triu_indices(m0, k=1)
    n_clique = clique_u.size
    total_edges = n_clique + (node_count - m0) * m
    # Endpoint list, edge e at (2e, 2e + 1): sampling it is preferential attachment.
    endpoints = np.empty(2 * total_edges, dtype=np.int64)
    endpoints[0:2 * n_clique:2] = clique_u
    endpoints[1:2 * n_clique:2] = clique_v
    endpoints[2 * n_clique::2] = np.repeat(np.arange(m0, node_count), m)
    for fill in range(2 * n_clique, endpoints.size, 2 * m):
        targets: set[int] = set()
        while len(targets) < m:
            targets.update(endpoints[rng.integers(0, fill, size=m - len(targets))].tolist())
        endpoints[fill + 1:fill + 2 * m:2] = list(targets)
    return _edges_to_csr(node_count, endpoints[0::2], endpoints[1::2])


def graph_seed(seed: int, index: int) -> int:
    """Seed of network `index`'s graph in the run seeded `seed`. `mc_run` and
    `search.GraphCache` both use it, so one seed gives one graph."""
    return seed * 7919 + index


def generate_graph(topology: Topology, node_count: int, seed: int) -> Graph | None:
    """Deterministic adjacency for a topology; None means fully connected."""
    if isinstance(topology, Complete):
        return None
    rng = np.random.default_rng(seed)
    if isinstance(topology, ErdosRenyi):
        return _erdos_renyi(node_count, topology.mean_degree, rng)
    if isinstance(topology, BarabasiAlbert):
        return _barabasi_albert(node_count, topology.mean_degree, rng)
    if isinstance(topology, EdgeListTopology):
        return read_edge_list(topology.path, node_count)
    raise SimulationError(f"unknown topology {topology!r}")


def write_edge_list(graph: Graph, path: str) -> None:
    """One "u v" pair per line, each undirected edge once."""
    with open(path, "w") as fh:
        for u in range(graph.node_count):
            for v in graph.neighbors(u):
                if u < v:
                    fh.write(f"{u} {v}\n")


def read_edge_list(path: str, node_count: int) -> Graph:
    """Read "u v" lines (blank lines and # comments skipped). Every node id
    must lie in [0, node_count)."""
    with warnings.catch_warnings():  # no data is an empty graph, handled below
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        data = np.loadtxt(path, dtype=np.int64, ndmin=2)
    if data.size == 0:
        data = np.empty((0, 2), np.int64)
    bad = (data.shape[1] != 2) | ((data < 0) | (data >= node_count)).any(axis=1)
    if bad.any():
        with open(path) as fh:
            lines = [k for k, text in enumerate(fh, 1) if text.split("#", 1)[0].strip()]
        raise SimulationError(f"{path}, line {lines[int(np.argmax(bad))]}: expected "
                              f"two node ids in [0, {node_count})")
    return _edges_to_csr(node_count, data[:, 0], data[:, 1])


# ---------------------------------------------------------------------------
# Population setup
# ---------------------------------------------------------------------------

def sample_population(cfg: NetworkConfig, rng: np.random.Generator,
                      graph: Graph | None = None) -> NodePopulation:
    """Fresh loads and free spaces on `graph` (None: fully connected, no `received`)."""
    n = cfg.node_count
    load = dist_sample(cfg.load_dist, n, rng)
    space = dist_sample(cfg.space_dist, n, rng)
    return NodePopulation(load=load, space=space, alive=np.ones(n, dtype=bool),
                          received=None if graph is None else np.zeros(n), graph=graph)


def apply_attack(pop: NodePopulation, p: float, rng: np.random.Generator,
                 ) -> tuple[np.ndarray, float]:
    """Kill exactly round(p*N) uniformly random nodes.

    Returns (indices of killed nodes, their total load)."""
    if not (0.0 <= p <= 1.0):
        raise SimulationError(f"attack fraction must be in [0, 1], got {p}")
    n = pop.load.size
    k = int(round(p * n))
    victims = rng.choice(n, size=k, replace=False)
    pop.alive[victims] = False
    return victims, float(pop.load[victims].sum())


# ---------------------------------------------------------------------------
# Complete-graph (global equal redistribution) stepping
# ---------------------------------------------------------------------------

def mc_step_complete(pops: list[NodePopulation], pools: list[float],
                     coupling: CouplingMatrix) -> list[float]:
    """One synchronous redistribution step; mutates populations in place and
    returns the next-step pools.

    Every survivor of a network carries the same cumulative load, `shared`."""
    live = [p.alive_count > 0 for p in pops]
    for i, pool in enumerate(pools):
        if pool < 0:
            raise SimulationError(f"negative pool for network {i}")
    recv = _routed_inbound(pools, coupling, live)
    next_pools = [0.0] * len(pops)
    for k, pop in enumerate(pops):
        if not live[k]:
            next_pools[k] = recv[k]  # passes through next step
            continue
        if recv[k] == 0.0:
            continue
        q_new = pop.shared + recv[k] / pop.alive_count
        newly = np.flatnonzero(pop.alive & (pop.space < q_new))
        pop.alive[newly] = False
        pop.shared = q_new
        next_pools[k] = float(pop.load[newly].sum()) + newly.size * q_new
    return next_pools


# ---------------------------------------------------------------------------
# Local (topology-driven) stepping
# ---------------------------------------------------------------------------

def _spread(graph: Graph, alive: np.ndarray, dead: np.ndarray, shares: np.ndarray,
            paired: np.ndarray | None = None) -> tuple[list, np.ndarray]:
    """Split each dead node's share equally over its live neighbors in `graph`,
    and over its live paired node when `paired` (that node's alive flag per
    dead node) is given. Returns the receipts, (nodes, amounts) pairs in
    placement order with zero amounts on dead nodes, and the mask of shares
    that found a live receiver."""
    starts = graph.indptr[dead]
    lens = graph.indptr[dead + 1] - starts
    offsets = np.cumsum(lens) - lens
    pos = np.repeat(starts - offsets, lens)
    pos += np.arange(pos.size)
    nbrs = graph.indices[pos]
    live = alive[nbrs]
    counts = np.zeros(dead.size, np.int64)
    counts[lens > 0] = np.add.reduceat(live, offsets[lens > 0], dtype=np.int64)
    if paired is not None:
        counts += paired
    placeable = counts > 0
    per = np.zeros(dead.size)
    np.divide(shares, counts, out=per, where=placeable)
    amounts = np.repeat(per, lens)
    amounts *= live
    if paired is None:
        return [(nbrs, amounts)], placeable
    return [(nbrs, amounts), (dead, per * paired)], placeable


def mc_step_local(pops: list[NodePopulation], newly_dead: list[np.ndarray],
                  coupling: CouplingMatrix) -> tuple[list[np.ndarray], list[float]]:
    """One topology-aware step. newly_dead holds, per network, the nodes that
    died in the previous step (their loads are being redistributed now).
    Returns (next newly-dead index arrays, their carried-load totals)."""
    n = len(pops)
    live_counts = [p.alive_count for p in pops]
    parts: list[list] = [[] for _ in pops]  # receipts per receiving network
    loose = [0.0] * n  # shares with no live receiver: network-wide fallback

    for i in range(n):
        dead = newly_dead[i]
        if dead.size == 0:
            continue
        carried = pops[i].load[dead] + pops[i].received[dead]
        for j in range(n):
            frac = coupling.entry(i, j)
            if frac == 0.0:
                continue
            shares = carried * frac
            pop_j = pops[j]
            if pop_j.graph is None or live_counts[j] == 0:
                loose[j] += float(shares.sum())
                continue
            # Out-net shares also reach the paired node (same index).
            receipts, placeable = _spread(pop_j.graph, pop_j.alive, dead, shares,
                                          None if i == j else pop_j.alive[dead])
            parts[j] += receipts
            loose[j] += float(shares[~placeable].sum())

    # Shares for a network without survivors go to the survivors of all.
    stranded = sum(x for x, c in zip(loose, live_counts) if c == 0)
    next_dead: list[np.ndarray] = []
    next_pools: list[float] = []
    for k, pop in enumerate(pops):
        # One bincount over the receipts in placement order, so every node
        # adds up what it receives in one fixed sequence.
        part = parts[k]
        if len(part) > 1:
            part = [tuple(map(np.concatenate, zip(*part)))]
        buf = np.bincount(*part[0], minlength=pop.load.size) if part else np.zeros(pop.load.size)
        if live_counts[k] > 0:
            if loose[k] != 0.0:
                np.add(buf, loose[k] / live_counts[k], out=buf, where=pop.alive)
            if stranded > 0.0:
                np.add(buf, stranded / sum(live_counts), out=buf, where=pop.alive)
        pop.received += buf
        newly = pop.alive & (pop.received > pop.space)
        idx = np.nonzero(newly)[0]
        pop.alive[idx] = False
        next_dead.append(idx)
        next_pools.append(float((pop.load[idx] + pop.received[idx]).sum()))
    return next_dead, next_pools


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------

def _q_cum(pop: NodePopulation) -> float:
    """Survivors' mean cumulative extra load; at least one node must survive."""
    return pop.shared if pop.received is None else float(pop.received.compress(pop.alive).mean())


def _empirical_views(cfgs: list[NetworkConfig], attack: AttackSpec,
                     pops: list[NodePopulation], pools: list[float],
                     with_q_cum: bool) -> list[NetView]:
    """Views for `decide`; q_cum (read by SWO only) is 0 unless asked."""
    views = []
    for i, (cfg, pop) in enumerate(zip(cfgs, pops)):
        count = pop.alive_count
        views.append(NetView(
            n_alive=float(count), pool=pools[i],
            q_cum=_q_cum(pop) if count and with_q_cum else 0.0, attack_frac=attack.p[i],
            node_count=cfg.node_count, load_mean=dist_mean(cfg.load_dist),
            space_dist=cfg.space_dist,
        ))
    return views


def _record(traj: list[MeanFieldState], t: int, cfgs, pops, pools) -> None:
    f, n_alive, q_cum = [], [], []
    for cfg, pop in zip(cfgs, pops):
        count = pop.alive_count
        f.append(1.0 - count / cfg.node_count)
        n_alive.append(float(count))
        q_cum.append(_q_cum(pop) if count else 0.0)
    prev_q = traj[-1].q_cum if traj else (0.0,) * len(cfgs)
    traj.append(MeanFieldState(t, tuple(f), tuple(n_alive), tuple(pools),
                               tuple(q - pq for q, pq in zip(q_cum, prev_q)),
                               tuple(q_cum)))


def mc_run(cfgs: list[NetworkConfig], attack: AttackSpec,
           strategy: CouplingStrategy, seed: int,
           record_trajectory: bool = False,
           max_steps: int = DEFAULT_MAX_STEPS,
           graphs: list[Graph | None] | None = None) -> SimOutcome:
    """Sample populations, apply the attack, and cascade to a fixed point.

    Deterministic for a given seed. Pre-generated adjacency can be passed
    through `graphs` (one entry per network, None for fully connected) so
    repeated runs skip regeneration; otherwise each network's graph is
    generated from `graph_seed(seed, i)`. Stops when a step kills no nodes and
    leaves no outstanding pool, or when no node survives anywhere.
    """
    n = len(cfgs)
    if len(attack.p) != n:
        raise SimulationError(f"attack has {len(attack.p)} entries for {n} networks")
    rng = np.random.default_rng(seed)
    local_mode = any(not isinstance(c.topology, Complete) for c in cfgs)
    if local_mode and len({c.node_count for c in cfgs}) != 1:
        raise SimulationError("local redistribution requires equal node counts")

    if graphs is None:
        graphs = [generate_graph(c.topology, c.node_count, graph_seed(seed, i))
                  for i, c in enumerate(cfgs)]
    pops = [sample_population(cfg, rng, graph=g) for cfg, g in zip(cfgs, graphs)]
    dead0, pools = [], []
    for pop, p in zip(pops, attack.p):
        victims, pool = apply_attack(pop, p, rng)
        if local_mode:  # a fully connected network beside a graph also steps node by node
            dead0.append(np.sort(victims))
            if pop.received is None:
                pop.received = np.zeros(pop.load.size)
        pools.append(pool)

    trajectory: list[MeanFieldState] | None = [] if record_trajectory else None
    if record_trajectory:
        _record(trajectory, 0, cfgs, pops, pools)

    newly_dead = dead0
    fixed = isinstance(strategy, FCC)  # decided on the first step, then reused
    decision = None
    t = 0
    while t < max_steps:
        if all(p.alive_count == 0 for p in pops):
            return SimOutcome(tuple(0.0 for _ in cfgs), t, True, trajectory=trajectory)
        if all(pool <= 0.0 for pool in pools):
            break
        if decision is None or not fixed:
            views = _empirical_views(cfgs, attack, pops, pools, isinstance(strategy, SWO))
            decision = decide(strategy, views, t)
        if local_mode:
            newly_dead, pools = mc_step_local(pops, newly_dead, decision.matrix)
        else:
            pools = mc_step_complete(pops, pools, decision.matrix)
        t += 1
        if record_trajectory:
            _record(trajectory, t, cfgs, pops, pools)

    fractions = tuple(p.alive_count / c.node_count for p, c in zip(pops, cfgs))
    breakdown = all(p.alive_count == 0 for p in pops)
    return SimOutcome(fractions, t, breakdown,
                      non_converged=(t >= max_steps and any(pl > 0 for pl in pools)),
                      trajectory=trajectory)
