"""Node-level stochastic cascade simulation.

Two redistribution modes:

* complete: every network is fully connected, so a step's inbound load is
  shared equally by all survivors of the receiving network. Survivors of a
  network always carry the same cumulative extra load, kept as one float per
  network (`NodePopulation.shared`); no per-node `received` array is kept.
* local: load moves along edges. A dead node's share for network j splits
  equally over its live neighbors in j's graph, plus, for an out-net share,
  the live node with the same index in j. A share with no live receiver
  goes to all live nodes of j.

In both modes a network with no survivors follows the mean-field rule
(`meanfield._routed_inbound`): it holds what is aimed at it for one step,
then forwards its pool over its coupling row, renormalized over the
networks that still have survivors, as equal shares per survivor.

Deaths are evaluated simultaneously after all shares of a step are placed,
and a node fails when its received load strictly exceeds its free space.

One seed samples the same populations in every run, so `mc_run` draws
them once per (configs, seed) key and keeps the 4 most recent draws
(`_drawn`): each network's read-only load and free-space arrays, and the
generator state after the draw, from which the attack continues. An entry
holds 8 bytes per node for each law that is not a point mass (a point mass
draws one float), 1.6 MB for two 10^5-node networks with point loads. The
draws hit whenever one key's runs come close together: the probes of a
bisection over up to 4 seeds, a sweep's grid points (it loops seeds
outside them) and strategy comparisons; a run on a key not among the last
4 draws as before.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (AttackSpec, BarabasiAlbert, Complete, CouplingMatrix,
                   EdgeListTopology, ErdosRenyi, NetworkConfig, Topology)
from .distributions import dist_mean
from .meanfield import MeanFieldState, Outcome, RunResult, _routed_inbound
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


@dataclass
class NodePopulation:
    """One network's nodes and the cumulative extra load they carry."""
    load: np.ndarray
    space: np.ndarray
    alive: np.ndarray
    received: np.ndarray | None = None  # per node; None in a complete-graph run
    graph: Graph | None = None  # None: fully connected
    shared: float = 0.0  # every survivor's load in a complete-graph run


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
    load = cfg.load_dist.sample(n, rng)
    space = cfg.space_dist.sample(n, rng)
    return NodePopulation(load=load, space=space, alive=np.ones(n, dtype=bool),
                          received=None if graph is None else np.zeros(n), graph=graph)


@functools.lru_cache(maxsize=4)
def _drawn(cfgs: tuple[NetworkConfig, ...], seed: int):
    """Each network's (load, space) arrays, read-only, as `sample_population`
    draws them in order from `default_rng(seed)`, and that generator's state
    after the draw. Entries are immutable, so every caller may share them.
    4 is the most keys a seed batch cycles through while reusing them: 3
    seeds of one system, or one seed of 3 systems."""
    rng = np.random.default_rng(seed)
    arrays = []
    for cfg in cfgs:
        pop = sample_population(cfg, rng)
        pop.load.flags.writeable = pop.space.flags.writeable = False
        arrays.append((pop.load, pop.space))
    return tuple(arrays), rng.bit_generator.state


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
                     coupling: CouplingMatrix, counts: list[int]) -> list[float]:
    """One synchronous redistribution step; mutates populations in place and
    returns the next-step pools.

    Every survivor of a network carries the same cumulative load, `shared`.
    `counts`, each network's survivor count, is updated in place."""
    live = [c > 0 for c in counts]
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
        q_new = pop.shared + recv[k] / counts[k]
        newly = np.flatnonzero(pop.alive & (pop.space < q_new))
        pop.alive[newly] = False
        pop.shared = q_new
        counts[k] -= newly.size
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
                  pools: list[float], coupling: CouplingMatrix,
                  counts: list[int]) -> tuple[list[np.ndarray], list[float]]:
    """One topology-aware step; mutates populations and survivor `counts` in
    place. newly_dead holds, per network, the nodes that died in the previous
    step, and pools their carried load or the load an empty network holds.
    Returns (next newly-dead index arrays, next pools)."""
    live = [c > 0 for c in counts]
    parts: list[list] = [[] for _ in pops]  # receipts per receiving network
    # Network-wide shares: empty networks' pools, then shares with no live
    # receiver. An empty network holds what is aimed at it for one step.
    loose = _routed_inbound([0.0 if a else pool for a, pool in zip(live, pools)],
                            coupling, live)
    for i, dead in enumerate(newly_dead):
        if dead.size == 0 or not live[i]:
            continue
        carried = pops[i].load[dead] + pops[i].received[dead]
        for j, pop_j in enumerate(pops):
            frac = coupling.entry(i, j)
            if frac == 0.0:
                continue
            shares = carried * frac
            if pop_j.graph is None or not live[j]:
                loose[j] += float(shares.sum())
                continue
            # Out-net shares also reach the paired node (same index).
            receipts, placeable = _spread(pop_j.graph, pop_j.alive, dead, shares,
                                          None if i == j else pop_j.alive[dead])
            parts[j] += receipts
            loose[j] += float(shares[~placeable].sum())

    next_dead, next_pools = [], []
    for k, pop in enumerate(pops):
        if not live[k]:
            next_dead.append(np.empty(0, np.int64))
            next_pools.append(loose[k])
            continue
        # One bincount over the receipts in placement order, so every node
        # adds up what it receives in one fixed sequence.
        part = parts[k]
        if len(part) > 1:
            part = [tuple(map(np.concatenate, zip(*part)))]
        buf = np.bincount(*part[0], minlength=pop.load.size) if part else np.zeros(pop.load.size)
        if loose[k] != 0.0:
            np.add(buf, loose[k] / counts[k], out=buf, where=pop.alive)
        pop.received += buf
        idx = np.flatnonzero(pop.alive & (pop.received > pop.space))
        pop.alive[idx] = False
        counts[k] -= idx.size
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
                     with_q_cum: bool, counts: list[int]) -> list[NetView]:
    """Views for `decide` on survivor `counts`; q_cum (SWO's) is 0 unless asked."""
    views = []
    for i, (cfg, pop, count) in enumerate(zip(cfgs, pops, counts)):
        views.append(NetView(
            n_alive=float(count), pool=pools[i],
            q_cum=_q_cum(pop) if count and with_q_cum else 0.0, attack_frac=attack.p[i],
            node_count=cfg.node_count, load_mean=dist_mean(cfg.load_dist),
            space_dist=cfg.space_dist,
        ))
    return views


def _record(traj: list[MeanFieldState], t: int, cfgs, pops, pools, counts) -> None:
    f, n_alive, q_cum = [], [], []
    for cfg, pop, count in zip(cfgs, pops, counts):
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
           graphs: list[Graph | None] | None = None) -> RunResult:
    """Sample populations, apply the attack, and cascade to a fixed point.

    Deterministic for a given seed; the populations come from `_drawn`, so
    a recent (cfgs, seed) key is not sampled again. Pre-generated adjacency can be passed
    through `graphs` (one entry per network, None for fully connected) so
    repeated runs skip regeneration; otherwise each network's graph is
    generated from `graph_seed(seed, i)`. Stops when no pool is left to
    route, or when no node survives anywhere. The trajectory, an N-wide pass
    per network per step, is recorded only when asked for.
    """
    n = len(cfgs)
    if len(attack.p) != n:
        raise SimulationError(f"attack has {len(attack.p)} entries for {n} networks")
    local_mode = any(not isinstance(c.topology, Complete) for c in cfgs)
    if local_mode and len({c.node_count for c in cfgs}) != 1:
        raise SimulationError("local redistribution requires equal node counts")

    if graphs is None:
        graphs = [generate_graph(c.topology, c.node_count, graph_seed(seed, i))
                  for i, c in enumerate(cfgs)]
    drawn, state = _drawn(tuple(cfgs), seed)
    rng = np.random.default_rng(seed)
    rng.bit_generator.state = state  # where the draw left it
    # A fully connected network beside a graph also steps node by node.
    pops = [NodePopulation(load, space, np.ones(load.size, dtype=bool),
                           np.zeros(load.size) if local_mode else None, g)
            for (load, space), g in zip(drawn, graphs)]
    dead0, pools, alive = [], [], []  # alive: survivor counts, updated by each step
    for pop, p in zip(pops, attack.p):
        victims, pool = apply_attack(pop, p, rng)
        alive.append(pop.load.size - victims.size)
        if local_mode:
            dead0.append(np.sort(victims))
        pools.append(pool)
    spared = list(alive)

    trajectory: list[MeanFieldState] = []
    if record_trajectory:
        _record(trajectory, 0, cfgs, pops, pools, alive)

    newly_dead = dead0
    fixed = isinstance(strategy, FCC)  # decided on the first step, then reused
    decisions = []
    t = 0
    while t < max_steps and any(alive) and not all(pool <= 0.0 for pool in pools):
        if not decisions or not fixed:
            views = _empirical_views(cfgs, attack, pops, pools, isinstance(strategy, SWO),
                                     alive)
            decision = decide(strategy, views, t)
        decisions.append(decision)
        if local_mode:
            newly_dead, pools = mc_step_local(pops, newly_dead, pools, decision.matrix, alive)
        else:
            pools = mc_step_complete(pops, pools, decision.matrix, alive)
        t += 1
        if record_trajectory:
            _record(trajectory, t, cfgs, pops, pools, alive)

    if not any(alive):
        outcome = Outcome.BREAKDOWN
    elif any(pool > 0.0 for pool in pools):  # cut off at max_steps
        outcome = Outcome.NON_CONVERGED
    else:
        outcome = Outcome.NO_CASCADE if alive == spared else Outcome.SURVIVED
    return RunResult(tuple(a / c.node_count for a, c in zip(alive, cfgs)),
                     tuple(map(float, alive)), t, outcome, trajectory, decisions)
