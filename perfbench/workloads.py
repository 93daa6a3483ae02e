"""The four workloads: their inputs, their ops and the checks on each op.

A workload builds its inputs from the workload seed in `setup`, then
hands out rounds of units. A unit either is one op, timed by the
recorder, or (mc-local) issues its ops through a hook on the library
call that makes them. The harness only ever runs whole rounds, so every
run sees the same mix of op kinds whatever its length.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from tracer import Tracer

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

MF_TOL = 1e-3          # bisection tolerance of the mean-field ops
MC_PORTION_BOUND = 0.005  # criteria 2 and 4, on means over a run's seeds
SWO_DEADLINE_S = 0.1   # per decision; a decision steers one cascade step


class Systems:
    """The paper's settings, as used by the acceptance criteria."""

    def __init__(self, lib):
        c, d = lib.core, lib.distributions
        net = c.NetworkConfig
        pt, uni = d.Point, d.Uniform
        n5 = 10 ** 5
        sexp = d.ShiftedExponential(20.0, 1.0 / 120.0)
        # Criterion 1: non-identical uniform pair, attack on the wider one.
        self.nonidentical = [net(0, n5, pt(75.0), uni(20, 180)),
                             net(1, n5, pt(75.0), uni(40, 280))]
        # Criterion 2: identical uniform and shifted-exponential pairs.
        self.identical = [net(0, n5, pt(75.0), uni(20, 180)),
                          net(1, n5, pt(75.0), uni(20, 180))]
        self.shifted_exp = [net(0, n5, pt(60.0), sexp),
                            net(1, n5, pt(60.0), sexp)]
        # Criterion 3: narrow free space.
        self.narrow = [net(0, 10 ** 6, uni(10, 30), uni(10, 65)),
                       net(1, 10 ** 6, uni(10, 30), uni(10, 65))]
        # Criteria 5 and 6: local redistribution on random graphs.
        self.er = [net(0, n5, pt(75.0), uni(20, 180), c.ErdosRenyi(20.0)),
                   net(1, n5, pt(75.0), uni(20, 180), c.ErdosRenyi(40.0))]
        self.ba = [net(0, n5, pt(75.0), uni(20, 180), c.BarabasiAlbert(20.0)),
                   net(1, n5, pt(75.0), uni(20, 180), c.BarabasiAlbert(40.0))]
        # Three networks: the only input that reaches the multinet solver.
        self.three = [net(0, n5, pt(75.0), uni(20, 180)),
                      net(1, n5, pt(75.0), uni(40, 280)),
                      net(2, n5, pt(75.0), uni(30, 230))]


def portion(fractions, cfgs) -> float:
    counts = [c.node_count for c in cfgs]
    return sum(f * n for f, n in zip(fractions, counts)) / sum(counts)


class Workload:
    name = ""
    deadline_s = 5.0   # per op; about 50 times a typical op
    setup_reps = 3
    min_rounds = 1

    def __init__(self, lib, seed: int, scratch: Path):
        self.lib = lib
        self.seed = seed
        self.scratch = scratch
        self.rng = np.random.default_rng(seed)

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, index: int, rec) -> list:
        """Units of one round, in run order."""
        raise NotImplementedError

    def hooks(self, patches, rec) -> None:
        """Install the library hooks that report ops or their failures."""

    def finish(self, rec) -> None:
        """Checks over a whole timed phase, run after its last round."""

    def notes(self) -> dict:
        return {}


# ---------------------------------------------------------------------------
# mf-critical
# ---------------------------------------------------------------------------

def _dist_text(d, dists) -> str:
    if isinstance(d, dists.Point):
        return f"point({d.value!r})"
    if isinstance(d, dists.Uniform):
        return f"uniform({d.lo!r},{d.hi!r})"
    return f"shiftedexp({d.shift!r},{d.rate!r})"


def compare_config(cfgs, shape, dists) -> str:
    """`cascnet compare` config text for a complete-graph system."""
    lines = ["engine = meanfield", f"networks = {len(cfgs)}"]
    for i, c in enumerate(cfgs):
        lines += [f"net{i}.nodes = {c.node_count}",
                  f"net{i}.load = {_dist_text(c.load_dist, dists)}",
                  f"net{i}.space = {_dist_text(c.space_dist, dists)}",
                  f"net{i}.topology = complete"]
    lines += ["attack_shape = " + ",".join(map(str, shape)),
              "attack_grid = 0.05:0.95:0.05", "compare = sbd,swo",
              f"tol = {MF_TOL}"]
    return "\n".join(lines) + "\n"


class MfCritical(Workload):
    """Mean-field critical attack sizes: criterion 1's heatmap, criterion 3's
    symmetric diagonal and the `cascnet compare` command."""
    name = "mf-critical"
    # A round takes about 7 s; the machine's speed wanders by a fifth over
    # seconds, and three rounds average it out better than two.
    min_rounds = 3

    HEAT_GRID = tuple(round(0.05 * i, 2) for i in range(21))
    COMPARE = (("nonidentical", (0.0, 1.0)), ("narrow", (1.0, 0.0)),
               ("shifted_exp", (1.0, 0.0)))

    def setup(self) -> None:
        self.sys = Systems(self.lib)
        self.ref = json.loads(REFERENCE.read_text())["mf-critical"]
        self.configs = {}
        for name, shape in self.COMPARE:
            path = self.scratch / f"{name}.cfg"
            path.write_text(compare_config(getattr(self.sys, name), shape,
                                           self.lib.distributions))
            self.configs[name] = path
        ops = [("heat", a, b) for a in self.HEAT_GRID for b in self.HEAT_GRID]
        ops += [("diag", x, x) for x in self.HEAT_GRID]
        ops += [("cli", name, None) for name, _ in self.COMPARE]
        self.ops = [ops[i] for i in self.rng.permutation(len(ops))]
        self.kinds = {k: sum(op[0] == k for op in ops) for k in ("heat", "diag", "cli")}

    def hooks(self, patches, rec) -> None:
        non_converged = self.lib.meanfield.Outcome.NON_CONVERGED

        def wrap(mf_run):
            def hooked(*args, **kwargs):
                traj = mf_run(*args, **kwargs)
                if traj.outcome == non_converged:
                    rec.flag("non_converged")
                return traj
            return hooked

        patches.patch(self.lib.search, "mf_run", wrap)
        patches.patch(self.lib.cli, "mf_run", wrap)

    def round(self, index, rec):
        return [self._unit(op, rec) for op in self.ops]

    def _unit(self, op, rec):
        kind, a, b = op
        if kind == "cli":
            return lambda: rec.op(lambda: self._compare(a), self._check_compare(a))
        cfgs, shape, ref = (
            (self.sys.nonidentical, (0.0, 1.0), self.ref["heatmap"])
            if kind == "heat" else
            (self.sys.narrow, (1.0, 0.0), self.ref["diagonal"]))
        expect = ref["cells"][self.HEAT_GRID.index(a)][self.HEAT_GRID.index(b)] \
            if kind == "heat" else ref["critical"][self.HEAT_GRID.index(a)]
        search = self.lib.search

        def call():
            return search.fcc_grid_sweep(cfgs, attack_shape=shape, tol=MF_TOL,
                                         use_meanfield=True, alpha_grid=(a,),
                                         beta_grid=(b,))

        def check(heat):
            got = heat.cells[0][0]
            return None if abs(got - expect) <= MF_TOL else \
                f"{kind}({a},{b}) critical {got} vs reference {expect}"

        return lambda: rec.op(call, check)

    def _compare(self, name):
        out_dir = self.scratch / name
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.lib.cli.main(["compare", "--config", str(self.configs[name]),
                                      "--out-dir", str(out_dir)])
        return code, out_dir

    def _check_compare(self, name):
        expect = self.ref["compare"][name]

        def check(result):
            code, out_dir = result
            if code != 0:
                return f"compare {name} exited with {code}"
            with open(out_dir / "compare_critical.csv") as fh:
                got = {row["strategy"]: float(row["critical_size"])
                       for row in csv.DictReader(fh)}
            for strategy, value in expect.items():
                if strategy not in got or abs(got[strategy] - value) > MF_TOL:
                    return f"compare {name} {strategy}: {got.get(strategy)} vs {value}"
            return None

        return check

    def notes(self):
        diag = self.ref["diagonal"]
        return {"ops_per_round": self.kinds,
                "diagonal_argmax_x": diag["argmax_x"],
                "diagonal_argmax_note": diag["note"]}


# ---------------------------------------------------------------------------
# mc-complete
# ---------------------------------------------------------------------------

class McComplete(Workload):
    """Complete-graph Monte-Carlo runs at N = 1e5 per network."""
    name = "mc-complete"
    # The closing checks use the first rounds only, so that whether a run
    # passes depends on its seed and not on how many rounds it had time for.
    min_rounds = 3

    GRIDS = {
        "identical": (0.30, 0.35, 0.40, 0.45, 0.50, 0.55),    # criterion 2
        "shifted_exp": (0.15, 0.20, 0.25, 0.30, 0.35, 0.40),  # criterion 2
        "nonidentical": tuple(float(g) for g in np.linspace(0.03, 0.60, 20)),  # crit. 4
    }

    def setup(self) -> None:
        lib = self.lib
        sys_ = Systems(lib)
        st = lib.strategies
        plan = [("identical", st.SBD()), ("identical", st.SWO()),
                ("shifted_exp", st.SBD()), ("shifted_exp", st.SWO()),
                ("nonidentical", st.SBD())]
        self.cases = []
        for name, strategy in plan:
            cfgs = getattr(sys_, name)
            for g in self.GRIDS[name]:
                attack = lib.core.AttackSpec((g, 0.0))
                expect = lib.meanfield.mf_run(cfgs, attack, strategy) \
                    .surviving_portion(tuple(c.node_count for c in cfgs))
                self.cases.append((name, cfgs, attack, strategy, expect))
        self.round_seeds = self.rng.integers(0, 2 ** 31, size=10_000)

    def round(self, index, rec):
        if index == 0:
            self.portions = [[] for _ in self.cases]  # (op index, portion)
        seed = int(self.round_seeds[index])
        order = np.random.default_rng(seed).permutation(len(self.cases))
        return [self._unit(i, seed, index < self.min_rounds, rec) for i in order]

    def _unit(self, i, seed, checked, rec):
        name, cfgs, attack, strategy, expect = self.cases[i]
        montecarlo = self.lib.montecarlo

        def check(out):
            if out.non_converged:
                return "non_converged"
            if checked:
                self.portions[i].append((rec.ops, portion(out.final_fractions, cfgs)))
            return None

        return lambda: rec.op(
            lambda: montecarlo.mc_run(cfgs, attack, strategy, seed=seed), check)

    def finish(self, rec):
        """A single seed can stray past the criteria's bound near a
        transition, so the bound applies to means over the seeds of the
        first `min_rounds` rounds, as in the criteria: each case against
        the mean-field portion (criterion 4), and SWO against SBD on shared
        seeds (criterion 2)."""
        by_point = {}
        for (name, _, attack, strategy, expect), runs in zip(self.cases, self.portions):
            if not runs:
                continue
            label = f"{name} {type(strategy).__name__} p={attack.p[0]:.3f}"
            by_point.setdefault((name, attack.p[0]), {})[type(strategy).__name__] = runs
            mean = float(np.mean([x for _, x in runs]))
            if abs(mean - expect) > MC_PORTION_BOUND:
                rec.fail_op(runs[-1][0], f"{label}: mean portion {mean:.5f} over "
                            f"{len(runs)} seeds vs mean-field {expect:.5f}")
        for (name, p), by in by_point.items():
            if "SBD" in by and "SWO" in by:
                n = min(len(by["SBD"]), len(by["SWO"]))
                gap = abs(np.mean([x for _, x in by["SBD"][:n]])
                          - np.mean([x for _, x in by["SWO"][:n]]))
                if gap > MC_PORTION_BOUND:
                    rec.fail_op(by["SWO"][-1][0], f"{name} p={p:.3f}: SWO-SBD "
                                f"gap {gap:.5f} over {n} shared seeds")

    def notes(self):
        return {"ops_per_round": len(self.cases)}


# ---------------------------------------------------------------------------
# mc-local
# ---------------------------------------------------------------------------

class McLocal(Workload):
    """Monte-Carlo bisections with load moving along ER and BA edges."""
    name = "mc-local"
    deadline_s = 10.0
    # One set-up generates eight N = 1e5 graphs, about 20 s; repeating it
    # would add a third to every run of this workload.
    setup_reps = 1

    # (center, half-width) from the acceptance criteria: criterion 5's
    # heatmap maximum 0.52 bounds its (0.4, 0.9) cell, SWO 0.49 on ER/ER;
    # criterion 6's SWO 0.396 on BA/BA.
    BOUNDS = {"fcc_er": (0.52, 0.03), "swo_er": (0.49, 0.03),
              "swo_ba": (0.396, 0.03)}

    def setup(self) -> None:
        lib = self.lib
        sys_ = Systems(lib)
        st, search = lib.strategies, lib.search
        batch = [3 * self.seed + k for k in range(3)]
        er_cache, ba_cache = search.GraphCache(sys_.er), search.GraphCache(sys_.ba)
        for s in batch:
            er_cache.graphs(s)
        ba_cache.graphs(self.seed)
        fcc = st.FCC(lib.core.CouplingMatrix.two_net(0.4, 0.9))
        self.searches = [
            ("fcc_er", sys_.er, fcc, batch, 0.01, er_cache),
            ("swo_er", sys_.er, st.SWO(), batch, 5e-3, er_cache),
            ("swo_ba", sys_.ba, st.SWO(), [self.seed], 5e-3, ba_cache),
        ]
        self.results: dict[str, list[float]] = {k: [] for k in self.BOUNDS}

    def hooks(self, patches, rec) -> None:
        def wrap(mc_run):
            def hooked(*args, **kwargs):
                return rec.op(lambda: mc_run(*args, **kwargs), self._check_run)
            return hooked

        patches.patch(self.lib.search, "mc_run", wrap)

    @staticmethod
    def _check_run(out):
        return "non_converged" if out.non_converged else None

    def round(self, index, rec):
        order = np.random.default_rng([self.seed, index]).permutation(len(self.searches))
        return [self._unit(self.searches[i], rec) for i in order]

    def _unit(self, spec, rec):
        name, cfgs, strategy, seeds, tol, cache = spec
        search = self.lib.search
        center, width = self.BOUNDS[name]

        def unit():
            runner = search.make_montecarlo_runner(cfgs, strategy, (1.0, 0.0),
                                                   seeds, cache)
            try:
                value = search.critical_attack_size(runner, tol).value
            except Exception as exc:  # the bisection itself failed
                rec.fail_last(f"{name}: {type(exc).__name__}: {exc}")
                raise
            self.results[name].append(value)
            if abs(value - center) > width:
                rec.fail_last(f"{name} critical {value:.4f} outside "
                              f"{center} +- {width}")

        return unit

    def notes(self):
        # A bisection probes scale 0, scale 1, then halves down to tol.
        per_round = sum((2 + math.ceil(math.log2(1 / tol))) * len(seeds)
                        for _, _, _, seeds, tol, _ in self.searches)
        return {"ops_per_round": per_round,
                "critical": {k: sorted(set(v)) for k, v in self.results.items()}}


# ---------------------------------------------------------------------------
# swo-decide
# ---------------------------------------------------------------------------

def _model_objective(mats, views, dists) -> np.ndarray:
    """Predicted next-step extra load for a stack of coupling matrices,
    from the model stated in `cascnet.strategies`: uniform free space
    fails survivors at the window density 1/d until the top of its support;
    shifted-exponential free space fails a fraction 1 - exp(-rate*u)."""
    pools = np.array([v.pool for v in views])
    total = np.zeros(mats.shape[0])
    inbound = np.einsum("mij,i->mj", mats, pools)
    for k, v in enumerate(views):
        if v.n_alive <= 0:
            continue
        u = inbound[:, k] / v.n_alive
        sd = v.space_dist
        if isinstance(sd, dists.Uniform):
            if v.q_cum >= sd.hi:
                continue
            dead = (1.0 - v.attack_frac) * v.node_count * u / (sd.hi - sd.lo)
        else:
            dead = v.n_alive * (1.0 - np.exp(-sd.rate * u))
        total += dead * (v.load_mean + v.q_cum + u)
    return total


def _two_net_grid(step: float = 0.05) -> np.ndarray:
    g = np.arange(0.0, 1.0 + step / 2, step)
    aa, bb = np.meshgrid(g, g, indexing="ij")
    a, b = aa.ravel(), bb.ravel()
    return np.stack([np.stack([a, 1 - a], 1), np.stack([1 - b, b], 1)], 1)


class SwoDecide(Workload):
    """Single SWO decisions on states harvested from SBD runs."""
    name = "swo-decide"
    deadline_s = SWO_DEADLINE_S

    # Decisions per round for the two-network paths, drawn from the harvest.
    # With every multinet state kept (about 140), this mix puts the median
    # inside the grid decisions (0.3-0.4 ms) and p90 inside the multinet
    # ones. A median among the 0.05-0.1 ms box decisions spread by a fifth
    # from run to run, more than the machine's speed did.
    BOX, GRID = 140, 310
    SCALES = tuple(0.80 + 0.025 * i for i in range(8))

    def setup(self) -> None:
        lib = self.lib
        sys_ = Systems(lib)
        st, mf, mc, core = lib.strategies, lib.meanfield, lib.montecarlo, lib.core
        harvest = {"swo_box": [], "swo_grid": [], "swo_multinet": []}
        sink: list = []

        def grab(decide):
            def hooked(strategy, views, t):
                sink.append((list(views), t))
                return decide(strategy, views, t)
            return hooked

        patches = Tracer()
        patches.patch(mf, "decide", grab)
        patches.patch(mc, "decide", grab)
        try:
            plan = [("swo_box", sys_.nonidentical, (0.0, 1.0)),
                    ("swo_box", sys_.identical, (1.0, 0.0)),
                    ("swo_grid", sys_.shifted_exp, (1.0, 0.0)),
                    ("swo_multinet", sys_.three, (1.0, 1.0, 1.0))]
            for path, cfgs, shape in plan:
                crit = lib.search.critical_attack_size(
                    lib.search.make_meanfield_runner(cfgs, st.SBD(), shape),
                    MF_TOL).value
                for scale in self.SCALES:
                    k = crit * (scale + self.rng.uniform(-0.005, 0.005))
                    sink.clear()
                    mf.mf_run(cfgs, core.AttackSpec(tuple(k * s for s in shape)),
                              st.SBD())
                    harvest[path] += sink
            for path, cfgs, attacks in (("swo_box", sys_.identical, (0.45, 0.50)),
                                        ("swo_grid", sys_.shifted_exp, (0.35, 0.40))):
                for p in attacks:
                    sink.clear()
                    mc.mc_run(cfgs, core.AttackSpec((p, 0.0)), st.SBD(),
                              seed=int(self.rng.integers(0, 2 ** 31)))
                    harvest[path] += sink
        finally:
            patches.restore()

        def draw(states, k):
            idx = self.rng.choice(len(states), size=k, replace=len(states) < k)
            return [states[i] for i in idx]

        corpus = ([("swo_box", s) for s in draw(harvest["swo_box"], self.BOX)]
                  + [("swo_grid", s) for s in draw(harvest["swo_grid"], self.GRID)]
                  + [("swo_multinet", s) for s in harvest["swo_multinet"]])
        self.corpus = [corpus[i] for i in self.rng.permutation(len(corpus))]
        self.harvested = {k: len(v) for k, v in harvest.items()}
        self.kinds = {k: sum(c[0] == k for c in corpus) for k in harvest}
        self.strategy = st.SWO()

    def round(self, index, rec):
        return [self._unit(path, views, t, rec) for path, (views, t) in self.corpus]

    def _unit(self, path, views, t, rec):
        lib, strategy = self.lib, self.strategy
        dists = lib.distributions
        n = len(views)
        lo, hi = strategy.bounds[0]

        def check(decision):
            m = decision.matrix.as_array()
            if m.shape != (n, n) or not np.all(np.isfinite(m)):
                return f"{path}: malformed matrix {m.tolist()}"
            if np.any(np.abs(m.sum(axis=1) - 1.0) > 1e-9) or m.min() < -1e-12 \
                    or m.max() > 1 + 1e-12:
                return f"{path}: matrix not row-stochastic {m.tolist()}"
            if n > 2 and (m.min() < lo - 1e-12 or m.max() > hi + 1e-12):
                return f"{path}: entries outside SWO bounds {m.tolist()}"
            value = _model_objective(m[None], views, dists)[0]
            if n == 2:
                # Both two-network solvers must beat every point of the
                # coarse grid (the box solver is exact, the grid solver
                # refines from the coarse grid's best point).
                best = _model_objective(_two_net_grid(), views, dists).min()
            else:
                alive = np.array([max(v.n_alive, 0.0) for v in views])
                sbd = np.tile(alive / alive.sum(), (n, 1))
                best = _model_objective(sbd[None], views, dists)[0]
            if value > best + 1e-9 * max(1.0, abs(best)):
                return f"{path}: objective {value} above reference {best}"
            return None

        return lambda: rec.op(lambda: lib.strategies.decide(strategy, views, t), check)

    def notes(self):
        return {"ops_per_round": self.kinds, "harvested_states": self.harvested}


WORKLOADS = {w.name: w for w in (MfCritical, McComplete, McLocal, SwoDecide)}
