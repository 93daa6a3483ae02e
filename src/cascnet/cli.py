"""Command-line orchestration: config parsing, run dispatch, CSV artifacts.

Configs are flat ``key = value`` files (diff-friendly, no nesting):

    engine = meanfield            # or: montecarlo
    networks = 2
    net0.nodes = 1000000
    net0.load = point(75)         # point(v) | uniform(lo,hi) | shiftedexp(shift,rate)
    net0.space = uniform(20,180)
    net0.topology = complete      # complete | er(deg) | ba(deg) | edges(path)
    net1.nodes = 1000000
    net1.load = point(75)
    net1.space = uniform(40,280)
    net1.topology = complete
    strategy = swo                # fcc | sbd | swo
    fcc.alpha = 0.65              # only read when strategy = fcc
    fcc.beta = 0.65
    swo.lo = 0                    # coupling bounds for swo
    swo.hi = 1
    attack = 0.5,0                # per-network attack fractions (meanfield/simulate)
    attack_shape = 1,0            # attack direction (critical/sweep/heatmap/compare)
    attack_grid = 0.05:0.95:0.05  # lo:hi:step, or explicit comma list
    compare = fcc:0.65:0.65,sbd,swo
    seed = 0
    seed_count = 100
    tol = 0.001
    resolution = 0.05
    clip_floor = 0.0
    max_steps = 100000

Every subcommand writes its CSV artifacts plus ``manifest.json`` (config
hash, seeds, library versions) so a run can be reproduced byte-for-byte.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import platform
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import (AttackSpec, BarabasiAlbert, Complete, CouplingMatrix,
                   EdgeListTopology, ErdosRenyi, NetworkConfig, Topology)
from .distributions import (DistributionSpec, Point, ShiftedExponential,
                            Uniform)
from .meanfield import Outcome, mf_run, trajectory_to_csv
from .montecarlo import SimulationError, mc_run
from .search import (GraphCache, attack_sweep, compare_strategies,
                     critical_attack_size, fcc_grid_sweep, heatmap_to_csv,
                     make_meanfield_runner, make_montecarlo_runner,
                     meanfield_sweep, sweep_to_csv)
from .strategies import FCC, SBD, SWO, CouplingStrategy

try:
    from importlib.metadata import version as _pkg_version
    _VERSION = _pkg_version("cascnet")
except Exception:  # pragma: no cover - not installed
    _VERSION = "unknown"


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    engine: str = "meanfield"
    networks: tuple[NetworkConfig, ...] = ()
    strategy_name: str = "sbd"
    fcc_alpha: float = 0.5
    fcc_beta: float = 0.5
    swo_lo: float = 0.0
    swo_hi: float = 1.0
    attack: tuple[float, ...] = ()
    attack_shape: tuple[float, ...] = ()
    attack_grid: tuple[float, ...] = ()
    compare: tuple[str, ...] = ("sbd", "swo")
    seed: int = 0
    seed_count: int = 100
    tol: float = 1e-3
    resolution: float = 0.05
    clip_floor: float = 0.0
    max_steps: int = 100_000

    @property
    def seeds(self) -> list[int]:
        return [self.seed + k for k in range(self.seed_count)]

    def strategy(self) -> CouplingStrategy:
        return _make_strategy(self.strategy_name, self)


def _make_strategy(name: str, cfg: RunConfig) -> CouplingStrategy:
    parts = name.split(":")
    kind = parts[0]
    if kind == "fcc":
        a = float(parts[1]) if len(parts) > 1 else cfg.fcc_alpha
        b = float(parts[2]) if len(parts) > 2 else cfg.fcc_beta
        return FCC(CouplingMatrix.two_net(a, b))
    if kind == "sbd":
        return SBD()
    if kind == "swo":
        return SWO(bounds=((cfg.swo_lo, cfg.swo_hi),))
    raise ConfigError(f"unknown strategy {name!r}")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _parse_dist(text: str, where: str) -> DistributionSpec:
    name, args = _call_form(text, where)
    try:
        if name == "point":
            (v,) = args
            return Point(v)
        if name == "uniform":
            lo, hi = args
            return Uniform(lo, hi)
        if name == "shiftedexp":
            shift, rate = args
            return ShiftedExponential(shift, rate)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}: unknown distribution {name!r}")


def _parse_topology(text: str, where: str) -> Topology:
    if text == "complete":
        return Complete()
    name, args = _call_form(text, where, numeric=(not text.startswith("edges")))
    try:
        if name == "er":
            (deg,) = args
            return ErdosRenyi(deg)
        if name == "ba":
            (deg,) = args
            return BarabasiAlbert(deg)
        if name == "edges":
            (path,) = args
            return EdgeListTopology(path)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}: unknown topology {text!r}")


def _call_form(text: str, where: str, numeric: bool = True):
    if "(" not in text or not text.endswith(")"):
        raise ConfigError(f"{where}: expected name(args), got {text!r}")
    name, body = text[:-1].split("(", 1)
    args = [a.strip() for a in body.split(",")] if body.strip() else []
    if numeric:
        try:
            args = [float(a) for a in args]
        except ValueError as exc:
            raise ConfigError(f"{where}: non-numeric argument in {text!r}") from exc
    return name.strip(), args


def _parse_fractions(text: str, where: str) -> tuple[float, ...]:
    try:
        vals = tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"{where}: expected comma-separated numbers") from exc
    for v in vals:
        if not (0.0 <= v <= 1.0):
            raise ConfigError(f"{where}: value {v} outside [0, 1]")
    return vals


def _parse_grid(text: str, where: str) -> tuple[float, ...]:
    if ":" in text:
        try:
            lo, hi, step = (float(x) for x in text.split(":"))
        except ValueError as exc:
            raise ConfigError(f"{where}: expected lo:hi:step") from exc
        if step <= 0 or hi < lo:
            raise ConfigError(f"{where}: need step > 0 and hi >= lo")
        n = int(round((hi - lo) / step))
        vals = tuple(round(lo + k * step, 12) for k in range(n + 1))
    else:
        vals = tuple(float(x) for x in text.split(","))
    for v in vals:
        if not (0.0 <= v <= 1.0):
            raise ConfigError(f"{where}: grid value {v} outside [0, 1]")
    return vals


_NET_KEYS = ("nodes", "load", "space", "topology")


def parse_config(text: str) -> RunConfig:
    """Strict key-value parsing; unknown keys and out-of-range values are
    rejected with the offending line."""
    raw: dict[str, tuple[int, str]] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = (lineno, value)

    def take(key, default=None):
        if key in raw:
            return raw.pop(key)[1]
        return default

    cfg = {}
    n_nets = take("networks")
    if n_nets is None:
        raise ConfigError("missing required key 'networks'")
    try:
        n_nets = int(n_nets)
    except ValueError as exc:
        raise ConfigError("'networks' must be an integer") from exc
    if n_nets < 1:
        raise ConfigError("'networks' must be >= 1")

    nets = []
    for i in range(n_nets):
        prefix = f"net{i}."
        vals = {}
        for sub in _NET_KEYS:
            v = take(prefix + sub)
            if v is None:
                raise ConfigError(f"missing required key '{prefix}{sub}'")
            vals[sub] = v
        try:
            nodes = int(vals["nodes"])
        except ValueError as exc:
            raise ConfigError(f"'{prefix}nodes' must be an integer") from exc
        try:
            nets.append(NetworkConfig(
                id=i, node_count=nodes,
                load_dist=_parse_dist(vals["load"], prefix + "load"),
                space_dist=_parse_dist(vals["space"], prefix + "space"),
                topology=_parse_topology(vals["topology"], prefix + "topology"),
            ))
        except ValueError as exc:
            raise ConfigError(f"net{i}: {exc}") from exc
    cfg["networks"] = tuple(nets)

    engine = take("engine", "meanfield")
    if engine not in ("meanfield", "montecarlo"):
        raise ConfigError(f"'engine' must be meanfield or montecarlo, got {engine!r}")
    cfg["engine"] = engine
    cfg["strategy_name"] = take("strategy", "sbd")
    if cfg["strategy_name"].split(":")[0] not in ("fcc", "sbd", "swo"):
        raise ConfigError(f"'strategy' must be fcc, sbd or swo, got {cfg['strategy_name']!r}")

    def num(key, default, lo=None, hi=None, integer=False):
        v = take(key, None)
        if v is None:
            return default
        try:
            out = int(v) if integer else float(v)
        except ValueError as exc:
            raise ConfigError(f"'{key}' must be a number, got {v!r}") from exc
        if lo is not None and out < lo:
            raise ConfigError(f"'{key}' must be >= {lo}, got {out}")
        if hi is not None and out > hi:
            raise ConfigError(f"'{key}' must be <= {hi}, got {out}")
        return out

    cfg["fcc_alpha"] = num("fcc.alpha", 0.5, 0.0, 1.0)
    cfg["fcc_beta"] = num("fcc.beta", 0.5, 0.0, 1.0)
    cfg["swo_lo"] = num("swo.lo", 0.0, 0.0, 1.0)
    cfg["swo_hi"] = num("swo.hi", 1.0, 0.0, 1.0)
    if cfg["swo_lo"] > cfg["swo_hi"]:
        raise ConfigError("'swo.lo' must not exceed 'swo.hi'")
    cfg["seed"] = num("seed", 0, integer=True)
    cfg["seed_count"] = num("seed_count", 100, lo=1, integer=True)
    cfg["tol"] = num("tol", 1e-3, lo=1e-12, hi=0.5)
    cfg["resolution"] = num("resolution", 0.05, lo=1e-6, hi=1.0)
    cfg["clip_floor"] = num("clip_floor", 0.0, 0.0, 1.0)
    cfg["max_steps"] = num("max_steps", 100_000, lo=1, integer=True)

    attack = take("attack")
    cfg["attack"] = _parse_fractions(attack, "attack") if attack else ()
    shape = take("attack_shape")
    cfg["attack_shape"] = _parse_fractions(shape, "attack_shape") if shape else ()
    grid = take("attack_grid")
    cfg["attack_grid"] = _parse_grid(grid, "attack_grid") if grid else ()
    compare = take("compare")
    cfg["compare"] = tuple(s.strip() for s in compare.split(",")) if compare else ("sbd", "swo")
    for name in cfg["compare"]:
        if name.split(":")[0] not in ("fcc", "sbd", "swo"):
            raise ConfigError(f"'compare' entry {name!r} is not a strategy")

    if raw:
        key, (lineno, _) = next(iter(raw.items()))
        raise ConfigError(f"line {lineno}: unknown key {key!r}")

    out = RunConfig(**cfg)
    for vec, name in ((out.attack, "attack"), (out.attack_shape, "attack_shape")):
        if vec and len(vec) != n_nets:
            raise ConfigError(f"'{name}' has {len(vec)} entries for {n_nets} networks")
    return out


def _emit_dist(d: DistributionSpec) -> str:
    if isinstance(d, Point):
        return f"point({d.value!r})"
    if isinstance(d, Uniform):
        return f"uniform({d.lo!r},{d.hi!r})"
    if isinstance(d, ShiftedExponential):
        return f"shiftedexp({d.shift!r},{d.rate!r})"
    raise ConfigError(f"cannot emit distribution {d!r}")


def _emit_topology(t: Topology) -> str:
    if isinstance(t, Complete):
        return "complete"
    if isinstance(t, ErdosRenyi):
        return f"er({t.mean_degree!r})"
    if isinstance(t, BarabasiAlbert):
        return f"ba({t.mean_degree!r})"
    if isinstance(t, EdgeListTopology):
        return f"edges({t.path})"
    raise ConfigError(f"cannot emit topology {t!r}")


def emit_config(cfg: RunConfig) -> str:
    """Normalized text form; parse(emit(cfg)) == cfg."""
    lines = [f"engine = {cfg.engine}", f"networks = {len(cfg.networks)}"]
    for i, net in enumerate(cfg.networks):
        lines += [
            f"net{i}.nodes = {net.node_count}",
            f"net{i}.load = {_emit_dist(net.load_dist)}",
            f"net{i}.space = {_emit_dist(net.space_dist)}",
            f"net{i}.topology = {_emit_topology(net.topology)}",
        ]
    lines += [
        f"strategy = {cfg.strategy_name}",
        f"fcc.alpha = {cfg.fcc_alpha!r}",
        f"fcc.beta = {cfg.fcc_beta!r}",
        f"swo.lo = {cfg.swo_lo!r}",
        f"swo.hi = {cfg.swo_hi!r}",
    ]
    if cfg.attack:
        lines.append("attack = " + ",".join(repr(v) for v in cfg.attack))
    if cfg.attack_shape:
        lines.append("attack_shape = " + ",".join(repr(v) for v in cfg.attack_shape))
    if cfg.attack_grid:
        lines.append("attack_grid = " + ",".join(repr(v) for v in cfg.attack_grid))
    lines += [
        "compare = " + ",".join(cfg.compare),
        f"seed = {cfg.seed}",
        f"seed_count = {cfg.seed_count}",
        f"tol = {cfg.tol!r}",
        f"resolution = {cfg.resolution!r}",
        f"clip_floor = {cfg.clip_floor!r}",
        f"max_steps = {cfg.max_steps}",
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Run dispatch
# ---------------------------------------------------------------------------

def _write_manifest(out_dir: Path, cfg: RunConfig, command: str,
                    outputs: list[str]) -> None:
    normalized = emit_config(cfg)
    manifest = {
        "command": command,
        "config_sha256": hashlib.sha256(normalized.encode()).hexdigest(),
        "config": normalized,
        "seed": cfg.seed,
        "seed_count": cfg.seed_count,
        "seeds": cfg.seeds,
        "versions": {
            "package": _VERSION,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "outputs": outputs,
    }
    paths = [n.topology.path for n in cfg.networks if isinstance(n.topology, EdgeListTopology)]
    if paths:  # the config names edge lists by path only; pin their contents too
        manifest["edge_list_sha256"] = {
            p: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _require(cfg: RunConfig, attr: str, command: str) -> None:
    if not getattr(cfg, attr):
        raise ConfigError(f"'{command}' needs '{attr}' in the config")


def _attack_vector(cfg: RunConfig) -> AttackSpec:
    _require(cfg, "attack", "this command")
    return AttackSpec(cfg.attack)


def cmd_meanfield(cfg: RunConfig, out_dir: Path) -> int:
    traj = mf_run(list(cfg.networks), _attack_vector(cfg), cfg.strategy(),
                  max_steps=cfg.max_steps)
    trajectory_to_csv(traj, str(out_dir / "trajectory.csv"))
    _write_manifest(out_dir, cfg, "meanfield", ["trajectory.csv"])
    portion = traj.surviving_portion(tuple(n.node_count for n in cfg.networks))
    print(f"outcome={traj.outcome.value} steps={traj.steps_taken} "
          f"surviving_portion={portion:.6f}")
    return 0 if traj.outcome != Outcome.NON_CONVERGED else 1


def cmd_simulate(cfg: RunConfig, out_dir: Path) -> int:
    attack = _attack_vector(cfg)
    cache = GraphCache(list(cfg.networks))
    rows = []  # written only once every run has succeeded
    for s in cfg.seeds:
        out = mc_run(list(cfg.networks), attack, cfg.strategy(), seed=s,
                     max_steps=cfg.max_steps, graphs=cache.graphs(s))
        rows.append([s, out.steps, int(out.breakdown)]
                    + [repr(f) for f in out.final_fractions])
    path = out_dir / "runs.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["seed", "steps", "breakdown"]
                   + [f"fraction_{i}" for i in range(len(cfg.networks))])
        w.writerows(rows)
    _write_manifest(out_dir, cfg, "simulate", ["runs.csv"])
    print(f"wrote {path}")
    return 0


def cmd_critical(cfg: RunConfig, out_dir: Path) -> int:
    _require(cfg, "attack_shape", "critical")
    nets = list(cfg.networks)
    if cfg.engine == "meanfield":
        runner = make_meanfield_runner(nets, cfg.strategy(), cfg.attack_shape,
                                       cfg.max_steps)
    else:
        runner = make_montecarlo_runner(nets, cfg.strategy(), cfg.attack_shape,
                                        cfg.seeds, max_steps=cfg.max_steps)
    res = critical_attack_size(runner, cfg.tol)
    with open(out_dir / "critical.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["strategy", "critical_size", "no_breakdown"])
        w.writerow([cfg.strategy_name, repr(res.value), int(res.no_breakdown)])
    _write_manifest(out_dir, cfg, "critical", ["critical.csv"])
    print(f"critical_attack_size={res.value:.6f}"
          + (" (no breakdown at full scale)" if res.no_breakdown else ""))
    return 0


def cmd_sweep(cfg: RunConfig, out_dir: Path) -> int:
    _require(cfg, "attack_grid", "sweep")
    _require(cfg, "attack_shape", "sweep")
    nets = list(cfg.networks)
    if cfg.engine == "meanfield":
        result = meanfield_sweep(nets, cfg.strategy(), cfg.attack_grid,
                                 cfg.attack_shape, cfg.max_steps)
    else:
        result = attack_sweep(nets, cfg.strategy(), cfg.attack_grid,
                              cfg.attack_shape, cfg.seeds,
                              max_steps=cfg.max_steps)
    sweep_to_csv(result, str(out_dir / "sweep.csv"))
    _write_manifest(out_dir, cfg, "sweep", ["sweep.csv"])
    print(f"wrote {out_dir / 'sweep.csv'}")
    return 0


def cmd_heatmap(cfg: RunConfig, out_dir: Path) -> int:
    _require(cfg, "attack_shape", "heatmap")
    result = fcc_grid_sweep(list(cfg.networks), cfg.attack_shape,
                            resolution=cfg.resolution, clip_floor=cfg.clip_floor,
                            tol=cfg.tol, seeds=cfg.seeds,
                            use_meanfield=(cfg.engine == "meanfield"),
                            max_steps=cfg.max_steps)
    heatmap_to_csv(result, str(out_dir / "heatmap.csv"))
    _write_manifest(out_dir, cfg, "heatmap", ["heatmap.csv"])
    a, b = result.argmax
    print(f"best alpha={a:.4f} beta={b:.4f} critical_size={result.max_value:.6f}")
    return 0


def cmd_compare(cfg: RunConfig, out_dir: Path) -> int:
    _require(cfg, "attack_grid", "compare")
    _require(cfg, "attack_shape", "compare")
    strategies = {name: _make_strategy(name, cfg) for name in cfg.compare}
    reports = compare_strategies(list(cfg.networks), strategies,
                                 cfg.attack_grid, cfg.attack_shape,
                                 seeds=cfg.seeds, tol=cfg.tol,
                                 use_meanfield=(cfg.engine == "meanfield"),
                                 max_steps=cfg.max_steps)
    with open(out_dir / "compare_sweeps.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["strategy", "attack", "mean_fraction", "std", "n_runs"])
        for rep in reports:
            for a, m, s in zip(rep.sweep.attack_grid, rep.sweep.mean_fraction,
                               rep.sweep.std_fraction):
                w.writerow([rep.name, repr(a), repr(m), repr(s), rep.sweep.n_runs])
    with open(out_dir / "compare_critical.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["strategy", "critical_size", "no_breakdown"])
        for rep in reports:
            w.writerow([rep.name, repr(rep.critical.value),
                        int(rep.critical.no_breakdown)])
            print(f"{rep.name}: critical_attack_size={rep.critical.value:.6f}")
    _write_manifest(out_dir, cfg, "compare",
                    ["compare_sweeps.csv", "compare_critical.csv"])
    return 0


_COMMANDS = {
    "meanfield": cmd_meanfield,
    "simulate": cmd_simulate,
    "critical": cmd_critical,
    "sweep": cmd_sweep,
    "heatmap": cmd_heatmap,
    "compare": cmd_compare,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cascnet",
        description="Cascading-failure simulation and coupling optimization")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="flat key=value config file")
        p.add_argument("--seed", type=int, default=None, help="override base seed")
        p.add_argument("--out-dir", default=".", help="artifact directory")
        p.add_argument("--resolution", type=float, default=None,
                       help="override coupling-grid resolution")
        p.add_argument("--tol", type=float, default=None,
                       help="override bisection tolerance")
        p.add_argument("--edges", action="append", default=[],
                       metavar="NET=PATH",
                       help="use an edge-list file as network NET's topology")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(Path(args.config).read_text())
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if args.resolution is not None:
            cfg = replace(cfg, resolution=args.resolution)
        if args.tol is not None:
            cfg = replace(cfg, tol=args.tol)
        for spec in args.edges:
            if "=" not in spec:
                raise ConfigError(f"--edges expects NET=PATH, got {spec!r}")
            idx, path = spec.split("=", 1)
            i = int(idx)
            if not (0 <= i < len(cfg.networks)):
                raise ConfigError(f"--edges index {i} out of range")
            nets = list(cfg.networks)
            nets[i] = replace(nets[i], topology=EdgeListTopology(path))
            cfg = replace(cfg, networks=tuple(nets))
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out_dir)
    except (ConfigError, ValueError, OSError, SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
