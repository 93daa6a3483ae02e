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
``RunConfig``'s fields are the table of keys, defaults and ranges; the
``--seed``, ``--tol`` and ``--resolution`` flags are checked like their keys.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import platform
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .core import (AttackSpec, BarabasiAlbert, Complete, CouplingMatrix,
                   EdgeListTopology, ErdosRenyi, NetworkConfig)
from .distributions import Point, ShiftedExponential, Uniform
from .meanfield import Outcome, mf_run, trajectory_to_csv
from .montecarlo import SimulationError, mc_run
from .search import (GraphCache, _unsettled, attack_sweep, compare_strategies,
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


# ---------------------------------------------------------------------------
# Value forms: each parser maps one value's text to its value or raises
# ValueError; parse_config names the key.
# ---------------------------------------------------------------------------

_DISTRIBUTIONS = {"point": Point, "uniform": Uniform, "shiftedexp": ShiftedExponential}
_TOPOLOGIES = {"complete": Complete, "er": ErdosRenyi, "ba": BarabasiAlbert,
               "edges": EdgeListTopology}
_CALL_NAMES = {cls: name for forms in (_DISTRIBUTIONS, _TOPOLOGIES)
               for name, cls in forms.items()}


def _call_form(forms: dict[str, type]):
    """Parser for ``name(arg,...)``: the arguments fill the class's fields in
    order, as floats unless the field is a string. A class without fields is
    written as its bare name."""
    def parse(text: str):
        name, paren, body = text.partition("(")
        cls = forms.get(name.strip())
        if cls is None:
            raise ValueError(f"unknown form {text!r}, expected one of {', '.join(forms)}")
        params = fields(cls)
        if not params and not paren:
            return cls()
        if not params or not body.endswith(")"):
            raise ValueError(f"expected name(args) or a bare name, got {text!r}")
        args = [a.strip() for a in body[:-1].split(",")] if body[:-1].strip() else []
        if len(args) != len(params):
            raise ValueError(f"{name.strip()} takes {len(params)} argument(s), got {text!r}")
        return cls(*(a if p.type in (str, "str") else float(a) for p, a in zip(params, args)))
    return parse


def _strategy_args(text: str) -> tuple[str, tuple[float, ...]]:
    """Split ``fcc[:alpha[:beta]]``, ``sbd`` or ``swo`` into kind and arguments."""
    kind, *args = text.split(":")
    if kind not in ("fcc", "sbd", "swo"):
        raise ValueError(f"{text!r} is not a strategy (fcc, sbd or swo)")
    if len(args) > (2 if kind == "fcc" else 0):
        raise ValueError(f"{text!r} has too many arguments")
    values = tuple(float(a) for a in args)
    if not all(0.0 <= v <= 1.0 for v in values):
        raise ValueError(f"{text!r} has a coefficient outside [0, 1]")
    return kind, values


def _strategy(text: str) -> str:
    _strategy_args(text)
    return text


def _engine(text: str) -> str:
    if text not in ("meanfield", "montecarlo"):
        raise ValueError(f"must be meanfield or montecarlo, got {text!r}")
    return text


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


def _grid(text: str) -> tuple[float, ...]:
    """``lo:hi:step`` or an explicit comma list."""
    if ":" not in text:
        return _floats(text)
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected lo:hi:step, got {text!r}")
    lo, hi, step = map(float, parts)
    # the bound on the step count also rejects infinite and NaN ends
    if not (step > 0 and hi >= lo and (hi - lo) / step <= 1e5):
        raise ValueError("need step > 0, hi >= lo and at most 100000 steps")
    n = int(round((hi - lo) / step))
    return tuple(round(lo + k * step, 12) for k in range(n + 1))


def _key(key: str, kind, default, lo=None, hi=None):
    """A config key: its name, its parser, its default and its inclusive range
    (checked on every element of a tuple)."""
    return field(default=default, metadata={"key": key, "kind": kind, "range": (lo, hi)})


@dataclass(frozen=True)
class RunConfig:
    """One field per config key, in emit_config's line order."""
    engine: str = _key("engine", _engine, "meanfield")
    networks: tuple[NetworkConfig, ...] = _key("networks", int, (), lo=1)
    strategy_name: str = _key("strategy", _strategy, "sbd")
    fcc_alpha: float = _key("fcc.alpha", float, 0.5, 0.0, 1.0)
    fcc_beta: float = _key("fcc.beta", float, 0.5, 0.0, 1.0)
    swo_lo: float = _key("swo.lo", float, 0.0, 0.0, 1.0)
    swo_hi: float = _key("swo.hi", float, 1.0, 0.0, 1.0)
    attack: tuple[float, ...] = _key("attack", _floats, (), 0.0, 1.0)
    attack_shape: tuple[float, ...] = _key("attack_shape", _floats, (), 0.0, 1.0)
    attack_grid: tuple[float, ...] = _key("attack_grid", _grid, (), 0.0, 1.0)
    compare: tuple[str, ...] = _key(
        "compare", lambda t: tuple(_strategy(s.strip()) for s in t.split(",")),
        ("sbd", "swo"))
    seed: int = _key("seed", int, 0)
    seed_count: int = _key("seed_count", int, 100, lo=1)
    tol: float = _key("tol", float, 1e-3, 1e-12, 0.5)
    resolution: float = _key("resolution", float, 0.05, 1e-6, 1.0)
    clip_floor: float = _key("clip_floor", float, 0.0, 0.0, 1.0)
    max_steps: int = _key("max_steps", int, 100_000, lo=1)

    @property
    def seeds(self) -> list[int]:
        return [self.seed + k for k in range(self.seed_count)]

    def strategy(self) -> CouplingStrategy:
        return _make_strategy(self.strategy_name, self)


_FIELDS = {f.metadata["key"]: f for f in fields(RunConfig)}
# (key suffix, NetworkConfig field, parser) for each network's block netI.*
_NET_KEYS = (("nodes", "node_count", int),
             ("load", "load_dist", _call_form(_DISTRIBUTIONS)),
             ("space", "space_dist", _call_form(_DISTRIBUTIONS)),
             ("topology", "topology", _call_form(_TOPOLOGIES)))


def _make_strategy(name: str, cfg: RunConfig) -> CouplingStrategy:
    kind, args = _strategy_args(name)
    if kind == "fcc":
        alpha, beta = args + (cfg.fcc_alpha, cfg.fcc_beta)[len(args):]
        return FCC(CouplingMatrix.two_net(alpha, beta))
    return SBD() if kind == "sbd" else SWO(bounds=((cfg.swo_lo, cfg.swo_hi),))


# ---------------------------------------------------------------------------
# Parsing and emission
# ---------------------------------------------------------------------------

def _parse(key: str, parse, text: str, lo=None, hi=None):
    """One key's value from its text: the key's parser, then its range."""
    try:
        value = parse(text)
    except ValueError as exc:
        raise ConfigError(f"'{key}': {exc}") from exc
    for v in value if isinstance(value, tuple) else (value,):
        if lo is not None and not v >= lo:
            raise ConfigError(f"'{key}' must be >= {lo}, got {v}")
        if hi is not None and not v <= hi:
            raise ConfigError(f"'{key}' must be <= {hi}, got {v}")
    return value


def _parse_key(key: str, text: str):
    meta = _FIELDS[key].metadata
    return _parse(key, meta["kind"], text, *meta["range"])


def parse_config(text: str) -> RunConfig:
    """Strict key-value parsing; unknown keys and out-of-range values are
    rejected naming the key (unknown and duplicate keys with their line)."""
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

    def take(key: str) -> str | None:
        return raw.pop(key)[1] if key in raw else None

    cfg = {}
    for key, f in _FIELDS.items():
        value = take(key)
        if key == "networks":
            if value is None:
                raise ConfigError("missing required key 'networks'")
            cfg[f.name] = _parse_networks(_parse_key(key, value), take)
        elif value is not None and (value or not isinstance(f.default, tuple)):
            cfg[f.name] = _parse_key(key, value)  # an empty tuple key keeps its default

    if raw:
        key, (lineno, _) = next(iter(raw.items()))
        raise ConfigError(f"line {lineno}: unknown key {key!r}")
    out = RunConfig(**cfg)
    if out.swo_lo > out.swo_hi:
        raise ConfigError("'swo.lo' must not exceed 'swo.hi'")
    for name in ("attack", "attack_shape"):
        vec = getattr(out, name)
        if vec and len(vec) != len(out.networks):
            raise ConfigError(f"'{name}' has {len(vec)} entries for {len(out.networks)} networks")
    return out


def _parse_networks(count: int, take) -> tuple[NetworkConfig, ...]:
    nets = []
    for i in range(count):
        vals = {}
        for sub, name, parse in _NET_KEYS:
            value = take(f"net{i}.{sub}")
            if value is None:
                raise ConfigError(f"missing required key 'net{i}.{sub}'")
            vals[name] = _parse(f"net{i}.{sub}", parse, value)
        try:
            nets.append(NetworkConfig(id=i, **vals))
        except ValueError as exc:
            raise ConfigError(f"net{i}: {exc}") from exc
    return tuple(nets)


def _fmt(value) -> str:
    """repr for floats, str for ints and strings, comma-joined for tuples,
    and the call form for distributions and topologies."""
    if isinstance(value, tuple):
        return ",".join(map(_fmt, value))
    if type(value) in _CALL_NAMES:
        args = tuple(getattr(value, f.name) for f in fields(value))
        name = _CALL_NAMES[type(value)]
        return f"{name}({_fmt(args)})" if args else name
    return repr(value) if isinstance(value, float) else str(value)


def emit_config(cfg: RunConfig) -> str:
    """Normalized text form, one line per field (an empty tuple key is left
    out); parse(emit(cfg)) == cfg."""
    lines = []
    for key, f in _FIELDS.items():
        value = getattr(cfg, f.name)
        if key == "networks":
            lines.append(f"networks = {len(value)}")
            lines += [f"net{i}.{sub} = {_fmt(getattr(net, name))}"
                      for i, net in enumerate(value) for sub, name, _ in _NET_KEYS]
        elif not (isinstance(value, tuple) and not value):
            lines.append(f"{key} = {_fmt(value)}")
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
    run = mf_run(list(cfg.networks), _attack_vector(cfg), cfg.strategy(),
                 max_steps=cfg.max_steps)
    trajectory_to_csv(run, str(out_dir / "trajectory.csv"))
    _write_manifest(out_dir, cfg, "meanfield", ["trajectory.csv"])
    portion = run.surviving_portion(tuple(n.node_count for n in cfg.networks))
    print(f"outcome={run.outcome.value} steps={run.steps_taken} "
          f"surviving_portion={portion:.6f}")
    return 1 if run.non_converged else 0


def cmd_simulate(cfg: RunConfig, out_dir: Path) -> int:
    attack = _attack_vector(cfg)
    cache = GraphCache(list(cfg.networks))
    rows = []  # written only once every run has succeeded
    for s in cfg.seeds:
        out = mc_run(list(cfg.networks), attack, cfg.strategy(), seed=s,
                     max_steps=cfg.max_steps, graphs=cache.graphs(s))
        if out.non_converged:
            raise _unsettled(f"{attack.p} with seed {s}", cfg.max_steps)
        rows.append([s, out.steps_taken, int(out.outcome is Outcome.BREAKDOWN)]
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
        p.add_argument("--seed", help="override base seed")
        p.add_argument("--out-dir", default=".", help="artifact directory")
        p.add_argument("--resolution", help="override coupling-grid resolution")
        p.add_argument("--tol", help="override bisection tolerance")
        p.add_argument("--edges", action="append", default=[],
                       metavar="NET=PATH",
                       help="use an edge-list file as network NET's topology")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(Path(args.config).read_text())
        for key in ("seed", "resolution", "tol"):  # checked like the config key
            if getattr(args, key) is not None:
                cfg = replace(cfg, **{key: _parse_key(key, getattr(args, key))})
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
