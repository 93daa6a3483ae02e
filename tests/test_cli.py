"""Config parsing, round-tripping, artifacts, and manifest reproducibility."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import cascnet

import cascnet.cli
from cascnet.cli import (ConfigError, RunConfig, emit_config, main,
                         parse_config)
from cascnet.core import Complete, ErdosRenyi
from cascnet.distributions import Point, Uniform

BASE = """\
engine = meanfield
networks = 2
net0.nodes = 1000000
net0.load = point(75)
net0.space = uniform(20,180)
net0.topology = complete
net1.nodes = 1000000
net1.load = point(75)
net1.space = uniform(40,280)
net1.topology = complete
strategy = fcc
fcc.alpha = 0.65
fcc.beta = 0.65
attack = 0.5,0
attack_shape = 0,1
attack_grid = 0.1,0.3,0.5
seed = 3
seed_count = 2
tol = 0.005
"""


class TestParse:
    def test_round_trip_is_identity(self):
        cfg = parse_config(BASE)
        assert parse_config(emit_config(cfg)) == cfg

    def test_values_land_in_config(self):
        cfg = parse_config(BASE)
        assert cfg.engine == "meanfield"
        assert cfg.networks[0].load_dist == Point(75.0)
        assert cfg.networks[1].space_dist == Uniform(40.0, 280.0)
        assert isinstance(cfg.networks[0].topology, Complete)
        assert cfg.fcc_alpha == 0.65
        assert cfg.attack == (0.5, 0.0)
        assert cfg.attack_grid == (0.1, 0.3, 0.5)
        assert cfg.seeds == [3, 4]

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# header\n\n" + BASE + "\n# trailing\n")
        assert cfg == parse_config(BASE)

    def test_grid_range_syntax(self):
        cfg = parse_config(BASE.replace("0.1,0.3,0.5", "0.1:0.3:0.1"))
        assert cfg.attack_grid == pytest.approx((0.1, 0.2, 0.3))

    def test_out_of_range_alpha_rejected(self):
        with pytest.raises(ConfigError, match="fcc.alpha"):
            parse_config(BASE.replace("fcc.alpha = 0.65", "fcc.alpha = 1.3"))

    def test_unknown_key_reports_line_number(self):
        bad = BASE + "mystery = 1\n"
        lineno = len(bad.splitlines())
        with pytest.raises(ConfigError, match=f"line {lineno}.*mystery"):
            parse_config(bad)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(BASE + "seed = 9\n")

    def test_missing_network_block_rejected(self):
        with pytest.raises(ConfigError, match="net1.load"):
            parse_config(BASE.replace("net1.load = point(75)\n", ""))

    def test_missing_network_key_does_not_depend_on_hash_seed(self):
        # The first missing key is named in the documented order whatever
        # the interpreter's string hashing.
        code = ("from cascnet.cli import ConfigError, parse_config\n"
                "try:\n    parse_config('networks = 1\\n')\n"
                "except ConfigError as exc:\n    print(exc)\n")
        src = str(Path(cascnet.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        for seed in ("0", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
            out = subprocess.run([sys.executable, "-c", code], env=env,
                                 capture_output=True, text=True, check=True)
            assert out.stdout == "missing required key 'net0.nodes'\n"

    def test_attack_length_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="attack"):
            parse_config(BASE.replace("attack = 0.5,0", "attack = 0.5,0,0.1"))

    def test_bad_distribution_rejected(self):
        with pytest.raises(ConfigError, match="net0.load"):
            parse_config(BASE.replace("point(75)", "gauss(75)", 1))

    def test_topology_forms(self):
        cfg = parse_config(BASE.replace("net0.topology = complete",
                                        "net0.topology = er(12)"))
        assert cfg.networks[0].topology == ErdosRenyi(12.0)

    def test_strategy_with_parameters_in_compare(self):
        cfg = parse_config(BASE + "compare = fcc:0.4:0.9,sbd,swo\n")
        assert cfg.compare == ("fcc:0.4:0.9", "sbd", "swo")
        with pytest.raises(ConfigError, match="compare"):
            parse_config(BASE + "compare = magic\n")


    @pytest.mark.parametrize("key,value", [
        ("strategy", "fcc:abc"),             # non-numeric coefficient
        ("compare", "sbd,fcc:2:0"),          # coefficient outside [0, 1]
        ("strategy", "fcc:0.1:0.2:0.3"),     # more than alpha and beta
        ("compare", "swo:0.2"),              # swo and sbd take no arguments
    ])
    def test_strategy_entries_checked_at_parse_time(self, key, value):
        text = BASE.replace("strategy = fcc\n", "") + f"{key} = {value}\n"
        with pytest.raises(ConfigError, match=f"'{key}'"):
            parse_config(text)

    def test_nan_scalar_rejected(self):
        with pytest.raises(ConfigError, match="'tol'"):
            parse_config(BASE.replace("tol = 0.005", "tol = nan"))

    @pytest.mark.parametrize("key", ["seed", "engine", "strategy", "tol"])
    def test_empty_scalar_value_rejected(self, key):
        text = "\n".join(line for line in BASE.splitlines()
                         if not line.startswith(key + " ")) + f"\n{key} =\n"
        with pytest.raises(ConfigError, match=f"'{key}'"):
            parse_config(text)

    def test_empty_tuple_value_keeps_default(self):
        cfg = parse_config(BASE.replace("attack = 0.5,0", "attack =") + "compare =\n")
        assert cfg.attack == () and cfg.compare == RunConfig().compare


def _docstring_example() -> str:
    body = cascnet.cli.__doc__.split("no nesting):\n\n", 1)[1].split("\n\n", 1)[0]
    return "\n".join(line[4:] for line in body.splitlines()) + "\n"


# emit_config's text as of the table-driven schema's introduction; the
# manifest's config_sha256 hashes it, so it must not change for these inputs.
EMITTED = {
    "docstring": """\
engine = meanfield
networks = 2
net0.nodes = 1000000
net0.load = point(75.0)
net0.space = uniform(20.0,180.0)
net0.topology = complete
net1.nodes = 1000000
net1.load = point(75.0)
net1.space = uniform(40.0,280.0)
net1.topology = complete
strategy = swo
fcc.alpha = 0.65
fcc.beta = 0.65
swo.lo = 0.0
swo.hi = 1.0
attack = 0.5,0.0
attack_shape = 1.0,0.0
attack_grid = 0.05,0.1,0.15,0.2,0.25,0.3,0.35,0.4,0.45,0.5,0.55,0.6,0.65,0.7,0.75,0.8,0.85,0.9,0.95
compare = fcc:0.65:0.65,sbd,swo
seed = 0
seed_count = 100
tol = 0.001
resolution = 0.05
clip_floor = 0.0
max_steps = 100000
""",
    "forms": """\
engine = montecarlo
networks = 3
net0.nodes = 49
net0.load = shiftedexp(10.0,0.5)
net0.space = uniform(0.0,100.0)
net0.topology = er(4.0)
net1.nodes = 49
net1.load = uniform(10.0,30.0)
net1.space = point(0.5)
net1.topology = ba(3.0)
net2.nodes = 49
net2.load = point(20.0)
net2.space = shiftedexp(0.0,2.0)
net2.topology = edges(data/edges 2.txt)
strategy = fcc:0.3
fcc.alpha = 1.0
fcc.beta = 0.0
swo.lo = 0.2
swo.hi = 0.8
attack_grid = 0.0,0.1,0.2
compare = fcc:0.25:1,sbd,swo
seed = 7
seed_count = 3
tol = 0.0001
resolution = 0.25
clip_floor = 0.1
max_steps = 50
""",
    "defaults": """\
engine = meanfield
networks = 1
net0.nodes = 1000
net0.load = point(75.0)
net0.space = uniform(20.0,180.0)
net0.topology = complete
strategy = sbd
fcc.alpha = 0.5
fcc.beta = 0.5
swo.lo = 0.0
swo.hi = 1.0
compare = sbd,swo
seed = 0
seed_count = 100
tol = 0.001
resolution = 0.05
clip_floor = 0.0
max_steps = 100000
""",
}

SOURCES = {
    "docstring": _docstring_example(),
    "forms": """\
engine = montecarlo
networks = 3
net0.nodes = 49
net0.load = shiftedexp(10, 0.5)
net0.space = uniform(0,1e2)
net0.topology = er(4)
net1.nodes = 49
net1.load = uniform(10,30)
net1.space = point(.5)
net1.topology = ba(3)
net2.nodes = 49
net2.load = point(20)
net2.space = shiftedexp(0,2)
net2.topology = edges(data/edges 2.txt)
strategy = fcc:0.3
fcc.alpha = 1
fcc.beta = 0
swo.lo = 0.2
swo.hi = 0.8
attack_grid = 0:0.2:0.1
compare = fcc:0.25:1,sbd,swo
seed = 7
seed_count = 3
tol = 1e-4
resolution = 0.25
clip_floor = 0.1
max_steps = 50
""",
    "defaults": """\
networks = 1
net0.nodes = 1000
net0.load = point(75)
net0.space = uniform(20,180)
net0.topology = complete
attack =
attack_shape =
attack_grid =
compare =
""",
}


class TestSchema:
    @pytest.mark.parametrize("name", sorted(EMITTED))
    def test_emitted_text_is_pinned(self, name):
        cfg = parse_config(SOURCES[name])
        assert emit_config(cfg) == EMITTED[name]
        assert parse_config(EMITTED[name]) == cfg

    def test_docstring_example_hash_is_pinned(self):
        text = emit_config(parse_config(_docstring_example()))
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "5a58e262752be6b993aeb92dcedf3fcf8862030deecfe3f40d087281b87feb8f"

    def test_docstring_example_names_every_key(self):
        keys = {line.split("=", 1)[0].strip()
                for line in _docstring_example().splitlines()}
        table = {f.metadata["key"] for f in fields(RunConfig)}
        nets = {f"net{i}.{sub}" for i in range(2)
                for sub in ("nodes", "load", "space", "topology")}
        assert keys == table | nets


def write_cfg(tmp_path, text=BASE, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestCommands:
    def test_meanfield_writes_trajectory_and_manifest(self, tmp_path, capsys):
        rc = main(["meanfield", "--config", write_cfg(tmp_path),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        assert "surviving_portion=" in capsys.readouterr().out
        rows = list(csv.reader(open(tmp_path / "out" / "trajectory.csv")))
        assert rows[0] == ["t", "network", "f", "n_alive", "F", "Q_step", "Q_cum"]
        manifest = json.load(open(tmp_path / "out" / "manifest.json"))
        assert manifest["command"] == "meanfield"
        assert manifest["outputs"] == ["trajectory.csv"]
        assert manifest["seed"] == 3
        assert len(manifest["config_sha256"]) == 64

    def test_simulate_writes_one_row_per_seed(self, tmp_path):
        small = BASE.replace("1000000", "2000")
        rc = main(["simulate", "--config", write_cfg(tmp_path, small),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        rows = list(csv.reader(open(tmp_path / "out" / "runs.csv")))
        assert rows[0][:3] == ["seed", "steps", "breakdown"]
        assert [r[0] for r in rows[1:]] == ["3", "4"]

    def test_critical_prints_value(self, tmp_path, capsys):
        rc = main(["critical", "--config", write_cfg(tmp_path),
                   "--out-dir", str(tmp_path / "out"), "--tol", "0.01"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "critical_attack_size=" in out
        value = float(out.split("critical_attack_size=")[1].split()[0])
        assert 0.0 < value < 1.0
        rows = list(csv.reader(open(tmp_path / "out" / "critical.csv")))
        assert rows[0] == ["strategy", "critical_size", "no_breakdown"]
        assert float(rows[1][1]) == pytest.approx(value, abs=1e-6)

    def test_heatmap_writes_full_grid(self, tmp_path):
        cheap = BASE.replace("uniform(20,180)", "point(0)") \
                    .replace("uniform(40,280)", "point(0)")
        rc = main(["heatmap", "--config", write_cfg(tmp_path, cheap),
                   "--out-dir", str(tmp_path / "out"), "--resolution", "0.05"])
        assert rc == 0
        rows = list(csv.reader(open(tmp_path / "out" / "heatmap.csv")))
        assert rows[0] == ["alpha", "beta", "critical_size"]
        assert len(rows) == 1 + 21 * 21

    def test_seed_override_changes_manifest(self, tmp_path):
        rc = main(["meanfield", "--config", write_cfg(tmp_path),
                   "--out-dir", str(tmp_path / "out"), "--seed", "42"])
        assert rc == 0
        manifest = json.load(open(tmp_path / "out" / "manifest.json"))
        assert manifest["seed"] == 42

    def test_deterministic_artifacts(self, tmp_path):
        small = BASE.replace("1000000", "2000").replace("meanfield", "montecarlo")
        for d in ("a", "b"):
            rc = main(["simulate", "--config", write_cfg(tmp_path, small),
                       "--out-dir", str(tmp_path / d)])
            assert rc == 0
        assert (tmp_path / "a" / "runs.csv").read_bytes() == \
               (tmp_path / "b" / "runs.csv").read_bytes()

    @pytest.mark.parametrize("command,flag,value,message", [
        ("heatmap", "--resolution", "0", "'resolution' must be >= 1e-06"),
        ("heatmap", "--resolution", "-0.5", "'resolution' must be >= 1e-06"),
        ("critical", "--tol", "0.7", "'tol' must be <= 0.5"),
        ("meanfield", "--seed", "abc", "'seed'"),
    ])
    def test_override_checked_like_config_key(self, tmp_path, capsys, command,
                                              flag, value, message):
        rc = main([command, "--config", write_cfg(tmp_path),
                   "--out-dir", str(tmp_path / "out"), flag, value])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "manifest.json").exists()

    @pytest.mark.parametrize("grid", ["0:inf:0.1", "-inf:1:0.1", "nan:1:0.1",
                                      "0:1:nan", "0:1:1e-300"])
    def test_unbounded_attack_grid_returns_2(self, tmp_path, capsys, grid):
        cfg = BASE.replace("attack_grid = 0.1,0.3,0.5", f"attack_grid = {grid}")
        rc = main(["sweep", "--config", write_cfg(tmp_path, cfg),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "'attack_grid'" in capsys.readouterr().err

    def test_config_error_returns_2(self, tmp_path, capsys):
        bad = write_cfg(tmp_path, BASE + "mystery = 1\n")
        rc = main(["meanfield", "--config", bad, "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_config_file_returns_2(self, tmp_path, capsys):
        rc = main(["meanfield", "--config", str(tmp_path / "nope.cfg"),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_simulation_error_returns_2(self, tmp_path, capsys):
        # Local redistribution needs equal node counts; the engine refuses.
        cfg = (BASE.replace("engine = meanfield", "engine = montecarlo")
               .replace("net0.nodes = 1000000", "net0.nodes = 200")
               .replace("net1.nodes = 1000000", "net1.nodes = 300")
               .replace("topology = complete", "topology = er(4)"))
        rc = main(["simulate", "--config", write_cfg(tmp_path, cfg),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("nodes,degree", [(1, "0.5"), (20, "19.5")])
    def test_erdos_renyi_degree_above_n_minus_1_returns_2(self, tmp_path, capsys,
                                                          nodes, degree):
        cfg = (BASE.replace("engine = meanfield", "engine = montecarlo")
               .replace("net0.nodes = 1000000", f"net0.nodes = {nodes}")
               .replace("net0.topology = complete", f"net0.topology = er({degree})"))
        rc = main(["simulate", "--config", write_cfg(tmp_path, cfg),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "(0, node_count - 1]" in capsys.readouterr().err

    def _edge_list_run(self, tmp_path, edges, out="out"):
        path = tmp_path / "edges.txt"
        path.write_text(edges)
        cfg = (BASE.replace("engine = meanfield", "engine = montecarlo")
               .replace("1000000", "4")
               .replace("topology = complete", f"topology = edges({path})"))
        return main(["simulate", "--config", write_cfg(tmp_path, cfg),
                     "--out-dir", str(tmp_path / out)])

    @pytest.mark.parametrize("line", ["-1 2", "1 5"])
    def test_out_of_range_edge_list_id_returns_2(self, tmp_path, capsys, line):
        assert self._edge_list_run(tmp_path, f"0 1\n{line}\n") == 2
        err = capsys.readouterr().err
        assert "error:" in err and "edges.txt, line 2" in err
        assert not (tmp_path / "out" / "manifest.json").exists()
        assert not (tmp_path / "out" / "runs.csv").exists()

    def test_manifest_pins_edge_list_contents(self, tmp_path):
        # Same config text, same file name, different edges.
        assert self._edge_list_run(tmp_path, "0 1\n2 3\n", out="a") == 0
        assert self._edge_list_run(tmp_path, "0 2\n1 3\n", out="b") == 0
        a = json.load(open(tmp_path / "a" / "manifest.json"))
        b = json.load(open(tmp_path / "b" / "manifest.json"))
        assert a["config_sha256"] == b["config_sha256"]
        assert a["edge_list_sha256"] != b["edge_list_sha256"]
        assert set(a["edge_list_sha256"]) == {str(tmp_path / "edges.txt")}


# Three steps settle no run here, so every bisection and every sweep stops
# with exit 2 (see `test_cut_off_bisection_returns_2`).
@pytest.mark.parametrize("command,engine,extra,want_rc", [
    ("critical", "meanfield", "", 2),
    ("critical", "montecarlo", "", 2),
    ("sweep", "meanfield", "", 2),
    ("sweep", "montecarlo", "", 2),
    ("heatmap", "meanfield", "resolution = 0.5\n", 2),
    ("compare", "meanfield", "compare = sbd,swo\n", 2),
    ("compare", "montecarlo", "compare = sbd\n", 2),
], ids=["critical-mf", "critical-mc", "sweep-mf", "sweep-mc", "heatmap-mf",
        "compare-mf", "compare-mc"])
def test_max_steps_reaches_every_engine_run(tmp_path, monkeypatch, command,
                                            engine, extra, want_rc):
    import cascnet.search as search
    seen = []

    def spy(run):
        def wrapped(*args, max_steps, **kwargs):
            seen.append(max_steps)
            return run(*args, max_steps=max_steps, **kwargs)
        return wrapped

    monkeypatch.setattr(search, "mf_run", spy(search.mf_run))
    monkeypatch.setattr(search, "mc_run", spy(search.mc_run))
    cfg = (BASE.replace("engine = meanfield", f"engine = {engine}")
           .replace("1000000", "2000") + "max_steps = 3\n" + extra)
    rc = main([command, "--config", write_cfg(tmp_path, cfg),
               "--out-dir", str(tmp_path / "out"), "--tol", "0.1"])
    assert rc == want_rc
    assert seen and set(seen) == {3}


@pytest.mark.parametrize("engine", ["meanfield", "montecarlo"])
def test_cut_off_bisection_returns_2(tmp_path, capsys, engine):
    # SBD on the non-identical pair, attack on network 0: at the default cap
    # the mean-field critical size is 0.79150390625; three steps settle no probe.
    cfg = (BASE.replace("engine = meanfield", f"engine = {engine}")
           .replace("1000000", "20000").replace("strategy = fcc", "strategy = sbd")
           .replace("attack_shape = 0,1", "attack_shape = 1,0") + "max_steps = 3\n")
    out = tmp_path / "out"
    rc = main(["critical", "--config", write_cfg(tmp_path, cfg), "--out-dir", str(out)])
    assert rc == 2
    assert "max_steps = 3" in capsys.readouterr().err
    assert not (out / "critical.csv").exists()


def test_cut_off_simulate_returns_2(tmp_path, capsys):
    # The same system and cap as `test_cut_off_bisection_returns_2`, at the
    # config's attack (0.5, 0): three steps settle neither seed's run.
    cfg = (BASE.replace("engine = meanfield", "engine = montecarlo")
           .replace("1000000", "20000").replace("strategy = fcc", "strategy = sbd")
           + "max_steps = 3\n")
    out = tmp_path / "out"
    rc = main(["simulate", "--config", write_cfg(tmp_path, cfg), "--out-dir", str(out)])
    assert rc == 2
    assert "max_steps = 3" in capsys.readouterr().err
    assert not (out / "runs.csv").exists()
    assert not (out / "manifest.json").exists()


def test_emit_config_is_parseable_from_defaults():
    cfg = parse_config(BASE)
    text = emit_config(cfg)
    assert "net0.load = point(75.0)" in text or "net0.load = point(75)" in text
    assert isinstance(parse_config(text), RunConfig)
