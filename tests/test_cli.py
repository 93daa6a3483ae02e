"""Config parsing, round-tripping, artifacts, and manifest reproducibility."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cascnet

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


@pytest.mark.parametrize("command,engine,extra", [
    ("critical", "meanfield", ""),
    ("critical", "montecarlo", ""),
    ("sweep", "meanfield", ""),
    ("sweep", "montecarlo", ""),
    ("heatmap", "meanfield", "resolution = 0.5\n"),
    ("compare", "meanfield", "compare = sbd,swo\n"),
    ("compare", "montecarlo", "compare = sbd\n"),
], ids=["critical-mf", "critical-mc", "sweep-mf", "sweep-mc", "heatmap-mf",
        "compare-mf", "compare-mc"])
def test_max_steps_reaches_every_engine_run(tmp_path, monkeypatch, command,
                                            engine, extra):
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
    assert rc == 0
    assert seen and set(seen) == {3}


def test_emit_config_is_parseable_from_defaults():
    cfg = parse_config(BASE)
    text = emit_config(cfg)
    assert "net0.load = point(75.0)" in text or "net0.load = point(75)" in text
    assert isinstance(parse_config(text), RunConfig)
