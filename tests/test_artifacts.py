"""Every CSV the six commands write, pinned by SHA-256.

Three small systems (N = 2,000 per network): the non-identical pair under
SBD in mean-field, the same laws with a roomy second network on complete
graphs in Monte-Carlo under FCC, and the pair on ER(6) graphs in Monte-Carlo
under SBD. Between them the `simulate` rows cover a partial cascade, a run
that ends with one network empty and one whole, and total breakdown.
`manifest.json` is left out: it records the library and Python versions.
The digests were recorded with Python 3.11 and numpy 2.4.6.
"""

import hashlib

import pytest

from cascnet.cli import main

BASE = """\
engine = meanfield
networks = 2
net0.nodes = 2000
net0.load = point(75)
net0.space = uniform(20,180)
net0.topology = complete
net1.nodes = 2000
net1.load = point(75)
net1.space = uniform(40,280)
net1.topology = complete
strategy = sbd
fcc.alpha = 0.65
fcc.beta = 0.65
attack = 0.5,0
attack_shape = 1,0
attack_grid = 0.2,0.5,0.8
compare = fcc:0.65:0.65,sbd,swo
seed = 3
seed_count = 3
tol = 0.02
resolution = 0.5
"""

CONFIGS = {
    "meanfield": BASE,
    "complete": (BASE.replace("engine = meanfield", "engine = montecarlo")
                 .replace("uniform(40,280)", "uniform(300,600)")
                 .replace("strategy = sbd", "strategy = fcc")
                 .replace("attack = 0.5,0", "attack = 0.6,0")),
    "er": (BASE.replace("engine = meanfield", "engine = montecarlo")
           .replace("topology = complete", "topology = er(6)")
           .replace("attack = 0.5,0", "attack = 0.9,0.8")),
}
COMMANDS = ("meanfield", "simulate", "critical", "sweep", "heatmap", "compare")

DIGESTS = {
    "complete/meanfield/trajectory.csv":
        "02469145b5c27846ddcc9aaf3874d25b373b18e5d2c7bdde371d18c33aa458a8",
    "complete/simulate/runs.csv":
        "646e734165749f8a6d81454a41d56ceaf51c8534c0903def380d2d3eb2794f79",
    "complete/critical/critical.csv":
        "7e6ac2045a9d23b9d400ca0e1d461b2b1bfa1cb4bac7ebce788e75e369d121cc",
    "complete/sweep/sweep.csv":
        "3b50a862658f312bea918c8f4e6b41b45e9a3a8616699ad681baf54b4205a9af",
    "complete/heatmap/heatmap.csv":
        "2fa6a5a755902b79f070e06d7874c7512994a4f959e8e61b495e908372ec8f53",
    "complete/compare/compare_critical.csv":
        "c9b5d7ca2923fd24b05d7eabb7c08963c9d9a45433cdf125bad9d057429a36bb",
    "complete/compare/compare_sweeps.csv":
        "350cd3de1cfd7793851359538b1db67cf2c6cdab1639a65c1f32725c2c23dcad",
    "er/meanfield/trajectory.csv":
        "e84885372945d0276a5809220ffd81165370c6ca8f042e1a2eaa0e70000b0af5",
    "er/simulate/runs.csv":
        "70c3798577c84ae4070084a078fcfe9d9e4ad5f2884ed72c85c200cc115ec763",
    "er/critical/critical.csv":
        "1ddb45f0c06a79cccb189322ae9b3244d9190dae654feb77acf08315d7102f62",
    "er/sweep/sweep.csv":
        "9a32235e99cb3866c7ab77f2e3f4cf2e9dbaa7ad8f47cca6edc6449d1b4b0d46",
    "er/heatmap/heatmap.csv":
        "d5617565995871bf90bacccf37b7c9bbca872a0fe1449c147a2791b9478e1f27",
    "er/compare/compare_critical.csv":
        "3413c44276f4ecc9daab821e48994044fd16d0744fbca84a4ed8cb62874edbfe",
    "er/compare/compare_sweeps.csv":
        "e4ec3f3682cddecbfd266ca26875d5e6a3277134f129c99d420e29e13a116cb2",
    "meanfield/meanfield/trajectory.csv":
        "a5175c03ef38e02b74bd70d7bbb318893c10bea17c035ea7d988d19d1eabbadf",
    "meanfield/simulate/runs.csv":
        "7431afb7f149ecebe5b56797b174d12fab3d173bab5484bdcac6f831d3bfbaae",
    "meanfield/critical/critical.csv":
        "fe85112507e225816192e9180833a5b75914415cc24a3f93209a1c4950055d87",
    "meanfield/sweep/sweep.csv":
        "0a42b3ab3f7dd57177919edfdb8e6f5fdfdabf75eaa657400100313661502dd2",
    "meanfield/heatmap/heatmap.csv":
        "1438f6d1b5e4a8bb2ec4e3b73865cc0e30e8289796a2367f1151a8fc280eb66d",
    "meanfield/compare/compare_critical.csv":
        "fef5dc71557b32acce9d32ca3aa635f06a66d9eba1608aaadab859e112a1dae7",
    "meanfield/compare/compare_sweeps.csv":
        "a872e3003b3b0c028106a8e881e667d16f3cbc464b019a6b1ad0cc1ce460921e",
}


@pytest.mark.parametrize("system", sorted(CONFIGS))
def test_csv_artifacts_are_pinned(tmp_path, system):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIGS[system])
    got = {}
    for command in COMMANDS:
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out-dir", str(out)]) == 0
        for path in sorted(out.glob("*.csv")):
            got[f"{system}/{command}/{path.name}"] = \
                hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == {k: v for k, v in DIGESTS.items() if k.startswith(system + "/")}
