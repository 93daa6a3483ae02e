"""The traced benchmark run wraps library names; each must still exist."""

from pathlib import Path
from types import SimpleNamespace

from cascnet import cli, core, distributions, meanfield, montecarlo, search, strategies


def test_every_traced_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import layers
    from tracer import Tracer

    lib = SimpleNamespace(cli=cli, core=core, distributions=distributions,
                          meanfield=meanfield, montecarlo=montecarlo,
                          search=search, strategies=strategies)
    tracer = Tracer()
    try:
        layers.install(tracer, lib)
    finally:
        tracer.restore()
    assert not tracer.absent, (
        f"perfbench/layers.py wraps {sorted(tracer.absent)}, which the library no "
        "longer has; a traced run then drops the metrics built on them. Removing "
        "or renaming a wrapped name needs a change to the benchmark first.")
