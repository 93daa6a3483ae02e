"""Record the mean-field reference outputs that mf-critical checks against.

    PYTHONPATH=src python3 perfbench/record_reference.py

Re-run it only when a change is meant to alter the mean-field results, and
say so in that change. It rewrites the "mf-critical" entry of
reference.json and keeps the rest.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import re
import shutil
from pathlib import Path

import numpy as np

from bench import load_library
from workloads import MF_TOL, REFERENCE, MfCritical, Systems, compare_config

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    lib = load_library(ROOT)
    search, cli = lib.search, lib.cli
    sys_ = Systems(lib)
    grid = MfCritical.HEAT_GRID
    heat = search.fcc_grid_sweep(sys_.nonidentical, attack_shape=(0.0, 1.0),
                                 tol=MF_TOL, use_meanfield=True,
                                 alpha_grid=grid, beta_grid=grid)
    diag = [search.fcc_grid_sweep(sys_.narrow, attack_shape=(1.0, 0.0), tol=MF_TOL,
                                  use_meanfield=True, alpha_grid=(x,),
                                  beta_grid=(x,)).cells[0][0] for x in grid]
    out = ROOT / ".bench_out" / "reference"
    out.mkdir(parents=True, exist_ok=True)
    compare = {}
    try:
        for name, shape in MfCritical.COMPARE:
            cfg = out / f"{name}.cfg"
            cfg.write_text(compare_config(getattr(sys_, name), shape, lib.distributions))
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["compare", "--config", str(cfg), "--out-dir", str(out)])
            if code != 0:
                raise SystemExit(f"compare {name} exited with {code}")
            with open(out / "compare_critical.csv") as fh:
                compare[name] = {row["strategy"]: float(row["critical_size"])
                                 for row in csv.DictReader(fh)}
    finally:
        shutil.rmtree(out, ignore_errors=True)

    best = grid[int(np.argmax(diag))]
    ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    ref["mf-critical"] = {
        "tol": MF_TOL,
        "heatmap": {"pair": "nonidentical", "attack_shape": [0.0, 1.0],
                    "alpha": list(grid), "beta": list(grid),
                    "cells": [list(row) for row in heat.cells],
                    "argmax": list(heat.argmax), "max": heat.max_value},
        "diagonal": {"pair": "narrow", "attack_shape": [1.0, 0.0],
                     "x": list(grid), "critical": diag, "argmax_x": best,
                     "note": "criterion 3 expects the symmetric optimum at "
                             "x = 0.65; this is the measured argmax, recorded "
                             "so the disagreement stays visible"},
        "compare": compare,
    }
    text = json.dumps(ref, indent=1)
    # One line per list of numbers keeps the file short and diffable.
    text = re.sub(r"\[[-0-9.e,\s]*\]",
                  lambda m: "[" + " ".join(m.group(0)[1:-1].split()) + "]", text)
    REFERENCE.write_text(text + "\n")
    print(f"heatmap argmax {heat.argmax} max {heat.max_value:.6f}; "
          f"diagonal argmax x={best}; compare {compare}")


if __name__ == "__main__":
    main()
