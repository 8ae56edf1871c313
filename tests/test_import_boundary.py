"""scipy is C-STORM's dependency alone.

Importing drim and running its DRIM schemes (SGF's 2-hop counts
included) loads no scipy module; building a C-STORM agent loads
`scipy.sparse.csgraph` and `scipy.sparse.linalg`, all that
`spectral_communities` uses (no `scipy.cluster` or `scipy.spatial`), so
a masked C-STORM episode loads nothing more. Importing the harness does
load `numpy.random`, which numpy loads lazily, so a pool worker does not
load it inside its first timed batch. Each check runs in a fresh
interpreter, since other tests load scipy and numpy.random into this one.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

stages = {}
import drim, drim.cli, drim.config, drim.harness, drim.rl
stages["import"] = scipy_modules()

from drim.datasets import load_urv_email
from drim.propagation import EpisodeConfig, run_episode
from drim.rl import init_params, make_scheme_agent
from drim.strategies import Scheme, make_heuristic_agent

tp = make_scheme_agent(Scheme.DRIM_A, init_params(4, 8, 0))
ep = run_episode(load_urv_email(), EpisodeConfig(k=20, rng_seed=3), tp, make_heuristic_agent("sgf"))
stages["strategies"] = sorted({log.strategy for log in ep.logs})
stages["episode"] = scipy_modules()

cstorm = make_scheme_agent(Scheme.C_STORM, init_params(2, 8, 0))
stages["c_storm"] = scipy_modules()
cfg = EpisodeConfig(k=5, p_nv=0.6, rng_seed=3)
ep = run_episode(load_urv_email(), cfg, cstorm, make_heuristic_agent("cf"))
stages["communities"] = len(set(ep.communities.tolist()))
stages["c_storm_episode"] = scipy_modules()
print(json.dumps(stages))
"""


def run_fresh(script: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True, timeout=300)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_only_c_storm_loads_scipy():
    stages = run_fresh(SCRIPT)
    assert stages["import"] == []
    assert "sgf" in stages["strategies"]
    assert stages["episode"] == []
    assert {"scipy.sparse.csgraph", "scipy.sparse.linalg"} <= set(stages["c_storm"])
    # a C-STORM episode solves a masked view with what the agent loaded:
    # sparse matrices, csgraph and ARPACK, no k-means or spatial module
    assert stages["communities"] == 8
    assert stages["c_storm_episode"] == stages["c_storm"]
    assert not [m for m in stages["c_storm_episode"]
                if m.startswith(("scipy.cluster", "scipy.spatial"))]


def test_harness_import_loads_numpy_random():
    script = 'import json, sys, drim.harness; print(json.dumps("numpy.random" in sys.modules))'
    assert run_fresh(script) is True
