"""scipy is C-STORM's dependency alone.

Importing drim and running its DRIM schemes (SGF's 2-hop counts
included) loads no scipy module; building a C-STORM agent loads the
spectral stack that `spectral_communities` uses. Each check runs in a
fresh interpreter, since other tests load scipy into this one.
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

make_scheme_agent(Scheme.C_STORM, init_params(2, 8, 0))
stages["c_storm"] = scipy_modules()
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
    assert {"scipy.sparse.linalg", "scipy.cluster.vq"} <= set(stages["c_storm"])
