"""Trained policies against goldens.

Oracle: the TP policy, the self-play FP policy and the learning curve
that `harness.train_policy` writes into the policy store for three small
cells on the bundled graph must come out byte for byte as the goldens in
`tests/data/golden/train/`, saved as `policy.bin`, `policy_fp.bin` and
`policy.curve.csv` under the wave's block draw contract. The cells cover a
heuristic opponent (CF, random), every opinion model, a masked view, the
C-STORM learner with its community pool, the self-play FP learner and
the frozen C-STORM TP opponent.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from drim import harness, rl
from drim.strategies import Scheme

GOLDEN = Path(__file__).parent / "data" / "golden" / "train"

GOLDEN_CELLS = {
    "drim-a-uom-cf": (Scheme.DRIM_A, "uom", "cf", 1.0),
    "cstorm-nom-drl-masked": (Scheme.C_STORM, "nom", "drl", 0.6),
    "storm-hom-random": (Scheme.STORM, "hom", "random", 1.0),
}


def train_golden_cell(name: str, policy_dir: Path) -> dict[str, Path]:
    """Train one golden cell into a policy store; each golden file's name
    mapped to the store file it was saved from."""
    scheme, om, fp, p_nv = GOLDEN_CELLS[name]
    ppo = rl.PPOConfig(updates=2, rollout_episodes=3, epochs=2, hidden=8,
                       selfplay_alternations=1)
    spec = harness.ExperimentSpec(scheme=scheme, opinion_model=om, fp_strategy=fp, p_nv=p_nv,
                                  k=5, master_seed=0, policy_dir=policy_dir, ppo=ppo)
    harness.train_policy(spec, scheme, fp)
    tp_path, fp_path = harness.policy_paths(spec, scheme, fp)
    files = {"policy.bin": tp_path, "policy.curve.csv": tp_path.with_suffix(".curve.csv")}
    return files if fp_path is None else {**files, "policy_fp.bin": fp_path}


@pytest.mark.parametrize("name", sorted(GOLDEN_CELLS))
def test_trained_policy_matches_golden(tmp_path, name):
    files = train_golden_cell(name, tmp_path / name)
    assert sorted(tmp_path.joinpath(name).iterdir()) == sorted(files.values())
    assert sorted(p.name for p in (GOLDEN / name).iterdir()) == sorted(files)
    for golden, path in files.items():
        assert path.read_bytes() == (GOLDEN / name / golden).read_bytes(), golden
