"""Trained policies against goldens.

Oracle: the TP policy, the self-play FP policy and the learning curve
that `harness.train_policy` writes for three small cells on the bundled
graph must come out byte for byte as the goldens in
`tests/data/golden/train/`, which `write_golden_cell` wrote under the
wave's block draw contract. The cells cover a
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


def write_golden_cell(name: str, out_dir: Path) -> list[Path]:
    """Train one golden cell into out_dir; also how the goldens were made."""
    scheme, om, fp, p_nv = GOLDEN_CELLS[name]
    ppo = rl.PPOConfig(updates=2, rollout_episodes=3, epochs=2, hidden=8,
                       selfplay_updates_per_side=1, selfplay_alternations=1)
    spec = harness.ExperimentSpec(scheme=scheme, opinion_model=om, fp_strategy=fp, p_nv=p_nv,
                                  k=5, master_seed=0, out_dir=out_dir, ppo=ppo)
    out_dir.mkdir(parents=True, exist_ok=True)
    tp_path = out_dir / "policy.bin"
    harness.train_policy(spec, scheme, fp, tp_path)
    return sorted(out_dir.iterdir())


@pytest.mark.parametrize("name", sorted(GOLDEN_CELLS))
def test_trained_policy_matches_golden(tmp_path, name):
    files = write_golden_cell(name, tmp_path / name)
    expected = ["policy.bin", "policy.curve.csv"] + (["policy_fp.bin"] if "drl" in name else [])
    assert [p.name for p in files] == expected
    for path in files:
        assert path.read_bytes() == (GOLDEN / name / path.name).read_bytes(), path.name
