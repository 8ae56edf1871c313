"""Trained policies against goldens.

Oracle: the TP policy, the self-play FP policy and the learning curve
that `harness.train_policy` writes into the policy store for three small
cells on the bundled graph must come out byte for byte as the goldens in
`tests/data/golden/train/`, saved as `policy.bin`, `policy_fp.bin` and
`policy.curve.csv` under the wave's block draw contract. The cells cover a
heuristic opponent (CF, random), every opinion model, a masked view, the
C-STORM learner with its community pool, the self-play FP learner and
the frozen C-STORM TP opponent.

`TAGS` ties each golden to its policy tag: one line per (cell, tag,
SHA-256 of `policy.bin`, machine fingerprint), kept as history. The
trained cell's (cell, tag, hash) must be listed, and no (cell, tag) may
be listed with two hashes, so a golden regenerated without a tag change
(`rl.POLICY_CONTRACT` is the usual bump) fails. The fingerprint names the
machine the hash was taken on: the trained bits depend on numpy's SIMD
loops and on the OpenBLAS core, and the failure messages print this
machine's to compare.
"""

from __future__ import annotations

import ctypes
import hashlib
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from drim import harness, rl
from drim.strategies import Scheme

GOLDEN = Path(__file__).parent / "data" / "golden" / "train"
TAGS = GOLDEN / "TAGS"

GOLDEN_CELLS = {
    "drim-a-uom-cf": (Scheme.DRIM_A, "uom", "cf", 1.0),
    "cstorm-nom-drl-masked": (Scheme.C_STORM, "nom", "drl", 0.6),
    "storm-hom-random": (Scheme.STORM, "hom", "random", 1.0),
}


def machine_fingerprint() -> str:
    """numpy's SIMD extensions and the core of every loaded OpenBLAS, as
    one word: `baseline=…;found=…;openblas=SkylakeX`."""
    simd = np.show_config(mode="dicts")["SIMD Extensions"]
    parts = [f"{key.replace(' ', '-')}={','.join(value)}" for key, value in simd.items()]
    cores = set()
    for handle in harness._openblas_libraries():
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename"):
            if hasattr(handle, name):
                getter = getattr(handle, name)
                getter.argtypes, getter.restype = [], ctypes.c_char_p
                cores.add(getter().decode())
                break
    return ";".join([*parts, f"openblas={','.join(sorted(cores)) or 'none'}"])


def listed_tags() -> dict[tuple[str, str], set[str]]:
    """(cell, tag) -> the policy.bin hashes TAGS lists for it."""
    listed = defaultdict(set)
    for line in TAGS.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            cell, tag, digest, _fingerprint = line.split()
            listed[cell, tag].add(digest)
    return listed


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
        assert path.read_bytes() == (GOLDEN / name / golden).read_bytes(), (
            f"{golden} differs; this machine is {machine_fingerprint()}, "
            f"the goldens' machines are in {TAGS}")
    tag = files["policy.bin"].stem.split("_")[-2]  # <scheme>_<om>_vs_<fp>_<tag>_s<seed>
    digest = hashlib.sha256(files["policy.bin"].read_bytes()).hexdigest()
    assert digest in listed_tags()[name, tag], (
        f"{TAGS} does not list this policy under its tag: retraining a golden needs a new "
        f"tag (bump rl.POLICY_CONTRACT), then the line "
        f"{name} {tag} {digest} {machine_fingerprint()}")


def test_no_tag_names_two_policies():
    doubled = {key: digests for key, digests in listed_tags().items() if len(digests) > 1}
    assert not doubled, f"goldens regenerated without a tag change: {doubled}"
