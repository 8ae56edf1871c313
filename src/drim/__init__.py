"""Competitive influence maximization with subjective-logic opinions.

A two-party seed-selection game on a social graph: a true-information
party and a false-information party alternately promote seed users whose
opinions then spread through probabilistic BFS cascades. Opinions are
subjective-logic tuples updated by trust-discounted consensus fusion;
seed-selection strategies are heuristics (AF/BF/SGF/CF) or small PPO
agents trained over them.
"""

from drim.opinion import (
    Evidence,
    Opinion,
    TrustModel,
    TrustVariant,
    dissonance,
    fuse,
    opinion_from_evidence,
    project,
    trust_coefficient,
    vacuity_maximize,
)

__all__ = [
    "Evidence",
    "Opinion",
    "TrustModel",
    "TrustVariant",
    "dissonance",
    "fuse",
    "opinion_from_evidence",
    "project",
    "trust_coefficient",
    "vacuity_maximize",
]

__version__ = "0.1.0"
