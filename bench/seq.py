"""Seeded input streams.

Sizes, the knobs that set a task's cost, come from golden-ratio sequences
over the round index: every prefix of rounds covers each size range
evenly, and every seed meets the same sizes, so runs with different seeds
measure the same amount of work.  The seed picks the concrete inputs of
each size (bases, generators, offsets, task order) through a per-round
`random.Random`; the same seed gives the same inputs.
"""

from __future__ import annotations

import random

PHI = (5 ** 0.5 - 1) / 2


def round_rng(seed: int, workload: str, r: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{r}")


def golden_offsets(r: int, k: int) -> list[float]:
    """k values in [0, 1): component i is frac((i + 1) phi^2 + r phi)."""
    return [((i + 1) * PHI * PHI + r * PHI) % 1.0 for i in range(k)]
