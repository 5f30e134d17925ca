"""Bump-to-component assignment map.

sigma sends bump l (1-based, ordered by radius) to a component index in
1..k; consecutive bumps must land on different components and every
component must receive at least one bump.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

from .errors import AdjacentRepeat, ConfigError, NotSurjective


@dataclass(frozen=True)
class Assignment:
    h: int
    k: int
    sigma: tuple


def build_assignment(sigma) -> Assignment:
    sig = list(sigma)
    if len(sig) == 0:
        raise ConfigError("sigma must be nonempty")
    for entry in sig:
        # True is an Integral equal to 1; numpy integers are Integrals too
        if (not isinstance(entry, numbers.Integral) or isinstance(entry, bool)
                or entry < 1):
            raise ConfigError(f"sigma entries must be positive integers, got {entry!r}")
    sig = [int(x) for x in sig]
    k = max(sig)
    for l in range(len(sig) - 1):
        if sig[l + 1] == sig[l]:
            raise AdjacentRepeat(
                f"sigma[{l + 1}] = sigma[{l + 2}] = {sig[l]} (1-based positions)"
            )
    present = set(sig)
    missing = [i for i in range(1, k + 1) if i not in present]
    if missing:
        raise NotSurjective(f"components {missing} receive no bump")
    return Assignment(h=len(sig), k=k, sigma=tuple(sig))
