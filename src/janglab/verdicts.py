"""The pass rule of every nodewise inequality: margin >= -tol at each node
an audit does not exclude, or margin > -tol when the inequality is strict;
a margin that is not finite fails.  It reads arrays alone, so a checker that
decides through it shares no construction logic with the code it checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Verdict:
    """``first_violation`` is None on a pass, else the radius of the first
    failing node (``node_radius``) and the values shown there."""

    passed: bool
    first_violation: dict | None = None

    def __and__(self, other: Verdict) -> Verdict:
        """Two inequalities on the same nodes: the one that fails first."""
        if self.passed or (not other.passed
                           and other.first_violation["node_radius"]
                           < self.first_violation["node_radius"]):
            return other
        return self


def nodewise(margin, radii, tol=0.0, strict=False, exclude=(),
             show=None) -> Verdict:
    """The verdict on ``margin`` at ``radii``, skipping the indices in
    ``exclude``.  ``tol`` is a number or one per node; ``show`` maps names
    to arrays on the same nodes, read at the first failing node."""
    margin = np.asarray(margin, dtype=float)
    holds = margin > -tol if strict else margin >= -tol
    holds &= np.isfinite(margin)
    if exclude:
        holds[list(exclude)] = True
    if holds.all():
        return Verdict(True)
    i = int(np.argmin(holds))
    first = {"node_radius": float(radii[i])}
    first.update((name, float(v[i])) for name, v in (show or {}).items())
    return Verdict(False, first)
