"""Global tuning knobs for the reproduction.

These defaults are sized for the pure-Python engine running on a single
core.  The experiment harness reads :func:`full_scale` to decide whether
to run the paper's full-size English word lists (hours of CPU) or the
scaled defaults documented in DESIGN.md / EXPERIMENTS.md.
"""

from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass
class Limits:
    """Resource guards for the width-reduction algorithms.

    Attributes:
        max_compat_pairs: Upper bound on the number of pairwise
            compatibility checks performed when building one
            compatibility graph (Algorithm 3.3, one height).  When the
            bound would be exceeded the graph connects only the longest
            prefix of the candidates whose pairs fit under it
            (``reduce.cliquecover.pair_limit``) and the remaining
            columns are kept unmerged; this trades optimality for
            bounded runtime and is reported by the caller.
        sift_widthsum_node_limit: Node-count threshold at or below
            which ``cost="auto"`` sifts by the exact sum of widths (the
            paper's cost function); larger BDDs sift by live node
            count.  The sift session keeps both costs up to date inside
            its swaps, so the node count is no longer much cheaper; the
            limit stays because it keeps the Table 6 word-list designs,
            whose CFs exceed it, unchanged.
        sift_max_growth: Abort growing a sifting direction when the BDD
            exceeds this multiple of its size at the start of the move.
    """

    max_compat_pairs: int = 6_000_000
    sift_widthsum_node_limit: int = 6_000
    sift_max_growth: float = 1.6


LIMITS = Limits()

#: Spellings read as "off" by :func:`env_flag`, case-insensitively.
_FALSY = ("0", "false", "no", "off")


def env_flag(name: str, default: bool = False) -> bool:
    """Boolean environment read, case- and whitespace-insensitive.

    An unset or empty variable yields ``default``; any of ``0``,
    ``false``, ``no``, ``off`` (in any letter case) reads as False and
    everything else as True.  Every boolean environment knob in the
    repo goes through this helper so ``REPRO_SELFCHECK=False`` and
    ``REPRO_FULL_SCALE=OFF`` mean what they say instead of silently
    enabling the feature.
    """
    raw = os.environ.get(name, "")
    raw = raw.strip().lower()
    if not raw:
        return default
    return raw not in _FALSY


def full_scale() -> bool:
    """Return True when the paper's full-size word lists are requested.

    Controlled by the ``REPRO_FULL_SCALE`` environment variable.
    """
    return env_flag("REPRO_FULL_SCALE", False)


def word_list_sizes() -> tuple[int, ...]:
    """Word-list sizes used by the Table 4 / Table 6 experiments."""
    if full_scale():
        return (1730, 3366, 4705)
    return (400, 800, 1200)
