"""Cooperative resource governor: node, step, and wall-clock budgets.

Unguarded BDD construction is exponential in the worst case, and the
width-reduction/cascade experiments stress exactly those regimes.  A
:class:`Budget` puts a ceiling on what one governed region may consume:

* ``max_nodes``   — alive nodes of the manager being operated on,
* ``max_steps``   — apply-kernel evaluator steps charged to the budget,
* ``deadline_s``  — wall-clock seconds from budget entry.

Budgets are *cooperative*: entering one (it is a context manager)
pushes it on a process-wide stack, and the hot loops — the apply
kernel's evaluator (:func:`repro.bdd.kernel.run`) and the sifting loop
(:func:`repro.bdd.reorder.sift`) — call :func:`checkpoint` at cheap
intervals (every :data:`CHECK_INTERVAL` kernel steps; while sifting,
every adjacent swap and every level a look-ahead walk crosses).  A
violated limit raises :class:`~repro.errors.ResourceLimitError` or
:class:`~repro.errors.DeadlineError` **between** kernel iterations,
swaps or walked levels, so the manager is always left consistent and usable: partial
results are ordinary valid nodes, caches hold only correct entries,
and subsequent operations on the same manager succeed (pinned by
``tests/bdd/test_governor.py``).  Because checks are periodic, a
budget may be overshot by up to one check interval's worth of work —
this is a governor, not a hard rlimit.

One step is one visit frame of the kernel's evaluator, the same unit
as the manager's ``kernel_steps`` counter, so a ``max_steps`` budget
bounds real node-pair work.

Budgets nest: every active budget is checked at each checkpoint, and a
raised error carries ``.budget`` so a caller can tell its own limit
from an enclosing one (the parallel executor uses this to distinguish
a row's ``--node-limit`` from its own per-attempt deadline).

Degradation: a pipeline stage that catches a budget error and falls
back to a cheaper path (e.g. keeping an unsifted BDD) records the
event with :func:`note_degraded`; the experiment row surfaces the notes
as ``status="degraded"`` instead of crashing.
"""

from __future__ import annotations

import time

from repro.errors import DeadlineError, ResourceLimitError

__all__ = [
    "Budget",
    "CHECK_INTERVAL",
    "active",
    "checkpoint",
    "note_degraded",
]

#: Kernel steps between consecutive budget checks inside ``kernel.run``.
#: A power of two so the evaluator can test ``steps & (INTERVAL - 1)``.
CHECK_INTERVAL = 1024

#: Stack of currently entered budgets (innermost last).  The kernel and
#: the sifting loop read this directly — an empty list is one truthiness
#: test per iteration, so ungoverned runs pay essentially nothing.
_ACTIVE: list["Budget"] = []


class Budget:
    """One governed region's resource ceiling (a context manager).

    >>> from repro.bdd import BDD
    >>> bdd = BDD()
    >>> _ = bdd.add_vars(["a", "b"])
    >>> with Budget(max_nodes=1_000_000):
    ...     f = bdd.apply_and(bdd.var("a"), bdd.var("b"))

    All limits are optional; an unlimited budget never raises.  Each
    entry starts a fresh extent: ``steps`` and the recorded
    degradations reset, and the deadline clock starts at ``__enter__``.
    """

    __slots__ = (
        "max_nodes",
        "max_steps",
        "deadline_s",
        "steps",
        "_deadline",
        "degradations",
    )

    def __init__(
        self,
        max_nodes: int | None = None,
        max_steps: int | None = None,
        deadline_s: float | None = None,
    ) -> None:
        self.max_nodes = max_nodes
        self.max_steps = max_steps
        self.deadline_s = deadline_s
        self.steps = 0
        self._deadline: float | None = None
        self.degradations: list[str] = []

    def __enter__(self) -> "Budget":
        self.steps = 0
        self.degradations = []
        if self.deadline_s is not None:
            self._deadline = time.monotonic() + self.deadline_s
        _ACTIVE.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _ACTIVE.remove(self)

    def remaining_s(self) -> float | None:
        """Seconds until the deadline (None when no deadline is set)."""
        if self._deadline is None:
            return None
        return self._deadline - time.monotonic()

    def note_degraded(self, reason: str) -> None:
        """Record that a stage fell back to a cheaper path."""
        self.degradations.append(reason)

    def check(self, bdd=None) -> None:
        """Raise if any limit is exhausted; cheap enough for hot loops."""
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise DeadlineError(
                f"wall-clock deadline of {self.deadline_s:.3f}s exceeded",
                budget=self,
            )
        if self.max_steps is not None and self.steps > self.max_steps:
            raise ResourceLimitError(
                f"apply-step budget of {self.max_steps} exceeded "
                f"({self.steps} steps charged)",
                budget=self,
            )
        if (
            self.max_nodes is not None
            and bdd is not None
            and bdd._n_alive > self.max_nodes
        ):
            raise ResourceLimitError(
                f"node budget of {self.max_nodes} exceeded "
                f"({bdd._n_alive} nodes alive)",
                budget=self,
            )


def active() -> Budget | None:
    """The innermost active budget, or None when nothing is governed."""
    return _ACTIVE[-1] if _ACTIVE else None


def checkpoint(bdd=None, steps: int = 0) -> None:
    """Charge ``steps`` to every active budget and check all limits.

    Called by the apply kernel every :data:`CHECK_INTERVAL` evaluator
    steps (and once per operation entry), and by the sifting loop at
    every adjacent swap and every level a look-ahead walk crosses.  Raises the outermost violated budget's error
    first, so an enclosing deadline beats a nested node limit.
    """
    for budget in _ACTIVE:
        if steps:
            budget.steps += steps
        budget.check(bdd)


def note_degraded(reason: str) -> None:
    """Record a degradation on every active budget (no-op when none)."""
    for budget in _ACTIVE:
        budget.note_degraded(reason)
