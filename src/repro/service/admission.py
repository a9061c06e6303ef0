"""Admission control: cost-ordered queueing and per-tenant budgets.

Each shard family's worker process serves one query at a time, so
queue *order* within a family is the whole scheduling policy.  The
batch executor schedules longest-first — right for throughput when
every row must run anyway — but a query service wants the opposite:
shortest-job-first, so a 4-digit decimal-adder reduction queued behind
a word-list cascade does not wait minutes for an answer that takes
milliseconds.  Every family has its own queue, ordered by the PR 3
EWMA :class:`~repro.parallel.costs.CostModel` estimate; unseen query
keys are seeded from a structural size heuristic
(:func:`estimate_size`) derived from the benchmark name, so the order
is sensible before the first observation lands.  Expensive rows
*wait*; they are never starved — an arrival can only jump ahead of a
job that has not started, and observed costs are finite, so every
queued job's rank eventually comes up.

Per-tenant fairness is a step ledger: every reply from a worker
charges its ``kernel_steps`` to the tenant that asked (:meth:`charge`),
each dispatched query runs under the tenant's remaining allowance
(:meth:`tenant_remaining`), and a tenant whose ledger is past
``tenant_max_steps`` is refused at admission time — a structured
denial, not a crash mid-query.

PR 9 adds *load shedding*: a bounded queue depth, per-tenant in-flight
caps, and a watchdog-driven :attr:`Admission.shedding` switch, each of
which refuses excess requests with a structured
:class:`~repro.errors.OverloadedError` (mapped to the ``overloaded``
wire code) carrying a ``retry_after`` hint summed from the EWMA
estimates of the work already queued.  The daemon never queues
unboundedly; under sustained overload clients see fast, honest
refusals instead of timeouts.
"""

from __future__ import annotations

import heapq
import itertools
import math
import re
import time
from dataclasses import dataclass, field
from typing import Any

from repro.errors import OverloadedError, ServiceError
from repro.parallel.costs import CostModel
from repro.service.shards import family_of

__all__ = ["Admission", "QueuedQuery", "estimate_size"]

#: Relative op weights on top of the structural size heuristic, which
#: prices an unseen query key.  Such a key is priced as cold: the first
#: cascade of a benchmark builds and sifts every output partition (the
#: shard keeps them warm for later requests), a decomposition is one
#: cut of an already-built CF.
_OP_FACTOR = {
    "width_reduce": 1.0,
    "decompose": 0.5,
    "cascade": 3.0,
    "pla_reduce": 0.3,
}


def estimate_size(op: str, params: dict) -> float:
    """Structural cost guess (seconds-ish) for an unseen query key.

    Parses the benchmark name the same way the registry does and uses
    the care-set size as the driver: an RNS converter's cost scales
    with the product of its moduli, a p-nary converter with ``p**k``, a
    decimal adder/multiplier with ``10**2k``, a word list with its word
    count.  The absolute scale only matters relative to the ``query``
    kind default (0.5 s) — this is an ordering heuristic, not a clock.
    """
    name = params.get("benchmark", "")
    care = 1000.0
    try:
        if name.endswith(" RNS"):
            care = float(math.prod(int(p) for p in name[: -len(" RNS")].split("-")))
        elif (match := re.fullmatch(r"(\d+)-digit (\d+)-nary to binary", name)):
            care = float(int(match.group(2)) ** int(match.group(1)))
        elif (match := re.fullmatch(r"(\d+)-digit decimal (adder|multiplier)", name)):
            care = float(10 ** (2 * int(match.group(1))))
        elif name.endswith(" words"):
            care = float(int(name.split()[0])) * 100.0
        elif op == "pla_reduce":
            care = float(len(params.get("pla", "")) or 1000.0)
    except (ValueError, OverflowError):
        care = 1000.0
    return _OP_FACTOR.get(op, 1.0) * care / 20_000.0


@dataclass(order=True)
class QueuedQuery:
    """One admitted query waiting for a worker.

    Orders by ``(estimate, seq)``: shortest-job-first, with the
    monotonic admission sequence breaking ties so equal-cost queries
    are served in arrival order (no starvation among peers).
    """

    estimate: float
    seq: int
    key: str = field(compare=False)
    request: Any = field(compare=False)
    family: str = field(compare=False, default="misc")
    #: Monotonic-clock instant the request's ``deadline_ms`` expires
    #: (stamped at admission — queueing time counts), or ``None``.
    deadline_at: float | None = field(compare=False, default=None)

    def expired(self, now: float | None = None) -> bool:
        """True when the query's end-to-end deadline has already passed."""
        if self.deadline_at is None:
            return False
        return (time.monotonic() if now is None else now) >= self.deadline_at

    def remaining_s(self, now: float | None = None) -> float | None:
        """Seconds left until the deadline, or ``None`` when unbounded."""
        if self.deadline_at is None:
            return None
        return self.deadline_at - (time.monotonic() if now is None else now)


class Admission:
    """The daemon's admission queue plus per-tenant budget ledger."""

    def __init__(
        self,
        costs: CostModel | None = None,
        *,
        tenant_max_steps: int | None = None,
        max_queue_depth: int | None = None,
        tenant_max_inflight: int | None = None,
    ) -> None:
        self.costs = costs if costs is not None else CostModel()
        self.tenant_max_steps = tenant_max_steps
        self.max_queue_depth = max_queue_depth
        self.tenant_max_inflight = tenant_max_inflight
        #: Kernel steps each tenant has spent, over all its queries.
        self.tenant_steps: dict[str, int] = {}
        #: One shortest-job-first heap per shard family: the dispatcher
        #: drains families independently, so a slow family's backlog
        #: must not be interleaved into a fast one's.
        self._heaps: dict[str, list[QueuedQuery]] = {}
        self._seq = itertools.count()
        #: Admitted-but-unresolved executions, key -> tenant.  Batched
        #: waiters and cache hits never re-submit, so each in-flight
        #: key maps to exactly the tenant that paid for its admission.
        self._inflight: dict[str, str] = {}
        #: Set by the memory watchdog's final degradation stage; while
        #: True every new compute admission is shed.
        self.shedding = False
        self.shed_total = 0

    # -- tenant budgets -----------------------------------------------

    def charge(self, tenant: str, steps: int) -> None:
        """Add ``steps`` a query spent to the tenant's ledger."""
        self.tenant_steps[tenant] = self.tenant_steps.get(tenant, 0) + steps

    def tenant_remaining(self, tenant: str) -> int | None:
        """Steps the tenant may still spend, or ``None`` when unlimited."""
        if self.tenant_max_steps is None:
            return None
        return max(0, self.tenant_max_steps - self.tenant_steps.get(tenant, 0))

    def exhausted(self, tenant: str) -> bool:
        """True when the tenant has spent past its step ceiling."""
        return (
            self.tenant_max_steps is not None
            and self.tenant_steps.get(tenant, 0) > self.tenant_max_steps
        )

    # -- queue --------------------------------------------------------

    def submit(self, request, *, replay: bool = False) -> QueuedQuery:
        """Admit a request; raises :class:`ServiceError` when refused.

        Refusal happens up front — exhausted tenant ledger, bounded
        queue depth, per-tenant in-flight cap, or watchdog shedding — so
        a denied query costs nothing and carries a structured error
        instead of failing at the first governor checkpoint.
        ``replay=True`` (journal recovery) skips the overload checks: a
        journaled request was admitted once already and must never be
        lost to its own backlog.
        """
        tenant = request.tenant
        spent = self.tenant_steps.setdefault(tenant, 0)
        if self.exhausted(tenant):
            raise ServiceError(
                f"tenant {tenant!r} has exhausted its step budget "
                f"({spent} of {self.tenant_max_steps} steps spent); "
                "admission refused"
            )
        if not replay:
            self._check_overload(request)
        key = request.key()
        self.costs.seed(key, estimate_size(request.op, request.params))
        item = QueuedQuery(
            estimate=self.costs.estimate(key),
            seq=next(self._seq),
            key=key,
            request=request,
            family=family_of(request.op, request.params),
            deadline_at=(
                time.monotonic() + request.deadline_ms / 1000.0
                if getattr(request, "deadline_ms", None)
                else None
            ),
        )
        heapq.heappush(self._heaps.setdefault(item.family, []), item)
        self._inflight[key] = request.tenant
        return item

    def _check_overload(self, request) -> None:
        """Shed ``request`` (raise ``OverloadedError``) when over limits."""
        reason: str | None = None
        if self.shedding:
            reason = "memory watchdog is shedding load"
        elif (
            self.max_queue_depth is not None
            and len(self) >= self.max_queue_depth
        ):
            reason = f"queue depth limit reached ({self.max_queue_depth} queued)"
        elif self.tenant_max_inflight is not None:
            inflight = sum(
                1 for tenant in self._inflight.values() if tenant == request.tenant
            )
            if inflight >= self.tenant_max_inflight:
                reason = (
                    f"tenant {request.tenant!r} already has {inflight} "
                    f"queries in flight (limit {self.tenant_max_inflight})"
                )
        if reason is not None:
            self.shed_total += 1
            raise OverloadedError(
                f"admission refused: {reason}", retry_after=self.retry_after()
            )

    def retry_after(self) -> float:
        """Backoff hint in seconds: the EWMA cost of draining the queue.

        Sums the estimates of everything queued (the work a retry would
        wait behind), clamped to a sane band so a cold cost model still
        yields a usable hint.
        """
        backlog = sum(
            item.estimate for heap in self._heaps.values() for item in heap
        )
        return min(max(backlog, 0.1), 60.0)

    def release(self, key: str) -> None:
        """Mark the in-flight execution for ``key`` resolved."""
        self._inflight.pop(key, None)

    def requeue(self, item: QueuedQuery) -> None:
        """Put a popped query back (worker died; it will be retried).

        Unlike :meth:`submit` this skips tenant admission — the query
        was already admitted once and its waiters are still registered.
        """
        heapq.heappush(self._heaps.setdefault(item.family, []), item)

    def families(self) -> list[str]:
        """Families with at least one queued query."""
        return [family for family, heap in self._heaps.items() if heap]

    def pop(self, family: str) -> QueuedQuery | None:
        """The family's cheapest queued query, or None."""
        heap = self._heaps.get(family)
        return heapq.heappop(heap) if heap else None

    def observe(self, key: str, wall_s: float) -> None:
        """Feed a measured wall time back into the cost model (EWMA)."""
        self.costs.observe(key, wall_s)

    def __len__(self) -> int:
        return sum(len(heap) for heap in self._heaps.values())

    def stats(self) -> dict:
        """Queue depth, shedding state, and per-tenant spend."""
        inflight_by_tenant: dict[str, int] = {}
        for tenant in self._inflight.values():
            inflight_by_tenant[tenant] = inflight_by_tenant.get(tenant, 0) + 1
        return {
            "queued": len(self),
            "queued_by_family": {
                family: len(heap)
                for family, heap in sorted(self._heaps.items())
                if heap
            },
            "max_queue_depth": self.max_queue_depth,
            "tenant_max_inflight": self.tenant_max_inflight,
            "inflight_by_tenant": dict(sorted(inflight_by_tenant.items())),
            "shedding": self.shedding,
            "shed_total": self.shed_total,
            "tenants": {
                name: {
                    "steps": steps,
                    "max_steps": self.tenant_max_steps,
                    "exhausted": self.exhausted(name),
                }
                for name, steps in sorted(self.tenant_steps.items())
            },
        }
