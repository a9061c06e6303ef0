"""Exception hierarchy for the ``repro`` package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class BDDError(ReproError):
    """Base class for errors raised by the BDD engine."""


class VariableError(BDDError):
    """An unknown, duplicate, or otherwise invalid variable was used."""


class OrderingError(BDDError):
    """A variable-ordering operation violated a constraint.

    Raised, for example, when a requested sifting move would place an
    output variable above one of its support variables (forbidden by
    Definition 2.4 of the paper).
    """


class ForeignNodeError(BDDError):
    """A node id from a different manager (or a stale id) was used."""


class CapacityError(BDDError):
    """The engine's 32-bit node-id space is exhausted.

    Packed cache and unique-table keys hold node ids in 32-bit fields
    (:mod:`repro.bdd.manager`), so a manager can hold at most
    ``2**32 - 2`` nodes.  Allocating past that boundary would silently
    corrupt packed keys (two distinct nodes colliding on one key), so
    :meth:`repro.bdd.manager.BDD.mk` raises this instead.  ``limit``
    carries the boundary that was hit.
    """

    def __init__(self, message: str, *, limit: int | None = None) -> None:
        super().__init__(message)
        self.limit = limit


class BudgetError(BDDError):
    """Base class for cooperative resource-governor violations.

    Raised by :mod:`repro.bdd.governor` checkpoints inside the apply
    kernel and the sifting loop.  The manager is always left in a
    consistent, usable state: the interrupted operation's partial
    results are simply extra (valid) nodes, and subsequent operations
    on the same manager succeed.  ``budget`` references the
    :class:`~repro.bdd.governor.Budget` whose limit was exceeded, so a
    caller managing nested budgets can tell its own limit from an
    enclosing one.
    """

    def __init__(self, message: str, *, budget=None) -> None:
        super().__init__(message)
        self.budget = budget


class ResourceLimitError(BudgetError):
    """A node or apply-step budget was exhausted (see ``Budget``)."""


class DeadlineError(BudgetError):
    """A wall-clock deadline passed during a governed operation."""


class IntegrityError(BDDError):
    """A BDD manager or serialized payload violates structural invariants.

    Raised by the self-check layer (:mod:`repro.bdd.check`) when a
    manager, a loaded forest payload, or a characteristic function
    fails the ordered/reduced/unique-table invariants the paper's
    algorithms assume.  ``violations`` carries the structured
    :class:`~repro.bdd.check.InvariantViolation` records that triggered
    the error, so callers (and CI logs) see *which* invariant broke and
    where, not just that one did.
    """

    def __init__(self, message: str, *, violations: tuple = ()) -> None:
        super().__init__(message)
        self.violations = tuple(violations)


class SpecificationError(ReproError):
    """An incompletely specified function violates its invariants.

    The sets ``f_0``, ``f_1`` and ``f_d`` must partition the input space
    (Definition 2.1): pairwise disjoint, jointly exhaustive.
    """


class ParseError(SpecificationError):
    """An input file (e.g. PLA) could not be parsed.

    Subclasses :class:`SpecificationError` so existing callers catching
    the broader class keep working; carries ``path`` and ``line``
    (1-based) context so a malformed file is reported as
    ``file:line: message`` instead of an IndexError deep in the parser.
    """

    def __init__(
        self, message: str, *, path: str | None = None, line: int | None = None
    ) -> None:
        where = ""
        if path is not None and line is not None:
            where = f"{path}:{line}: "
        elif path is not None:
            where = f"{path}: "
        elif line is not None:
            where = f"line {line}: "
        super().__init__(where + message)
        self.path = path
        self.line = line


class JournalError(ReproError):
    """A sweep journal could not be read, validated, or appended to.

    Torn tails (a partial last record from a killed process) are *not*
    errors — they are recovered by truncation on open; this is raised
    for unusable journals: wrong format marker, an unwritable path, or
    a resume against a journal whose header does not match the sweep.
    """


class IncompatibleError(ReproError):
    """Two incompatible functions were merged (Definition 3.7 violated)."""


class DecompositionError(ReproError):
    """A functional decomposition could not be constructed."""


class CascadeError(ReproError):
    """LUT cascade synthesis failed.

    Raised when no cell packing exists under the given cell limits, e.g.
    when the number of rails required at every cut exceeds the maximum
    number of cell outputs and the output set can no longer be split.
    """


class BenchmarkError(ReproError):
    """A benchmark function generator received invalid parameters."""


class ServiceError(ReproError):
    """The query service could not admit or execute a request.

    Raised (and mapped onto error responses) by :mod:`repro.service`
    for service-level conditions: an exhausted tenant budget, a
    shutting-down server, an unusable socket.  Engine errors raised
    *inside* a query propagate as themselves and are serialized with
    their own type names.
    """


class WorkerDied(ServiceError):
    """A worker process died, or hit its deadline, before it replied.

    Raised by :meth:`repro.parallel.worker.WorkerProcess.call`, which
    both the query service's shard workers and the sweep pool run on.
    Either way only that one worker is restarted.  The daemon's
    dispatcher re-journals the in-flight query as a new attempt and
    re-executes it, and only after repeated deaths does the error reach
    the client; the sweep pool charges the row that worker was running
    one attempt.
    """


class RemoteQueryError(ServiceError):
    """An engine error that happened inside a worker process.

    Worker replies serialize exceptions as ``(type name, message)``;
    the parent re-raises them as this class with :attr:`type_name`
    preserved, so client-facing error responses keep the original
    engine error type (``ResourceLimitError``, ``DeadlineError``, ...)
    across the process boundary.  :attr:`stats_delta` is the failed
    query's engine-counter delta, so the steps it spent are charged
    like an answer's.
    """

    def __init__(
        self, type_name: str, message: str, stats_delta: dict | None = None
    ) -> None:
        super().__init__(message)
        self.type_name = type_name
        self.stats_delta = stats_delta or {}


class OverloadedError(ServiceError):
    """The service shed this request instead of queueing it unboundedly.

    Raised at admission time when the queue depth bound, a per-tenant
    in-flight cap, or the memory watchdog's shedding stage refuses the
    request.  Maps onto the structured ``overloaded`` error response;
    :attr:`retry_after` is a backoff hint in seconds derived from the
    EWMA cost model's view of the queued work.
    """

    code = "overloaded"

    def __init__(self, message: str, *, retry_after: float | None = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class CircuitOpenError(ServiceError):
    """A shard family's circuit breaker is open; the request failed fast.

    After K consecutive worker deaths/timeouts for one family the
    dispatcher stops burning the pool's restart budget on it and
    answers ``circuit_open`` immediately until the half-open probe
    timer expires.  :attr:`retry_after` is the remaining open time in
    seconds.
    """

    code = "circuit_open"

    def __init__(self, message: str, *, retry_after: float | None = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class ProtocolError(ServiceError):
    """A service request line could not be parsed or validated.

    Carries enough context for the client to repair the request; the
    server answers with an ``error`` response and keeps the connection
    open (a malformed line must not poison the queries pipelined
    behind it).
    """


class FaultInjected(ReproError):
    """A deterministic test fault fired (``REPRO_FAULT_INJECT``).

    Only ever raised when the fault-injection environment hook of
    :mod:`repro._faults` is armed; it exists so the executor's and the
    query service's recovery paths (retry, worker restart, quarantine,
    circuit breaking) are testable in CI without depending on real
    crashes.
    """
