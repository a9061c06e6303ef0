"""Wire protocol of the query service: newline-delimited JSON.

One request per line, one response per line, over a unix socket (or
wrapped in a minimal local-HTTP POST body — the framing is identical).
Requests::

    {"id": "c1", "op": "width_reduce",
     "params": {"benchmark": "5-7-11-13 RNS"},
     "tenant": "ci",                      # optional, default "default"
     "budget": {"max_steps": 2000000, "max_nodes": 500000,
                "deadline_s": 30.0},      # optional per-request
     "deadline_ms": 1500}                 # optional end-to-end deadline

Responses::

    {"id": "c1", "ok": true, "result": {...},
     "meta": {"key": "query:width_reduce/ab12...", "shard": "rns",
              "batched": false, "wall_s": 0.41}}
    {"id": "c1", "ok": false,
     "error": {"type": "ResourceLimitError", "message": "..."}}
    {"id": "c1", "ok": false,
     "error": {"type": "OverloadedError", "message": "...",
               "code": "overloaded", "retry_after": 2.5}}

v3 adds ``deadline_ms`` (a per-query end-to-end deadline, measured from
admission; queueing time counts) and machine-readable resilience error
``code`` values — ``overloaded``, ``deadline_exceeded``,
``circuit_open`` — with an optional ``retry_after`` backoff hint in
seconds.  ``code`` is present only for those mapped conditions; plain
engine errors keep the v2 shape (type + message).  v4 removes the
per-request ``tt`` field and rejects any other top-level key than
``id``, ``op``, ``params``, ``tenant``, ``budget`` and ``deadline_ms``,
so a stale client's field or a typo such as ``"deadline"`` fails the
request instead of being silently dropped.

Ops: ``ping``, ``stats``, ``invalidate``, ``width_reduce``,
``decompose``, ``cascade``, ``pla_reduce``, ``shutdown``.
``ping``/``stats``/``invalidate``/``shutdown`` are control ops answered
by the event loop directly; the compute ops go through admission,
batching, the cross-request result cache, and (when configured) the
write-ahead journal.

Query identity is *content-addressed*: :func:`query_key` digests the
op plus its canonicalized parameters (and any per-request ``budget``,
which changes how — not what — is computed but must not be coalesced
across), yielding the ``query:<op>/<digest>`` key used for
journaling, batching, and cost estimates.  Two clients
asking the identical question share one key, which is exactly what
lets the batcher answer both with one manager pass.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

from repro.errors import DeadlineError, ProtocolError, RemoteQueryError

__all__ = [
    "CONTROL_OPS",
    "OPS",
    "PROTOCOL",
    "PROTOCOL_VERSION",
    "Request",
    "encode",
    "error_code",
    "error_response",
    "ok_response",
    "parse_request",
    "query_key",
]

PROTOCOL = "repro-query-v4"
PROTOCOL_VERSION = 4

#: Top-level keys a request line may carry; anything else is rejected.
_REQUEST_FIELDS = ("id", "op", "params", "tenant", "budget", "deadline_ms")

#: Compute ops: admitted, batched, journaled, executed on a shard.
COMPUTE_OPS = ("width_reduce", "decompose", "cascade", "pla_reduce")

#: Control ops: answered immediately by the server loop.  v2 adds
#: ``invalidate`` (bump the result-cache epoch, dropping every cached
#: cross-request result).
CONTROL_OPS = ("ping", "stats", "invalidate", "shutdown")

OPS = COMPUTE_OPS + CONTROL_OPS

#: Parameters accepted per compute op (validation rejects unknown keys
#: early, so a typo'd parameter fails the request instead of silently
#: computing something else).
_OP_PARAMS = {
    "width_reduce": {"benchmark", "sift", "payload"},
    "decompose": {"benchmark", "cut_height", "sift"},
    "cascade": {"benchmark", "reduce", "sift", "max_cell_inputs", "max_cell_outputs"},
    "pla_reduce": {"pla", "name", "payload"},
    "ping": set(),
    "stats": set(),
    "invalidate": set(),
    "shutdown": set(),
}


@dataclass
class Request:
    """One parsed, validated request line."""

    id: str
    op: str
    params: dict[str, Any] = field(default_factory=dict)
    tenant: str = "default"
    budget: dict[str, Any] | None = None
    #: End-to-end deadline in milliseconds, measured from admission —
    #: queueing time counts, so an overloaded daemon fails these fast
    #: instead of serving answers nobody is waiting for anymore.
    deadline_ms: int | None = None

    @property
    def is_control(self) -> bool:
        return self.op in CONTROL_OPS

    def key(self) -> str:
        """Content-addressed query key (see :func:`query_key`).

        Computed once and cached: the daemon consults the key on every
        admission, batch, journal, and result-cache touch, and the
        canonical-JSON dump it digests is the expensive part for
        payload-carrying requests.
        """
        key = getattr(self, "_key", None)
        if key is None:
            key = query_key(
                self.op,
                self.params,
                budget=self.budget,
                deadline_ms=self.deadline_ms,
            )
            object.__setattr__(self, "_key", key)
        return key

    def doc(self) -> dict:
        """JSON description sufficient to re-execute this query.

        Embedded in journal attempt records so a killed daemon can
        rebuild its in-flight queue from the journal alone.
        """
        doc: dict[str, Any] = {
            "op": self.op,
            "params": self.params,
            "tenant": self.tenant,
            "budget": self.budget,
        }
        if self.deadline_ms is not None:
            doc["deadline_ms"] = self.deadline_ms
        return doc

    @classmethod
    def from_doc(cls, doc: dict, *, id: str = "journal") -> "Request":
        return cls(
            id=id,
            op=doc["op"],
            params=dict(doc.get("params") or {}),
            tenant=doc.get("tenant") or "default",
            budget=doc.get("budget"),
            deadline_ms=doc.get("deadline_ms"),
        )


def query_key(
    op: str,
    params: dict[str, Any],
    *,
    budget: dict | None = None,
    deadline_ms: int | None = None,
) -> str:
    """``query:<op>/<digest>`` — stable identity of one computation.

    The digest covers the canonical JSON of op, params, and the
    per-request budget.  Like the sweep journal's ``config_hash``,
    two requests share a key iff they describe the identical
    computation under identical execution settings.  ``deadline_ms``
    joins the digest only when set (keeping v2 keys stable), because a
    deadline changes how long we compute — a deadlineless waiter must
    not be batched onto an attempt that may abort early.
    """
    doc: dict[str, Any] = {
        "op": op,
        "params": params,
        "budget": budget or None,
    }
    if deadline_ms is not None:
        doc["deadline_ms"] = deadline_ms
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    digest = hashlib.blake2b(canon.encode("utf-8"), digest_size=8).hexdigest()
    return f"query:{op}/{digest}"


def parse_request(line: str | bytes) -> Request:
    """Parse and validate one request line; raises :class:`ProtocolError`."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"request is not valid UTF-8: {exc}") from exc
    try:
        raw = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ProtocolError("request must be a JSON object")
    unknown = set(raw) - set(_REQUEST_FIELDS)
    if unknown:
        raise ProtocolError(
            f"request has unknown field(s): {', '.join(sorted(unknown))} "
            f"(expected: {', '.join(_REQUEST_FIELDS)})"
        )
    rid = raw.get("id")
    if not isinstance(rid, str) or not rid:
        raise ProtocolError("request is missing a non-empty string 'id'")
    op = raw.get("op")
    if op not in OPS:
        raise ProtocolError(
            f"unknown op {op!r} (expected one of: {', '.join(OPS)})"
        )
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError("'params' must be a JSON object")
    unknown = set(params) - _OP_PARAMS[op]
    if unknown:
        raise ProtocolError(
            f"op {op!r} does not accept parameter(s): {', '.join(sorted(unknown))}"
        )
    if op in ("width_reduce", "decompose", "cascade") and not isinstance(
        params.get("benchmark"), str
    ):
        raise ProtocolError(f"op {op!r} requires a string 'benchmark' parameter")
    if op == "pla_reduce" and not isinstance(params.get("pla"), str):
        raise ProtocolError("op 'pla_reduce' requires the PLA text in 'pla'")
    if op == "decompose" and not isinstance(params.get("cut_height"), int):
        raise ProtocolError("op 'decompose' requires an integer 'cut_height'")
    tenant = raw.get("tenant", "default")
    if not isinstance(tenant, str) or not tenant:
        raise ProtocolError("'tenant' must be a non-empty string")
    budget = raw.get("budget")
    if budget is not None:
        if not isinstance(budget, dict) or set(budget) - {
            "max_steps",
            "max_nodes",
            "deadline_s",
        }:
            raise ProtocolError(
                "'budget' accepts only max_steps/max_nodes/deadline_s"
            )
    deadline_ms = raw.get("deadline_ms")
    if deadline_ms is not None:
        if not isinstance(deadline_ms, int) or isinstance(deadline_ms, bool) or deadline_ms <= 0:
            raise ProtocolError("'deadline_ms' must be a positive integer")
    return Request(
        id=rid,
        op=op,
        params=params,
        tenant=tenant,
        budget=budget,
        deadline_ms=deadline_ms,
    )


def ok_response(rid: str, result: Any, **meta: Any) -> dict:
    """A success response document."""
    out: dict[str, Any] = {"id": rid, "ok": True, "result": result}
    if meta:
        out["meta"] = meta
    return out


def error_code(exc: BaseException) -> str | None:
    """The machine-readable resilience code for ``exc``, if any.

    ``overloaded`` / ``circuit_open`` come from the exception's own
    ``code`` attribute; ``deadline_exceeded`` maps the governor's
    :class:`~repro.errors.DeadlineError` — including one that crossed a
    worker process boundary as a :class:`~repro.errors.RemoteQueryError`
    — so clients see one code regardless of execution mode.
    """
    code = getattr(exc, "code", None)
    if isinstance(code, str):
        return code
    if isinstance(exc, DeadlineError):
        return "deadline_exceeded"
    if isinstance(exc, RemoteQueryError) and exc.type_name == "DeadlineError":
        return "deadline_exceeded"
    return None


def error_response(rid: str | None, exc: BaseException | str, *, type_: str | None = None) -> dict:
    """An error response document (type name + message).

    For resilience conditions (:func:`error_code`) the error object
    additionally carries ``code`` and, when the exception supplies one,
    a ``retry_after`` backoff hint in seconds.
    """
    error: dict[str, Any]
    if isinstance(exc, BaseException):
        error = {"type": type_ or type(exc).__name__, "message": str(exc)}
        code = error_code(exc)
        if code is not None:
            error["code"] = code
        retry_after = getattr(exc, "retry_after", None)
        if retry_after is not None:
            error["retry_after"] = round(float(retry_after), 3)
    else:
        error = {"type": type_ or "ProtocolError", "message": exc}
    return {
        "id": rid if rid is not None else "",
        "ok": False,
        "error": error,
    }


def encode(doc: dict) -> bytes:
    """One response/request document as a wire line."""
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode(
        "utf-8"
    )
