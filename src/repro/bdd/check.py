"""Structural invariant verification for managers, CFs, and payloads.

The paper's algorithms (and the polynomial verification results built
on BDDs in general) assume every manager is *ordered*, *reduced*, and
*unique-table consistent*: each edge goes strictly downward in the
variable order, no node has identical children, and the unique tables
agree bijectively with the node arrays.  Nothing in the hot paths
re-checks those properties — they are maintained incrementally by
``mk``/``collect``/reordering — so a bug (or a corrupted payload from
disk or another process) could silently poison every result computed
afterwards.

This module is the self-check layer:

* :func:`check_manager` — full structural audit of one
  :class:`~repro.bdd.manager.BDD` (ordering, reduction, unique-table
  and cache coherence, counter drift, terminal reachability).
* :func:`check_charfunction` — :func:`check_manager` plus the CF
  output-variable placement of Definition 2.4 (every live support
  variable above its output variable).
* :func:`check_payload` — audit of a serialized forest/CF payload
  (:mod:`repro.bdd.io` format) *without* rebuilding it: topological
  node order, dangling children, redundant nodes, duplicate triples,
  variable-ordering on edges, root validity, and CF metadata.

Each check returns structured :class:`InvariantViolation` records; the
``verify_*`` wrappers raise :class:`~repro.errors.IntegrityError`
carrying them.  ``REPRO_SELFCHECK=1`` arms the hooks wired through the
sweep executor (row boundaries), ``repro.bdd.io`` (verify-on-load), and
the sift-degradation path, so a long sweep can prove every manager it
touched was consistent — at a cost, which is why it is opt-in.

Counters (:data:`COUNTERS`) record how many checks ran and how many
violations were found; the executor surfaces them in the BENCH schema
v4 ``selfcheck`` section.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from repro.errors import IntegrityError

__all__ = [
    "COUNTERS",
    "InvariantViolation",
    "check_charfunction",
    "check_manager",
    "check_payload",
    "counters_snapshot",
    "selfcheck_enabled",
    "selfcheck_live_managers",
    "verify_charfunction",
    "verify_manager",
    "verify_payload",
]

#: Process-local self-check accounting (surfaced in BENCH payloads).
COUNTERS = {"manager_checks": 0, "payload_checks": 0, "violations": 0}


def selfcheck_enabled() -> bool:
    """True when ``REPRO_SELFCHECK`` arms the opt-in self-check hooks."""
    from repro._config import env_flag

    return env_flag("REPRO_SELFCHECK", False)


@dataclass(frozen=True)
class InvariantViolation:
    """One violated structural invariant.

    ``kind`` names the invariant class (``ordering``, ``redundant``,
    ``unique_table``, ``dangling``, ``counter``, ``cache``,
    ``terminal``, ``output_level``, ``format``); ``where`` locates it
    (a node id, variable name, or payload index) and ``detail`` says
    what was expected versus found.
    """

    kind: str
    where: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"[{self.kind}] {self.where}: {self.detail}"


def _violation(out: list, kind: str, where: str, detail: str) -> None:
    out.append(InvariantViolation(kind, where, detail))
    COUNTERS["violations"] += 1


# ----------------------------------------------------------------------
# Manager checks
# ----------------------------------------------------------------------


def check_manager(bdd, roots: Iterable[int] = ()) -> list[InvariantViolation]:
    """Audit one manager's structural invariants; returns violations.

    Checks, in order: the variable order is a permutation consistent
    with ``level_of``; every unique-table entry agrees with the node
    arrays, is reduced (``lo != hi``), points only at alive or terminal
    children, and respects the variable order strictly on both edges;
    every node reachable from ``roots`` is present in its unique table
    and reaches a terminal; the alive-node counter has not drifted; and
    every *validator-live* cache entry references an alive result node
    (cache coherence — a live entry naming a freed node would resurrect
    garbage as a correct answer).
    """
    COUNTERS["manager_checks"] += 1
    out: list[InvariantViolation] = []

    # Variable order bijectivity.
    order = bdd._var_at_level
    if sorted(order) != list(range(bdd.num_vars)):
        _violation(out, "ordering", "order",
                   "var_at_level is not a permutation of the vids")
    else:
        for lvl, vid in enumerate(order):
            if bdd._level_of[vid] != lvl:
                _violation(
                    out, "ordering", f"vid {vid}",
                    f"level_of says {bdd._level_of[vid]}, var_at_level says {lvl}",
                )

    n_nodes = len(bdd._vid)

    def alive(u: int) -> bool:
        return u <= 1 or (2 <= u < n_nodes and bdd._vid[u] >= 0)

    # Unique tables vs node arrays.
    for vid, table in enumerate(bdd._unique):
        level = bdd._level_of[vid]
        for key, u in table.items():
            lo, hi = key >> 32, key & 0xFFFFFFFF
            where = f"node {u}"
            if not (2 <= u < n_nodes):
                _violation(out, "unique_table", where,
                           f"table entry for vid {vid} names an out-of-range id")
                continue
            if bdd._vid[u] != vid or bdd._lo[u] != lo or bdd._hi[u] != hi:
                _violation(
                    out, "unique_table", where,
                    f"arrays say ({bdd._vid[u]}, {bdd._lo[u]}, {bdd._hi[u]}), "
                    f"table says ({vid}, {lo}, {hi})",
                )
                continue
            if lo == hi:
                _violation(out, "redundant", where,
                           f"children coincide (both {lo}) — node is redundant")
            for child in (lo, hi):
                if not alive(child):
                    _violation(out, "dangling", where,
                               f"child {child} is freed or out of range")
                elif child > 1 and bdd._level_of[bdd._vid[child]] <= level:
                    _violation(
                        out, "ordering", where,
                        f"child {child} at level "
                        f"{bdd._level_of[bdd._vid[child]]} is not strictly "
                        f"below parent level {level}",
                    )

    # Reachable cone: membership in the unique table and terminal
    # reachability (an alive internal node whose cone never reaches a
    # terminal cannot exist in a well-formed DAG; detect cycles and
    # freed nodes on the way down).
    roots = [r for r in roots]
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        u = stack.pop()
        if u in seen or u <= 1:
            continue
        seen.add(u)
        if not alive(u):
            _violation(out, "dangling", f"node {u}",
                       "reachable node is freed or out of range")
            continue
        if bdd._unique[bdd._vid[u]].get((bdd._lo[u] << 32) | bdd._hi[u]) != u:
            _violation(out, "unique_table", f"node {u}",
                       "reachable node missing from its unique table")
        stack.append(bdd._lo[u])
        stack.append(bdd._hi[u])
    for root in roots:
        if alive(root) and not _reaches_terminal(bdd, root, n_nodes):
            _violation(out, "terminal", f"root {root}",
                       "no terminal reachable (cycle or corruption)")

    # Counter drift.
    if bdd._n_alive != bdd.num_alive_nodes():
        _violation(
            out, "counter", "n_alive",
            f"counter says {bdd._n_alive}, unique tables hold "
            f"{bdd.num_alive_nodes()}",
        )

    # Cache coherence: entries their own validator reports live must
    # reference alive result nodes.
    gen = bdd._gen
    epoch = bdd._epoch
    for tier in bdd.iter_cache_tiers():
        validator = tier.validator
        if validator is None:
            continue
        for key, value in tier.data.items():
            try:
                live = validator(key, value, gen, epoch)
            except Exception:
                _violation(out, "cache", f"tier {tier.name}",
                           f"validator crashed on key {key!r}")
                continue
            if live and not alive(value[0]):
                _violation(
                    out, "cache", f"tier {tier.name}",
                    f"live entry {key!r} names freed result node {value[0]}",
                )
    return out


def _reaches_terminal(bdd, root: int, n_nodes: int) -> bool:
    """True when some path from ``root`` ends in a terminal node."""
    seen: set[int] = set()
    stack = [root]
    while stack:
        u = stack.pop()
        if u <= 1:
            return True
        if u in seen or not (2 <= u < n_nodes) or bdd._vid[u] < 0:
            continue
        seen.add(u)
        stack.append(bdd._lo[u])
        stack.append(bdd._hi[u])
    return False


def check_charfunction(cf) -> list[InvariantViolation]:
    """Manager audit plus the CF-specific Definition 2.4 invariant.

    Every output variable must sit strictly below each of its *live*
    support variables (variables removed by support reduction no longer
    constrain the order — same rule as
    :meth:`~repro.cf.charfun.CharFunction.precedence_constraints`).
    """
    out = check_manager(cf.bdd, [cf.root])
    bdd = cf.bdd
    live = bdd.support(cf.root)
    for y in cf.output_vids:
        if bdd.kind_of(y) != "output":
            _violation(
                out, "output_level", bdd.name_of(y),
                "listed as a CF output but declared as an input variable",
            )
            continue
        y_level = bdd.level_of_vid(y)
        for x in cf.output_supports.get(y, frozenset()):
            if x in live and bdd.level_of_vid(x) >= y_level:
                _violation(
                    out, "output_level", bdd.name_of(y),
                    f"support variable {bdd.name_of(x)} at level "
                    f"{bdd.level_of_vid(x)} is not above output level {y_level}",
                )
    return out


# ----------------------------------------------------------------------
# Payload checks (serialized forests, without rebuilding)
# ----------------------------------------------------------------------


def check_payload(payload: Mapping) -> list[InvariantViolation]:
    """Audit a serialized forest/CF payload (``repro.bdd.io`` format).

    Validates the document shape, the topological node list (children
    strictly earlier than their node, in range — a flipped child id or
    a dropped node shows up here as a dangling reference), reduction
    (``lo != hi``), the strict variable-order invariant along edges,
    duplicate ``(var, lo, hi)`` triples (a violated hash-consing
    contract), root validity, and — when a ``charfunction`` section is
    present — that its variables exist with the right kinds and each
    output variable sits below its recorded support variables.
    """
    COUNTERS["payload_checks"] += 1
    out: list[InvariantViolation] = []
    if not isinstance(payload, Mapping):
        _violation(out, "format", "document", "payload is not a mapping")
        return out
    if payload.get("format") != "repro-bdd-forest" or payload.get("version") != 1:
        _violation(out, "format", "document",
                   "not a repro-bdd-forest v1 document")
        return out
    variables = payload.get("variables")
    nodes = payload.get("nodes")
    roots = payload.get("roots")
    if not isinstance(variables, list) or not isinstance(nodes, list) or not isinstance(roots, Mapping):
        _violation(out, "format", "document",
                   "variables/nodes/roots sections missing or mistyped")
        return out

    names: list[str] = []
    kinds: dict[str, str] = {}
    for i, entry in enumerate(variables):
        if (
            not isinstance(entry, Mapping)
            or not isinstance(entry.get("name"), str)
            or entry.get("kind") not in ("input", "output")
        ):
            _violation(out, "format", f"variable {i}",
                       f"malformed variable entry {entry!r}")
            continue
        if entry["name"] in kinds:
            _violation(out, "format", f"variable {i}",
                       f"duplicate variable name {entry['name']!r}")
        names.append(entry["name"])
        kinds[entry["name"]] = entry["kind"]
    n_vars = len(variables)

    seen_triples: dict[tuple[int, int, int], int] = {}
    for i, node in enumerate(nodes):
        node_id = i + 2
        where = f"node {node_id}"
        if not (isinstance(node, (list, tuple)) and len(node) == 3):
            _violation(out, "format", where, f"malformed node record {node!r}")
            continue
        var_index, lo, hi = node
        if not all(isinstance(x, int) for x in (var_index, lo, hi)):
            _violation(out, "format", where, f"non-integer fields {node!r}")
            continue
        if not (0 <= var_index < n_vars):
            _violation(out, "dangling", where,
                       f"variable index {var_index} out of range")
            continue
        for child in (lo, hi):
            if not (0 <= child < node_id):
                _violation(
                    out, "dangling", where,
                    f"child {child} is not an earlier node "
                    f"(topological order violated or id corrupted)",
                )
        if lo == hi:
            _violation(out, "redundant", where,
                       f"children coincide (both {lo}) — node is redundant")
        # Variables are listed top-first, so an edge must go to a
        # strictly larger variable index (or a terminal).
        for child in (lo, hi):
            if 2 <= child < node_id:
                child_var = nodes[child - 2][0] if (
                    isinstance(nodes[child - 2], (list, tuple))
                    and len(nodes[child - 2]) == 3
                    and isinstance(nodes[child - 2][0], int)
                ) else None
                if child_var is not None and child_var <= var_index:
                    _violation(
                        out, "ordering", where,
                        f"child {child} has variable index {child_var}, "
                        f"not strictly below parent index {var_index}",
                    )
        triple = (var_index, lo, hi)
        if triple in seen_triples:
            _violation(
                out, "unique_table", where,
                f"duplicate of node {seen_triples[triple]} — "
                f"hash-consing violated for triple {triple}",
            )
        else:
            seen_triples[triple] = node_id

    max_id = len(nodes) + 2
    for name, root in roots.items():
        if not (isinstance(root, int) and 0 <= root < max_id):
            _violation(out, "dangling", f"root {name!r}",
                       f"root id {root!r} out of range")

    meta = payload.get("charfunction")
    if meta is not None:
        _check_cf_meta(out, meta, kinds, names)
    return out


def _check_cf_meta(out: list, meta, kinds: dict[str, str], names: list[str]) -> None:
    """CF metadata checks: kinds and Definition 2.4 output placement."""
    if not isinstance(meta, Mapping):
        _violation(out, "format", "charfunction", "section is not a mapping")
        return
    level = {name: i for i, name in enumerate(names)}
    for key, want_kind in (("inputs", "input"), ("outputs", "output")):
        listed = meta.get(key)
        if not isinstance(listed, list):
            _violation(out, "format", f"charfunction.{key}",
                       "missing or mistyped")
            continue
        for name in listed:
            if name not in kinds:
                _violation(out, "format", f"charfunction.{key}",
                           f"unknown variable {name!r}")
            elif kinds[name] != want_kind:
                _violation(
                    out, "output_level", name,
                    f"listed under {key} but declared as {kinds[name]}",
                )
    supports = meta.get("output_supports", {})
    if not isinstance(supports, Mapping):
        _violation(out, "format", "charfunction.output_supports", "mistyped")
        return
    for y, xs in supports.items():
        if y not in level:
            _violation(out, "format", f"charfunction.output_supports[{y!r}]",
                       "unknown output variable")
            continue
        for x in xs if isinstance(xs, list) else ():
            if x not in level:
                _violation(
                    out, "format", f"charfunction.output_supports[{y!r}]",
                    f"unknown support variable {x!r}",
                )
            elif level[x] >= level[y]:
                _violation(
                    out, "output_level", y,
                    f"support variable {x!r} at position {level[x]} is not "
                    f"above the output's position {level[y]} (Def. 2.4)",
                )


# ----------------------------------------------------------------------
# Raising wrappers and the REPRO_SELFCHECK hooks
# ----------------------------------------------------------------------


def _raise_if(violations: list[InvariantViolation], what: str) -> None:
    if violations:
        head = "; ".join(str(v) for v in violations[:5])
        more = f" (+{len(violations) - 5} more)" if len(violations) > 5 else ""
        raise IntegrityError(
            f"{what} failed self-check with {len(violations)} invariant "
            f"violation(s): {head}{more}",
            violations=tuple(violations),
        )


def verify_manager(bdd, roots: Iterable[int] = (), *, what: str = "BDD manager") -> None:
    """Raise :class:`IntegrityError` when :func:`check_manager` finds anything."""
    _raise_if(check_manager(bdd, roots), what)


def verify_charfunction(cf, *, what: str | None = None) -> None:
    """Raise :class:`IntegrityError` when :func:`check_charfunction` finds anything."""
    _raise_if(check_charfunction(cf), what or f"CharFunction {cf.name!r}")


def verify_payload(payload: Mapping, *, what: str = "forest payload") -> None:
    """Raise :class:`IntegrityError` when :func:`check_payload` finds anything."""
    _raise_if(check_payload(payload), what)


def selfcheck_live_managers(*, what: str = "live managers") -> int:
    """Verify every registered live manager; returns how many were checked.

    This is the sweep row-boundary hook: after a row completes (in
    whichever process ran it), all managers still alive must satisfy
    the structural invariants — including managers a governor aborted
    out of a sift, which are exactly the ones a subtle reorder bug
    would leave inconsistent.
    """
    from repro.bdd import stats

    checked = 0
    for bdd in list(stats.REGISTRY):
        verify_manager(bdd, what=f"{what}: manager #{id(bdd):x}")
        checked += 1
    return checked


def counters_snapshot() -> dict:
    """Copy of the process-local self-check counters."""
    return dict(COUNTERS)
