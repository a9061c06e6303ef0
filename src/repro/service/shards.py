"""Warm manager shards: one family's base-CF cache and query execution.

The serving gain of the daemon comes from here.  A cold run of
``width_reduce`` on "5-7-11-13 RNS" spends most of its time building
and sifting the benchmark's BDD_for_CF; the reduction itself re-walks
mostly the same subgraphs through the apply kernel.  A :class:`Shard`
keeps the built, sifted base CF — its manager and computed tables
included — alive between requests, so a repeated (or
merely similar) query resolves largely out of the warm computed table
instead of re-deriving every node pair.

Shards are keyed by benchmark *family* (:func:`family_of`): RNS
converters, p-nary converters, decimal arithmetic, word lists, ad-hoc
PLAs.  Families bound blast-radius — a huge word-list manager being
housekept never disturbs the warm RNS tables — and give the per-shard
counter blocks of stats schema v8 their meaning: each query's
:func:`repro.bdd.stats.counter_delta` is folded into its shard with
:func:`repro.bdd.stats.merge_additive`, so warm-vs-cold cache behaviour
is attributable per family.

Each shard worker process (:mod:`repro.service.workers`) holds the one
:class:`Shard` of its family, and :meth:`Shard.handle` is its request
handler.  The governor's budget stack and the stats snapshot are
process-global, so the worker answers one query at a time on its main
thread; shard methods assume that discipline and do no locking of
their own.
"""

from __future__ import annotations

import contextlib
import hashlib
import time
from collections.abc import Callable
from pathlib import Path

from repro import _faults
from repro.benchfns.registry import get_benchmark
from repro.bdd import stats
from repro.bdd.governor import Budget
from repro.bdd.io import (
    canonical_payload,
    charfunction_payload,
    dump_snapshot,
    load_snapshot,
    payload_fingerprint,
)
from repro.cf.charfun import CharFunction
from repro.cf.width import max_width
from repro.decomp.functional import decompose_at_height
from repro.errors import ReproError, ServiceError
from repro.experiments.table5 import design
from repro.isf.pla import loads_pla
from repro.reduce import algorithm_3_3, reduce_support

__all__ = ["Shard", "family_of"]

#: Benchmark families, i.e. shard keys (plus "misc" for the rest).
FAMILIES = ("rns", "pnary", "decimal", "wordlist", "pla", "misc")

#: Default housekeeping threshold: when a shard's managers hold more
#: alive nodes than this, query-scratch cones are collected (keeping
#: the warm base roots).  Collection bumps manager generations, which
#: invalidates computed-table entries — warmth is traded for memory
#: only past this ceiling.  ``repro serve --housekeep-nodes`` sets it.
DEFAULT_MAX_ALIVE = 2_000_000


def family_of(op: str, params: dict) -> str:
    """Shard key for a query (benchmark name pattern -> family)."""
    if op == "pla_reduce":
        return "pla"
    name = params.get("benchmark", "")
    if name.endswith(" RNS"):
        return "rns"
    if name.endswith("-nary to binary") or "-nary" in name:
        return "pnary"
    if "decimal" in name:
        return "decimal"
    if name.endswith(" words"):
        return "wordlist"
    return "misc"


def _cf_summary(cf: CharFunction, width: int) -> dict:
    """The reply's ``cf`` block; ``width`` is the CF's maximum width."""
    bdd = cf.bdd
    return {
        "name": cf.name,
        "inputs": [bdd.name_of(v) for v in cf.input_vids],
        "outputs": [bdd.name_of(v) for v in cf.output_vids],
        "nodes": bdd.count_nodes(cf.root),
        "max_width": width,
    }


def _served_payload(cf: CharFunction) -> dict:
    """CF payload + fingerprint.

    A shard's CF owns its manager (:meth:`CharFunction.from_isf` and an
    RBCF load each make a fresh one, and no query adds variables to
    it), so the payload equals the one-shot computation's.
    """
    payload = charfunction_payload(cf)
    return {
        "payload": payload,
        "fingerprint": payload_fingerprint(canon=canonical_payload(payload)),
    }


class Shard:
    """One benchmark family's warm managers plus its counter block.

    ``cfs`` insertion order doubles as LRU recency (a warm hit
    reinserts its key), so node-pressure eviction can drop the coldest
    CF first.  With a ``snapshot_dir`` the shard consults RBCF binary
    snapshots (:func:`repro.bdd.io.load_snapshot`) before building a
    cold CF from scratch, and persists freshly built CFs back — that is
    how a rebuilt worker process warms up in milliseconds instead of
    re-running build+sift.  ``max_alive`` is the housekeeping ceiling;
    ``fault_parent`` is the daemon's pid, for the chaos hook of
    :meth:`handle`.
    """

    def __init__(
        self,
        family: str,
        *,
        snapshot_dir: str | Path | None = None,
        max_alive: int = DEFAULT_MAX_ALIVE,
        fault_parent: int | None = None,
    ) -> None:
        self.family = family
        self.snapshot_dir = Path(snapshot_dir) if snapshot_dir else None
        self.max_alive = max_alive
        self.fault_parent = fault_parent
        #: Warm base CFs by cache key (benchmark name or PLA digest),
        #: least-recently-used first.  The CF's manager — with its
        #: computed tables — is what "warm" means; evicting
        #: an entry cold-starts that row.
        self.cfs: dict[str, CharFunction] = {}
        #: Additive engine counters attributed to this shard (schema
        #: v8), accumulated with :func:`repro.bdd.stats.merge_additive`.
        self.counters: dict[str, int] = {}
        self.queries = 0
        self.warm_hits = 0
        self.cold_builds = 0
        self.evicted_cfs = 0
        self.snapshot_loads = 0
        self.snapshot_writes = 0

    # -- warm base-CF cache -------------------------------------------

    def _touch(self, key: str, cf: CharFunction) -> None:
        """Mark a cache hit: re-insert the key at the recent end."""
        self.cfs.pop(key, None)
        self.cfs[key] = cf

    def _snapshot_path(self, key: str) -> Path | None:
        if self.snapshot_dir is None:
            return None
        digest = hashlib.blake2b(key.encode("utf-8"), digest_size=10).hexdigest()
        return self.snapshot_dir / f"{self.family}-{digest}.rbcf"

    def _load_snapshot(self, key: str) -> CharFunction | None:
        """A warm CF from the snapshot store, or None (always a miss
        on corrupt/missing files — the build path is the repair)."""
        path = self._snapshot_path(key)
        if path is None or not path.exists():
            return None
        try:
            cf = load_snapshot(path)
        except (ReproError, OSError):
            return None
        self.snapshot_loads += 1
        return cf

    def _store_snapshot(self, key: str, cf: CharFunction) -> None:
        """Best-effort persist of a freshly built CF (never fatal)."""
        path = self._snapshot_path(key)
        if path is None:
            return
        try:
            dump_snapshot(cf, path)
        except (ReproError, OSError):
            return
        self.snapshot_writes += 1

    def _cached_cf(self, key: str, build: Callable[[], CharFunction]) -> CharFunction:
        """The CF cached under ``key``: warm, else from its snapshot,
        else ``build()`` (which is then snapshotted)."""
        cf = self.cfs.get(key)
        if cf is not None:
            self.warm_hits += 1
        else:
            cf = self._load_snapshot(key)
            if cf is None:
                cf = build()
                self.cold_builds += 1
                self._store_snapshot(key, cf)
        self._touch(key, cf)
        return cf

    def base_cf(self, benchmark: str, *, sift: bool = True) -> CharFunction:
        """The built (and sifted) BDD_for_CF of a benchmark, warm-cached."""

        def build() -> CharFunction:
            cf = CharFunction.from_isf(get_benchmark(benchmark).build())
            if sift:
                cf.sift(cost="auto")
            return cf

        return self._cached_cf(f"{benchmark}|sift={bool(sift)}", build)

    def pla_cf(self, text: str, *, name: str | None) -> CharFunction:
        """A PLA's BDD_for_CF, warm-cached by content digest."""

        def build() -> CharFunction:
            cf = CharFunction.from_isf(loads_pla(text, name=name or "pla"))
            cf.sift(cost="auto")
            return cf

        digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).hexdigest()
        return self._cached_cf(f"pla:{digest}", build)

    # -- query execution ----------------------------------------------

    def handle(self, msg: dict) -> dict:
        """Answer one worker request (see :mod:`repro.service.workers`).

        Fires the ``service:<family>`` chaos hook, enters the tenant
        budget (when ``tenant_remaining`` is set) and the request
        budget around :meth:`execute`, and housekeeps afterwards.  Engine
        errors are answers: they come back serialized with ``ok: False``.
        The query's counter delta is taken once, folded into
        :attr:`counters` and shipped as the reply's ``stats_delta``; the
        reply's ``shard`` block is :meth:`stats`.
        """
        before = stats.snapshot()
        t0 = time.perf_counter()
        poison = None
        try:
            poison = _faults.fire(f"service:{self.family}", parent=self.fault_parent)
            tenant_remaining = msg.get("tenant_remaining")
            tenant_budget = (
                Budget(max_steps=tenant_remaining)
                if tenant_remaining is not None
                else contextlib.nullcontext()
            )
            budget = msg.get("budget") or {}
            request_budget = Budget(
                max_nodes=budget.get("max_nodes"),
                max_steps=budget.get("max_steps"),
                deadline_s=budget.get("deadline_s"),
            )
            with tenant_budget, request_budget:
                result = self.execute(msg["op"], msg.get("params") or {})
            reply = {"ok": True, "result": result}
        except Exception as exc:  # noqa: BLE001 - serialized, not dropped
            reply = {
                "ok": False,
                "error": {"type": type(exc).__name__, "message": str(exc)},
            }
        finally:
            self.housekeep()
        reply["wall_s"] = time.perf_counter() - t0
        reply["stats_delta"] = delta = stats.counter_delta(before, stats.snapshot())
        stats.merge_additive(self.counters, delta)
        reply["shard"] = self.stats()
        if poison is not None:
            # ``pickle`` fault: shipping the reply must fail, like a row
            # task whose result cannot cross the process boundary.
            reply["poison"] = poison
        return reply

    def execute(self, op: str, params: dict) -> dict:
        """Run one compute op on this shard's warm state.

        Budgets, counters and housekeeping are :meth:`handle`'s.  Engine
        errors propagate.
        """
        self.queries += 1
        if op == "width_reduce":
            return self._width_reduce(params)
        if op == "decompose":
            return self._decompose(params)
        if op == "cascade":
            return self._cascade(params)
        if op == "pla_reduce":
            return self._pla_reduce(params)
        raise ServiceError(f"shard cannot execute op {op!r}")

    def _reduce(self, cf: CharFunction) -> tuple[CharFunction, dict]:
        """Support reduction + Algorithm 3.3 with before/after widths."""
        width_before = max_width(cf.bdd, cf.root)
        reduced, removed = reduce_support(cf)
        reduced, alg_stats = algorithm_3_3(reduced)
        info = {
            "max_width_before": width_before,
            "max_width_after": max_width(reduced.bdd, reduced.root),
            "removed_inputs": sorted(cf.bdd.name_of(v) for v in removed),
            "alg33_heights": alg_stats.heights_processed,
            "alg33_merges": alg_stats.merges,
        }
        return reduced, info

    def _width_reduce(self, params: dict) -> dict:
        cf = self.base_cf(params["benchmark"], sift=params.get("sift", True))
        reduced, info = self._reduce(cf)
        result = {
            "benchmark": params["benchmark"],
            **info,
            "cf": _cf_summary(reduced, info["max_width_after"]),
        }
        if params.get("payload", False):
            result.update(_served_payload(reduced))
        else:
            result["fingerprint"] = payload_fingerprint(charfunction_payload(reduced))
        return result

    def _decompose(self, params: dict) -> dict:
        cf = self.base_cf(params["benchmark"], sift=params.get("sift", True))
        dec = decompose_at_height(cf, params["cut_height"])
        bdd = dec.cf.bdd
        return {
            "benchmark": params["benchmark"],
            "cut_height": dec.cut_height,
            "columns": len(dec.columns),
            "rails": dec.rails,
            "h_inputs": [bdd.name_of(v) for v in dec.h_inputs],
            "h_outputs": [bdd.name_of(v) for v in dec.h_outputs],
            "g_inputs": [bdd.name_of(v) for v in dec.g_inputs],
            "g_outputs": [bdd.name_of(v) for v in dec.g_outputs],
        }

    def _cascade(self, params: dict) -> dict:
        # Cascade synthesis partitions and sifts the ISF itself, so the
        # warm base CF cannot be shared with it; the ISF is built fresh
        # (its own manager) per request and discarded.
        bench = get_benchmark(params["benchmark"])
        kwargs = {}
        if "max_cell_inputs" in params:
            kwargs["max_cell_inputs"] = params["max_cell_inputs"]
        if "max_cell_outputs" in params:
            kwargs["max_cell_outputs"] = params["max_cell_outputs"]
        cost, _realization, forest = design(
            bench.build(),
            reduce=params.get("reduce", True),
            sift=params.get("sift", True),
            **kwargs,
        )
        return {
            "benchmark": params["benchmark"],
            "reduce": params.get("reduce", True),
            "cells": cost.cells,
            "lut_outputs": cost.lut_outputs,
            "cascades": cost.cascades,
            "redundant_vars": cost.redundant_vars,
            "lut_memory_bits": cost.lut_memory_bits,
            "aux_memory_bits": cost.aux_memory_bits,
            "parts": len(forest),
        }

    def _pla_reduce(self, params: dict) -> dict:
        cf = self.pla_cf(params["pla"], name=params.get("name"))
        reduced, info = self._reduce(cf)
        result = {"name": reduced.name, **info, "cf": _cf_summary(reduced, info["max_width_after"])}
        if params.get("payload", True):
            result.update(_served_payload(reduced))
        return result

    # -- maintenance and stats ----------------------------------------

    def alive_nodes(self) -> int:
        managers = {id(cf.bdd): cf.bdd for cf in self.cfs.values()}
        return sum(b.num_alive_nodes() for b in managers.values())

    def housekeep(self, max_alive: int | None = None) -> int:
        """Shed nodes when the shard exceeds ``max_alive`` (default: the
        shard's own ceiling).

        Two escalating passes:

        1. collect query scratch — keep every warm base root (and its
           variable structure), free the cones left behind by
           reductions and decompositions;
        2. still over the ceiling: **evict whole CFs, coldest first**
           (``cfs`` is in LRU order).  Evicted CFs cold-start their next
           query (or reload from a snapshot, when configured).

        It runs between queries (after :meth:`handle`'s query returns),
        so no CF it evicts is being traversed.

        Returns the number of nodes freed (0 under the threshold —
        collection invalidates the very caches that make the shard
        warm, so it only runs under memory pressure).
        """
        if max_alive is None:
            max_alive = self.max_alive
        if self.alive_nodes() <= max_alive:
            return 0
        freed = 0
        by_manager: dict[int, tuple[object, list[int]]] = {}
        for cf in self.cfs.values():
            mgr, roots = by_manager.setdefault(id(cf.bdd), (cf.bdd, []))
            roots.append(cf.root)
        for mgr, roots in by_manager.values():
            freed += mgr.collect(roots)
        for key in list(self.cfs):
            if self.alive_nodes() <= max_alive:
                break
            del self.cfs[key]
            self.evicted_cfs += 1
        return freed

    def stats(self) -> dict:
        """This shard's schema-v8 counter block."""
        return {
            "family": self.family,
            "queries": self.queries,
            "warm_hits": self.warm_hits,
            "cold_builds": self.cold_builds,
            "evicted_cfs": self.evicted_cfs,
            "snapshot_loads": self.snapshot_loads,
            "snapshot_writes": self.snapshot_writes,
            "cached_cfs": len(self.cfs),
            "alive_nodes": self.alive_nodes(),
            "counters": dict(self.counters),
        }
