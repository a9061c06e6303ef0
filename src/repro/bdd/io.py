"""Serialization of BDD forests and characteristic functions.

A compact JSON format for persisting sifted/reduced BDD_for_CFs between
runs (building + sifting the big word-list CFs costs minutes; loading
them back is linear):

    {
      "format": "repro-bdd-forest",
      "version": 1,
      "variables": [{"name": "x1", "kind": "input"}, ...],   # top first
      "nodes": [[var_index, lo, hi], ...],  # ids 2.., children < own id
      "roots": {"chi": 17, ...}
    }

Node ids 0/1 are the constants.  Nodes are emitted in a reverse
topological order, so loading is a single pass of ``mk`` calls.

For cold-shard warmup the JSON path is too slow: parsing is cheap, but
the per-node ``mk`` loop (a Python-level dict probe and list append per
node) dominates.  The *binary snapshot* format (``RBCF``) fixes both
ends: nodes are stored as length-prefixed packed little-endian arrays
(``u32 lo[] / u32 hi[] / u64 (lo<<32)|hi[]``) grouped into contiguous
per-level segments, deepest level first.  That grouping lets
:func:`load_snapshot_bytes` rebuild a manager with **no per-node Python
loop at all**: the parallel node arrays are filled with
``array.tolist()`` + ``list.extend`` and each variable's unique table
with one ``dict.update(zip(packed_slice, range(...)))`` — all C-level
bulk operations over ``mmap``-backed buffers.  The precomputed ``u64``
column is exactly the ``(lo << 32) | hi`` unique-table key, so nothing
is re-derived at load time.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import mmap
import sys
from array import array
from collections.abc import Mapping
from pathlib import Path

from repro.bdd import stats
from repro.bdd.manager import BDD, check_capacity
from repro.cf.charfun import CharFunction
from repro.errors import BDDError

#: Binary snapshot file magic (4 bytes) + format version (1 byte).
SNAPSHOT_MAGIC = b"RBCF"
SNAPSHOT_VERSION = 1

# ``array`` type codes with guaranteed widths (codes are platform
# hints, not sizes: ``I`` is 4 bytes and ``Q`` 8 on every mainstream
# platform, but pick by itemsize to stay honest).
_U32 = next(c for c in "ILQ" if array(c).itemsize == 4)
_U64 = next(c for c in "QLI" if array(c).itemsize == 8)


def forest_payload(bdd: BDD, roots: Mapping[str, int]) -> dict:
    """The forest document for named roots, as a plain dict.

    This is the single source of truth for the on-disk/IPC format;
    :func:`dump_forest` is ``json.dumps`` of it.  The parallel runner
    embeds these payloads directly in its result messages, so keeping
    them at the dict level avoids encoding the (potentially large) node
    list twice.
    """
    order = [bdd.vid_at_level(level) for level in range(bdd.num_vars)]
    var_index = {vid: i for i, vid in enumerate(order)}
    variables = [
        {"name": bdd.name_of(vid), "kind": bdd.kind_of(vid)} for vid in order
    ]

    new_id: dict[int, int] = {0: 0, 1: 1}
    nodes: list[list[int]] = []

    def visit(root: int) -> int:
        # Explicit post-order: shipped CFs can be deeper than the
        # recursion limit (40+ variable word-list functions).
        done = new_id.get(root)
        if done is not None:
            return done
        stack = [root]
        while stack:
            u = stack[-1]
            if u in new_id:
                stack.pop()
                continue
            lo, hi = bdd.lo(u), bdd.hi(u)
            ready = True
            if hi not in new_id:
                stack.append(hi)
                ready = False
            if lo not in new_id:
                stack.append(lo)
                ready = False
            if not ready:
                continue
            stack.pop()
            new_id[u] = len(nodes) + 2
            nodes.append([var_index[bdd.var_of(u)], new_id[lo], new_id[hi]])
        return new_id[root]

    root_map = {name: visit(node) for name, node in roots.items()}
    return {
        "format": "repro-bdd-forest",
        "version": 1,
        "variables": variables,
        "nodes": nodes,
        "roots": root_map,
    }


def load_forest_payload(data: dict) -> tuple[BDD, dict[str, int]]:
    """Rebuild a forest payload (see :func:`forest_payload`).

    Under ``REPRO_SELFCHECK=1`` the payload is audited *before* any
    node is built (:func:`repro.bdd.check.verify_payload`) and the
    rebuilt manager *after* — verify-on-load for every path that pulls
    a serialized BDD in, including the ``transfer_by_name`` refinement
    checks over worker-shipped CFs.
    """
    from repro.bdd import check

    if check.selfcheck_enabled():
        check.verify_payload(data, what="forest payload (on load)")
    if data.get("format") != "repro-bdd-forest" or data.get("version") != 1:
        raise BDDError("not a repro-bdd-forest v1 document")
    bdd = BDD()
    vids = [
        bdd.add_var(entry["name"], kind=entry["kind"])
        for entry in data["variables"]
    ]
    ids: list[int] = [0, 1]
    for var_index, lo, hi in data["nodes"]:
        if lo >= len(ids) or hi >= len(ids):
            raise BDDError("forest nodes are not topologically ordered")
        node = bdd.mk(vids[var_index], ids[lo], ids[hi])
        ids.append(node)
    roots = {name: ids[r] for name, r in data["roots"].items()}
    if check.selfcheck_enabled():
        check.verify_manager(
            bdd, roots.values(), what="rebuilt forest (on load)"
        )
    return bdd, roots


def dump_forest(bdd: BDD, roots: Mapping[str, int]) -> str:
    """Serialize named roots (and their cones) to a JSON string."""
    return json.dumps(forest_payload(bdd, roots))


def load_forest(text: str) -> tuple[BDD, dict[str, int]]:
    """Rebuild a serialized forest in a fresh manager."""
    return load_forest_payload(json.loads(text))


def charfunction_payload(cf: CharFunction) -> dict:
    """The CharFunction document (forest + metadata), as a plain dict."""
    payload = forest_payload(cf.bdd, {"chi": cf.root})
    payload["charfunction"] = {
        "name": cf.name,
        "inputs": [cf.bdd.name_of(v) for v in cf.input_vids],
        "outputs": [cf.bdd.name_of(v) for v in cf.output_vids],
        "output_supports": {
            cf.bdd.name_of(y): sorted(cf.bdd.name_of(x) for x in xs)
            for y, xs in cf.output_supports.items()
        },
    }
    return payload


def _cf_from_meta(
    bdd: BDD, root: int, meta: dict, *, name2vid: dict[str, int] | None = None
) -> CharFunction:
    """Assemble a CharFunction from a rebuilt manager + metadata dict.

    ``name2vid`` lets a bulk loader that already holds the full
    name-to-vid mapping skip the per-name :meth:`BDD.vid` lookups.
    """
    vid = name2vid.__getitem__ if name2vid is not None else bdd.vid
    cf = CharFunction(
        bdd,
        root,
        [vid(name) for name in meta["inputs"]],
        [vid(name) for name in meta["outputs"]],
        name=meta["name"],
        output_supports={
            vid(y): frozenset(vid(x) for x in xs)
            for y, xs in meta["output_supports"].items()
        },
    )
    from repro.bdd import check

    if check.selfcheck_enabled():
        check.verify_charfunction(cf, what=f"loaded CF {cf.name!r}")
    return cf


def load_charfunction_payload(data: dict) -> CharFunction:
    """Rebuild a CharFunction payload in a fresh manager."""
    meta = data.get("charfunction")
    if meta is None:
        raise BDDError("document does not contain a charfunction section")
    bdd, roots = load_forest_payload(data)
    return _cf_from_meta(bdd, roots["chi"], meta)


def canonical_payload(payload: dict) -> bytes:
    """The canonical wire bytes of a payload (sorted keys, no spaces).

    This is the *one* serialization of a payload: the fingerprint is a
    digest of exactly these bytes, and shipping paths that also need
    the serialized form (journal records, wire messages) should
    serialize once here and pass the bytes to
    :func:`payload_fingerprint` via ``canon=`` instead of paying a
    second ``json.dumps`` of a potentially huge node list.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


def payload_fingerprint(
    payload: dict | None = None, *, canon: bytes | None = None
) -> str:
    """Stable content digest of a forest/CharFunction payload.

    BLAKE2b over the canonical (sorted-key, no-whitespace) JSON of the
    document.  Two payloads share a fingerprint iff they serialize the
    same graph over the same variable order — the equality the service
    parity tests assert between a daemon-served CF and the equivalent
    in-process CLI computation, without diffing node lists by hand.

    Pass ``canon=`` (the :func:`canonical_payload` bytes) when the
    caller already serialized the payload — fingerprinting then costs
    one hash, not a re-serialization of the node list.
    """
    if canon is None:
        if payload is None:
            raise TypeError("payload_fingerprint needs a payload or canon bytes")
        canon = canonical_payload(payload)
    return hashlib.blake2b(canon, digest_size=16).hexdigest()


def dump_charfunction(cf: CharFunction) -> str:
    """Serialize a CharFunction (root, variables, metadata)."""
    return json.dumps(charfunction_payload(cf))


def load_charfunction(text: str) -> CharFunction:
    """Rebuild a serialized CharFunction in a fresh manager."""
    return load_charfunction_payload(json.loads(text))


# ---------------------------------------------------------------------------
# Binary CF snapshots (RBCF): zero-Python-loop cold-shard warmup
# ---------------------------------------------------------------------------


def snapshot_bytes(cf: CharFunction) -> bytes:
    """Serialize a CharFunction to the RBCF binary snapshot format.

    Layout::

        b"RBCF" | u8 version | u32le header_len | header JSON |
        u32le lo[n] | u32le hi[n] | u64le packed[n]

    The header carries the variable order, roots, CF metadata, the
    per-level ``segments`` table (``[var_index, count]`` runs, deepest
    level first — the load-time bulk-insert plan), and a BLAKE2b
    checksum of the array region.  Node ``i`` (0-based) has id
    ``i + 2``; grouping by level keeps the order topological (children
    live at strictly deeper levels, hence earlier in the file).
    """
    payload = charfunction_payload(cf)
    nodes = payload["nodes"]
    # Stable re-sort into deepest-level-first order (var_index == level
    # in a payload's top-first variable list).
    order = sorted(range(len(nodes)), key=lambda i: -nodes[i][0])
    new_id = [0] * (len(nodes) + 2)
    new_id[1] = 1
    for rank, i in enumerate(order):
        new_id[i + 2] = rank + 2
    lo_arr = array(_U32)
    hi_arr = array(_U32)
    packed_arr = array(_U64)
    segments: list[list[int]] = []
    for i in order:
        var_index, lo, hi = nodes[i]
        lo2, hi2 = new_id[lo], new_id[hi]
        lo_arr.append(lo2)
        hi_arr.append(hi2)
        packed_arr.append((lo2 << 32) | hi2)
        if segments and segments[-1][0] == var_index:
            segments[-1][1] += 1
        else:
            segments.append([var_index, 1])
    if sys.byteorder != "little":
        lo_arr.byteswap()
        hi_arr.byteswap()
        packed_arr.byteswap()
    body = lo_arr.tobytes() + hi_arr.tobytes() + packed_arr.tobytes()
    header = {
        "format": "repro-bdd-snapshot",
        "version": SNAPSHOT_VERSION,
        "n_nodes": len(nodes),
        "variables": payload["variables"],
        "roots": {name: new_id[r] for name, r in payload["roots"].items()},
        "segments": segments,
        "charfunction": payload.get("charfunction"),
        "checksum": hashlib.blake2b(body, digest_size=16).hexdigest(),
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )
    return (
        SNAPSHOT_MAGIC
        + bytes([SNAPSHOT_VERSION])
        + len(head).to_bytes(4, "little")
        + head
        + body
    )


def load_snapshot_bytes(buf: bytes | memoryview) -> CharFunction:
    """Rebuild a CharFunction from RBCF bytes (see :func:`snapshot_bytes`).

    This is the trusted bulk-load path: instead of ``n`` ``mk`` calls
    it extends the manager's parallel node arrays wholesale and fills
    each variable's unique table with one ``dict.update`` per level
    segment.  Validation stays cheap but real — magic/version/checksum,
    segment levels strictly deepening, every child id pointing at an
    earlier (deeper) segment or a terminal, no ``lo == hi`` nodes, and
    per-level uniqueness (a duplicate pair would silently collapse in
    the dict, so the post-update size is asserted).  Under
    ``REPRO_SELFCHECK=1`` the full invariant audit runs as well.
    """
    view = memoryview(buf)
    if len(view) < 9:
        raise BDDError("snapshot is truncated (shorter than its header)")
    if view[:4] != SNAPSHOT_MAGIC:
        raise BDDError("bad snapshot magic (not an RBCF file)")
    if view[4] != SNAPSHOT_VERSION:
        raise BDDError(
            f"unsupported snapshot version {view[4]} "
            f"(this build reads v{SNAPSHOT_VERSION})"
        )
    head_len = int.from_bytes(view[5:9], "little")
    try:
        header = json.loads(bytes(view[9 : 9 + head_len]))
    except (ValueError, UnicodeDecodeError) as exc:
        raise BDDError(f"snapshot header is not valid JSON: {exc}") from exc
    if (
        header.get("format") != "repro-bdd-snapshot"
        or header.get("version") != SNAPSHOT_VERSION
    ):
        raise BDDError("snapshot header is not a repro-bdd-snapshot v1 document")
    n = header["n_nodes"]
    body = view[9 + head_len :]
    if len(body) != 16 * n:
        raise BDDError(
            f"snapshot body is {len(body)} bytes, expected {16 * n} for "
            f"{n} nodes"
        )
    if (
        hashlib.blake2b(body, digest_size=16).hexdigest()
        != header.get("checksum")
    ):
        raise BDDError("snapshot checksum mismatch (torn or corrupt file)")
    check_capacity(n + 1)
    lo_arr = array(_U32)
    lo_arr.frombytes(body[: 4 * n])
    hi_arr = array(_U32)
    hi_arr.frombytes(body[4 * n : 8 * n])
    packed_arr = array(_U64)
    packed_arr.frombytes(body[8 * n :])
    if sys.byteorder != "little":
        lo_arr.byteswap()
        hi_arr.byteswap()
        packed_arr.byteswap()
    segments = header["segments"]
    if sum(count for _, count in segments) != n:
        raise BDDError("snapshot segment table does not cover all nodes")

    bdd = BDD()
    vids = [
        bdd.add_var(entry["name"], kind=entry["kind"])
        for entry in header["variables"]
    ]
    lo_list = lo_arr.tolist()
    hi_list = hi_arr.tolist()
    # Per-node structural checks (child ids in range, no lo == hi node,
    # strict topological ordering) are writer invariants protected by
    # the checksum — any O(n) Python re-scan here would cost as much as
    # the entire bulk load, defeating the format.  A malformed file
    # that somehow carries a valid checksum fails loudly later
    # (IndexError on first traversal) rather than corrupting silently,
    # and REPRO_SELFCHECK=1 runs the full invariant audit below.
    # tolist() boxes the u64 keys in one C pass (iterating the array
    # inside zip would box each key in the loop instead), and the node
    # ids are boxed once too — ``dict(zip(slice, slice))`` over two
    # pre-boxed lists is the fastest dict build CPython offers.
    keys = packed_arr.tolist()
    ids_all = list(range(2, n + 2))
    vid_fill: list[int] = []
    pos = 0
    prev_level = len(vids)
    for var_index, count in segments:
        if not 0 <= var_index < prev_level:
            raise BDDError("snapshot segments are not deepest-level-first")
        prev_level = var_index
        stop = pos + count
        data = dict(zip(keys[pos:stop], ids_all[pos:stop]))
        if len(data) != count:
            raise BDDError("snapshot contains duplicate nodes at one level")
        bdd._unique[vids[var_index]] = data
        vid_fill.extend([vids[var_index]] * count)
        pos = stop
    bdd._vid.extend(vid_fill)
    bdd._lo.extend(lo_list)
    bdd._hi.extend(hi_list)
    bdd._gen.extend([0] * n)
    bdd._n_alive = n
    if n > bdd._peak_alive:
        bdd._peak_alive = n
    roots = {name: r for name, r in header["roots"].items()}
    for r in roots.values():
        if not (0 <= r < n + 2):
            raise BDDError("snapshot root id out of range")
    from repro.bdd import check

    if check.selfcheck_enabled():
        check.verify_manager(
            bdd, roots.values(), what="rebuilt snapshot (on load)"
        )
    meta = header.get("charfunction")
    if meta is None:
        raise BDDError("snapshot does not contain a charfunction section")
    name2vid = {
        entry["name"]: vids[i] for i, entry in enumerate(header["variables"])
    }
    return _cf_from_meta(bdd, roots["chi"], meta, name2vid=name2vid)


def dump_snapshot(cf: CharFunction, path: str | Path) -> Path:
    """Write an RBCF snapshot atomically (temp file + ``os.replace``)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    return stats.atomic_write(target, snapshot_bytes(cf))


def load_snapshot(path: str | Path) -> CharFunction:
    """Load an RBCF snapshot via ``mmap`` (read-only, zero-copy body)."""
    with open(path, "rb") as handle:
        try:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError:
            # Empty or unmappable file: fall back to a plain read so the
            # error surfaces as a snapshot-format error, not an OS quirk.
            handle.seek(0)
            return load_snapshot_bytes(handle.read())
        try:
            return load_snapshot_bytes(mapped)
        finally:
            # On an error path the in-flight traceback still references
            # memoryviews over the map; closing would raise BufferError.
            # The map is freed when those frames are collected.
            with contextlib.suppress(BufferError):
                mapped.close()
