"""Shared experiment plumbing: CF pipelines, verification, timing.

The Sect. 5.1 measurement flow for each output partition of a
benchmark is:

    build triples -> bi-partition outputs -> build BDD_for_CF ->
    sift (sum-of-widths cost, Def. 2.4 constraints) ->
    measure DC=0 / DC=1 / ISF / Alg3.1 / Alg3.3

DC=0 and DC=1 are completely specified extensions rebuilt in their own
managers and reordered to the sifted ISF order so that all five columns
are measured under one variable order.
"""

from __future__ import annotations

import hashlib
import random
import time
from collections.abc import Callable
from dataclasses import dataclass

from repro.benchfns.base import Benchmark
from repro.cf.charfun import CharFunction
from repro.cf.width import max_width
from repro.errors import ReproError
from repro.isf.function import MultiOutputISF
from repro.reduce import algorithm_3_3, reduce_support


@dataclass
class VariantMeasure:
    """Max width and node count of one CF variant (one Table 4 cell pair)."""

    max_width: int
    nodes: int


def measure(cf: CharFunction) -> VariantMeasure:
    """Measure a CF the way Table 4 reports it."""
    return VariantMeasure(max_width(cf.bdd, cf.root), cf.num_nodes())


def _sift_or_degrade(cf: CharFunction, what: str) -> None:
    """Sift ``cf``; under an exhausted resource budget, keep it unsifted.

    Sifting is an optimization, not a correctness step, so when a
    governing :class:`~repro.bdd.governor.Budget` trips mid-reorder the
    row degrades (recorded via :func:`~repro.bdd.governor.note_degraded`
    and surfaced as ``status="degraded"``) instead of dying.  The
    aborted ``SiftSession`` leaves the manager consistent — just under
    a partially improved order.  If the budget is *still* exhausted
    (e.g. the node count stays over the limit after the abort), the
    next governed operation re-raises and the row reports
    ``budget_exceeded``; only transient violations degrade.
    """
    from repro.bdd import governor
    from repro.errors import DeadlineError, ResourceLimitError

    try:
        cf.sift(cost="auto")
    except (ResourceLimitError, DeadlineError) as exc:
        if not governor.active():
            raise  # not ours to absorb (no budget means a plain bug)
        governor.note_degraded(f"sift aborted for {what}: {exc}")
        # The aborted SiftSession claims to leave the manager consistent
        # under a partially improved order; under REPRO_SELFCHECK=1,
        # prove it — a degraded row must still be a *correct* row.
        from repro.bdd import check

        if check.selfcheck_enabled():
            check.verify_charfunction(cf, what=f"{what} after aborted sift")


def build_sifted_cf(part: MultiOutputISF, *, sift: bool = True) -> CharFunction:
    """BDD_for_CF of one output partition, sifted per Sect. 5.1."""
    cf = CharFunction.from_isf(part)
    if sift:
        _sift_or_degrade(cf, "ISF partition")
    return cf


def select_partition(isf: MultiOutputISF, indices: list[int]) -> MultiOutputISF:
    """The outputs ``indices`` of ``isf``, named by their index range."""
    return isf.select(indices, name=f"{isf.name}[{indices[0]}..{indices[-1]}]")


def partition_pipeline(
    isf: MultiOutputISF,
    *,
    reduce: bool,
    sift: bool = True,
    partitions: Callable[[list[int]], CharFunction] | None = None,
) -> tuple[Callable[[list[int]], CharFunction], set[str]]:
    """The output-subset pipeline the cascade designs of Tables 5/6 use.

    Returns ``(pipeline, removed)``: ``pipeline(indices)`` takes the
    sifted BDD_for_CF of those outputs from ``partitions(indices)``
    (by default :func:`build_sifted_cf` of those outputs of ``isf``)
    and, with ``reduce``, removes redundant support variables and runs
    Algorithm 3.3 on it; ``removed`` collects the names of the
    variables support reduction removed, over every call.
    """
    removed: set[str] = set()
    if partitions is None:

        def partitions(indices: list[int]) -> CharFunction:
            return build_sifted_cf(select_partition(isf, indices), sift=sift)

    def pipeline(indices: list[int]) -> CharFunction:
        cf = partitions(indices)
        if reduce:
            cf, dropped = reduce_support(cf)
            removed.update(cf.bdd.name_of(v) for v in dropped)
            cf, _stats = algorithm_3_3(cf)
        return cf

    return pipeline, removed


def build_extension_cf(
    part: MultiOutputISF, dc_value: int, *, sift: bool = True
) -> CharFunction:
    """CF of the DC=0 / DC=1 extension, sifted independently.

    Each Table 4 variant is measured under its own sifted order (the
    extensions are completely specified, so their Def. 2.4 placement
    differs from the ISF's care-value placement).
    """
    cf = CharFunction.from_isf(part.extension(dc_value))
    if sift:
        _sift_or_degrade(cf, f"DC={dc_value} extension")
    return cf


def stable_seed(*parts: object) -> int:
    """Deterministic 64-bit seed from a structured key.

    Derived with BLAKE2b over the stringified parts, so it is identical
    in every process and interpreter invocation (unlike ``hash()``,
    which is salted).  The experiment pipelines seed each sampling
    verifier from the (benchmark, partition, variant) key, which makes
    row results bit-identical at any ``--jobs`` value and independent
    of the order rows are scheduled in.
    """
    key = "\x1f".join(str(part) for part in parts)
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class Stopwatch:
    """Context manager measuring wall-clock seconds."""

    def __enter__(self) -> "Stopwatch":
        self.seconds = 0.0
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._start


def verify_cf_against_reference(
    cf: CharFunction,
    benchmark: Benchmark,
    output_slice: slice,
    *,
    samples: int = 50,
    seed: int = 7,
    allow_refined: bool = True,
) -> None:
    """Spot-check a CF against the benchmark's integer reference.

    Checks sampled care minterms (must match the reference bits) and
    sampled don't-care inputs (must be don't care, unless the CF was
    refined by a reduction and ``allow_refined`` permits specified
    values there).
    """
    rng = random.Random(seed)
    n = benchmark.n_inputs
    care = []
    it = benchmark.iter_care_minterms()
    for m in it:
        care.append(m)
        if len(care) >= 4 * samples:
            break
    for m in rng.sample(care, min(samples, len(care))):
        ref = benchmark.reference(m)
        if ref is None:  # pragma: no cover - iter_care only yields care
            continue
        want_bits = [
            (ref >> (benchmark.n_outputs - 1 - i)) & 1
            for i in range(benchmark.n_outputs)
        ][output_slice]
        got = cf.sample_output(m)
        if list(got) != want_bits:
            raise ReproError(
                f"CF disagrees with reference on care minterm {m}: "
                f"{list(got)} != {want_bits}"
            )
    for _ in range(samples):
        m = rng.randrange(1 << n)
        if benchmark.reference(m) is not None:
            continue
        # Don't-care inputs must still admit at least one output vector
        # (totality); sample_output raises otherwise.
        got = cf.sample_output(m)
        if not allow_refined:
            pattern = cf.output_pattern(m)
            if any(v is not None for v in pattern):
                raise ReproError(f"CF specified a value on don't-care minterm {m}")
        del got
