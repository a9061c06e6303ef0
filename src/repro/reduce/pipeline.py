"""Iterated reduction: sift + support reduction + Algorithm 3.3 to a fixpoint.

The paper applies sifting once, then support reduction, then one pass
of Algorithm 3.3 (Sect. 5.1).  Merging columns changes the function,
which can unlock both a better variable order and further merges, so
iterating the three steps until the maximum width stops improving is a
natural extension; this module provides it as
:func:`full_reduction` and records what each round achieved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bdd import BDD, set_order, transfer
from repro.cf.charfun import CharFunction
from repro.cf.width import max_width, width_profile
from repro.reduce.alg33 import algorithm_3_3
from repro.reduce.support import reduce_support


@dataclass
class RoundReport:
    """What one sift/support/merge round achieved."""

    max_width: int
    width_sum: int
    nodes: int
    removed_vars: int
    merges: int


@dataclass
class ReductionReport:
    """Full trace of :func:`full_reduction`: every round it ran."""

    initial_max_width: int
    rounds: list[RoundReport] = field(default_factory=list)

    @property
    def final_max_width(self) -> int:
        """The returned CF's maximum width, the narrowest seen: a round
        that ends wider than the best CF before it is not returned."""
        return min([self.initial_max_width, *(r.max_width for r in self.rounds)])

    @property
    def total_removed_vars(self) -> int:
        """Variables removed from the returned CF."""
        removed = [r.removed_vars for r in self.rounds]
        if self.rounds and self.rounds[-1].max_width > self.final_max_width:
            removed.pop()  # the round that widened: its CF was not returned
        return sum(removed)


def full_reduction(
    cf: CharFunction,
    *,
    max_rounds: int = 3,
    sift: bool = True,
    sift_cost: str = "auto",
) -> tuple[CharFunction, ReductionReport]:
    """Iterate (sift, reduce_support, algorithm_3_3) until no improvement.

    The rounds run on a copy of ``cf`` in a manager of its own, with the
    same variable ids, names, kinds and order: ``cf`` and its manager
    are left untouched, and the result's vids are ``cf``'s, so a cascade
    synthesized from the result proves against ``cf``.  Returns the
    reduced CF (in that manager) and a per-round report.  Each round's
    output refines the previous one, so the result refines ``cf``.  The
    loop ends at a round that neither narrows the maximum width nor
    removes a variable, or at one that ends wider than the best CF so
    far; that best CF is then returned, under the order it had.
    """
    current = _own_copy(cf)
    report = ReductionReport(initial_max_width=max_width(current.bdd, current.root))
    best = report.initial_max_width
    for round_index in range(max_rounds):
        previous, order = current, current.bdd.order()
        if sift:
            # After the first reduction pass the CF is refined, so
            # re-sifting must preserve the input/output interleaving to
            # keep the totality recursion exact (see CharFunction.sift).
            current.sift(cost=sift_cost, freeze_outputs=round_index > 0)
        current, removed = reduce_support(current)
        current, stats = algorithm_3_3(current)
        profile = width_profile(current.bdd, current.root)
        width_now = max(profile)
        report.rounds.append(
            RoundReport(
                max_width=width_now,
                width_sum=sum(profile),
                nodes=current.num_nodes(),
                removed_vars=len(removed),
                merges=stats.merges,
            )
        )
        if width_now > best:
            # The sift minimizes the width sum, not the maximum width,
            # and Alg. 3.3 need not merge the widening back.  Nothing
            # has been collected since the sift, so the previous root
            # is alive.
            set_order(previous.bdd, [previous.root], order)
            return previous, report
        if width_now == best and not removed:
            break
        best = width_now
    return current, report


def _own_copy(cf: CharFunction) -> CharFunction:
    """``cf`` in a fresh manager with the same variable ids, names, kinds and order."""
    src = cf.bdd
    bdd = BDD()
    for vid in range(src.num_vars):
        bdd.add_var(src.name_of(vid), kind=src.kind_of(vid))
    set_order(bdd, [], src.order())
    (root,) = transfer(src, bdd, [cf.root], {vid: vid for vid in range(src.num_vars)})
    return CharFunction(
        bdd,
        root,
        cf.input_vids,
        cf.output_vids,
        name=cf.name,
        output_supports=cf.output_supports,
    )
