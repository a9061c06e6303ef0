"""Incompletely specified functions as BDD triples (f_0, f_1, f_d).

Definition 2.1: the three sets partition the input space —
``f_0 ∨ f_1 ∨ f_d = 1`` and they are pairwise disjoint.  The class
validates this invariant on construction, implements Definition 3.7
compatibility, and builds the refinement ``f · g`` of two compatible
functions used throughout Sect. 3.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.bdd.manager import FALSE, TRUE, BDD
from repro.bdd.builder import from_sorted_minterms
from repro.errors import IncompatibleError, SpecificationError
from repro.isf.ternary import MultiOutputSpec


@dataclass(frozen=True)
class ISF:
    """A single-output incompletely specified function over one manager.

    Only ``f0`` and ``f1`` are stored; ``fd`` is derived
    (``¬(f0 ∨ f1)``), which keeps the partition invariant by
    construction once disjointness is checked.
    """

    bdd: BDD
    f0: int
    f1: int

    def __post_init__(self) -> None:
        if self.bdd.apply_and(self.f0, self.f1) != FALSE:
            raise SpecificationError("f_0 and f_1 must be disjoint (Definition 2.1)")

    @property
    def fd(self) -> int:
        """Don't-care set: the complement of ``f0 ∨ f1``."""
        return self.bdd.apply_not(self.bdd.apply_or(self.f0, self.f1))

    @staticmethod
    def from_onset_dc(bdd: BDD, onset: int, dc: int) -> "ISF":
        """Build from an onset and a don't-care set (offset = the rest)."""
        care_on = bdd.apply_and(onset, bdd.apply_not(dc))
        off = bdd.apply_not(bdd.apply_or(onset, dc))
        return ISF(bdd, off, care_on)

    @staticmethod
    def completely_specified(bdd: BDD, onset: int) -> "ISF":
        """A function with an empty don't-care set."""
        return ISF(bdd, bdd.apply_not(onset), onset)

    def has_dc(self) -> bool:
        """True when the don't-care set is non-empty."""
        return self.bdd.apply_or(self.f0, self.f1) != TRUE

    def value(self, assignment: dict[int, int]) -> int | None:
        """0, 1, or None (= d) on a total input assignment."""
        if self.bdd.evaluate(self.f1, assignment):
            return 1
        if self.bdd.evaluate(self.f0, assignment):
            return 0
        return None

    def compatible(self, other: "ISF") -> bool:
        """Definition 3.7: ``f ~ g`` iff ``f_0·g_1 = 0`` and ``f_1·g_0 = 0``."""
        bdd = self.bdd
        return (
            bdd.apply_and(self.f0, other.f1) == FALSE
            and bdd.apply_and(self.f1, other.f0) == FALSE
        )

    def intersect(self, other: "ISF") -> "ISF":
        """Refinement of two compatible functions (Lemma 3.1's product).

        The result is specified wherever either operand is: its onset is
        ``f_1 ∨ g_1`` and its offset ``f_0 ∨ g_0``.
        """
        if not self.compatible(other):
            raise IncompatibleError("cannot intersect incompatible functions")
        bdd = self.bdd
        return ISF(
            bdd,
            bdd.apply_or(self.f0, other.f0),
            bdd.apply_or(self.f1, other.f1),
        )

    def extension(self, dc_value: int) -> "ISF":
        """Completely specified extension assigning ``dc_value`` to all d's."""
        bdd = self.bdd
        if dc_value not in (0, 1):
            raise SpecificationError("dc_value must be 0 or 1")
        if dc_value:
            return ISF(bdd, self.f0, bdd.apply_not(self.f0))
        return ISF(bdd, bdd.apply_not(self.f1), self.f1)

    def extends(self, other: "ISF") -> bool:
        """True when self refines ``other`` (agrees wherever other is specified)."""
        bdd = self.bdd
        return bdd.implies(other.f0, self.f0) and bdd.implies(other.f1, self.f1)


class MultiOutputISF:
    """A multiple-output ISF: shared input variables, one :class:`ISF` each."""

    def __init__(
        self,
        bdd: BDD,
        input_vids: Sequence[int],
        outputs: Sequence[ISF],
        *,
        name: str = "f",
        output_names: Sequence[str] | None = None,
        placement_supports: Sequence[frozenset[int]] | None = None,
    ):
        """``placement_supports`` optionally narrows Def. 2.4 placement.

        For functions with *input* don't cares the structural support of
        (f_0, f_1) includes every variable of the don't-care mask, which
        would force all output variables to the bottom of the CF order.
        When the *care value* of output i is determined by a smaller
        variable set (e.g. a BCD sum digit by its operand digits), the
        builder can pass that set here; the CF places y_i below it.
        """
        self.bdd = bdd
        self.input_vids = list(input_vids)
        self.outputs = list(outputs)
        self.name = name
        if output_names is None:
            output_names = [f"f{i + 1}" for i in range(len(outputs))]
        if len(output_names) != len(outputs):
            raise SpecificationError("output_names length mismatch")
        self.output_names = list(output_names)
        if placement_supports is not None:
            if len(placement_supports) != len(outputs):
                raise SpecificationError("placement_supports length mismatch")
            placement_supports = [frozenset(s) for s in placement_supports]
        self.placement_supports = placement_supports
        for isf in outputs:
            if isf.bdd is not bdd:
                raise SpecificationError("all outputs must share one manager")

    @property
    def n_inputs(self) -> int:
        return len(self.input_vids)

    @property
    def n_outputs(self) -> int:
        return len(self.outputs)

    def roots(self) -> list[int]:
        """All BDD roots the object depends on (for GC / reordering)."""
        nodes = []
        for isf in self.outputs:
            nodes.append(isf.f0)
            nodes.append(isf.f1)
        return nodes

    @staticmethod
    def from_spec(spec: MultiOutputSpec, bdd: BDD | None = None) -> "MultiOutputISF":
        """Build BDD triples from a tabular spec (sparse construction)."""
        if bdd is None:
            bdd = BDD()
            input_vids = bdd.add_vars(spec.input_names, kind="input")
        else:
            input_vids = [bdd.vid(nm) for nm in spec.input_names]
        outputs = []
        for i in range(spec.n_outputs):
            onset, offset = spec.output_sets(i)
            f1 = from_sorted_minterms(bdd, input_vids, onset)
            f0 = from_sorted_minterms(bdd, input_vids, offset)
            outputs.append(ISF(bdd, f0, f1))
        return MultiOutputISF(
            bdd,
            input_vids,
            outputs,
            name=spec.name,
            output_names=list(spec.output_names),
        )

    def value(self, minterm: int) -> tuple[int | None, ...]:
        """Ternary output vector for an input minterm."""
        n = self.n_inputs
        assignment = {
            vid: (minterm >> (n - 1 - i)) & 1 for i, vid in enumerate(self.input_vids)
        }
        return tuple(isf.value(assignment) for isf in self.outputs)

    def dc_ratio(self) -> float:
        """Fraction of don't-care function values (the paper's DC column)."""
        total = (1 << self.n_inputs) * self.n_outputs
        specified = 0
        for isf in self.outputs:
            specified += self.bdd.sat_count(isf.f0, vids=self.input_vids)
            specified += self.bdd.sat_count(isf.f1, vids=self.input_vids)
        return 1.0 - specified / total

    def extension(self, dc_value: int) -> "MultiOutputISF":
        """Completely specified extension with all d's set to ``dc_value``.

        Placement hints are dropped: the extension's values genuinely
        depend on the don't-care mask variables.
        """
        return MultiOutputISF(
            self.bdd,
            self.input_vids,
            [isf.extension(dc_value) for isf in self.outputs],
            name=f"{self.name}/DC={dc_value}",
            output_names=self.output_names,
        )

    def select(self, indices: Sequence[int], *, name: str) -> "MultiOutputISF":
        """The outputs at ``indices``, in that order, as their own function.

        Output names and placement hints travel with their outputs.
        """
        hints = self.placement_supports
        return MultiOutputISF(
            self.bdd,
            self.input_vids,
            [self.outputs[i] for i in indices],
            name=name,
            output_names=[self.output_names[i] for i in indices],
            placement_supports=(
                [hints[i] for i in indices] if hints is not None else None
            ),
        )

    def bipartition(self) -> tuple["MultiOutputISF", "MultiOutputISF"]:
        """Output bi-partition of Sect. 5.1 (F1 = most significant half)."""
        m = self.n_outputs
        half = (m + 1) // 2
        return (
            self.select(range(half), name=f"{self.name}/F1"),
            self.select(range(half, m), name=f"{self.name}/F2"),
        )
