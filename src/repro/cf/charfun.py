"""Construction of the BDD_for_CF (Definitions 2.2-2.4).

The characteristic function of an incompletely specified multiple-output
function ``F = (f_1, ..., f_m)`` is

    χ(X, Y) = Π_i ( ¬y_i·f_i0(X) ∨ y_i·f_i1(X) ∨ f_id(X) )

(Definition 2.3).  Its BDD places each output variable ``y_i`` below
the support variables of ``f_i`` (Definition 2.4); with that placement
a don't-care of ``f_i`` appears as a path on which the ``y_i`` node is
*missing* — the node is redundant and vanishes during reduction
(Fig. 1(c)).

χ is built in one memoized walk over all outputs' ``(f_i0, f_i1)``
pairs (:func:`_chi_walk`), not as the product the formula writes: the
product's intermediate terms were up to 13 times larger than χ, and
the walk allocates χ's nodes only.

:class:`CharFunction` owns one BDD manager per characteristic function
so that reordering experiments on different output partitions are
independent.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.bdd import governor as _governor
from repro.bdd import reference
from repro.bdd.manager import FALSE, TRUE, BDD
from repro.bdd.transfer import transfer
from repro.bdd import reorder
from repro.errors import SpecificationError, VariableError
from repro.isf.compat import ordered_total
from repro.isf.function import MultiOutputISF
from repro.isf.ternary import MultiOutputSpec
from repro._config import LIMITS


class CharFunction:
    """A BDD_for_CF: the characteristic function of a multiple-output ISF."""

    def __init__(
        self,
        bdd: BDD,
        root: int,
        input_vids: Sequence[int],
        output_vids: Sequence[int],
        *,
        name: str = "chi",
        output_supports: Mapping[int, frozenset[int]] | None = None,
    ):
        self.bdd = bdd
        self.root = root
        self.input_vids = list(input_vids)
        self.output_vids = list(output_vids)
        self.name = name
        if output_supports is None:
            # Conservative fallback: every input above the output in the
            # current order is treated as a support variable.
            output_supports = {}
            for y in self.output_vids:
                y_level = bdd.level_of_vid(y)
                output_supports[y] = frozenset(
                    x for x in self.input_vids if bdd.level_of_vid(x) < y_level
                )
        self.output_supports = {y: frozenset(s) for y, s in output_supports.items()}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @staticmethod
    def from_isf(
        isf: MultiOutputISF,
        *,
        name: str | None = None,
        y_names: Sequence[str] | None = None,
        input_order: Sequence[int] | None = None,
    ) -> "CharFunction":
        """Build the BDD_for_CF of ``isf`` in a fresh manager.

        Output variables are interleaved per Definition 2.4: each
        ``y_i`` is created immediately below the deepest support
        variable of ``f_i`` (outputs with constant functions go to the
        top of the order).

        ``input_order`` optionally seeds the input variable order (vids
        of the source manager, top first) — e.g. the FORCE arrangement
        from :func:`repro.bdd.force.force_input_order`; the default is
        the source manager's current order.

        χ comes from one walk over the triples in the ISF's own manager,
        which allocates only χ's nodes; with ``input_order`` the triples
        are first re-normalized into the new manager and the same walk
        runs there.
        """
        src = isf.bdd
        if y_names is None:
            y_names = [f"y{i + 1}" for i in range(isf.n_outputs)]
        if len(set(y_names)) != isf.n_outputs:
            raise SpecificationError("output variable names must be unique")

        # Deepest support level (in the source order) per output.  When
        # the builder supplied placement hints (the support of the
        # *care value*, see MultiOutputISF), they override the
        # structural support, which is inflated by input-don't-care
        # masks.
        supports: list[set[int]] = []
        deepest: list[int] = []
        for i, out in enumerate(isf.outputs):
            if isf.placement_supports is not None:
                supp = set(isf.placement_supports[i])
            else:
                supp = src.support(out.f0) | src.support(out.f1)
            supports.append(supp)
            if supp:
                deepest.append(max(src.level_of_vid(v) for v in supp))
            else:
                deepest.append(-1)

        dst = BDD()
        vid_map: dict[int, int] = {}
        output_vids: list[int] = [-1] * isf.n_outputs
        if input_order is not None:
            ordered_inputs = list(input_order)
            if sorted(ordered_inputs) != sorted(isf.input_vids):
                raise SpecificationError(
                    "input_order must be a permutation of the input vids"
                )
            # "Deepest support variable" is relative to the chosen order.
            rank = {v: i for i, v in enumerate(ordered_inputs)}
            deepest = [
                max((rank[v] for v in supp), default=-1) for supp in supports
            ]
            position_of = rank
        else:
            ordered_inputs = sorted(isf.input_vids, key=src.level_of_vid)
            position_of = {
                v: src.level_of_vid(v) for v in ordered_inputs
            }

        def place_outputs(after_position: int) -> None:
            for i, pos in enumerate(deepest):
                if pos == after_position:
                    output_vids[i] = dst.add_var(y_names[i], kind="output")

        place_outputs(-1)
        for src_vid in ordered_inputs:
            vid_map[src_vid] = dst.add_var(src.name_of(src_vid), kind="input")
            place_outputs(position_of[src_vid])

        pairs = [(out.f0, out.f1) for out in isf.outputs]
        if input_order is None:
            # The source order of the inputs is the destination's: walk
            # the triples where they are.
            root = _chi_walk(src, dst, pairs, output_vids, vid_map)
        else:
            # A new input order: re-normalize the triples into the
            # destination first, then walk them there.
            flat = transfer(src, dst, [f for pair in pairs for f in pair], vid_map)
            pairs = list(zip(flat[0::2], flat[1::2]))
            root = _chi_walk(dst, dst, pairs, output_vids, None)

        cf = CharFunction(
            dst,
            root,
            [vid_map[v] for v in isf.input_vids],
            output_vids,
            name=name if name is not None else isf.name,
            output_supports={
                output_vids[i]: frozenset(vid_map[v] for v in supports[i])
                for i in range(isf.n_outputs)
            },
        )
        dst.collect([root])
        return cf

    @staticmethod
    def from_spec(spec: MultiOutputSpec, **kwargs) -> "CharFunction":
        """Build directly from a tabular spec."""
        return CharFunction.from_isf(MultiOutputISF.from_spec(spec), **kwargs)

    def replaced(self, new_root: int, *, suffix: str = "") -> "CharFunction":
        """A CF sharing this manager and variables but with another root."""
        return CharFunction(
            self.bdd,
            new_root,
            self.input_vids,
            self.output_vids,
            name=self.name + suffix,
            output_supports=self.output_supports,
        )

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @property
    def num_vars(self) -> int:
        """Total number of variables ``t = n + m`` (the root's height)."""
        return self.bdd.num_vars

    def height_of_level(self, level: int) -> int:
        """Convert a manager level to the paper's height coordinate."""
        return self.num_vars - level

    def level_of_height(self, height: int) -> int:
        """Convert a height to a manager level."""
        return self.num_vars - height

    def num_nodes(self) -> int:
        """Non-terminal node count (the paper's '# of nodes')."""
        return self.bdd.count_nodes(self.root)

    def precedence_constraints(self) -> list[tuple[int, int]]:
        """Ordering constraints (x above y_i) implied by Definition 2.4.

        Uses the per-output supports recorded at construction,
        intersected with the current structural support of the root —
        a variable removed by support reduction no longer constrains
        the order.
        """
        live = self.bdd.support(self.root)
        pairs: list[tuple[int, int]] = []
        for y in self.output_vids:
            for x in self.output_supports.get(y, frozenset()):
                if x in live:
                    pairs.append((x, y))
        return pairs

    def sift(self, *, cost: str = "auto", freeze_outputs: bool = False) -> None:
        """Sift the variable order (Sect. 5.1) under Def. 2.4 constraints.

        ``cost`` selects the objective: ``"widthsum"`` (the paper's sum
        of widths), ``"nodes"`` (live node count), or ``"auto"`` which
        uses the width sum when the BDD is small enough
        (``LIMITS.sift_widthsum_node_limit``) and node count otherwise.

        ``freeze_outputs=True`` additionally fixes the relative order of
        every (input, output) pair: inputs may permute among themselves
        and outputs among themselves, but none may cross an output
        level.  Use this when re-sifting a CF that has already been
        refined by width reduction — a refined value may depend on
        variables below its output's current level, and preserving the
        quantifier interleaving keeps the linear totality check exact.

        Reordering physically reclaims every node not reachable from
        this CF's root: any other root held on this manager dies.
        """
        if cost == "auto":
            cost = (
                "widthsum"
                if self.num_nodes() <= LIMITS.sift_widthsum_node_limit
                else "nodes"
            )
        if cost not in ("widthsum", "nodes"):
            raise ValueError(f"unknown cost {cost!r}")
        precedence = self.precedence_constraints()
        if freeze_outputs:
            for y in self.output_vids:
                y_level = self.bdd.level_of_vid(y)
                for x in self.input_vids:
                    if self.bdd.level_of_vid(x) < y_level:
                        precedence.append((x, y))
                    else:
                        precedence.append((y, x))
        reorder.sift(
            self.bdd, [self.root], precedence=precedence, widths=cost == "widthsum"
        )

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------

    def evaluate(self, input_bits: Sequence[int], output_bits: Sequence[int]) -> int:
        """χ(X, Y) for a full input/output assignment."""
        assignment = dict(zip(self.input_vids, input_bits))
        assignment.update(zip(self.output_vids, output_bits))
        return self.bdd.evaluate(self.root, assignment)

    def output_pattern(self, minterm_or_bits: int | Sequence[int]) -> tuple[int | None, ...]:
        """Ternary output vector encoded for one input assignment.

        For a well-formed CF the restriction of χ to an input assignment
        is a single chain over output variables: a missing variable
        means *don't care* (None), a present one is determined.
        """
        bits = self._input_bits(minterm_or_bits)
        restricted = self.bdd.restrict(
            self.root, dict(zip(self.input_vids, bits))
        )
        values: dict[int, int | None] = {y: None for y in self.output_vids}
        u = restricted
        while u > 1:
            y = self.bdd.var_of(u)
            lo, hi = self.bdd.lo(u), self.bdd.hi(u)
            if lo == FALSE and hi != FALSE:
                values[y] = 1
                u = hi
            elif hi == FALSE and lo != FALSE:
                values[y] = 0
                u = lo
            else:
                raise SpecificationError(
                    "CF is not well-formed: output variable with two live children"
                )
        if u == FALSE:
            raise SpecificationError("CF is not total: no output allowed for input")
        return tuple(values[y] for y in self.output_vids)

    def sample_output(self, minterm_or_bits: int | Sequence[int]) -> tuple[int, ...]:
        """One allowed output vector for an input assignment.

        Width reduction can turn the CF into a general total relation
        (the choice for one output may constrain another), so a single
        ternary pattern need not exist.  The sample is the least allowed
        vector in the variable order, 0 before 1: one walk down χ along
        the input bits takes, at each output node, the 0-branch when a
        memoized walk shows that branch admits the rest of the input
        assignment, else the 1-branch.  Nothing is built.  On care
        inputs every specified output bit is forced, so the sample
        agrees with the original specification there.  The seed engine
        walks χ restricted by every input instead, to the same vector.
        """
        bits = self._input_bits(minterm_or_bits)
        if reference.SEED_MODE:
            return self._seed_sample_output(bits)
        bdd = self.bdd
        bit_of = [-1] * bdd.num_vars
        for vid, bit in zip(self.input_vids, bits):
            bit_of[vid] = 1 if bit else 0
        values = _least_output(bdd, self.root, bit_of)
        if values is None:
            raise SpecificationError("CF is not total: no output allowed for input")
        return tuple(values.get(y, 0) for y in self.output_vids)

    def _seed_sample_output(self, bits: list[int]) -> tuple[int, ...]:
        restricted = self.bdd.restrict(self.root, dict(zip(self.input_vids, bits)))
        if restricted == FALSE:
            raise SpecificationError("CF is not total: no output allowed for input")
        values = {y: 0 for y in self.output_vids}
        u = restricted
        while u > 1:
            y = self.bdd.var_of(u)
            lo, hi = self.bdd.lo(u), self.bdd.hi(u)
            if lo != FALSE:
                values[y] = 0
                u = lo
            else:
                values[y] = 1
                u = hi
        return tuple(values[y] for y in self.output_vids)

    def is_wellformed(self) -> bool:
        """Validity check of the CF: non-empty and total.

        Totality (every input admits at least one output vector) is the
        defining invariant; with Definition 2.4 placement it is decided
        exactly by the ordered recursion of
        :func:`repro.isf.compat.ordered_total`.  Output nodes may have
        two live children when the input-don't-care region depends on
        variables below them; a full input assignment always resolves
        the choice (see :meth:`output_pattern`).
        """
        return self.root != FALSE and ordered_total(self.bdd, self.root)

    def is_strictly_determined(self) -> bool:
        """Stricter shape check: every output node has a constant-0 child.

        Holds when every output variable sits below the *entire*
        structural support of its function (e.g. the Table 1 example);
        functions with input don't cares placed by care-value hints are
        well-formed but not strictly determined.
        """
        if self.root == FALSE:
            return False
        # The shape holds iff it holds at every node reachable through
        # edges not into 0, so one explicit-stack walk decides it.
        bdd = self.bdd
        output_set = set(self.output_vids)
        seen: set[int] = set()
        stack = [self.root]
        while stack:
            u = stack.pop()
            if u <= 1 or u in seen:
                continue
            seen.add(u)
            lo, hi = bdd.lo(u), bdd.hi(u)
            if bdd.var_of(u) in output_set:
                if (lo == FALSE) == (hi == FALSE):
                    return False
            elif lo == FALSE or hi == FALSE:
                return False
            stack += (lo, hi)
        return True

    def _input_bits(self, minterm_or_bits: int | Sequence[int]) -> list[int]:
        n = len(self.input_vids)
        if isinstance(minterm_or_bits, int):
            return [(minterm_or_bits >> (n - 1 - i)) & 1 for i in range(n)]
        bits = list(minterm_or_bits)
        if len(bits) != n:
            raise SpecificationError(f"expected {n} input bits, got {len(bits)}")
        return bits

    def refines(self, other: "CharFunction") -> bool:
        """True when every behaviour allowed by self is allowed by ``other``.

        Width reduction assigns don't cares, so the reduced CF must
        *imply* the original: χ_reduced → χ_original.
        """
        if self.bdd is not other.bdd:
            raise SpecificationError("refines() requires CFs on one manager")
        return self.bdd.implies(self.root, other.root)


def _least_output(bdd: BDD, root: int, bit_of: list[int]) -> dict[int, int] | None:
    """The least assignment of the free variables that satisfies ``root``.

    ``bit_of[vid]`` is the value of an assigned variable, -1 for a free
    one.  Returns the values of the free variables met on the path
    (the rest may be 0), or None when no assignment satisfies ``root``.
    ``admits`` memoizes, per node, whether the node's function under
    the assignment is satisfiable; each node it visits is one step
    charged to the active budgets.
    """
    vid_arr, lo_arr, hi_arr = bdd._vid, bdd._lo, bdd._hi
    admits: dict[int, bool] = {FALSE: False, TRUE: True}
    governed = _governor._ACTIVE
    check_mask = _governor.CHECK_INTERVAL - 1
    steps = 0

    def admitted(u: int) -> bool:
        # Same short-circuit shape as ordered_total: an assigned node
        # has one child; a free node whose lo-branch admits is decided.
        nonlocal steps
        result = False
        stack = [(u, 0)]
        while stack:
            v, state = stack.pop()
            if state == 0:
                r = admits.get(v)
                if r is not None:
                    result = r
                    continue
                if governed:
                    steps += 1
                    if not steps & check_mask:
                        _governor.checkpoint(bdd, check_mask + 1)
                bit = bit_of[vid_arr[v]]
                if bit >= 0:
                    stack.append((v, 2))
                    stack.append((hi_arr[v] if bit else lo_arr[v], 0))
                else:
                    stack.append((v, 1))
                    stack.append((lo_arr[v], 0))
            elif state == 1 and not result:
                stack.append((v, 2))
                stack.append((hi_arr[v], 0))
            else:
                admits[v] = result
        return result

    if not admitted(root):
        return None
    values: dict[int, int] = {}
    u = root
    while u > 1:
        vid = vid_arr[u]
        bit = bit_of[vid]
        if bit >= 0:
            u = hi_arr[u] if bit else lo_arr[u]
        elif admitted(lo_arr[u]):
            values[vid] = 0
            u = lo_arr[u]
        else:
            values[vid] = 1
            u = hi_arr[u]
    if steps & check_mask:
        _governor.checkpoint(bdd, steps & check_mask)
    return values


def _chi_walk(
    src: BDD,
    dst: BDD,
    pairs: Sequence[tuple[int, int]],
    output_vids: Sequence[int],
    vid_map: Mapping[int, int] | None,
) -> int:
    """χ of the ``(f0, f1)`` pairs, built in ``dst`` by one memoized walk.

    The pairs are nodes of ``src``, whose input order must agree with
    ``dst``'s; ``vid_map`` maps their vids into ``dst`` (None when
    ``src`` is ``dst``).  A walk state is a flat tuple
    ``(k, f0, f1, ...)`` of the pairs whose ``y`` is not yet placed, in
    the order of their ``y`` levels, ``k`` numbering the outputs in
    that order.  The
    state determines its product of terms, and the product gives each
    term back, so the memo is exact and every node the walk makes is a
    node of χ.  Only a pair still open at its ``y`` level (a care-value
    placement hint put ``y`` above variables the don't-care mask reads)
    costs kernel work: its ``¬f1``/``¬f0`` are conjoined with the rest.

    Each state visit and each negated node is one step, charged to
    ``dst``'s ``kernel_steps`` and, every
    :data:`~repro.bdd.governor.CHECK_INTERVAL` steps, to the active
    budgets, as the apply kernel charges its frames.
    """
    n_vars = src.num_vars
    if vid_map is None:
        dvid = list(range(n_vars))
    else:
        dvid = [-1] * n_vars
        for s, d in vid_map.items():
            dvid[s] = d
    dst_level = dst._level_of
    # Level of every src variable in dst; -1 (above everything) marks a
    # variable the map does not cover, so the walk meets it first.
    level = [dst_level[d] if d >= 0 else -1 for d in dvid]
    by_level = sorted(range(len(pairs)), key=lambda i: dst_level[output_vids[i]])
    y_level = [dst_level[output_vids[i]] for i in by_level]
    y_vid = [output_vids[i] for i in by_level]
    vid_arr, lo_arr, hi_arr = src._vid, src._lo, src._hi
    mk = dst.mk
    governed = _governor._ACTIVE
    check_mask = _governor.CHECK_INTERVAL - 1
    steps = 0
    negated: dict[int, int] = {FALSE: TRUE, TRUE: FALSE}

    def negation(u: int) -> int:
        """``¬u`` in ``dst``: a node-for-node copy with the leaves swapped."""
        nonlocal steps
        stack = [u]
        while stack:
            v = stack[-1]
            if v in negated:
                stack.pop()
                continue
            lo = negated.get(lo_arr[v])
            hi = negated.get(hi_arr[v])
            if lo is None:
                stack.append(lo_arr[v])
            if hi is None:
                stack.append(hi_arr[v])
            if lo is None or hi is None:
                continue
            stack.pop()
            if dvid[vid_arr[v]] < 0:
                raise _not_an_input(src, vid_arr[v])
            negated[v] = mk(dvid[vid_arr[v]], lo, hi)
            steps += 1
            if governed and not steps & check_mask:
                _governor.checkpoint(dst, check_mask + 1)
        return negated[u]

    memo: dict[tuple[int, ...], int] = {(): TRUE}
    start = tuple(
        x for k, i in enumerate(by_level) for x in (k, pairs[i][0], pairs[i][1])
    )
    # Frames: (state, None) visits a state; (state, x, lo, hi) makes its
    # node once the child states are done (x = -1: a y node over lo).
    stack: list[tuple] = [(start, None)]
    if governed:
        _governor.checkpoint(dst)
    try:
        while stack:
            frame = stack.pop()
            state = frame[0]
            if len(frame) == 4:
                _, x, lo_state, hi_state = frame
                if x >= 0:
                    memo[state] = mk(dvid[x], memo[lo_state], memo[hi_state])
                    continue
                below = memo[lo_state]
                f0, f1 = state[1], state[2]
                if f0 <= 1 and f1 <= 1:
                    if f0 and f1:
                        raise SpecificationError(
                            "f_0 and f_1 must be disjoint (Definition 2.1)"
                        )
                    lo = FALSE if f1 else below
                    hi = FALSE if f0 else below
                else:
                    lo = dst.apply_and(below, negation(f1))
                    hi = dst.apply_and(below, negation(f0))
                memo[state] = mk(y_vid[state[0]], lo, hi)
                continue
            steps += 1
            if governed and not steps & check_mask:
                _governor.checkpoint(dst, check_mask + 1)
            if state in memo:
                continue
            top = y_level[state[0]]
            x = -1
            for u in state[1::3] + state[2::3]:
                if u > 1 and level[vid_arr[u]] < top:
                    x = vid_arr[u]
                    top = level[x]
            if x < 0:
                rest = state[3:]
                stack.append((state, -1, rest, None))
                if rest not in memo:
                    stack.append((rest, None))
                continue
            if dvid[x] < 0:
                raise _not_an_input(src, x)
            lo_state: list[int] = []
            hi_state: list[int] = []
            for j in range(0, len(state), 3):
                f0, f1 = state[j + 1], state[j + 2]
                if f0 > 1 and vid_arr[f0] == x:
                    f0_lo, f0_hi = lo_arr[f0], hi_arr[f0]
                else:
                    f0_lo = f0_hi = f0
                if f1 > 1 and vid_arr[f1] == x:
                    f1_lo, f1_hi = lo_arr[f1], hi_arr[f1]
                else:
                    f1_lo = f1_hi = f1
                lo_state += (state[j], f0_lo, f1_lo)
                hi_state += (state[j], f0_hi, f1_hi)
            lo_key, hi_key = tuple(lo_state), tuple(hi_state)
            stack.append((state, x, lo_key, hi_key))
            if hi_key not in memo:
                stack.append((hi_key, None))
            if lo_key not in memo:
                stack.append((lo_key, None))
        # Charge the sub-interval remainder, as kernel.run does, so the
        # budgets see every step of a short build.
        if governed and steps & check_mask:
            _governor.checkpoint(dst, steps & check_mask)
    finally:
        dst._kernel_steps += steps
    return memo[start]


def _not_an_input(bdd: BDD, vid: int) -> VariableError:
    return VariableError(
        f"the function reads {bdd.name_of(vid)!r}, which is not one of its inputs"
    )
