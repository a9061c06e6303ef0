"""Unit tests for the ROBDD manager."""

import pytest

from repro.bdd import BDD, FALSE, TRUE
from repro.bdd.manager import MAX_NODE_ID, check_capacity
from repro.errors import CapacityError, ForeignNodeError, VariableError


class TestVariables:
    def test_add_and_lookup(self):
        bdd = BDD()
        v = bdd.add_var("x")
        assert bdd.vid("x") == v
        assert bdd.name_of(v) == "x"
        assert bdd.kind_of(v) == "input"

    def test_output_kind(self):
        bdd = BDD()
        y = bdd.add_var("y", kind="output")
        assert bdd.is_output_vid(y)

    def test_duplicate_rejected(self):
        bdd = BDD()
        bdd.add_var("x")
        with pytest.raises(VariableError):
            bdd.add_var("x")

    def test_bad_kind_rejected(self):
        bdd = BDD()
        with pytest.raises(VariableError):
            bdd.add_var("x", kind="banana")

    def test_unknown_name(self):
        bdd = BDD()
        with pytest.raises(VariableError):
            bdd.vid("nope")

    def test_initial_order_is_creation_order(self):
        bdd = BDD()
        bdd.add_vars(["a", "b", "c"])
        assert bdd.order() == ["a", "b", "c"]
        assert bdd.level_of_vid(bdd.vid("b")) == 1
        assert bdd.vid_at_level(2) == bdd.vid("c")


class TestNodeStructure:
    def test_terminals(self):
        bdd = BDD()
        assert bdd.is_terminal(FALSE)
        assert bdd.is_terminal(TRUE)
        with pytest.raises(ForeignNodeError):
            bdd.var_of(TRUE)
        with pytest.raises(ForeignNodeError):
            bdd.lo(FALSE)

    def test_mk_reduction(self):
        bdd = BDD()
        x = bdd.add_var("x")
        assert bdd.mk(x, TRUE, TRUE) == TRUE
        assert bdd.mk(x, FALSE, FALSE) == FALSE

    def test_mk_hash_consing(self):
        bdd = BDD()
        x = bdd.add_var("x")
        u1 = bdd.mk(x, FALSE, TRUE)
        u2 = bdd.mk(x, FALSE, TRUE)
        assert u1 == u2

    def test_var_and_nvar(self):
        bdd = BDD()
        x = bdd.add_var("x")
        f = bdd.var(x)
        g = bdd.nvar("x")
        assert bdd.evaluate(f, {x: 1}) == 1
        assert bdd.evaluate(f, {x: 0}) == 0
        assert g == bdd.apply_not(f)


class TestBooleanOps:
    def _two_vars(self):
        bdd = BDD()
        x, y = bdd.add_vars(["x", "y"])
        return bdd, bdd.var(x), bdd.var(y)

    def test_and_terminal_rules(self):
        bdd, x, y = self._two_vars()
        assert bdd.apply_and(FALSE, x) == FALSE
        assert bdd.apply_and(TRUE, x) == x
        assert bdd.apply_and(x, x) == x

    def test_or_terminal_rules(self):
        bdd, x, y = self._two_vars()
        assert bdd.apply_or(TRUE, x) == TRUE
        assert bdd.apply_or(FALSE, x) == x
        assert bdd.apply_or(x, x) == x

    def test_xor_rules(self):
        bdd, x, y = self._two_vars()
        assert bdd.apply_xor(x, x) == FALSE
        assert bdd.apply_xor(x, FALSE) == x
        assert bdd.apply_xor(x, TRUE) == bdd.apply_not(x)

    def test_de_morgan(self):
        bdd, x, y = self._two_vars()
        lhs = bdd.apply_not(bdd.apply_and(x, y))
        rhs = bdd.apply_or(bdd.apply_not(x), bdd.apply_not(y))
        assert lhs == rhs

    def test_not_involution(self):
        bdd, x, y = self._two_vars()
        f = bdd.apply_or(x, bdd.apply_not(y))
        assert bdd.apply_not(bdd.apply_not(f)) == f

    def test_ite_equals_mux(self):
        bdd, x, y = self._two_vars()
        z = bdd.var(bdd.add_var("z"))
        ite = bdd.ite(x, y, z)
        manual = bdd.apply_or(bdd.apply_and(x, y), bdd.apply_and(bdd.apply_not(x), z))
        assert ite == manual

    def test_ite_terminal_cases(self):
        bdd, x, y = self._two_vars()
        assert bdd.ite(TRUE, x, y) == x
        assert bdd.ite(FALSE, x, y) == y
        assert bdd.ite(x, TRUE, FALSE) == x
        assert bdd.ite(x, FALSE, TRUE) == bdd.apply_not(x)
        assert bdd.ite(x, y, y) == y

    def test_implies(self):
        bdd, x, y = self._two_vars()
        assert bdd.implies(bdd.apply_and(x, y), x)
        assert not bdd.implies(x, bdd.apply_and(x, y))


class TestCofactorRestrictCompose:
    def test_cofactor(self):
        bdd = BDD()
        x, y = bdd.add_vars(["x", "y"])
        f = bdd.apply_and(bdd.var(x), bdd.var(y))
        assert bdd.cofactor(f, x, 1) == bdd.var(y)
        assert bdd.cofactor(f, x, 0) == FALSE

    def test_cofactor_of_independent_var(self):
        bdd = BDD()
        x, y = bdd.add_vars(["x", "y"])
        f = bdd.var(y)
        assert bdd.cofactor(f, x, 0) == f

    def test_restrict_multiple(self):
        bdd = BDD()
        x, y, z = bdd.add_vars(["x", "y", "z"])
        f = bdd.apply_or(bdd.apply_and(bdd.var(x), bdd.var(y)), bdd.var(z))
        r = bdd.restrict(f, {x: 1, z: 0})
        assert r == bdd.var(y)

    def test_compose(self):
        bdd = BDD()
        x, y, z = bdd.add_vars(["x", "y", "z"])
        f = bdd.apply_and(bdd.var(x), bdd.var(y))
        g = bdd.apply_or(bdd.var(y), bdd.var(z))
        h = bdd.compose(f, x, g)
        expected = bdd.apply_and(g, bdd.var(y))
        assert h == expected


class TestInspection:
    def test_support(self):
        bdd = BDD()
        x, y, z = bdd.add_vars(["x", "y", "z"])
        f = bdd.apply_and(bdd.var(x), bdd.var(z))
        assert bdd.support(f) == {x, z}
        assert bdd.support(TRUE) == set()

    def test_evaluate_missing_var(self):
        bdd = BDD()
        x = bdd.add_var("x")
        with pytest.raises(VariableError):
            bdd.evaluate(bdd.var(x), {})

    def test_count_nodes(self):
        bdd = BDD()
        x, y = bdd.add_vars(["x", "y"])
        f = bdd.apply_and(bdd.var(x), bdd.var(y))
        assert bdd.count_nodes(f) == 2
        assert bdd.count_nodes(TRUE) == 0

    def test_sat_count(self):
        bdd = BDD()
        vids = bdd.add_vars(["a", "b", "c"])
        f = bdd.apply_or(bdd.var(vids[0]), bdd.var(vids[1]))
        assert bdd.sat_count(f, vids=vids) == 6
        assert bdd.sat_count(FALSE, vids=vids) == 0
        assert bdd.sat_count(TRUE, vids=vids) == 8

    def test_sat_count_subuniverse(self):
        bdd = BDD()
        vids = bdd.add_vars(["a", "b", "c"])
        f = bdd.var(vids[1])
        assert bdd.sat_count(f, vids=[vids[1]]) == 1

class TestMaintenance:
    def test_collect_frees_garbage(self):
        bdd = BDD()
        x, y = bdd.add_vars(["x", "y"])
        keep = bdd.apply_and(bdd.var(x), bdd.var(y))
        bdd.apply_or(bdd.var(x), bdd.var(y))  # garbage
        before = bdd.num_alive_nodes()
        freed = bdd.collect([keep])
        assert freed > 0
        assert bdd.num_alive_nodes() < before
        # The kept function is still intact.
        assert bdd.evaluate(keep, {x: 1, y: 1}) == 1
        bdd.check_invariants([keep])

    def test_node_ids_recycled(self):
        bdd = BDD()
        x = bdd.add_var("x")
        f = bdd.var(x)
        bdd.collect([])
        g = bdd.var(x)
        assert g == f  # the freed slot is reused for the identical node

    def test_clear_cache_keeps_semantics(self):
        bdd = BDD()
        x, y = bdd.add_vars(["x", "y"])
        f = bdd.apply_and(bdd.var(x), bdd.var(y))
        bdd.clear_cache()
        assert bdd.apply_and(bdd.var(x), bdd.var(y)) == f


class TestCapacityGuard:
    """Pin the node-id capacity fix: allocation refuses ids the packed
    32-bit key fields cannot represent, instead of silently aliasing."""

    def test_boundary_id_is_accepted(self):
        check_capacity(0)
        check_capacity(MAX_NODE_ID)

    def test_reserved_and_overflow_ids_raise(self):
        for next_id in (MAX_NODE_ID + 1, 1 << 32, (1 << 33) + 7):
            with pytest.raises(CapacityError) as exc:
                check_capacity(next_id)
            assert exc.value.limit == MAX_NODE_ID
            assert str(next_id) in str(exc.value)

    def test_max_node_id_leaves_empty_marker_free(self):
        # The all-ones 32-bit field (2**32 - 1) is never a node id, so
        # no packed key field can read as all ones.
        assert MAX_NODE_ID == (1 << 32) - 2

    def test_capacity_error_is_a_repro_error(self):
        from repro.errors import ReproError

        assert issubclass(CapacityError, ReproError)

    def test_mk_refuses_to_allocate_past_the_boundary(self):
        """BDD.mk consults the guard on the fresh-allocation branch; a
        manager whose id space is (apparently) full raises CapacityError
        instead of packing a 33-bit id."""
        bdd = BDD()
        (v,) = bdd.add_vars(["x"])
        bdd.mk(v, FALSE, TRUE)  # interned: no fresh allocation below

        class HugeList(list):
            def __len__(self):
                return MAX_NODE_ID + 1

        bdd._vid = HugeList(bdd._vid)
        # Cached node: still fine (no allocation).
        assert bdd.mk(v, FALSE, TRUE) >= 2
        # Fresh node: would need id 2**32 - 1 — refused.
        with pytest.raises(CapacityError):
            bdd.mk(v, TRUE, FALSE)
