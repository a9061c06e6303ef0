"""Unit tests for DOT export."""

from repro.bdd import BDD, to_dot


def small_bdd():
    bdd = BDD()
    x = bdd.add_var("x1")
    y = bdd.add_var("y1", kind="output")
    f = bdd.mk(x, bdd.mk(y, 1, 0), bdd.mk(y, 0, 1))
    return bdd, f


class TestToDot:
    def test_contains_nodes_and_edges(self):
        bdd, f = small_bdd()
        dot = to_dot(bdd, {"chi": f})
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        assert '"root_chi"' in dot
        assert 'label="x1"' in dot
        assert "style=dotted" in dot and "style=solid" in dot

    def test_omit_false_default(self):
        bdd, f = small_bdd()
        dot = to_dot(bdd, {"chi": f})
        assert '"n0"' not in dot

    def test_include_false(self):
        bdd, f = small_bdd()
        dot = to_dot(bdd, {"chi": f}, omit_false=False)
        assert '"n0"' in dot

    def test_output_vars_drawn_as_boxes(self):
        bdd, f = small_bdd()
        dot = to_dot(bdd, {"chi": f})
        assert "shape=box" in dot  # y1 nodes
        assert "shape=circle" in dot  # x1 node

    def test_sequence_roots(self):
        bdd, f = small_bdd()
        dot = to_dot(bdd, [f])
        assert '"root_f0"' in dot

    def test_ranks_by_level(self):
        bdd, f = small_bdd()
        dot = to_dot(bdd, {"chi": f})
        assert dot.count("rank=same") == 2

    def test_names_follow_structure_not_node_ids(self):
        """Nodes are named by pre-order rank (constants n0/n1, the root
        n2), so a differently numbered copy draws the same."""
        bdd, f = small_bdd()
        other = BDD()
        x = other.add_var("x1")
        y = other.add_var("y1", kind="output")
        other.mk(x, 0, 1)  # shifts every later id
        hi = other.mk(y, 0, 1)  # allocated before lo, unlike small_bdd
        g = other.mk(x, other.mk(y, 1, 0), hi)
        assert g != f
        dot = to_dot(bdd, {"chi": f})
        assert dot == to_dot(other, {"chi": g})
        assert '"root_chi" -> "n2";' in dot
