"""Additional CharFunction behaviours: naming, frozen outputs, hints, errors."""

import pytest

from repro.cf import CharFunction, max_width
from repro.errors import SpecificationError
from repro.isf import MultiOutputISF, MultiOutputSpec, table1_spec
from repro.reduce import reduce_support


class TestNaming:
    def test_custom_y_names(self):
        isf = MultiOutputISF.from_spec(table1_spec())
        cf = CharFunction.from_isf(isf, y_names=["out_a", "out_b"])
        names = [cf.bdd.name_of(v) for v in cf.output_vids]
        assert names == ["out_a", "out_b"]

    def test_replaced_carries_metadata(self):
        cf = CharFunction.from_spec(table1_spec())
        other = cf.replaced(cf.root, suffix="/copy")
        assert other.name.endswith("/copy")
        assert other.output_supports == cf.output_supports
        assert other.input_vids == cf.input_vids

    def test_from_isf_custom_name(self):
        isf = MultiOutputISF.from_spec(table1_spec())
        cf = CharFunction.from_isf(isf, name="mychi")
        assert cf.name == "mychi"


class TestInputOrderValidation:
    def test_rejects_non_permutation(self):
        isf = MultiOutputISF.from_spec(table1_spec())
        with pytest.raises(SpecificationError):
            CharFunction.from_isf(isf, input_order=isf.input_vids[:2])

    def test_reversed_order_same_semantics(self):
        spec = table1_spec()
        isf = MultiOutputISF.from_spec(spec)
        cf = CharFunction.from_isf(isf, input_order=list(reversed(isf.input_vids)))
        assert cf.bdd.order()[0] == "x4"
        for m, values in spec.care.items():
            got = cf.sample_output(m)
            for g, want in zip(got, values):
                if want is not None:
                    assert g == want


class TestSiftProtection:
    def test_freeze_outputs_keeps_interleaving(self):
        cf = CharFunction.from_spec(table1_spec())
        bdd = cf.bdd
        kinds_before = [
            bdd.kind_of(bdd.vid_at_level(level)) for level in range(bdd.num_vars)
        ]
        cf.sift(cost="widthsum", freeze_outputs=True)
        kinds_after = [
            bdd.kind_of(bdd.vid_at_level(level)) for level in range(bdd.num_vars)
        ]
        assert kinds_before == kinds_after


class TestPrecedenceRelaxation:
    def test_removed_variable_stops_constraining(self):
        # x2 is removable; afterwards it must not appear in constraints.
        care = {0b00: (0,), 0b10: (1,)}
        spec = MultiOutputSpec(2, 1, care)
        cf = CharFunction.from_spec(spec)
        reduced, removed = reduce_support(cf)
        assert removed
        constrained_vars = {a for a, _ in reduced.precedence_constraints()}
        assert removed[0] not in constrained_vars


class TestEvaluateErrors:
    def test_sample_output_on_empty_cf(self):
        cf = CharFunction.from_spec(table1_spec())
        broken = cf.replaced(0)
        with pytest.raises(SpecificationError):
            broken.sample_output(0)

    def test_evaluate_full_pairs(self):
        cf = CharFunction.from_spec(table1_spec())
        assert cf.evaluate([1, 0, 1, 0], [1, 0]) == 1
        assert cf.evaluate([1, 0, 1, 0], [0, 0]) == 0
