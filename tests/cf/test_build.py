"""The one-walk BDD_for_CF build equals Definition 2.3's product.

``CharFunction.from_isf`` builds χ in one memoized walk over the
outputs' ``(f0, f1)`` pairs.  These tests rebuild χ in the same
manager the way Definition 2.3 writes it, one term per output and a
running AND through the public ``apply_*`` calls, and require the very
same root; and they require that the walk allocates only χ's nodes.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import BDD, TRUE, transfer
from repro.benchfns.registry import get_benchmark
from repro.benchfns.wordlist import WordList, build_wordlist_isf, generate_words
from repro.cf import CharFunction
from repro.errors import VariableError
from repro.isf import ISF, MultiOutputISF

from tests.conftest import spec_strategy

#: The rows of the end-to-end benchmark's ``table5-arith`` workload.
TABLE5_ARITH = ("3-5-7-11 RNS", "5-digit 6-nary to binary", "3-digit decimal adder")


def product_chi(cf: CharFunction, isf: MultiOutputISF) -> int:
    """Π_i (¬y_i·f_i0 ∨ y_i·f_i1 ∨ f_id), built term by term in cf's manager."""
    src, dst = isf.bdd, cf.bdd
    vid_map = {v: dst.vid(src.name_of(v)) for v in isf.input_vids}
    root = TRUE
    for out, y in zip(isf.outputs, cf.output_vids):
        f0, f1 = transfer(src, dst, [out.f0, out.f1], vid_map)
        fd = dst.apply_not(dst.apply_or(f0, f1))
        term = dst.apply_or(
            dst.apply_or(dst.apply_and(dst.nvar(y), f0), dst.apply_and(dst.var(y), f1)),
            fd,
        )
        root = dst.apply_and(root, term)
    return root


def assert_only_chi_allocated(isf: MultiOutputISF) -> CharFunction:
    cf = CharFunction.from_isf(isf)
    assert cf.bdd._peak_alive == cf.num_nodes()
    return cf


def table5_arith_isfs():
    for name in TABLE5_ARITH:
        for index, half in enumerate(get_benchmark(name).build().bipartition()):
            yield f"{name}/F{index + 1}", half
            yield f"{name}/F{index + 1}/DC=0", half.extension(0)


def wordlist_isfs(count: int):
    word_list = WordList(generate_words(count, seed=2005))
    for dc_outside in (False, True):
        yield f"{count} words dc={dc_outside}", build_wordlist_isf(
            word_list, dc_outside=dc_outside
        )


class TestProductDifferential:
    def test_table5_arith_halves_and_extensions(self):
        for label, isf in table5_arith_isfs():
            cf = assert_only_chi_allocated(isf)
            assert product_chi(cf, isf) == cf.root, label

    @pytest.mark.parametrize("count", [60, 250])
    def test_wordlists(self, count):
        for label, isf in wordlist_isfs(count):
            cf = assert_only_chi_allocated(isf)
            assert product_chi(cf, isf) == cf.root, label

    def test_hints_put_outputs_above_the_dc_mask(self):
        """The decimal adder's care-value hints leave some ``y_i`` above
        variables that only the don't-care mask reads; the walk conjoins
        those terms and still allocates nothing beyond χ."""
        isf = get_benchmark("3-digit decimal adder").build()
        assert isf.placement_supports is not None
        second_half = isf.bipartition()[1]
        cf = assert_only_chi_allocated(second_half)
        assert not cf.is_strictly_determined()
        assert product_chi(cf, second_half) == cf.root

    @settings(max_examples=60, deadline=None)
    @given(spec_strategy(max_inputs=5, max_outputs=4), st.data())
    def test_random_specs(self, spec, data):
        isf = MultiOutputISF.from_spec(spec)
        if data.draw(st.booleans(), label="hints"):
            isf.placement_supports = [
                frozenset(data.draw(st.sets(st.sampled_from(isf.input_vids))))
                for _ in isf.outputs
            ]
        order = None
        if data.draw(st.booleans(), label="input_order"):
            order = data.draw(st.permutations(isf.input_vids))
        cf = CharFunction.from_isf(isf, input_order=order)
        assert product_chi(cf, isf) == cf.root


class TestWalkErrors:
    def test_support_outside_the_inputs_is_refused(self):
        """A triple that reads a variable outside the ISF's inputs has no
        place in the CF order."""
        bdd = BDD()
        x1, x2, stray = bdd.add_vars(["x1", "x2", "stray"])
        out = ISF(
            bdd,
            bdd.apply_and(bdd.var(x1), bdd.nvar(stray)),
            bdd.apply_and(bdd.var(x1), bdd.var(stray)),
        )
        isf = MultiOutputISF(bdd, [x1, x2], [out], placement_supports=[{x1}])
        with pytest.raises(VariableError):
            CharFunction.from_isf(isf)
