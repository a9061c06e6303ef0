"""The iterative kernel survives BDDs far deeper than the recursion limit.

Every operation here runs over chains of 2200+ variables — more than
double CPython's default ~1000-frame recursion ceiling — without
raising RecursionError and without touching ``sys.setrecursionlimit``.
This is the acceptance test for the explicit-stack evaluator: the seed
engine's recursive bodies died on all of these.
"""

import sys

from repro.bdd import BDD, FALSE, TRUE

N_DEEP = 2200


def _chain_manager():
    # The whole point: deeper than any plausible recursion limit setting.
    assert N_DEEP > sys.getrecursionlimit()
    bdd = BDD()
    vids = bdd.add_vars([f"x{i}" for i in range(N_DEEP)])
    return bdd, vids


def test_deep_conjunction_chain():
    bdd, vids = _chain_manager()
    f = bdd.apply_and_many(bdd.var(v) for v in vids)
    assert f not in (FALSE, TRUE)
    assert bdd.count_nodes(f) == N_DEEP
    assert bdd.evaluate(f, {v: 1 for v in vids}) == 1
    assert bdd.evaluate(f, {v: (0 if v == vids[-1] else 1) for v in vids}) == 0


def test_deep_binary_ops_and_not():
    bdd, vids = _chain_manager()
    f = bdd.apply_and_many(bdd.var(v) for v in vids)
    g = bdd.apply_or_many(bdd.var(v) for v in vids)
    assert bdd.apply_and(f, g) == f  # f implies g
    assert bdd.apply_or(f, g) == g
    nf = bdd.apply_not(f)
    assert bdd.apply_not(nf) == f
    assert bdd.apply_xor(f, nf) == TRUE
    assert bdd.apply_xor(f, f) == FALSE


def test_deep_ite_and_cofactor():
    bdd, vids = _chain_manager()
    f = bdd.apply_and_many(bdd.var(v) for v in vids)
    g = bdd.apply_or_many(bdd.var(v) for v in vids)
    assert bdd.ite(f, g, FALSE) == f
    mid = vids[N_DEEP // 2]
    hi = bdd.cofactor(f, mid, 1)
    lo = bdd.cofactor(f, mid, 0)
    assert lo == FALSE
    assert bdd.ite(bdd.var(mid), hi, lo) == f
    assert bdd.restrict(f, {vids[0]: 1, vids[-1]: 1}) == bdd.cofactor(
        bdd.cofactor(f, vids[0], 1), vids[-1], 1
    )


def test_deep_compose():
    bdd, vids = _chain_manager()
    f = bdd.apply_and_many(bdd.var(v) for v in vids)
    # Substitute the last variable by the first: the chain collapses
    # onto one fewer distinct variable but stays 2199 nodes deep.
    g = bdd.compose(f, vids[-1], bdd.var(vids[0]))
    assert bdd.count_nodes(g) == N_DEEP - 1
    assert bdd.evaluate(g, {v: 1 for v in vids}) == 1


def test_deep_counting_and_cubes():
    bdd, vids = _chain_manager()
    f = bdd.apply_and_many(bdd.var(v) for v in vids)
    assert bdd.sat_count(f) == 1


def test_deep_charfunction_build():
    """``CharFunction.from_isf`` walks 2200 inputs without recursing, on
    both of its paths: an output placed below its whole support, and
    one that a placement hint puts right under the first input, whose
    2199-deep remainder is negated and conjoined below its ``y``."""
    from repro.bdd import transfer
    from repro.cf import CharFunction
    from repro.isf import ISF, MultiOutputISF

    bdd, vids = _chain_manager()
    ones = bdd.apply_and_many(bdd.var(v) for v in vids)
    zeros = bdd.apply_and_many(bdd.nvar(v) for v in vids)
    out = ISF(bdd, zeros, ones)
    isf = MultiOutputISF(
        bdd, vids, [out, out], placement_supports=[frozenset(vids), {vids[0]}]
    )
    cf = CharFunction.from_isf(isf)
    dst = cf.bdd
    assert dst.order()[:3] == ["x0", "y2", "x1"] and dst.order()[-1] == "y1"
    f0, f1 = transfer(bdd, dst, [zeros, ones], {v: dst.vid(bdd.name_of(v)) for v in vids})
    expected = dst.apply_and_many(
        dst.ite(dst.var(y), dst.apply_not(f0), dst.apply_not(f1))
        for y in cf.output_vids
    )
    assert cf.root == expected


def test_deep_cf_reductions():
    """Algorithm 3.1, Algorithm 3.3 (through its don't-care oracle) and
    ``is_strictly_determined`` walk a CF of 2200 inputs without
    recursing: one output is the AND of all inputs, the other the last
    input, and both are don't care where ``x0 = 0``."""
    from repro.cf import CharFunction
    from repro.isf import ISF, MultiOutputISF
    from repro.reduce import algorithm_3_1, algorithm_3_3

    bdd, vids = _chain_manager()
    x0 = bdd.var(vids[0])
    ones = [bdd.apply_and_many(bdd.var(v) for v in vids), bdd.var(vids[-1])]
    outs = [ISF(bdd, bdd.apply_and(x0, bdd.apply_not(f)), f) for f in ones]
    cf = CharFunction.from_isf(MultiOutputISF(bdd, vids, outs))
    assert cf.is_strictly_determined()
    for reduced in (algorithm_3_1(cf), algorithm_3_3(cf)[0]):
        assert reduced.refines(cf)
        assert reduced.num_nodes() == N_DEEP + 5
