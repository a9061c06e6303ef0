"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import gc
import random

import pytest
from hypothesis import strategies as st

from repro.bdd import BDD
from repro.isf.ternary import MultiOutputSpec


@pytest.fixture
def bdd4() -> tuple[BDD, list[int]]:
    """A manager with four input variables x1..x4."""
    bdd = BDD()
    vids = bdd.add_vars(["x1", "x2", "x3", "x4"])
    return bdd, vids


def random_spec(
    rng: random.Random,
    *,
    n_inputs: int,
    n_outputs: int,
    dc_prob: float = 0.4,
) -> MultiOutputSpec:
    """A random small ternary spec (dense with per-value don't cares)."""
    care = {}
    for m in range(1 << n_inputs):
        values = tuple(
            None if rng.random() < dc_prob else rng.randint(0, 1)
            for _ in range(n_outputs)
        )
        if any(v is not None for v in values):
            care[m] = values
    return MultiOutputSpec(n_inputs, n_outputs, care, name="rand")


@st.composite
def spec_strategy(draw, max_inputs: int = 4, max_outputs: int = 3):
    """Hypothesis strategy producing small MultiOutputSpec instances."""
    n_inputs = draw(st.integers(1, max_inputs))
    n_outputs = draw(st.integers(1, max_outputs))
    cell = st.one_of(st.none(), st.integers(0, 1))
    table = draw(
        st.lists(
            st.tuples(*([cell] * n_outputs)),
            min_size=1 << n_inputs,
            max_size=1 << n_inputs,
        )
    )
    care = {
        m: values
        for m, values in enumerate(table)
        if any(v is not None for v in values)
    }
    return MultiOutputSpec(n_inputs, n_outputs, care, name="hyp")


def brute_force_truth(bdd: BDD, f: int, vids: list[int]) -> list[int]:
    """Dense truth table of a BDD function over the given variables."""
    n = len(vids)
    out = []
    for m in range(1 << n):
        assignment = {v: (m >> (n - 1 - i)) & 1 for i, v in enumerate(vids)}
        out.append(bdd.evaluate(f, assignment))
    return out


def spec_allows(spec: MultiOutputSpec, minterm: int, outputs: tuple[int, ...]) -> bool:
    """Whether the spec permits the given fully specified output vector."""
    row = spec.care.get(minterm)
    if row is None:
        return True
    return all(want is None or got == want for got, want in zip(outputs, row))


def managers_left_alive(call) -> int:
    """How many BDD managers ``call()`` leaves alive with the cyclic GC off.

    0 means reference counting alone freed every manager the call made:
    no reference cycle keeps one alive until the cyclic GC runs.
    """
    from repro.bdd import stats

    gc.collect()
    gc.disable()
    try:
        before = len(stats.REGISTRY)
        call()
        return len(stats.REGISTRY) - before
    finally:
        gc.enable()
