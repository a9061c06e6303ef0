"""Admission control: per-family shortest-job-first order and tenant ledgers.

Every query below is an RNS benchmark, so all of them queue in the
``rns`` family and pop in that family's cost order.
"""

import pytest

from repro.errors import ServiceError
from repro.parallel.costs import CostModel
from repro.service.admission import Admission, estimate_size
from repro.service.protocol import Request


def req(op: str, benchmark: str, *, tenant: str = "default", **params) -> Request:
    params["benchmark"] = benchmark
    return Request(id=f"{op}:{benchmark}", op=op, params=params, tenant=tenant)


class TestEstimateSize:
    def test_bigger_care_set_costs_more(self):
        small = estimate_size("width_reduce", {"benchmark": "3-5 RNS"})
        big = estimate_size("width_reduce", {"benchmark": "11-13-15-17 RNS"})
        assert big > small

    def test_cascade_heavier_than_decompose(self):
        params = {"benchmark": "5-7-11-13 RNS"}
        assert estimate_size("cascade", params) > estimate_size(
            "decompose", params
        )

    def test_unparsable_name_falls_back(self):
        assert estimate_size("width_reduce", {"benchmark": "mystery"}) > 0

    def test_huge_exponent_does_not_blow_up(self):
        value = estimate_size(
            "width_reduce", {"benchmark": "99-digit 13-nary to binary"}
        )
        assert value > 0


class TestQueueOrder:
    def test_shortest_job_first(self):
        adm = Admission(CostModel())
        adm.submit(req("cascade", "11-13-15-17 RNS"))
        adm.submit(req("width_reduce", "3-5 RNS"))
        adm.submit(req("decompose", "5-7 RNS", cut_height=3))
        popped = [adm.pop("rns").request.op for _ in range(3)]
        assert popped[-1] == "cascade"
        assert popped[0] in ("width_reduce", "decompose")
        assert adm.pop("rns") is None

    def test_equal_cost_keeps_arrival_order(self):
        adm = Admission(CostModel())
        first = adm.submit(req("width_reduce", "3-5 RNS"))
        # An identical query has the identical estimate; the sequence
        # number must break the tie in arrival order.
        second = adm.submit(req("width_reduce", "3-5 RNS"))
        assert adm.pop("rns") is first
        assert adm.pop("rns") is second

    def test_observation_beats_seed(self):
        """A measured wall time re-ranks future arrivals (EWMA wins)."""
        adm = Admission(CostModel())
        cheap_on_paper = req("width_reduce", "3-5 RNS")
        key = cheap_on_paper.key()
        adm.observe(key, 500.0)  # it turned out to be a monster
        adm.submit(cheap_on_paper)
        adm.submit(req("cascade", "11-13-15-17 RNS"))
        assert adm.pop("rns").request.op == "cascade"

    def test_len_tracks_queue(self):
        adm = Admission(CostModel())
        assert len(adm) == 0
        adm.submit(req("width_reduce", "3-5 RNS"))
        assert len(adm) == 1
        adm.pop("rns")
        assert len(adm) == 0


class TestTenantBudgets:
    def test_exhausted_tenant_is_refused(self):
        adm = Admission(CostModel(), tenant_max_steps=100)
        adm.charge("greedy", 60)
        adm.charge("greedy", 41)  # the ledger adds up across queries
        assert adm.tenant_remaining("greedy") == 0
        with pytest.raises(ServiceError, match="greedy"):
            adm.submit(req("width_reduce", "3-5 RNS", tenant="greedy"))
        # Other tenants are unaffected.
        adm.submit(req("width_reduce", "3-5 RNS", tenant="frugal"))
        assert adm.tenant_remaining("frugal") == 100

    def test_unlimited_by_default(self):
        adm = Admission(CostModel())
        adm.charge("anyone", 10**12)
        assert not adm.exhausted("anyone")
        assert adm.tenant_remaining("anyone") is None

    def test_stats_shape(self):
        adm = Admission(CostModel(), tenant_max_steps=50)
        adm.submit(req("width_reduce", "3-5 RNS", tenant="a"))
        stats = adm.stats()
        assert stats["queued"] == 1
        assert stats["tenants"]["a"]["max_steps"] == 50
        assert stats["tenants"]["a"]["exhausted"] is False
