"""Wire protocol: parsing, validation, and content-addressed keys."""

import json

import pytest

from repro.errors import ProtocolError
from repro.service.protocol import (
    Request,
    encode,
    error_response,
    ok_response,
    parse_request,
    query_key,
)


def line(**kwargs) -> str:
    return json.dumps(kwargs)


class TestParse:
    def test_minimal_compute_request(self):
        req = parse_request(
            line(id="a", op="width_reduce", params={"benchmark": "3-5 RNS"})
        )
        assert req.id == "a"
        assert req.op == "width_reduce"
        assert req.tenant == "default"
        assert not req.is_control

    def test_control_ops(self):
        for op in ("ping", "stats", "shutdown"):
            assert parse_request(line(id="x", op=op)).is_control

    def test_bytes_input(self):
        req = parse_request(line(id="b", op="ping").encode())
        assert req.op == "ping"

    @pytest.mark.parametrize(
        "bad",
        [
            "not json",
            "[1, 2]",
            line(op="ping"),  # missing id
            line(id="", op="ping"),  # empty id
            line(id="x", op="frobnicate"),  # unknown op
            line(id="x", op="ping", params=[1]),  # params not an object
            line(id="x", op="width_reduce", params={}),  # missing benchmark
            line(id="x", op="width_reduce", params={"benchmark": 7}),
            line(id="x", op="width_reduce", params={"benchmark": "a", "bogus": 1}),
            line(id="x", op="decompose", params={"benchmark": "a"}),  # no cut
            line(id="x", op="pla_reduce", params={}),  # no pla text
            line(id="x", op="ping", tenant=""),
            # v4 dropped the v3 ``tt`` field: stale clients must fail.
            line(id="x", op="ping", tt={"window": "wide"}),
            line(id="x", op="ping", tt={"fastpath": 1}),
            line(id="x", op="ping", tt={"unknown": True}),
            line(id="x", op="ping", budget={"max_ops": 1}),
            line(id="x", op="ping", deadline=500),  # typo of deadline_ms
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(ProtocolError):
            parse_request(bad)

    def test_invalid_utf8(self):
        with pytest.raises(ProtocolError):
            parse_request(b"\xff\xfe{}")

    def test_unknown_top_level_fields_are_named(self):
        with pytest.raises(ProtocolError, match="deadline, tt"):
            parse_request(line(id="x", op="ping", tt=None, deadline=500))


class TestQueryKey:
    def test_same_content_same_key(self):
        a = query_key("width_reduce", {"benchmark": "3-5 RNS"})
        b = query_key("width_reduce", {"benchmark": "3-5 RNS"})
        assert a == b
        assert a.startswith("query:width_reduce/")

    def test_params_change_key(self):
        a = query_key("width_reduce", {"benchmark": "3-5 RNS"})
        b = query_key("width_reduce", {"benchmark": "3-7 RNS"})
        assert a != b

    def test_budget_and_deadline_change_key(self):
        """Execution settings are part of query identity — two requests
        with different budgets must never coalesce onto one run."""
        params = {"benchmark": "3-5 RNS"}
        base = query_key("width_reduce", params)
        budget = query_key("width_reduce", params, budget={"max_steps": 10})
        deadline = query_key("width_reduce", params, deadline_ms=500)
        assert len({base, budget, deadline}) == 3

    def test_request_key_matches_function(self):
        req = parse_request(
            line(id="k", op="decompose",
                 params={"benchmark": "3-5 RNS", "cut_height": 3})
        )
        assert req.key() == query_key("decompose", req.params)


class TestDocRoundtrip:
    def test_doc_rebuilds_equivalent_request(self):
        req = parse_request(
            line(
                id="r1",
                op="width_reduce",
                params={"benchmark": "3-5 RNS"},
                tenant="ci",
                budget={"max_steps": 1000},
                deadline_ms=500,
            )
        )
        again = Request.from_doc(req.doc(), id="replayed")
        assert again.key() == req.key()
        assert again.tenant == "ci"
        assert again.budget == {"max_steps": 1000}
        assert again.deadline_ms == 500


class TestResponses:
    def test_ok_response_and_encode(self):
        doc = ok_response("a", {"x": 1}, shard="rns")
        raw = encode(doc)
        assert raw.endswith(b"\n")
        back = json.loads(raw)
        assert back["ok"] is True
        assert back["meta"]["shard"] == "rns"

    def test_error_response_from_exception(self):
        doc = error_response("a", ValueError("boom"))
        assert doc["ok"] is False
        assert doc["error"]["type"] == "ValueError"
        assert "boom" in doc["error"]["message"]

    def test_error_response_without_id(self):
        doc = error_response(None, "malformed")
        assert doc["id"] == ""
        assert doc["error"]["type"] == "ProtocolError"
