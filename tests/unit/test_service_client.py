"""The typed client: every op of the table, driven through ``ServiceClient``.

Each client method must send exactly the payload the equivalent
``make_request`` builds (default-valued fields left out), answer with what
``handle_payload`` gives for that payload, and keep its return contract:
``ping`` a bool, ``modules`` a list, ``edit``/``stats``/``unload``/
``shutdown`` the envelope, every other op a typed response.
"""

import inspect
import re

import pytest

from repro.service import daemon
from repro.service.client import InProcessClient, ServiceClient
from repro.service.protocol import (
    DEFAULT_SIZE,
    REQUESTS,
    CheckBoundsResponse,
    LoadResponse,
    ParallelLoopsResponse,
    QueryFunctionResponse,
    QueryManyResponse,
    QueryResponse,
    RangeResponse,
    ServiceError,
    ValuesResponse,
    handle_payload,
    make_request,
)
from repro.service.session import AnalysisSession

SRC = """
void fill(char* buf, int n) {
  int i;
  for (i = 0; i < n; i++) { buf[i] = 1; }
}
int main(int argc, char** argv) {
  int n = atoi(argv[1]);
  char* bytes = (char*)malloc(n);
  char* tail = bytes + 1;
  *bytes = 0;
  *tail = 1;
  fill(bytes, n);
  return 0;
}
"""

SRC_EDITED = SRC.replace("buf[i] = 1;", "buf[i] = 7;")

#: op -> what its client method returns (the contract, spelled out here
#: rather than read back from the table under test).
CONTRACT = {
    "ping": bool,
    "load": LoadResponse,
    "load_program": LoadResponse,
    "edit": dict,
    "query": QueryResponse,
    "query_many": QueryManyResponse,
    "query_function": QueryFunctionResponse,
    "values": ValuesResponse,
    "range": RangeResponse,
    "check_bounds": CheckBoundsResponse,
    "parallel_loops": ParallelLoopsResponse,
    "stats": dict,
    "modules": list,
    "unload": dict,
    "shutdown": dict,
}


class RecordingClient(InProcessClient):
    """An in-process client that keeps every payload and envelope."""

    def __init__(self) -> None:
        super().__init__()
        self.sent = []

    def call(self, payload):
        envelope = super().call(payload)
        self.sent.append((payload, envelope))
        return envelope


def _pointers(session):
    values = session.values("m", "main")["values"]
    base = next(v["name"] for v in values if v["op"] == "malloc")
    offset = [v["name"] for v in values if v["op"] == "ptradd"][-1]
    return base, offset


def _cases(base, offset):
    """(op, client method, args, kwargs, the make_request fields)."""
    query = {"module": "m", "analysis": "rbaa", "function": "main",
             "a": base, "b": offset}
    pairs = [[base, offset], [base, offset, "unknown", 4]]
    return [
        ("ping", "ping", (), {}, {}),
        ("load_program", "load_program", ("allroots",), {},
         {"name": "allroots"}),
        ("values", "values", ("m", "main"), {},
         {"module": "m", "function": "main"}),
        ("query", "query", ("m", "rbaa", "main", base, offset), {}, query),
        ("query", "query", ("m", "rbaa", "main", base, offset),
         {"size_a": DEFAULT_SIZE, "size_b": DEFAULT_SIZE}, query),
        ("query", "query", ("m", "rbaa", "main", base, offset),
         {"size_a": None, "size_b": 4}, dict(query, size_a=None, size_b=4)),
        ("query_many", "query_many", ("m", "rbaa", "main", pairs), {},
         {"module": "m", "analysis": "rbaa", "function": "main",
          "pairs": pairs}),
        ("query_function", "query_function", ("m", "rbaa"),
         {"function": None}, {"module": "m", "analysis": "rbaa"}),
        ("query_function", "query_function", ("m", "rbaa", "main", 5), {},
         {"module": "m", "analysis": "rbaa", "function": "main",
          "max_pairs": 5}),
        ("range", "range_of", ("m", "fill", "n"), {},
         {"module": "m", "function": "fill", "value": "n"}),
        ("check_bounds", "check_bounds", ("m",), {}, {"module": "m"}),
        ("check_bounds", "check_bounds", ("m", "fill"), {},
         {"module": "m", "function": "fill"}),
        ("parallel_loops", "parallel_loops", ("m",), {"function": "fill"},
         {"module": "m", "function": "fill"}),
        ("edit", "edit", ("m", SRC_EDITED), {},
         {"name": "m", "source": SRC_EDITED}),
        ("stats", "stats", ("m",), {}, {"module": "m"}),
        ("modules", "modules", (), {}, {}),
        ("unload", "unload", ("allroots",), {}, {"name": "allroots"}),
        ("shutdown", "shutdown", (), {}, {}),
    ]


def test_every_op_through_the_client_matches_handle_payload():
    client = RecordingClient()
    reference = AnalysisSession()
    loaded = client.load("m", SRC)
    assert client.sent[-1][0] == make_request("load", name="m", source=SRC)
    assert loaded == LoadResponse.from_envelope(handle_payload(
        reference, make_request("load", name="m", source=SRC)))
    covered = {"load"}
    base, offset = _pointers(reference)
    for op, method, args, kwargs, fields in _cases(base, offset):
        returned = getattr(client, method)(*args, **kwargs)
        payload, envelope = client.sent[-1]
        assert payload == make_request(op, **fields), (method, args, kwargs)
        assert envelope == handle_payload(reference, payload), op
        assert envelope["ok"] is True, envelope
        assert type(returned) is CONTRACT[op], (op, returned)
        if op in ("ping", "modules"):
            assert returned == envelope["pong" if op == "ping" else "modules"]
        elif isinstance(returned, dict):
            assert returned is envelope
        else:
            assert returned == CONTRACT[op].from_envelope(envelope)
        covered.add(op)
    assert covered == set(REQUESTS) == set(CONTRACT)


def test_client_methods_keep_their_names_signatures_and_defaults():
    def parameters(name):
        signature = inspect.signature(getattr(ServiceClient, name))
        return [(p.name, p.default) for p in signature.parameters.values()]

    empty = inspect.Parameter.empty
    assert parameters("query") == [
        ("self", empty), ("module", empty), ("analysis", empty),
        ("function", empty), ("a", empty), ("b", empty),
        ("size_a", DEFAULT_SIZE), ("size_b", DEFAULT_SIZE)]
    assert parameters("query_function") == [
        ("self", empty), ("module", empty), ("analysis", empty),
        ("function", None), ("max_pairs", None)]
    assert parameters("range_of") == [
        ("self", empty), ("module", empty), ("function", empty),
        ("value", empty)]
    assert not hasattr(ServiceClient, "range")
    for op in REQUESTS.values():
        # Defined on the class, so subclasses skipping __init__ get them.
        assert op.client in vars(ServiceClient), op.name


def test_methods_work_on_a_subclass_without_init():
    class Bare(ServiceClient):
        def __init__(self):  # deliberately no super().__init__()
            self.session = AnalysisSession()

        def call(self, payload):
            return handle_payload(self.session, payload)

    client = Bare()
    assert client.ping() is True
    assert set(client.load("m", SRC).functions) == {"fill", "main"}
    assert client.stats("m")["ok"] is True


def test_failures_raise_service_error_with_the_stable_code():
    client = InProcessClient()
    with pytest.raises(ServiceError) as caught:
        client.values("ghost", "main")
    assert caught.value.code == "unknown_module"
    with pytest.raises(ServiceError) as caught:
        client.stats("ghost")
    assert caught.value.code == "unknown_module"
    with pytest.raises(ServiceError):
        QueryResponse.from_envelope({"ok": True, "v": 1, "module": "m"})


def test_daemon_help_lists_exactly_the_table_ops(capsys):
    with pytest.raises(SystemExit):
        daemon.main(["--help"])
    listing = capsys.readouterr().out.split("\nops (", 1)[1]
    listed = re.findall(r"^  (\w+) ", listing, re.MULTILINE)
    assert listed == list(REQUESTS)
