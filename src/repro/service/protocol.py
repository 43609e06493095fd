"""One service protocol, every transport: the op table, dispatch, envelopes.

Every entry point into the analysis service — the in-process
:class:`~repro.service.session.AnalysisSession`, the stdin/stdout daemon
(:mod:`repro.service.daemon`) and the concurrent socket server
(:mod:`repro.service.server`) — speaks the contract defined here, so a
request behaves identically no matter which transport carries it.

Wire shape
----------

A request is one JSON object: ``{"op": <name>, "v": <version>,
"id": <any>, ...fields}``.  ``v`` is the protocol version and is
**required**: a request omitting it or carrying a different version is
rejected with a structured ``protocol_mismatch`` error (the pre-versioned
grace period ended after one release).  ``id`` is an arbitrary
client-chosen correlation token echoed verbatim on the response, which is
what makes pipelined and multiplexed traffic attributable.

A response is one JSON object: ``{"ok": true, "v": 1, "id": ..,
...result}`` on success, and on failure::

    {"ok": false, "v": 1, "id": .., "error_code": "<stable code>",
     "message": "<human text>"}

``error_code`` is machine-readable and stable (see :data:`ERROR_CODES`).
The pre-v1 free-form ``"error"`` string rode along for one deprecation
release and is gone — clients match on ``error_code``.

Access sizes
------------

``size_a``/``size_b`` (and the optional third/fourth elements of a
``query_many`` pair) accept exactly three spellings, normalised in one
place (:func:`coerce_size`) for every transport:

* omitted or the string ``"default"`` — the access covers the pointee
  size (:data:`DEFAULT_SIZE`);
* ``null`` or the string ``"unknown"`` — unbounded access extent;
* a non-negative integer — that many bytes.

Every op is declared once, as one :class:`Op` entry of :data:`REQUESTS`:
its ordered fields, the field it routes on, whether it mutates session
state, how it is served, the client method that sends it and what that
method returns.  Request parsing and canonical encoding (one generic
:class:`Request`), dispatch, the :class:`~repro.service.client.ServiceClient`
methods, the typed responses (:class:`QueryResponse`, …) and the daemon's
op listing are all derived from that table, so a new op is one entry plus
the session method serving it.  :func:`handle_payload` is the single entry
point transports call: parse, dispatch, envelope — it never raises; and
:func:`serve_lines` is the line framing both stream transports run.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, fields as dataclass_fields, make_dataclass
from typing import (Any, Awaitable, Callable, ClassVar, Dict, List, NamedTuple,
                    Optional, Sequence, Tuple, Union)

__all__ = [
    "PROTOCOL_VERSION",
    "ERROR_CODES",
    "RETRYABLE_ERROR_CODES",
    "PROTOCOL_MISMATCH",
    "BAD_REQUEST",
    "UNKNOWN_OP",
    "UNKNOWN_MODULE",
    "UNKNOWN_FUNCTION",
    "UNKNOWN_VALUE",
    "UNKNOWN_ANALYSIS",
    "EDIT_REJECTED",
    "INTERNAL_ERROR",
    "WORKER_UNAVAILABLE",
    "DEADLINE_EXCEEDED",
    "OVERLOADED",
    "ServiceError",
    "DEFAULT_SIZE",
    "UNKNOWN_SIZE",
    "coerce_size",
    "encode_size",
    "Op",
    "REQUESTS",
    "Request",
    "parse_request",
    "handle_payload",
    "success_envelope",
    "error_envelope",
    "failure_envelope",
    "op_listing",
    "make_request",
    "check_response",
    "encode_line",
    "decode_line",
    "serve_lines",
    "LoadResponse",
    "QueryResponse",
    "QueryManyResponse",
    "QueryFunctionResponse",
    "ValuesResponse",
    "RangeResponse",
    "CheckBoundsResponse",
    "ParallelLoopsResponse",
]

#: The protocol version every transport speaks.  Bump on wire-incompatible
#: changes; requests carrying another version are rejected with
#: ``protocol_mismatch`` instead of being half-understood.
PROTOCOL_VERSION = 1

# -- stable machine-readable error codes --------------------------------------

PROTOCOL_MISMATCH = "protocol_mismatch"
BAD_REQUEST = "bad_request"
UNKNOWN_OP = "unknown_op"
UNKNOWN_MODULE = "unknown_module"
UNKNOWN_FUNCTION = "unknown_function"
UNKNOWN_VALUE = "unknown_value"
UNKNOWN_ANALYSIS = "unknown_analysis"
EDIT_REJECTED = "edit_rejected"
INTERNAL_ERROR = "internal_error"
#: The addressed worker process died before answering (PR 10).  The
#: supervisor respawns the shard and replays its journal, so the request
#: is *safely retryable*: reads are side-effect free and the journal only
#: records mutations the dead worker acknowledged — an unacknowledged
#: load/edit was never applied to the state a respawn rebuilds.
WORKER_UNAVAILABLE = "worker_unavailable"
#: The request's ``timeout_ms`` budget expired (PR 10): either the worker
#: abandoned its fixed point cooperatively (solver budget hook) or the
#: front end's wall-clock backstop fired while the worker was wedged.  Not
#: blindly retryable — for a mutating op the effect may still apply.
DEADLINE_EXCEEDED = "deadline_exceeded"
#: The addressed shard is at its in-flight bound and shed the request
#: instead of queueing it (PR 10).  Nothing was executed; safely retryable
#: with backoff for every op.
OVERLOADED = "overloaded"

#: The closed set of error codes clients may match on.  Codes are part of
#: the protocol contract: adding one is fine, renaming or removing one is a
#: wire-incompatible change (bump :data:`PROTOCOL_VERSION`).
ERROR_CODES = frozenset({
    PROTOCOL_MISMATCH,
    BAD_REQUEST,
    UNKNOWN_OP,
    UNKNOWN_MODULE,
    UNKNOWN_FUNCTION,
    UNKNOWN_VALUE,
    UNKNOWN_ANALYSIS,
    EDIT_REJECTED,
    INTERNAL_ERROR,
    WORKER_UNAVAILABLE,
    DEADLINE_EXCEEDED,
    OVERLOADED,
})

#: Codes a client may retry *blindly* (same payload, any op): the request
#: provably did not execute (``overloaded`` sheds before dispatch) or did
#: not commit (``worker_unavailable`` — the per-shard journal records a
#: mutation only once its worker acknowledged it, so a failed-over request
#: left no trace in the state the respawned worker rebuilds).
#: ``deadline_exceeded`` is deliberately absent: a backstopped mutating op
#: may still have applied inside the wedged worker.
RETRYABLE_ERROR_CODES = frozenset({WORKER_UNAVAILABLE, OVERLOADED})


class ServiceError(ValueError):
    """A request the service cannot serve, carrying its stable error code."""

    def __init__(self, message: str, code: str = BAD_REQUEST):
        super().__init__(message)
        self.code = code if code in ERROR_CODES else BAD_REQUEST


# -- access-size schema --------------------------------------------------------

class _DefaultSize:
    """Singleton marker: access size defaults to the pointee size."""

    _instance: ClassVar[Optional["_DefaultSize"]] = None

    def __new__(cls) -> "_DefaultSize":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "DEFAULT_SIZE"

    def __reduce__(self):
        return (_DefaultSize, ())


#: Schema-level default: the access covers the pointee size.
DEFAULT_SIZE = _DefaultSize()

#: Wire spelling of an unknown (unbounded) access size.
UNKNOWN_SIZE = "unknown"

#: Wire spelling of the pointee-size default inside ``query_many`` pairs,
#: where positional encoding cannot express omission.
_DEFAULT_SIZE_WORD = "default"


def coerce_size(raw: Any) -> Any:
    """Normalise any accepted size spelling to ``DEFAULT_SIZE | None | int``.

    ``None`` is the normalised unknown (unbounded) extent.  Everything else
    is rejected with ``bad_request`` — this is the one place the size
    schema is defined, so all transports round-trip identically.
    """
    if raw is DEFAULT_SIZE or raw == _DEFAULT_SIZE_WORD:
        return DEFAULT_SIZE
    if raw is None or raw == UNKNOWN_SIZE:
        return None
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ServiceError(
            f"bad access size {raw!r}: expected a non-negative integer, "
            f"null/{UNKNOWN_SIZE!r}, or omission/{_DEFAULT_SIZE_WORD!r}")
    if raw < 0:
        raise ServiceError(f"bad access size {raw}: must be non-negative")
    return raw


def encode_size(size: Any) -> Any:
    """The canonical wire spelling of a normalised size."""
    if size is DEFAULT_SIZE:
        return _DEFAULT_SIZE_WORD
    return size  # None (unknown) or int


def _parse_size_field(payload: Dict[str, Any], key: str) -> Any:
    return coerce_size(payload[key]) if key in payload else DEFAULT_SIZE


# -- field kinds ---------------------------------------------------------------

def _string(payload: Dict[str, Any], key: str) -> str:
    if key not in payload:
        raise ServiceError(f"missing required field {key!r}")
    value = payload[key]
    if not isinstance(value, str):
        raise ServiceError(
            f"field {key!r} must be a string, got {type(value).__name__}")
    return value


def _optional_string(payload: Dict[str, Any], key: str) -> Optional[str]:
    value = payload.get(key)
    if value is not None and not isinstance(value, str):
        raise ServiceError(
            f"field {key!r} must be a string or null, got {type(value).__name__}")
    return value


def _optional_int(payload: Dict[str, Any], key: str) -> Optional[int]:
    value = payload.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServiceError(
            f"field {key!r} must be an integer or null, got {type(value).__name__}")
    return value


def _parse_pairs(payload: Dict[str, Any],
                 key: str) -> List[Tuple[str, str, Any, Any]]:
    raw = payload.get(key)
    if not isinstance(raw, list):
        raise ServiceError(f"field {key!r} must be a list of [a, b] or "
                           "[a, b, size_a, size_b] entries")
    pairs: List[Tuple[str, str, Any, Any]] = []
    for entry in raw:
        if not isinstance(entry, (list, tuple)) or len(entry) not in (2, 4):
            raise ServiceError("each pair must be [a, b] or [a, b, sa, sb]")
        a, b = entry[0], entry[1]
        if not isinstance(a, str) or not isinstance(b, str):
            raise ServiceError("pair value names must be strings")
        if len(entry) == 2:
            pairs.append((a, b, DEFAULT_SIZE, DEFAULT_SIZE))
        else:
            pairs.append((a, b, coerce_size(entry[2]), coerce_size(entry[3])))
    return pairs


def encode_pair(a: str, b: str, size_a: Any, size_b: Any) -> List[Any]:
    """The canonical wire form of one normalised query pair."""
    if size_a is DEFAULT_SIZE and size_b is DEFAULT_SIZE:
        return [a, b]
    return [a, b, encode_size(size_a), encode_size(size_b)]


def _encode_pairs(pairs: Sequence[Sequence[Any]]) -> List[List[Any]]:
    # Anything but a four-element pair goes out as given: the service owns
    # rejecting it with bad_request.
    return [encode_pair(*pair) if len(pair) == 4 else list(pair)
            for pair in pairs]


def _same(value: Any) -> Any:
    return value


#: Marks a field that has no default and is always on the wire.
_REQUIRED = object()


class _Kind(NamedTuple):
    """How one field kind is parsed from, and written to, the wire."""

    parse: Callable[[Dict[str, Any], str], Any]
    encode: Callable[[Any], Any]
    #: The default, which the canonical wire form leaves out.
    default: Any = _REQUIRED

    @property
    def required(self) -> bool:
        return self.default is _REQUIRED


#: The field kinds an :class:`Op` may declare (``name:kind``; bare ``name``
#: is a required string).
_KINDS = {
    "str": _Kind(_string, _same),
    "str?": _Kind(_optional_string, _same, None),
    "int?": _Kind(_optional_int, _same, None),
    "size": _Kind(_parse_size_field, encode_size, DEFAULT_SIZE),
    "pairs": _Kind(_parse_pairs, _encode_pairs),
}


# -- the op table --------------------------------------------------------------

class _Response:
    """Base of the typed responses: built from a (successful) envelope."""

    @classmethod
    def from_envelope(cls, envelope: Dict[str, Any]):
        check_response(envelope)
        try:
            return cls(**{spec.name: envelope[spec.name]
                          for spec in dataclass_fields(cls)})
        except KeyError as missing:
            raise ServiceError(
                f"response is missing field {missing} for {cls.__name__}")


#: Typed response classes by name, as the op table declares them.
_RESPONSES: Dict[str, type] = {}


def _response_type(declared: Any) -> Optional[type]:
    """Resolve an op's ``response``: ``("Name", "field …")`` declares a
    frozen dataclass, a bare ``"Name"`` reuses one declared before."""
    if declared is None:
        return None
    if isinstance(declared, str):
        return _RESPONSES[declared]
    name, names = declared
    cls = make_dataclass(name, names.split(), bases=(_Response,), frozen=True)
    cls.__module__ = __name__
    _RESPONSES[name] = cls
    return cls


@dataclass
class Op:
    """One service op, declared once; parsing, encoding, dispatch, the
    client method and its typed response are all derived from it."""

    name: str
    #: Ordered request fields, space separated: ``name`` (a required
    #: string) or ``name:kind`` with a kind from :data:`_KINDS`.
    fields: str = ""
    #: The field naming the module the op addresses (``None`` for
    #: module-less ops): the socket front end shards on it.
    route: Optional[str] = None
    #: Whether the op changes session state.  Mutating requests are
    #: journaled by the supervisor (for crash replay) and are *not* retried
    #: transparently on worker death — the client gets ``worker_unavailable``
    #: and may safely retry, because an unacknowledged mutation was never
    #: journaled.  They also skip the cooperative solver budget: aborting an
    #: in-place incremental refresh would corrupt retained fixed points.
    mutating: bool = False
    #: The session method serving the op, called with the fields as keyword
    #: arguments (default: the op name).
    method: Optional[str] = None
    #: The fixed result of an op answered without a session.
    constant: Optional[Dict[str, Any]] = None
    #: Key the session method's result is wrapped under.
    wrap: Optional[str] = None
    #: The :class:`~repro.service.client.ServiceClient` method (default:
    #: the op name).
    client: Optional[str] = None
    #: What the client method returns: a typed response declared as
    #: ``("Name", "field …")`` (or a bare ``"Name"`` declared earlier) ...
    response: Any = None
    #: ... else this key of the envelope, else the checked envelope itself.
    unwrap: Optional[str] = None
    #: One line for the op listing and the client method's docstring.
    doc: str = ""

    def __post_init__(self) -> None:
        self.kinds: Tuple[Tuple[str, _Kind], ...] = tuple(
            (name, _KINDS[kind or "str"])
            for name, _, kind in (spec.partition(":")
                                  for spec in self.fields.split()))
        # parse() runs on every request: keep its loop to bare lookups.
        self._parsers = tuple((name, kind.parse) for name, kind in self.kinds)
        if self.method is None and self.constant is None:
            self.method = self.name
        self.client = self.client or self.name
        self.response = _response_type(self.response)

    def parse(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """The op's field values from a request payload."""
        return {name: parse(payload, name) for name, parse in self._parsers}

    def encode(self, values: Dict[str, Any]) -> Dict[str, Any]:
        """The wire form of field values; a field at its default is left out."""
        return {name: kind.encode(values[name]) for name, kind in self.kinds
                if values[name] is not kind.default}

    def apply(self, session: Any, values: Dict[str, Any]) -> Dict[str, Any]:
        """Serve the op: its constant, or the session method's result."""
        if self.constant is not None:
            return dict(self.constant)
        result = getattr(session, self.method)(**values)
        return {self.wrap: result} if self.wrap else result

    def result_of(self, envelope: Any) -> Any:
        """What the client method returns for a response envelope."""
        if self.response is not None:
            return self.response.from_envelope(envelope)
        checked = check_response(envelope)
        return checked[self.unwrap] if self.unwrap else checked


#: op name -> :class:`Op`: the single declaration of every service op.
REQUESTS: Dict[str, Op] = {op.name: op for op in (
    Op("ping", constant={"pong": True}, unwrap="pong",
       doc="liveness check"),
    Op("load", "name source", route="name", mutating=True,
       method="load_source",
       response=("LoadResponse", "module functions instructions"),
       doc="compile a source and hold it resident"),
    Op("load_program", "name", route="name", mutating=True,
       response="LoadResponse",
       doc="generate and compile a named suite program"),
    Op("edit", "name source", route="name", mutating=True,
       method="edit_source",
       doc="incremental function-granular edit; the envelope reports "
           "changed, reloaded and impacts"),
    Op("query", "module analysis function a b size_a:size size_b:size",
       route="module",
       response=("QueryResponse", "module analysis function a b result"),
       doc="one alias query between two SSA values"),
    Op("query_many", "module analysis function pairs:pairs", route="module",
       response=("QueryManyResponse", "module analysis function results"),
       doc="alias queries over [a, b] or [a, b, size_a, size_b] pairs"),
    Op("query_function", "module analysis function:str? max_pairs:int?",
       route="module",
       response=("QueryFunctionResponse", "module analysis function "
                 "queries no_alias no_alias_indices"),
       doc="alias sweep over the enumerated pointer pairs"),
    Op("values", "module function", route="module",
       response=("ValuesResponse", "module function values"),
       doc="the queryable SSA value names of one function"),
    Op("range", "module function value", route="module", method="range_of",
       client="range_of",
       response=("RangeResponse", "module function value range"),
       doc="the symbolic interval of one integer SSA value"),
    Op("check_bounds", "module function:str?", route="module",
       response=("CheckBoundsResponse", "module function functions summary"),
       doc="per-access verdicts: safe / maybe-oob / definitely-oob"),
    Op("parallel_loops", "module function:str?", route="module",
       response=("ParallelLoopsResponse",
                 "module function functions summary"),
       doc="per-loop parallelizability with the first blocking reason"),
    Op("stats", "module", route="module",
       doc="solver steps, cache and Figure-14 counters"),
    Op("modules", wrap="modules", unwrap="modules",
       doc="list resident modules"),
    Op("unload", "name", route="name", mutating=True,
       doc="drop a resident module"),
    Op("shutdown", constant={"shutdown": True},
       doc="acknowledge and exit"),
)}

LoadResponse = _RESPONSES["LoadResponse"]
QueryResponse = _RESPONSES["QueryResponse"]
QueryManyResponse = _RESPONSES["QueryManyResponse"]
QueryFunctionResponse = _RESPONSES["QueryFunctionResponse"]
ValuesResponse = _RESPONSES["ValuesResponse"]
RangeResponse = _RESPONSES["RangeResponse"]
CheckBoundsResponse = _RESPONSES["CheckBoundsResponse"]
ParallelLoopsResponse = _RESPONSES["ParallelLoopsResponse"]


def op_listing() -> str:
    """The op table as text: the daemon's ``--help`` epilog."""
    lines = ['ops (one JSON object per line: {"op": ..., "v": '
             f'{PROTOCOL_VERSION}, "id": ..., fields}}):']
    for op in REQUESTS.values():
        lines.append(f"  {op.name:<15} {op.doc}")
        if op.kinds:  # optional fields bracketed
            fields = " ".join(name if kind.required else f"[{name}]"
                              for name, kind in op.kinds)
            lines.append(f"  {'':<15} fields: {fields}")
    return "\n".join(lines)


# -- requests, parsing and dispatch --------------------------------------------

def _parse_timeout_ms(payload: Dict[str, Any]) -> Optional[int]:
    value = payload.get("timeout_ms")
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ServiceError(
            f"field 'timeout_ms' must be a non-negative integer or null, "
            f"got {value!r}")
    return value


@dataclass
class Request:
    """One parsed request; ``id`` echoes back on the response."""

    op: str
    #: The op's field values, parsed and normalised.
    fields: Dict[str, Any]
    id: Any = None
    #: Additive deadline (milliseconds).  ``None`` means no deadline and
    #: leaves the wire shape as it was without one: no protocol version bump.
    timeout_ms: Optional[int] = None

    @property
    def spec(self) -> Op:
        return REQUESTS[self.op]

    @property
    def mutating(self) -> bool:
        return self.spec.mutating

    def routing_module(self) -> Optional[str]:
        """The module this request targets (sharding key), if any."""
        route = self.spec.route
        return self.fields[route] if route else None

    def to_payload(self) -> Dict[str, Any]:
        """The canonical wire form (round-trips through :func:`parse_request`)."""
        payload: Dict[str, Any] = {"op": self.op, "v": PROTOCOL_VERSION}
        payload.update(self.spec.encode(self.fields))
        if self.id is not None:
            payload["id"] = self.id
        if self.timeout_ms is not None:
            payload["timeout_ms"] = self.timeout_ms
        return payload

    def apply(self, session: Any) -> Dict[str, Any]:
        return self.spec.apply(session, self.fields)


def parse_request(payload: Any) -> Request:
    """Decode one request payload through the op table.

    Raises :class:`ServiceError` with ``bad_request`` (not an object /
    malformed fields), ``protocol_mismatch`` (missing or wrong ``v``) or
    ``unknown_op``.
    """
    if not isinstance(payload, dict):
        raise ServiceError("request must be a JSON object")
    if "v" not in payload:
        raise ServiceError(
            f"request is missing the protocol version field 'v' "
            f"(this service speaks v{PROTOCOL_VERSION})", PROTOCOL_MISMATCH)
    version = payload["v"]
    if version != PROTOCOL_VERSION:
        raise ServiceError(
            f"protocol version {version!r} is not supported "
            f"(this service speaks v{PROTOCOL_VERSION})", PROTOCOL_MISMATCH)
    name = payload.get("op")
    if not isinstance(name, str):
        raise ServiceError("request needs a string 'op' field")
    op = REQUESTS.get(name)
    if op is None:
        raise ServiceError(
            f"unknown op {name!r} (known: {', '.join(sorted(REQUESTS))})",
            UNKNOWN_OP)
    timeout_ms = _parse_timeout_ms(payload)
    return Request(name, op.parse(payload), payload.get("id"), timeout_ms)


def request_id_of(payload: Any) -> Any:
    """The correlation id of a raw payload (``None`` if absent/unreadable)."""
    return payload.get("id") if isinstance(payload, dict) else None


def success_envelope(request_id: Any, result: Dict[str, Any]) -> Dict[str, Any]:
    envelope: Dict[str, Any] = {"ok": True, "v": PROTOCOL_VERSION}
    if request_id is not None:
        envelope["id"] = request_id
    envelope.update(result)
    return envelope


def error_envelope(code: str, message: str,
                   request_id: Any = None) -> Dict[str, Any]:
    """The structured failure envelope."""
    if code not in ERROR_CODES:
        code = INTERNAL_ERROR
    envelope: Dict[str, Any] = {
        "ok": False,
        "v": PROTOCOL_VERSION,
        "error_code": code,
        "message": message,
    }
    if request_id is not None:
        envelope["id"] = request_id
    return envelope


def failure_envelope(error: Exception, request_id: Any = None) -> Dict[str, Any]:
    """The envelope of a request that raised ``error``.

    A :class:`ServiceError` keeps its code; other malformed-input errors
    (``KeyError``/``TypeError``/``ValueError``) are ``bad_request``;
    anything else is a bug, answered with ``internal_error``.
    """
    if isinstance(error, ServiceError):
        return error_envelope(error.code, str(error), request_id)
    code = BAD_REQUEST if isinstance(error, (KeyError, TypeError, ValueError)) \
        else INTERNAL_ERROR
    return error_envelope(code, f"{type(error).__name__}: {error}", request_id)


def _apply_with_deadline(request: Request, session: Any) -> Dict[str, Any]:
    """Dispatch one request, honouring its ``timeout_ms`` cooperatively.

    Read-only requests run under a solver budget: every fixpoint the engine
    runs on their behalf checks the wall-clock deadline before each
    transfer application and abandons the solve the moment it expires (the
    partially built analysis is discarded, never cached — a later request
    rebuilds it cleanly).  Mutating requests deliberately ignore the budget:
    aborting an in-place incremental refresh mid-flight would corrupt the
    retained fixed points, so their only guard is the front end's
    wall-clock backstop.
    """
    if request.timeout_ms is None or request.mutating:
        return success_envelope(request.id, request.apply(session))
    from ..engine.solver import SolverInterrupted, solver_budget

    deadline = time.monotonic() + request.timeout_ms / 1000.0
    if time.monotonic() >= deadline:  # timeout_ms == 0: already expired
        raise ServiceError(
            f"deadline of {request.timeout_ms} ms expired before evaluation",
            DEADLINE_EXCEEDED)
    try:
        with solver_budget(lambda: time.monotonic() < deadline):
            return success_envelope(request.id, request.apply(session))
    except SolverInterrupted as interrupted:
        raise ServiceError(
            f"deadline of {request.timeout_ms} ms exceeded: {interrupted}",
            DEADLINE_EXCEEDED) from interrupted


def handle_payload(session: Any, payload: Any) -> Dict[str, Any]:
    """Parse, dispatch and envelope one request.  Never raises.

    This is the single entry point all three transports route through;
    a malformed request yields the same ``error_code`` envelope (with the
    request id echoed) no matter which transport carried it.
    """
    try:
        return _apply_with_deadline(parse_request(payload), session)
    except Exception as error:  # a request bug must not kill the transport
        return failure_envelope(error, request_id_of(payload))


# -- line framing --------------------------------------------------------------

def encode_line(payload: Dict[str, Any]) -> str:
    """One line-delimited JSON wire frame."""
    return json.dumps(payload, sort_keys=True) + "\n"


def decode_line(line: Union[str, bytes]) -> Any:
    """The payload of one wire frame; invalid JSON is a ``bad_request``."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        return json.loads(line.strip())
    except ValueError as error:
        raise ServiceError(f"invalid JSON: {error}") from None


async def serve_lines(readline: Callable[[], Awaitable[Any]],
                      write: Callable[[str], Awaitable[None]],
                      answer: Callable[[Any], Awaitable[Dict[str, Any]]]
                      ) -> bool:
    """The request loop of every line transport (stdio daemon, socket).

    Reads frames until EOF, skipping blank lines; answers each payload,
    or an undecodable line with a ``bad_request`` envelope; writes one
    response frame per request, in order.  Returns ``True`` when a
    ``shutdown`` request ended the stream, ``False`` on EOF.
    """
    while True:
        line = await readline()
        if not line:
            return False
        if not line.strip():
            continue
        try:
            payload = decode_line(line)
        except ServiceError as error:
            response = failure_envelope(error)
        else:
            response = await answer(payload)
        await write(encode_line(response))
        if response.get("shutdown"):
            return True


# -- client-side helpers -------------------------------------------------------

def make_request(op: str, *, id: Any = None, **fields: Any) -> Dict[str, Any]:
    """A versioned request payload (clients should always stamp ``v``)."""
    payload: Dict[str, Any] = {"op": op, "v": PROTOCOL_VERSION}
    payload.update(fields)
    if id is not None:
        payload["id"] = id
    return payload


def check_response(envelope: Any) -> Dict[str, Any]:
    """Return a successful envelope; raise :class:`ServiceError` otherwise."""
    if not isinstance(envelope, dict):
        raise ServiceError("response must be a JSON object")
    if envelope.get("ok"):
        return envelope
    raise ServiceError(str(envelope.get("message") or "request failed"),
                       envelope.get("error_code") or BAD_REQUEST)
