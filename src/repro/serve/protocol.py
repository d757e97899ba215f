"""Wire protocol for the synthesis service: JSON in, JSON(L) out.

One module owns everything about the shapes that cross the network so
the server, the client, the tests and the docs cannot drift apart:

* **request payloads** -- how a JSON body becomes an
  :class:`~repro.kb.specs.OpAmpSpec`, a list of
  :class:`~repro.batch.grid.BatchTask`, or a lint target.  Spec values
  accept SPICE suffix strings (``"10p"``) exactly like the CLI;
* **error envelopes** -- every refusal the service produces is the same
  structured JSON object (``ok=false`` plus an ``error`` block with a
  stable machine-readable ``code``, the
  :class:`~repro.resilience.FailureKind`-style taxonomy bucket, and a
  ``retry_after_ms`` hint when the condition is expected to clear);
* **the minimal HTTP/1.1 layer** -- request parsing and response
  rendering over ``asyncio`` streams.  Deliberately tiny: one request
  per connection, ``Content-Length`` bodies in, either a single JSON
  document or a ``Connection: close``-framed ``application/x-ndjson``
  stream out.  No new runtime dependencies.

Hard input limits (header block and body size) are part of the
protocol: an unauthenticated byte stream is the service's widest attack
surface, so malformed or oversized input is refused with a structured
error before any synthesis code runs.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from ..errors import ReproError, ServeError, SpecificationError
from ..kb.specs import OpAmpSpec
from ..units import parse_quantity

__all__ = [
    "MAX_BODY_BYTES",
    "MAX_HEADER_BYTES",
    "HttpRequest",
    "error_body",
    "failure_code",
    "parse_spec_payload",
    "read_request",
    "render_response",
    "sanitize_json",
]

#: Largest accepted request body.  A full batch grid fits in a few KB;
#: anything near this bound is hostile or a bug.
MAX_BODY_BYTES = 1 << 20
#: Largest accepted request line + header block.
MAX_HEADER_BYTES = 16 << 10
#: Seconds a client may dawdle sending its request before we hang up.
READ_TIMEOUT_S = 10.0

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: error code -> HTTP status for :func:`status_for_code`.
_CODE_STATUS = {
    "bad_request": 400,
    "not_found": 404,
    "timeout": 408,
    "payload_too_large": 413,
    "queue_overflow": 429,
    "deadline_unmeetable": 429,
    "deadline_expired": 429,
    "draining": 503,
    "cancelled": 503,
    "worker_stall": 503,
    "worker_error": 500,
    "internal": 500,
}

#: error code -> FailureKind-style taxonomy bucket (``capacity`` is the
#: service-level addition: the request was fine, the service was full).
_CODE_KIND = {
    "bad_request": "plan",
    "not_found": "plan",
    "timeout": "capacity",
    "payload_too_large": "plan",
    "queue_overflow": "capacity",
    "deadline_unmeetable": "budget",
    "deadline_expired": "budget",
    "draining": "capacity",
    "cancelled": "capacity",
    "worker_stall": "internal",
    "worker_error": "internal",
    "internal": "internal",
}


def status_for_code(code: str) -> int:
    """HTTP status for a protocol error code (500 for unknown codes)."""
    return _CODE_STATUS.get(code, 500)


def failure_code(exc: BaseException) -> str:
    """The protocol error code for an exception the service contained."""
    if isinstance(exc, ServeError):
        return exc.code
    if isinstance(exc, ReproError):
        return "bad_request"
    return "internal"


def error_body(
    code: str,
    message: str,
    request_id: str = "",
    trace_id: str = "",
    retry_after_ms: Optional[float] = None,
    **extra: Any,
) -> Dict[str, Any]:
    """The one true structured-error envelope.

    Every refusal -- admission, drain, worker death, malformed input --
    is this shape, so a client needs exactly one error handler.
    ``trace_id`` (when the server has an active trace context) lands at
    the top level next to ``request_id``, so a refused request is as
    correlatable as a served one.
    """
    error: Dict[str, Any] = {
        "code": code,
        "kind": _CODE_KIND.get(code, "internal"),
        "message": message,
    }
    if retry_after_ms is not None:
        error["retry_after_ms"] = round(float(retry_after_ms), 3)
    for key in sorted(extra):
        if extra[key] is not None:
            error[key] = extra[key]
    body: Dict[str, Any] = {"ok": False, "error": error}
    if request_id:
        body["request_id"] = request_id
    if trace_id:
        body["trace_id"] = trace_id
    return body


def sanitize_json(obj: Any) -> Any:
    """NaN/inf -> None recursively: responses must be strict JSON."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: sanitize_json(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize_json(value) for value in obj]
    return obj


# ----------------------------------------------------------------------
# Request payloads
# ----------------------------------------------------------------------
#: JSON payload keys -> OpAmpSpec fields (CLI short forms included).
_SPEC_KEYS: Dict[str, str] = {
    "gain_db": "gain_db",
    "gain": "gain_db",
    "unity_gain_hz": "unity_gain_hz",
    "ugf": "unity_gain_hz",
    "phase_margin_deg": "phase_margin_deg",
    "pm": "phase_margin_deg",
    "slew_rate": "slew_rate",
    "slew": "slew_rate",
    "load_capacitance": "load_capacitance",
    "load": "load_capacitance",
    "output_swing": "output_swing",
    "swing": "output_swing",
    "offset_max_mv": "offset_max_mv",
    "power_max": "power_max",
    "area_max": "area_max",
    "input_common_mode": "input_common_mode",
    "input_noise_max_nv": "input_noise_max_nv",
}

_REQUIRED_SPEC_FIELDS = (
    "gain_db",
    "unity_gain_hz",
    "slew_rate",
    "load_capacitance",
    "output_swing",
)


def _bad(message: str) -> ServeError:
    return ServeError(message, code="bad_request")


def _quantity(name: str, value: Any) -> float:
    """A payload number: JSON numbers pass through, strings may carry
    SPICE suffixes (``"10p"``, ``"2MEG"``)."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise _bad(f"spec field {name!r} must be a number or quantity string")
    if isinstance(value, str):
        try:
            return parse_quantity(value)
        except ReproError as exc:
            raise _bad(f"spec field {name!r}: {exc}") from exc
    return float(value)


def parse_spec_payload(payload: Mapping[str, Any]) -> Tuple[str, OpAmpSpec]:
    """A request's specification: ``{"testcase": "A"}`` or spec fields.

    Returns ``(label, spec)``.  Unknown keys are refused loudly -- a
    silently ignored typo ("gian_db") would synthesize the wrong thing.
    """
    testcase = payload.get("testcase")
    if testcase is not None:
        from ..opamp.testcases import paper_test_cases

        cases = paper_test_cases()
        label = {"1": "A", "2": "B", "3": "C"}.get(str(testcase), str(testcase))
        if label not in cases:
            raise _bad(f"unknown testcase {testcase!r} (have {sorted(cases)})")
        return f"case-{label}", cases[label]
    spec_fields: Dict[str, float] = {}
    unknown = []
    for key, value in payload.items():
        canon = _SPEC_KEYS.get(str(key))
        if canon is None:
            unknown.append(str(key))
        else:
            spec_fields[canon] = _quantity(str(key), value)
    if unknown:
        raise _bad(
            f"unknown spec fields {sorted(unknown)}; known: "
            f"{sorted(set(_SPEC_KEYS))} (or a 'testcase')"
        )
    missing = [f for f in _REQUIRED_SPEC_FIELDS if f not in spec_fields]
    if missing:
        raise _bad(f"incomplete specification: missing {missing}")
    spec_fields.setdefault("phase_margin_deg", 60.0)
    try:
        return "spec", OpAmpSpec(**spec_fields)
    except SpecificationError as exc:
        raise _bad(f"invalid specification: {exc}") from exc


# ----------------------------------------------------------------------
# Minimal HTTP/1.1 over asyncio streams
# ----------------------------------------------------------------------
@dataclass
class HttpRequest:
    """One parsed request: method, path, query, headers, JSON body."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> Dict[str, Any]:
        """The body as a JSON object (empty body -> ``{}``)."""
        if not self.body:
            return {}
        try:
            parsed = json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise _bad(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(parsed, dict):
            raise _bad("request body must be a JSON object")
        return parsed


def _parse_query(raw: str) -> Dict[str, str]:
    query: Dict[str, str] = {}
    for chunk in raw.split("&"):
        if not chunk:
            continue
        key, _, value = chunk.partition("=")
        query[key] = value
    return query


async def read_request(reader: asyncio.StreamReader) -> Optional[HttpRequest]:
    """Parse one HTTP request off the stream.

    Returns None on a clean EOF before any bytes (client connected and
    left).  Raises :class:`~repro.errors.ServeError` for anything
    malformed, oversized, or too slow -- the caller renders that as a
    structured 4xx and closes.
    """
    try:
        head = await asyncio.wait_for(
            reader.readuntil(b"\r\n\r\n"), timeout=READ_TIMEOUT_S
        )
    except asyncio.TimeoutError as exc:
        raise ServeError("timed out reading request head", code="timeout") from exc
    except asyncio.LimitOverrunError as exc:
        raise ServeError("request head too large", code="payload_too_large") from exc
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise _bad("truncated request head") from exc
    if len(head) > MAX_HEADER_BYTES:
        raise ServeError("request head too large", code="payload_too_large")
    try:
        text = head.decode("latin-1")
    except UnicodeDecodeError as exc:  # pragma: no cover - latin-1 total
        raise _bad("undecodable request head") from exc
    lines = text.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise _bad(f"malformed request line: {lines[0]!r}")
    method, target = parts[0].upper(), parts[1]
    path, _, raw_query = target.partition("?")
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise _bad(f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    body = b""
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError as exc:
        raise _bad(f"bad Content-Length: {length_text!r}") from exc
    if length < 0:
        raise _bad(f"bad Content-Length: {length_text!r}")
    if length > MAX_BODY_BYTES:
        raise ServeError(
            f"request body of {length} bytes exceeds the {MAX_BODY_BYTES} "
            "byte limit",
            code="payload_too_large",
        )
    if length:
        try:
            body = await asyncio.wait_for(
                reader.readexactly(length), timeout=READ_TIMEOUT_S
            )
        except asyncio.TimeoutError as exc:
            raise ServeError(
                "timed out reading request body", code="timeout"
            ) from exc
        except asyncio.IncompleteReadError as exc:
            raise _bad("truncated request body") from exc
    return HttpRequest(
        method=method,
        path=path,
        query=_parse_query(raw_query),
        headers=headers,
        body=body,
    )


def render_response(
    status: int,
    body: Any,
    content_type: str = "application/json",
    extra_headers: Optional[Mapping[str, str]] = None,
) -> bytes:
    """One complete non-streaming HTTP response as bytes."""
    if isinstance(body, bytes):
        payload = body
    elif isinstance(body, str):
        payload = body.encode("utf-8")
    else:
        payload = (
            json.dumps(sanitize_json(body), sort_keys=True) + "\n"
        ).encode("utf-8")
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(payload)}",
        "Connection: close",
    ]
    for name in sorted(extra_headers or {}):
        lines.append(f"{name}: {(extra_headers or {})[name]}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + payload


def render_stream_head(status: int = 200) -> bytes:
    """Response head for a ``Connection: close``-framed JSONL stream."""
    reason = _REASONS.get(status, "Unknown")
    return (
        f"HTTP/1.1 {status} {reason}\r\n"
        "Content-Type: application/x-ndjson\r\n"
        "Connection: close\r\n\r\n"
    ).encode("latin-1")


def jsonl_line(record: Mapping[str, Any]) -> bytes:
    """One JSONL stream line (strict JSON, sorted keys)."""
    return (
        json.dumps(sanitize_json(dict(record)), sort_keys=True) + "\n"
    ).encode("utf-8")


def serve_error_body(
    exc: ServeError, request_id: str = "", trace_id: str = ""
) -> Dict[str, Any]:
    """Envelope for a contained :class:`~repro.errors.ServeError`,
    harvesting the typed context subclasses carry."""
    extra: Dict[str, Any] = {}
    for attr in ("depth", "max_depth", "deadline_ms", "estimated_ms"):
        value = getattr(exc, attr, None)
        if value is not None:
            extra[attr] = value
    return error_body(
        exc.code,
        str(exc),
        request_id=request_id,
        trace_id=trace_id,
        retry_after_ms=exc.retry_after_ms,
        **extra,
    )


def asdict_shallow(obj: Any) -> Dict[str, Any]:
    """A dataclass as a plain dict without deep-copying (for configs)."""
    return {
        f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)
    }
