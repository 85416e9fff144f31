"""Chat-completions client with caching, retries, and deterministic mocks.

Every backend answers a batch of prompts in one call, `answer(prompts) ->
list[str]`, in prompt order. The mocks answer inline, one prompt after
another. `HttpBackend` answers in the calling thread alone: a cache hit at
once, and up to `max_in_flight` misses at a time through a `selectors` loop,
the one driver of a miss's attempts (every retry and backoff), which reads
each reply once its socket turns readable.

`HttpBackend` POSTs {base_url}/v1/chat/completions with a single user message
and the bearer token from OPENAI_API_KEY (looked up once per backend), the
only credential sent (`.netrc` is never read), over at most `max_in_flight`
keep-alive connections for its whole life. `http.client` connects them: the
address, the proxy and CA-bundle environment (read when a connection is
built), TLS and the CONNECT tunnel. The exchange on a connection is this
module's own: each request leaves in one write, from a head encoded once per
connection, and each reply is read from one buffered reader kept for the
socket's life, within `http.client`'s line and header limits and raising its
exception types. Only `HttpBackend` opens the cache, an append-only JSONL file
keyed by sha256(model_name NUL temperature NUL prompt), hashed once per prompt
and read before the network, so a rerun after an abort costs no requests and a
mock run never touches it. `http.client` and `selectors` are imported only
when a prompt misses the cache. The cache file is parsed in one call when it
opens; a torn last line (a crash during an append) is dropped with a warning,
and a bad line anywhere else is an error. Transient failures (429, 5xx,
timeouts, resets, a malformed reply, a response body cut short) retry with
exponential backoff and equal jitter: delay = base * 2^attempt * (0.5 +
0.5*U), which stays inside the exponential envelope and never decreases.
After a 429 or 503 the wait is the larger of that delay and the reply's
Retry-After (seconds or an HTTP date; a negative or unparseable value is
ignored). A request that the server hangs up on before any response byte,
on a socket that has already carried a reply (a kept-alive connection it had
closed), is re-sent once per prompt on a fresh connection, without a wait or
a counted attempt. Auth failures never retry. The first failure stops the
backend: no prompt starts and no retry is sent after it, and the replies
already awaited are read and cached before it is raised.

The mocks: an oracle answering with the query's true label, a scripted
response queue, and a threshold rule on one feature of the final question.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import json
import os
import random
import re
import select
import sys
import threading
import time
import urllib.parse
import weakref
from collections.abc import Callable, Generator, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

from .config import LlmConfig
from .data import Dataset
from .errors import AuthError, CardiopromptError, ProtocolError, TransportError, ValidationError
from .prompts import Examples, PromptSpec, assemble_prompt, render_instance, sample_examples

_RETRYABLE_STATUS = frozenset({429, 500, 502, 503, 504})
_LABEL_RE = re.compile(r"(?<![0-9])([01])(?![0-9])")
_QUERY_LINE_RE = re.compile(r"^<Inputs>: (.+)$", re.MULTILINE)
_MAX_LINE = 65536  # http.client's limits: bytes in one line, header lines in one reply
_MAX_HEADERS = 100
_CONTROL_IN_TARGET = re.compile(r"[\x00-\x20\x7f]")
_LINE_BREAK_IN_VALUE = re.compile(r"[\r\n\x00]")
_LONGEST_SELECT = 86400.0  # seconds; epoll rejects a timeout of 2**31 ms or more


@dataclass(frozen=True)
class CompletionRecord:
    prompt_hash: str
    model_name: str
    raw_response: str
    timestamp: float
    attempt_count: int


def prompt_hash(prompt_text: str, model_name: str, temperature: float = 0.0) -> str:
    h = hashlib.sha256()
    h.update(model_name.encode("utf-8"))
    h.update(b"\x00")
    h.update(repr(float(temperature)).encode("ascii"))
    h.update(b"\x00")
    h.update(prompt_text.encode("utf-8"))
    return h.hexdigest()


class JsonlCache:
    """Append-only completion store, indexed whole on open; one handle, opened by the first put, flushes
    each record. It takes no lock: the program uses it from one thread."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._fh = None
        self._by_hash: dict[str, CompletionRecord] = {}
        if self.path.exists():
            self._load()

    def _load(self):
        # One parse for the file, each line in brackets of its own ([] when
        # blank) and each object built into a record as it is parsed. No line
        # carries an open string or object past "],\n[" (a string holds no raw
        # newline, an object no "]"); one that leaves a bracket open or closes
        # its own makes an item that is not [] or [record], or changes the
        # number of items.
        lines = self.path.read_text(encoding="utf-8", errors="surrogateescape").split("\n")
        n_lines, last = len(lines), lines[-1]
        lines[0] = "[[" + lines[0]
        lines[-1] += "]]"  # the same line as lines[0] in a one-line file
        text = "],\n[".join(lines)
        del lines  # before the parse: the file is held once, as text
        try:
            items = json.loads(text, object_hook=lambda doc: CompletionRecord(**doc))
            records = [rec for [rec] in filter(None, items)]
        except (ValueError, TypeError):
            items, records = [], []
        if len(items) != n_lines or not all(isinstance(rec, CompletionRecord) for rec in records):
            self._read_lines(self.path.read_text(encoding="utf-8", errors="surrogateescape").split("\n"))
            return
        self._by_hash = {rec.prompt_hash: rec for rec in records}  # later lines win
        if last.strip():  # a whole record missing only its newline
            with self.path.open("a") as fh:
                fh.write("\n")

    def _read_lines(self, lines: list[str]):
        """_load one line at a time, which finds the line that is not a record."""
        for number, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                rec = CompletionRecord(**json.loads(line))
            except (ValueError, TypeError) as exc:
                if number < len(lines):
                    raise CardiopromptError(f"{self.path}: line {number} is not a cache record ({exc})") from exc
                # an append cut short: cut the fragment off so the next put starts a fresh line
                with self.path.open("r+b") as fh:
                    fh.truncate(self.path.stat().st_size - len(line.encode("utf-8", "surrogateescape")))
                print(f"warning: {self.path}: dropped a torn last line (line {number})", file=sys.stderr)
                return
            self._by_hash[rec.prompt_hash] = rec  # later lines win
        if lines[-1].strip():  # a whole record missing only its newline
            with self.path.open("a") as fh:
                fh.write("\n")

    def __len__(self) -> int:
        return len(self._by_hash)

    def get(self, key: str) -> CompletionRecord | None:
        return self._by_hash.get(key)

    def put(self, rec: CompletionRecord):
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("a", encoding="utf-8")
            weakref.finalize(self, self._fh.close)  # a cache dropped unclosed closes its handle
        self._fh.write(json.dumps(vars(rec)) + "\n")  # the fields in declaration order, as asdict gives
        self._fh.flush()  # written through: a kill leaves at most a torn last line
        self._by_hash[rec.prompt_hash] = rec

    def close(self):
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class Connection:
    """A keep-alive HTTP/1.1 connection that POSTs to `url` with `headers`,
    opened on first use and again once the server has closed it, each socket
    with `timeout`. An `http.client` connection object connects it: the
    address, `*_PROXY` and `NO_PROXY`, the CA bundle (`REQUESTS_CA_BUNDLE`,
    `CURL_CA_BUNDLE`), TLS and the CONNECT tunnel, all read once, here. HTTP
    goes through a proxy as absolute-URI requests, HTTPS through a CONNECT
    tunnel; credentials in the proxy URL become `Proxy-Authorization`. The
    exchange is its own: the request head is encoded once, here, each request
    leaves in one write, and each reply is read from one buffered reader kept
    for the socket's life. `replied` tells whether the current socket has
    carried a whole reply."""

    def __init__(self, url: str, headers: Mapping[str, str], timeout: float):
        import http.client
        import urllib.request

        self.url = url
        parts = urllib.parse.urlsplit(url)
        https = parts.scheme == "https"
        host, port = parts.hostname, parts.port or (443 if https else 80)
        proxies = urllib.request.getproxies_environment()
        bypass = urllib.request.proxy_bypass_environment(f"{host}:{port}", proxies)  # NO_PROXY: hosts, suffixes
        proxy = None if bypass else proxies.get(parts.scheme) or proxies.get("all")
        address, proxy_headers = (host, port), {}
        if proxy:
            via = urllib.parse.urlsplit(proxy if "://" in proxy else "http://" + proxy)
            address = via.hostname, via.port or 80
            if via.username is not None:
                user = f"{urllib.parse.unquote(via.username)}:{urllib.parse.unquote(via.password or '')}"
                proxy_headers["Proxy-Authorization"] = "Basic " + base64.b64encode(user.encode()).decode()
        # the request line and the headers `http.client` would send, up to the value of the closing Content-Length
        absolute_form = bool(proxy) and not https
        target = url if absolute_form else parts._replace(scheme="", netloc="").geturl()
        authority = host.encode("idna").decode("ascii")
        authority = f"[{authority}]" if ":" in authority else authority
        if port != (443 if https else 80):
            authority = f"{authority}:{port}"
        fields = {"Host": authority, "Accept-Encoding": "identity", **headers}
        fields.update(proxy_headers if absolute_form else {})  # else sent once, with CONNECT
        if _CONTROL_IN_TARGET.search(target) or any(map(_LINE_BREAK_IN_VALUE.search, fields.values())):
            raise ValidationError("the endpoint URL or a request header holds a control character")
        lines = [f"POST {target} HTTP/1.1", *(f"{name}: {value}" for name, value in fields.items())]
        self._head = "\r\n".join([*lines, "Content-Length: "]).encode("latin-1")
        if https:
            import ssl

            ca = os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
            context = ssl.create_default_context(**{"capath" if ca and os.path.isdir(ca) else "cafile": ca})
            self._conn = http.client.HTTPSConnection(*address, timeout=timeout, context=context)
            if proxy:
                self._conn.set_tunnel(host, port, headers=proxy_headers)
        else:
            self._conn = http.client.HTTPConnection(*address, timeout=timeout)
        self._reader = self._probe = None  # the socket's buffered reader and its poll, made when it connects
        self.replied = False
        weakref.finalize(self, self._conn.close)  # a connection dropped unclosed closes its socket

    def send(self, body: bytes):
        """POST `body` in one write; the socket it went out on. An idle
        socket turned readable was closed by the server: it is replaced."""
        conn = self._conn
        if conn.sock is not None and self._probe.poll(0):
            self.close()
        if conn.sock is None:
            conn.connect()
            self._reader = conn.sock.makefile("rb")
            self._probe = select.poll()  # poll, not select: it takes a descriptor of 1024 or more
            self._probe.register(conn.sock, select.POLLIN)
        conn.sock.sendall(b"%s%d\r\n\r\n%s" % (self._head, len(body), body))
        return conn.sock

    def receive(self) -> tuple[int, dict[str, str], bytes]:
        """The reply to the request `send` wrote: its status, its headers
        (lower-case names) and its body. Failures raise `http.client`'s
        exceptions, `RemoteDisconnected` when no status line came."""
        status, fields, payload, will_close = _read_reply(self._reader)
        self.replied = True
        if will_close:
            self.close()
        return status, fields, payload

    def close(self):
        if self._reader is not None:
            self._reader.close()  # the socket's descriptor closes with its last user
            self._reader = self._probe = None
        self._conn.close()
        self.replied = False


def _read_reply(reader) -> tuple[int, dict[str, str], bytes, bool]:
    """One reply to a POST: its status, headers (lower-case names, the first
    of each kept), body, and whether the connection must close after it.
    Interim 1xx replies are skipped; a 204 or 304 has no body; otherwise the
    body is read by chunked encoding, by `Content-Length`, or until the
    server closes."""
    from http.client import BadStatusLine, IncompleteRead, LineTooLong, RemoteDisconnected

    status = 100
    while status < 200:
        line = reader.readline(_MAX_LINE + 1)
        if not line:
            raise RemoteDisconnected("Remote end closed connection without response")
        if len(line) > _MAX_LINE:
            raise LineTooLong("status line")
        version, code = (line.split(None, 2) + [b"", b""])[:2]
        if version not in (b"HTTP/1.0", b"HTTP/1.1") or len(code) != 3 or not code.isdigit():
            raise BadStatusLine(str(line, "iso-8859-1"))
        status, fields = int(code), _read_fields(reader)
    will_close = version == b"HTTP/1.0" or "close" in fields.get("connection", "").lower()
    if status in (204, 304):
        return status, fields, b"", will_close
    if fields.get("transfer-encoding", "").lower() == "chunked":
        return status, fields, _read_chunked(reader), will_close
    try:
        length = int(fields["content-length"])
    except (KeyError, ValueError):
        length = -1
    if length < 0:  # no usable length: the body ends when the server closes
        return status, fields, reader.read(), True
    payload = reader.read(length)
    if len(payload) < length:
        raise IncompleteRead(payload, length - len(payload))
    return status, fields, payload, will_close


def _read_fields(reader) -> dict[str, str]:
    """Header (or trailer) lines up to the blank line that ends them."""
    from http.client import HTTPException, LineTooLong

    fields: dict[str, str] = {}
    for _ in range(_MAX_HEADERS + 1):
        line = reader.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise LineTooLong("header line")
        if line in (b"\r\n", b"\n", b""):
            return fields
        name, _, value = line.decode("iso-8859-1").partition(":")
        fields.setdefault(name.strip().lower(), value.strip())
    raise HTTPException(f"got more than {_MAX_HEADERS} headers")


def _read_chunked(reader) -> bytes:
    """A chunked body and its trailer; a chunk cut short, or a size line that
    is not one, raises `IncompleteRead`."""
    from http.client import IncompleteRead, LineTooLong

    chunks = []
    while True:
        line = reader.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise LineTooLong("chunk size")
        try:
            size = int(line.split(b";", 1)[0], 16)  # chunk extensions dropped
        except ValueError:
            size = -1
        if size < 0:
            raise IncompleteRead(b"".join(chunks))
        if size == 0:
            _read_fields(reader)  # the trailer, discarded
            return b"".join(chunks)
        chunk = reader.read(size)
        chunks.append(chunk)
        if len(chunk) < size or len(reader.read(2)) < 2:  # the chunk and its CRLF
            raise IncompleteRead(b"".join(chunks), size - len(chunk))


def _retry_after(value: str | None) -> float:
    """The seconds a Retry-After value asks to wait, given as delay-seconds
    or as an HTTP date; 0 when it is absent, negative or unparseable, and at
    most the longest wait a sleep or a lock takes."""
    if value is None:
        return 0.0
    if value.isascii() and value.isdigit():
        seconds = float(value)
    else:
        import datetime
        import email.utils

        try:
            when = email.utils.parsedate_to_datetime(value)
        except (TypeError, ValueError, OverflowError):
            return 0.0
        if when.tzinfo is None:  # "-0000": UTC
            when = when.replace(tzinfo=datetime.timezone.utc)
        seconds = when.timestamp() - time.time()
    return min(max(0.0, seconds), threading.TIMEOUT_MAX)


def complete(prompt_text: str, backend: HttpBackend, row: int) -> None:
    """Prompt `row` of `backend`'s batch, cache first: a hit fills the row's
    answer at once, and a miss's attempts go to the backend's loop. Raises
    AuthError on a miss when the backend has no API key."""
    cfg = backend.cfg
    key = prompt_hash(prompt_text, cfg.model_name, cfg.temperature)
    hit = backend.cache.get(key) if backend.cache is not None else None
    if hit is not None:
        backend._answers[row] = hit.raw_response
        return
    if not backend.api_key:
        raise AuthError("no API key: set OPENAI_API_KEY")
    message = {"role": "user", "content": prompt_text}
    body = {"model": cfg.model_name, "messages": [message], "temperature": cfg.temperature}
    data = json.dumps(body, allow_nan=False).encode("utf-8")  # the bytes requests sent for json=body
    backend._admit(row, functools.partial(_attempts, key, data, cfg, backend.cache))


def _attempts(key, data, cfg: LlmConfig, cache, conn: Connection):
    """One prompt's attempts on `conn`: a generator yielding the seconds to wait before a retry, or the
    socket a request went out on, whose reply it reads when resumed; it returns the cached record. Only
    a socket that has carried a reply gets the free re-send. Raises AuthError (401/403), TransportError
    (retries exhausted or non-retryable HTTP) or ProtocolError (body not in chat-completions shape)."""
    from http.client import HTTPException

    def exchange():
        yield conn.send(data)
        return conn.receive()

    resent, last_failure, asked = False, "no attempt made", 0.0  # asked: the last reply's Retry-After
    jitter_rng = None
    for attempt in range(cfg.max_retries + 1):
        if attempt > 0:
            if jitter_rng is None:  # seeded from os.urandom: built only when a retry waits
                jitter_rng = random.Random()
            envelope = cfg.backoff_base * 2 ** (attempt - 1)
            yield max(asked, envelope * (0.5 + 0.5 * jitter_rng.random()))
        asked = 0.0
        try:
            try:
                status, fields, payload = yield from exchange()
            except (ConnectionResetError, BrokenPipeError):  # RemoteDisconnected is a ConnectionResetError
                if resent or not conn.replied:
                    raise
                resent = True  # once per prompt: a kept-alive connection the server had closed
                conn.close()  # so the re-send opens a fresh connection
                status, fields, payload = yield from exchange()
        except (OSError, HTTPException) as exc:  # timeouts, resets, a malformed or short reply
            conn.close()
            last_failure = f"{type(exc).__name__}: {exc}"
            continue
        if status in (401, 403):
            raise AuthError(f"HTTP {status} from {conn.url}")
        if status in _RETRYABLE_STATUS:
            last_failure = f"HTTP {status}"
            if status in (429, 503):
                asked = _retry_after(fields.get("retry-after"))
            continue
        if status != 200:
            raise TransportError(f"HTTP {status} from {conn.url} (not retryable)")
        try:
            content = json.loads(payload)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ProtocolError(f"response body not in chat-completions shape: {exc}") from exc
        rec = CompletionRecord(key, cfg.model_name, str(content), timestamp=time.time(), attempt_count=attempt + 1)
        if cache is not None:
            cache.put(rec)
        return rec
    raise TransportError(f"gave up after {cfg.max_retries + 1} attempts; last failure: {last_failure}")


class Backend(Protocol):
    """What classify_batch asks of a backend: one answer per prompt, in prompt order."""

    def answer(self, prompts: Sequence[str]) -> list[str]: ...


class HttpBackend:
    """The endpoint, through `complete` once per prompt. A hit is answered at
    once. A miss's attempts are stepped by a selectors loop in the calling
    thread, the only code that steps them, up to cfg.max_in_flight at once,
    each holding a connection from its first send to its end (a backoff wait
    included). At most max_in_flight connections are built, idle between
    prompts and batches. Its first failure stops it for good."""

    def __init__(self, cfg: LlmConfig, cache: JsonlCache | None = None, api_key: str | None = None):
        self.cfg = cfg
        self.cache = cache
        self.api_key = api_key if api_key is not None else os.environ.get("OPENAI_API_KEY", "")  # looked up once
        headers = {"Authorization": f"Bearer {self.api_key}", "Content-Type": "application/json"}
        url = cfg.base_url.rstrip("/") + "/v1/chat/completions"
        self._endpoint = url, headers, cfg.timeout  # what each Connection is built with
        self._failure: Exception | None = None
        self._idle: list[Connection] = []
        self._flights: list[_Flight] = []  # the misses in flight, during `answer`
        self._selector = None  # made at the first miss, as http.client is imported

    def answer(self, prompts: Sequence[str]) -> list[str]:
        """Prompts in order through `complete`, each miss started once a slot
        is free; the first failure is raised once the replies awaited are read."""
        if self._failure is not None:  # a stopped backend starts no prompt
            raise self._failure
        self._answers = answers = [None] * len(prompts)  # every slot is filled, or a failure is raised
        try:
            for row, prompt in enumerate(prompts):
                complete(prompt, self, row)  # the module global, which the benchmark's tracer wraps
                if self._failure is not None:
                    break
            while self._flights:
                self._turn()
        finally:
            for flight in self._flights:  # what an interrupt left, perhaps part way through an exchange
                flight.attempts.close()
                if flight.sock is not None:
                    self._selector.unregister(flight.sock)
                flight.conn.close()
                self._idle.append(flight.conn)
            self._flights.clear()
        if self._failure is not None:
            raise self._failure
        return answers

    def _admit(self, row: int, attempts: Callable[[Connection], Generator]) -> None:
        """Starts the attempts of `row` once a slot is free, unless the backend has failed."""
        if self._selector is None:
            import selectors

            self._selector = selectors.DefaultSelector()
        while len(self._flights) >= self.cfg.max_in_flight and self._failure is None:
            self._turn()
        if self._failure is None:
            conn = self._idle.pop() if self._idle else Connection(*self._endpoint)
            self._flights.append(flight := _Flight(row, attempts(conn), conn))
            self._step(flight)

    def _turn(self):
        """Ends the sleeping flights once failed; waits for a socket to turn readable
        or the first due time, and steps each flight ready, a reply overdue with `TimeoutError`."""
        if self._failure is not None:  # a sleeping prompt sends no retry
            for flight in [f for f in self._flights if f.sock is None]:
                self._release(flight)
        wait = min((f.due for f in self._flights), default=0.0) - time.monotonic()
        for key, _ in self._selector.select(min(max(wait, 0.0), _LONGEST_SELECT)):
            self._step(key.data)
        now = time.monotonic()
        for flight in [f for f in self._flights if f.due <= now and (f.sock is not None or self._failure is None)]:
            self._step(flight, TimeoutError("timed out") if flight.sock is not None else None)

    def _step(self, flight: _Flight, exc: Exception | None = None):
        """Resumes a flight, `exc` raised where it waits, up to its next wait or its end."""
        if flight.sock is not None:
            self._selector.unregister(flight.sock)
            flight.sock = None
        try:
            wait = flight.attempts.throw(exc) if exc else next(flight.attempts)
            if isinstance(wait, float):
                flight.due = time.monotonic() + wait
            else:
                flight.sock, flight.due = wait, time.monotonic() + self.cfg.timeout
                self._selector.register(wait, 1, flight)  # selectors.EVENT_READ
            return
        except StopIteration as done:
            self._answers[flight.row] = done.value.raw_response
        except Exception as failure:
            self._failure = self._failure or failure
        self._release(flight)

    def _release(self, flight: _Flight):
        self._flights.remove(flight)
        self._idle.append(flight.conn)


@dataclass(eq=False)
class _Flight:
    """A miss's attempts on `conn`, awaiting a reply on `sock` (None: sleeping) until `due`, monotonic seconds."""

    row: int
    attempts: Generator
    conn: Connection
    sock: object = None
    due: float = 0.0


# --- mocks ---------------------------------------------------------------


def query_line(prompt_text: str) -> str:
    """The content of the final question's <Inputs> line."""
    m = _QUERY_LINE_RE.search(prompt_text)
    if m is None:
        raise ValidationError("prompt has no final <Inputs> line")
    return m.group(1)


def _query_values(prompt_text: str) -> dict[str, float]:
    pairs = {}
    for chunk in query_line(prompt_text).split(", "):
        name, _, value = chunk.partition(": ")
        pairs[name] = float(value)
    return pairs


class _InlineMock:
    """A mock answers a batch one prompt after another, with `respond`."""

    def answer(self, prompts: Sequence[str]) -> list[str]:
        return [self.respond(p) for p in prompts]


class OracleMock(_InlineMock):
    """Answers every prompt with the true label of its query instance."""

    def __init__(self, answers: dict[str, int]):
        self.answers = dict(answers)

    @classmethod
    def for_dataset(cls, ds: Dataset, float_style: bool = False) -> "OracleMock":
        answers: dict[str, int] = {}
        for row, target in zip(ds.matrix, ds.targets):
            line = render_instance(row, float_style=float_style)
            if answers.setdefault(line, int(target)) != int(target):
                raise ValidationError(f"oracle: two rows render the query line {line!r} with different labels")
        return cls(answers)

    def respond(self, prompt_text: str) -> str:
        line = query_line(prompt_text)
        if line not in self.answers:
            raise ValidationError("oracle has no answer for this query line")
        return str(self.answers[line])


class ScriptedMock(_InlineMock):
    """Returns queued responses in order; draining the queue is an error."""

    def __init__(self, responses: list[str]):
        self.queue = list(responses)

    def respond(self, prompt_text: str) -> str:
        if not self.queue:
            raise ValidationError("scripted mock queue exhausted")
        return self.queue.pop(0)


class RuleMock(_InlineMock):
    """'1' iff the named feature in the final question is >= threshold."""

    def __init__(self, feature: str, threshold: float):
        self.feature = feature
        self.threshold = threshold

    def respond(self, prompt_text: str) -> str:
        values = _query_values(prompt_text)
        if self.feature not in values:
            raise ValidationError(f"feature {self.feature!r} not in the final question")
        return "1" if values[self.feature] >= self.threshold else "0"


# --- parsing and batching ------------------------------------------------


def parse_label(raw: str) -> int | None:
    """First standalone 0/1 digit wins; none found -> None (unparseable)."""
    m = _LABEL_RE.search(raw)
    return None if m is None else int(m.group(1))


def classify_batch(
    test: Dataset,
    spec: PromptSpec,
    backend: Backend,
    train: Dataset | None = None,
) -> list[int | None]:
    """One label per test row, in row order: 0, 1, or None where the answer
    is unparseable.

    Prompts share one draw of in-context examples (from train, per spec.seed),
    checked and rendered once, and differ only in the final question. The
    backend answers them all in one call; its first failure is the error
    raised.
    """
    if spec.n_ex > 0 and train is None:
        raise ValidationError("in-context examples requested but no train split given")
    examples = sample_examples(train, spec.n_ex, spec.seed) if spec.n_ex else Examples()
    prompts = [assemble_prompt(spec, examples, row).text for row in test.matrix]
    return [parse_label(raw) for raw in backend.answer(prompts)]
