"""Shared fixtures: reference importance orders, the three worked examples and
final query used in the golden prompt, small dataset builders, a scripted
local chat-completions endpoint, and the backoff waits that `HttpBackend`'s
loop is asked for."""

from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from cardioprompt import gateway
from cardioprompt.data import Dataset, binarize_target, holdout, knn_impute, split_at, standardize
from cardioprompt.models.importance import ImportanceRanking
from cardioprompt.synthetic import synthetic_raw

# descending-importance feature orders behind the six domain-knowledge texts
RF_ORDER = ("cp", "ca", "chol", "oldpeak", "exang", "thalach", "thal", "age", "slope", "trestbps", "sex", "fbs", "restecg")
LR_ORDER = ("cp", "oldpeak", "ca", "exang", "sex", "thal", "chol", "thalach", "fbs", "age", "slope", "restecg", "trestbps")
XGB_ORDER = ("exang", "cp", "sex", "ca", "oldpeak", "fbs", "slope", "thal", "chol", "thalach", "age", "trestbps", "restecg")

# worked in-context examples (feature vector, label) and the final query vector
EXAMPLE_1 = (np.array([57, 1, 2, 140, 265, 0, 1, 145, 1, 1, 2, 0.2, 5.8]), 1)
EXAMPLE_2 = (np.array([48, 1, 2, 130, 245, 0, 0, 160, 0, 0, 1.4, 0.2, 4.6]), 0)
EXAMPLE_3 = (np.array([44, 1, 4, 112, 290, 0, 2, 153, 0, 0, 1, 1, 3]), 1)
QUERY = np.array([46.0, 1.0, 3.0, 150.0, 163.0, 0.2, 0.0, 116.0, 0.0, 0.0, 2.2, 0.4, 6.2])

EXAMPLE_1_LINE = (
    "age: 57, sex: 1, cp: 2, trestbps: 140, chol: 265, fbs: 0, restecg: 1, "
    "thalach: 145, exang: 1, oldpeak: 1, slope: 2, ca: 0.2, thal: 5.8"
)


def make_ranking(order, source: str) -> ImportanceRanking:
    weights = np.linspace(0.4, 0.02, len(order))
    weights = weights / weights.sum()
    entries = tuple((name, float(w)) for name, w in zip(order, weights))
    return ImportanceRanking(entries=entries, source=source)


@pytest.fixture
def rf_ranking() -> ImportanceRanking:
    return make_ranking(RF_ORDER, "RF")


@pytest.fixture
def lr_ranking() -> ImportanceRanking:
    return make_ranking(LR_ORDER, "LR")


@pytest.fixture
def xgb_ranking() -> ImportanceRanking:
    return make_ranking(XGB_ORDER, "GBT")


def small_dataset(n: int = 60, seed: int = 0) -> Dataset:
    """Fully observed schema-shaped dataset with learnable labels."""
    raw = synthetic_raw(n_rows=n, missing_fraction=0.0, seed=seed)
    return knn_impute(binarize_target(raw), k=3)


@pytest.fixture(scope="session")
def prepared_small():
    """Split + standardized views of a 200-row synthetic dataset."""
    ds = small_dataset(200, seed=9)
    train, test = split_at(ds, holdout(ds, 0.2, seed=4))
    std_train, std_test = standardize(train, test)
    return {"train": train, "test": test, "std_train": std_train, "std_test": std_test}


def separable_1d(n_per_class: int = 10) -> Dataset:
    """13-feature dataset where feature 0 alone separates the classes."""
    X = np.zeros((2 * n_per_class, 13))
    X[:n_per_class, 0] = np.linspace(-2.0, -1.0, n_per_class)
    X[n_per_class:, 0] = np.linspace(1.0, 2.0, n_per_class)
    X[:, 1:] = np.random.default_rng(0).normal(0, 0.1, size=(2 * n_per_class, 12))
    y = np.array([0] * n_per_class + [1] * n_per_class)
    return Dataset(matrix=X, targets=y)


def xor_dataset(reps: int = 15) -> Dataset:
    """Two informative features in XOR arrangement, padded to 13 columns."""
    base = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    X2 = np.tile(base, (reps, 1))
    rng = np.random.default_rng(1)
    X2 = X2 + rng.normal(0, 0.05, size=X2.shape)
    X = np.zeros((len(X2), 13))
    X[:, :2] = X2
    y = np.tile(np.array([0, 1, 1, 0]), reps)
    return Dataset(matrix=X, targets=y)


def ok_body(content: str) -> dict:
    return {"choices": [{"message": {"role": "assistant", "content": content}}]}


HANG_UP = "hang up"  # a script entry: read the request, then close the connection without a byte


class StubState:
    """Scripted HTTP behavior; the last entry repeats once the script drains.
    An entry, or what a callable entry returns, is (status, payload) or
    (status, payload, headers), the headers a dict sent with the reply; the
    entry `HANG_UP` closes the connection without answering. With
    `close_after_response` set, each connection is closed after one
    response, without a `Connection: close` header to warn the client. With
    `answers_per_connection` set to k, each connection answers k requests,
    then reads the next one and closes without answering it. A request left
    unanswered is counted in `dropped`, not in `requests`. `most_in_flight` is
    the most requests it held at once, each from its reading to the end of its
    reply."""

    def __init__(self):
        self.script = []
        self.requests = []
        self.connections = 0  # accepted TCP connections
        self.close_after_response = False
        self.answers_per_connection = None
        self.dropped = 0
        self.in_flight = self.most_in_flight = 0
        self.lock = threading.Lock()

    def next_action(self, request_doc, headers, path, raw):
        with self.lock:
            action = self.script.pop(0) if len(self.script) > 1 else self.script[0]
            if action != HANG_UP:
                self.requests.append({"body": request_doc, "headers": dict(headers), "path": path, "raw": raw})
            return action


class StubHandler(BaseHTTPRequestHandler):
    state: StubState  # assigned per fixture
    protocol_version = "HTTP/1.1"  # keep-alive: one handler serves every request of a connection
    disable_nagle_algorithm = True  # the body, written after the head, leaves at once, not after the client's ACK

    def setup(self):
        super().setup()
        self.answered = 0
        with self.state.lock:
            self.state.connections += 1

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length)
        doc = json.loads(raw or b"{}")
        if self.answered == self.state.answers_per_connection:
            action = HANG_UP
        else:
            action = self.state.next_action(doc, self.headers, self.path, raw)
        if action == HANG_UP:  # read, then hang up without a byte
            with self.state.lock:
                self.state.dropped += 1
            self.close_connection = True
            return
        self.answered += 1
        with self.state.lock:
            self.state.in_flight += 1
            self.state.most_in_flight = max(self.state.most_in_flight, self.state.in_flight)
        try:
            self._reply(doc, action)
        finally:
            with self.state.lock:
                self.state.in_flight -= 1

    def _reply(self, doc, action):
        status, payload, *extra = action(doc) if callable(action) else action
        body = json.dumps(payload).encode()
        closing = self.state.close_after_response
        if closing:  # cork (Linux): the response leaves in one segment with the FIN, so no client reads it first
            self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_CORK, 1)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra[0] if extra else {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
        if closing:
            self.connection.shutdown(socket.SHUT_WR)
            self.close_connection = True

    def log_message(self, *args):
        pass


@pytest.fixture
def waits(monkeypatch):
    """The seconds each prompt's attempts ask `HttpBackend`'s loop to wait
    before a retry, in order, exactly as asked; the loop waits 0 s instead."""
    asked, real = [], gateway._attempts

    def recorded(*args):
        steps = real(*args)
        try:
            step = next(steps)
            while True:
                if isinstance(step, float):
                    asked.append(step)
                    step = 0.0
                try:
                    reply = yield step
                except Exception as exc:  # a timeout the loop raises where a reply is awaited
                    step = steps.throw(exc)
                else:
                    step = steps.send(reply)
        except StopIteration as done:
            return done.value
        finally:
            steps.close()

    monkeypatch.setattr(gateway, "_attempts", recorded)
    return asked


@pytest.fixture
def stub():
    """A local chat-completions endpoint answering from `stub.script`."""
    state = StubState()
    handler = type("Handler", (StubHandler,), {"state": state})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    state.url = f"http://127.0.0.1:{server.server_address[1]}"
    yield state
    server.shutdown()
    server.server_close()


class CannedServer:
    """Answers the k-th request it reads with the raw bytes `replies[k]` (the
    last repeats), then closes the connection if `close`, else reads the next
    request on it. Serves one connection at a time; counts the connections
    accepted and the requests read."""

    def __init__(self, replies: list[bytes], close: bool = True):
        self.replies, self.close_after_reply = replies, close
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(0.01)
        self.url = f"http://127.0.0.1:{self.listener.getsockname()[1]}"
        self.connections = self.requests = 0
        self.stopped = threading.Event()
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while not self.stopped.is_set():
            try:
                conn, _ = self.listener.accept()
            except TimeoutError:
                continue
            self.connections += 1
            with conn, conn.makefile("rb") as reader:
                conn.settimeout(5.0)
                try:
                    while self._answer(conn, reader) and not self.close_after_reply:
                        pass
                except OSError:  # the client hung up mid-reply, or left the connection idle
                    pass

    def _answer(self, conn, reader) -> bool:
        """Reads one request and sends its reply; False when the client left first."""
        length = None
        while (line := reader.readline()) not in (b"\r\n", b""):
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        if length is None:  # the client left before a whole request
            return False
        reader.read(length)  # all of it: closing on unread bytes would reset the connection
        reply = self.replies[min(self.requests, len(self.replies) - 1)]
        self.requests += 1
        conn.sendall(reply)
        return True

    def close(self):
        self.stopped.set()
        self.thread.join(timeout=5)
        self.listener.close()


@pytest.fixture
def canned_server():
    """A function starting a CannedServer, each closed after the test."""
    servers = []
    yield lambda replies, close=True: servers.append(CannedServer(replies, close)) or servers[-1]
    for server in servers:
        server.close()


@pytest.fixture
def short_body_server():
    """Answers every request with `200` and `Content-Length: 100`, sends 13
    bytes of the body and closes the connection; counts the requests read."""
    server = CannedServer([b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n{\"choices\": ["])
    yield server
    server.close()
