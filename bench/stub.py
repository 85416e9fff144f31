"""Stub chat-completions server for the benchmark, run as its own process.

    python3 bench/stub.py [--flip-first]

It prints its port on the first line of stdout once it listens on
127.0.0.1. It speaks HTTP/1.1 with keep-alive, so a client that reuses
connections can. Every POST to /v1/chat/completions is answered by one fixed
rule on the prompt's final `<Inputs>:` line, after a constant 2 ms with no
jitter. GET /stats returns what the server saw since the last GET /stats:
requests, distinct prompts and TCP connections that carried a completion
request, with its own CPU seconds so far. `--flip-first` inverts the answer
to the first request after each GET /stats, so that a test can plant one
wrong answer.

One asyncio loop serves every connection, so the stub spends little CPU per
request and leaves the cores to the client it measures. The stub exits when
its standard input closes, so it does not outlive a benchmark that is killed.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import re
import sys
import threading
import time

RULE_FEATURE = "oldpeak"
RULE_THRESHOLD = 1.0
DELAY_S = 0.002
_QUERY_RE = re.compile(r"^<Inputs>: (.+)$", re.MULTILINE)


def rule_answer(prompt: str) -> str:
    """'1' iff the final question's oldpeak is >= 1.0."""
    line = _QUERY_RE.findall(prompt)[-1]
    values = dict(chunk.split(": ", 1) for chunk in line.split(", "))
    return "1" if float(values[RULE_FEATURE]) >= RULE_THRESHOLD else "0"


class Stub:
    def __init__(self, flip_first: bool):
        self.flip_first = flip_first
        self.reset()

    def reset(self):
        self.requests = 0
        self.connections = 0
        self.prompts: set[bytes] = set()

    def stats(self) -> dict:
        """Counts since the last call, which starts them again; cpu_s is the
        process total."""
        doc = {
            "requests": self.requests,
            "distinct_prompts": len(self.prompts),
            "connections": self.connections,
            "cpu_s": time.process_time(),
        }
        self.reset()
        return doc

    async def complete(self, body: bytes) -> dict:
        prompt = json.loads(body)["messages"][-1]["content"]
        answer = rule_answer(prompt)
        self.requests += 1
        self.prompts.add(hashlib.sha256(prompt.encode()).digest())
        if self.flip_first and self.requests == 1:
            answer = "1" if answer == "0" else "0"
        await asyncio.sleep(DELAY_S)
        return {"choices": [{"index": 0, "message": {"role": "assistant", "content": answer}}]}

    async def serve(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        """One connection: requests in order until the client closes it."""
        counted = False
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                lines = head.decode("latin-1").split("\r\n")
                method, target, _ = lines[0].split(" ", 2)
                headers = dict(ln.split(":", 1) for ln in lines[1:] if ":" in ln)
                headers = {k.strip().lower(): v.strip() for k, v in headers.items()}
                body = await reader.readexactly(int(headers.get("content-length", 0)))
                if method == "POST" and target == "/v1/chat/completions":
                    if not counted:
                        self.connections += 1
                        counted = True
                    status, doc = 200, await self.complete(body)
                elif method == "GET" and target == "/stats":
                    status, doc = 200, self.stats()
                else:
                    status, doc = 404, {"error": f"no route {method} {target}"}
                data = json.dumps(doc).encode()
                writer.write(
                    f"HTTP/1.1 {status} {'OK' if status == 200 else 'Not Found'}\r\n"
                    f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n\r\n".encode()
                    + data
                )
                await writer.drain()
                if headers.get("connection", "").lower() == "close":
                    break
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # the client closed the connection
        finally:
            writer.close()


async def serve_forever(stub: Stub):
    server = await asyncio.start_server(stub.serve, "127.0.0.1", 0)
    print(server.sockets[0].getsockname()[1], flush=True)
    async with server:
        await server.serve_forever()


def _exit_at_end_of_input():
    sys.stdin.buffer.read()
    os._exit(0)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--flip-first", action="store_true")
    args = ap.parse_args(argv)
    threading.Thread(target=_exit_at_end_of_input, daemon=True).start()
    try:
        asyncio.run(serve_forever(Stub(args.flip_first)))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
