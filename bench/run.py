"""Benchmark of the cardioprompt command line, workload by workload.

    python3 bench/run.py --workload pipeline --seed 1 --seconds 10 --trace 0

Workloads (see README.md beside this file for why each exists):

- pipeline: the README sequence prepare-data, train-models, gen-dk,
  run-grid --mock rule, report, on a 460-row synthetic CSV.
- grid-live: run-grid --live over the full 7 DK x 5 N_ex grid against a stub
  chat-completions server in its own process, from an empty cache.
- grid-resume: the same grid rerun several times from a cache that the
  program's own --live path filled in set-up, with no server listening.

The program is driven only through `cardioprompt.cli.main`, one child
process per verb (bench/verb.py), with a fixed environment. Its inputs are
made from --seed; the program sees only the CSV, a config file and the stub.
A run repeats whole rounds of its workload until --seconds have passed and
checks the outputs of each round (bench/checks.py). With --trace 1 it runs as
long again with spans recorded around the program's layers (bench/tracer.py)
and prints the per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 when every check holds
apart from the one kept fault, 1 when one does not, and 2 when the program
is missing. Every failed check, with the log lines of a verb that failed, is
also written to standard error.

--seed takes any integer; it is read modulo 2**64, so a negative seed names
the same inputs as its non-negative residue.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CONFIG_SEED = 7  # pins the search's hyperparameter draws, the split and the example draws
SEED_MODULUS = 2**64  # numpy's generators take non-negative seeds only
SEARCH_ITERS, SEARCH_FOLDS = 1, 2  # far below the paper's 20 x 5, so a pipeline round takes about 20 s
FAMILIES = ("RF", "LR", "MLP", "KNN", "GBT", "ADA")
VERBS = ("prepare-data", "train-models", "gen-dk", "run-grid", "report")


@dataclass(frozen=True)
class Scale:
    """Input sizes; FULL is what the benchmark measures, TINY is for its tests."""

    rows: int = 460
    n_ex_grid: tuple[int, ...] = (0, 2, 4, 8, 16)
    resume_reruns: int = 3
    setup_repeats: int = 5


FULL = Scale()
TINY = Scale(rows=80, n_ex_grid=(0, 2), resume_reruns=2, setup_repeats=1)

END_TO_END = (("wall_s", "s"), ("prompts_per_s", "1/s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
PER_LAYER = (
    [("data.prepare_s", "s"), ("data.prepare_calls", "count"), ("data.knn_impute_s", "s")]
    + [(f"search.{f}_s", "s") for f in FAMILIES]
    + [("search.fits", "count"), ("search.fit_s", "s"), ("search.predict_s", "s"), ("search.cpu_s", "s")]
    + [(f"importance.{f}_s", "s") for f in FAMILIES]
    + [("importance.calls", "count")]
    + [("serialize.save_s", "s"), ("serialize.load_s", "s"), ("serialize.bytes", "bytes")]
    + [("dk.render_s", "s")]
    + [("prompts.assemble_s", "s"), ("prompts.assembled", "count"), ("prompts.bytes", "bytes")]
    + [
        ("gateway.classify_s", "s"),
        ("gateway.complete_ms_p50", "ms"),
        ("gateway.complete_ms_p99", "ms"),
        ("gateway.requests", "count"),
        ("gateway.connections", "count"),
        ("gateway.requests_per_connection", "req/conn"),
        ("gateway.retries", "count"),
        ("gateway.cache_hits", "count"),
        ("gateway.cache_open_s", "s"),
        ("gateway.cache_records", "count"),
        ("gateway.cache_bytes", "bytes"),
        ("gateway.client_cpu_s", "s"),
        ("gateway.stub_cpu_s", "s"),
    ]
    + [
        ("metrics.score_s", "s"),
        ("experiment.ml_baselines_s", "s"),
        ("experiment.prompt_grid_s", "s"),
        ("experiment.emit_report_s", "s"),
    ]
    + [(f"cli.{v}_s", "s") for v in VERBS]
    + [("trace.overhead_s", "s")]
)


def child_env() -> dict[str, str]:
    """The fixed environment of every child. requests scans the environment
    for proxies on each call, so its size is part of the client's cost."""
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "LANG": "C.UTF-8",
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "OPENAI_API_KEY": "benchmark-stub-key",
    }


def cpu_clock() -> tuple[float, float]:
    """(busy, steal) CPU seconds of this machine since boot, from /proc/stat.
    Steal is time the hypervisor gave this machine's runnable CPUs to other
    guests; it reads 0 where there is no hypervisor or no /proc."""
    try:
        with open("/proc/stat") as fh:
            user, nice, system, _idle, _iowait, irq, softirq, steal = map(int, fh.readline().split()[1:9])
    except (OSError, ValueError):
        return 0.0, 0.0
    hz = os.sysconf("SC_CLK_TCK")
    return (user + nice + system + irq + softirq) / hz, steal / hz


class Stopwatch:
    """Wall time net of CPU steal. On a shared host the hypervisor can take
    the CPUs away from runnable work (up to 40% of them, for minutes, on the
    2-vCPU machine this was built on), so raw wall time swings with other
    guests' load. The share of the interval
    the runnable CPUs were taken away, steal / (busy + steal), is removed:
    wall_s = raw * busy / (busy + steal), which is the raw time where nothing
    is stolen."""

    def __init__(self):
        self.start = time.perf_counter()
        self.busy, self.steal = cpu_clock()

    def read(self) -> tuple[float, float, float]:
        """(wall_s, raw wall seconds, steal seconds) since the start."""
        raw = time.perf_counter() - self.start
        busy, steal = (now - then for now, then in zip(cpu_clock(), (self.busy, self.steal)))
        return (raw * busy / (busy + steal) if busy + steal > 0 else raw), raw, steal


@dataclass
class Proc:
    rc: int
    cpu_s: float
    rss_kb: int
    log: str = ""  # what the child wrote, when it exited non-zero


def log_tail(log: Path, since: int, lines: int = 12) -> str:
    """The last lines a child wrote to its log after byte offset `since`."""
    with log.open("rb") as fh:
        fh.seek(since)
        text = fh.read().decode(errors="replace")
    return "\n".join(text.splitlines()[-lines:])


def run_child(args: list[str], cwd: Path, log: Path) -> Proc:
    """Run one child to its end; its resource use comes from wait4."""
    with log.open("a") as fh:
        since = fh.tell()
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=child_env(), stdout=fh, stderr=fh)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    tail = log_tail(log, since) if proc.returncode != 0 else ""
    return Proc(proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, tail)


@dataclass
class Verb:
    name: str
    proc: Proc
    main_s: float
    spans: list


def run_verb(work: Path, argv: list[str], traced: bool) -> Verb:
    """One `cardioprompt` verb in its own process, with the workload's config."""
    result = work / "verb.json"
    result.unlink(missing_ok=True)
    flags = ["--trace"] if traced else []
    args = [str(BENCH / "verb.py"), str(result), *flags, "--", "--config", "config.json", *argv]
    proc = run_child(args, work, work / "verbs.log")
    doc = json.loads(result.read_text()) if result.exists() else {"main_s": 0.0, "spans": []}
    name = next(a for a in argv if a in VERBS)
    return Verb(name, proc, doc["main_s"], doc["spans"])


class Stub:
    """The stub chat-completions server, in its own process."""

    def __init__(self, log: Path, flip_first: bool = False):
        args = [sys.executable, str(BENCH / "stub.py")] + ["--flip-first"] * flip_first
        with log.open("a") as fh:
            self.proc = subprocess.Popen(
                args, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=fh, text=True
            )
        line = self.proc.stdout.readline()
        if not line.strip().isdigit():
            self.stop()
            raise RuntimeError(f"stub did not start; see {log}")
        self.port = int(line)

    def stats(self) -> dict:
        """What the stub saw since the last call."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", "/stats")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self):
        if self.proc.poll() is None:
            self.proc.terminate()
        self.proc.wait(timeout=30)
        self.proc.stdin.close()
        self.proc.stdout.close()


@dataclass
class Round:
    clock: tuple[float, float, float]  # Stopwatch.read() over the round
    verbs: list[Verb]
    stub: dict = field(default_factory=dict)  # stub counts over the round
    cache_records: int = 0
    cache_bytes: int = 0


@dataclass
class Tally:
    """Operations attempted and failed. A failed operation is a verb that
    exits non-zero or a check that does not hold; only the kept fault may
    fail without making the run incorrect."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    logs: list[str] = field(default_factory=list)  # log tails of the verbs that failed

    def verbs(self, verbs: list[Verb]):
        for v in verbs:
            self.op(f"{v.name} exited {v.proc.rc}" if v.proc.rc != 0 else None)
            if v.proc.rc != 0:
                self.logs.append(f"--- {v.name} exited {v.proc.rc}; its last log lines:\n{v.proc.log}")

    def op(self, error: str | None, kept_fault: bool = False):
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if not kept_fault:
                self.errors.append(error)


def write_config(work: Path, scale: Scale, port: int | None = None):
    doc = {
        "data_path": "data.csv",
        "seed": CONFIG_SEED,
        "search_iters": SEARCH_ITERS,
        "search_folds": SEARCH_FOLDS,
        "n_ex_grid": list(scale.n_ex_grid),
        "output_dir": "out",
        "cache_path": "out/completions.jsonl",
    }
    if port is not None:
        workers = len(os.sched_getaffinity(0))
        doc["llm"] = {
            "base_url": f"http://127.0.0.1:{port}",
            "max_in_flight": workers,
            "max_retries": 2,
            "backoff_base": 0.01,
            "timeout": 30.0,
        }
    (work / "config.json").write_text(json.dumps(doc, indent=2))


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _cache_stats(path: Path) -> tuple[int, int]:
    """(records, bytes) of a completion cache, read by the program's own class."""
    if not path.exists():
        return 0, 0
    from cardioprompt.gateway import JsonlCache

    return len(JsonlCache(path)), path.stat().st_size


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# --- workloads -----------------------------------------------------------


class Workload:
    """A workload sets up (`setup`, then `adopt` of the last set-up), runs
    rounds (`round`) and checks each round's outputs (`check`)."""

    name: str

    def __init__(self, scale: Scale, seed: int, base: Path):
        self.scale, self.seed, self.base = scale, seed, base
        self.n_test = checks.n_test_for(scale.rows)
        self.prompts_per_round = checks.N_DK * len(scale.n_ex_grid) * self.n_test
        self.setup_repeats = scale.setup_repeats

    def write_inputs(self, work: Path, port: int | None = None, dk_models: bool = False):
        write_config(work, self.scale, port)
        args = [str(BENCH / "inputs.py"), "config.json", "--seed", str(self.seed), "--rows", str(self.scale.rows)]
        proc = run_child(args + ["--dk-models"] * dk_models, work, work / "setup.log")
        if proc.rc != 0:
            raise RuntimeError(f"set-up exited {proc.rc}; its last log lines:\n{proc.log}")

    def close(self):
        pass


class Pipeline(Workload):
    """The README's five verbs on one CSV; the models layers do the work."""

    name = "pipeline"
    argvs = (
        ["prepare-data"],
        ["train-models"],
        ["gen-dk"],
        ["run-grid", "--mock", "rule"],
        ["report", "--format", "markdown"],
    )

    def setup(self, k: int) -> Path:
        work = fresh_dir(self.base / f"setup-{k}")
        self.write_inputs(work)
        return work

    def adopt(self, work: Path):
        self.work = work

    def round(self, traced: bool) -> Round:
        shutil.rmtree(self.work / "out", ignore_errors=True)
        watch = Stopwatch()
        verbs = [run_verb(self.work, argv, traced) for argv in self.argvs]
        return Round(watch.read(), verbs)

    def check(self, rnd: Round, tally: Tally):
        tally.verbs(rnd.verbs)
        out, data = self.work / "out", self.work / "data.csv"
        imputed, grid = out / "imputed.csv", out / "grid_rows.json"
        models, report = out / "report.csv", out / "report.md"
        tally.op(_guard("imputation", lambda: checks.check_imputation(data, imputed)))
        tally.op(_guard("classifier table", lambda: checks.check_table(checks.parse_table(models), self.n_test)))
        tally.op(_guard("dk.json", lambda: checks.check_dk(out / "dk.json")))
        expected = lambda: checks.rule_metrics(data, imputed, CONFIG_SEED)  # noqa: E731
        tally.op(_guard("run-grid rows", lambda: checks.check_grid_rows(_json(grid), expected(), self.scale.n_ex_grid)))
        tally.op(_guard("report table", lambda: checks.check_table(checks.parse_table(report), self.n_test)))
        tally.op(
            _guard(
                "report classifier rows",
                lambda: checks.check_report_matches_models(checks.parse_table(report), checks.parse_table(models)),
            )
        )
        # the kept fault: cmd_report re-runs the grid with the oracle mock instead of reading grid_rows.json
        tally.op(
            _guard(
                "report prompt rows",
                lambda: checks.check_report_matches_grid(checks.parse_table(report), _json(grid)),
            ),
            kept_fault=True,
        )


class GridLive(Workload):
    """run-grid --live from an empty cache; the gateway does the work."""

    name = "grid-live"
    argv = ["--live", "run-grid"]

    def __init__(self, scale: Scale, seed: int, base: Path, flip_first: bool = False):
        super().__init__(scale, seed, base)
        self.flip_first = flip_first
        self.stubs: list[Stub] = []

    def setup(self, k: int) -> Path:
        work = fresh_dir(self.base / f"setup-{k}")
        stub = Stub(work / "stub.log", self.flip_first)
        self.stubs.append(stub)
        self.write_inputs(work, stub.port, dk_models=True)
        gen_dk = run_verb(work, ["gen-dk"], False).proc
        if gen_dk.rc != 0:
            raise RuntimeError(f"gen-dk exited {gen_dk.rc}; its last log lines:\n{gen_dk.log}")
        return work

    def adopt(self, work: Path):
        """Keep the last set-up; stop the stubs of the others."""
        self.work, self.stub = work, self.stubs.pop()
        for stub in self.stubs:
            stub.stop()
        self.stubs = [self.stub]
        data, imputed = work / "data.csv", work / "out" / "imputed.csv"
        bad = checks.check_imputation(data, imputed) or checks.check_dk(work / "out" / "dk.json")
        if bad:
            raise RuntimeError(f"set-up output is wrong: {bad}")
        self.expected = checks.rule_metrics(data, imputed, CONFIG_SEED)

    def round(self, traced: bool) -> Round:
        cache = self.work / "out" / "completions.jsonl"
        cache.unlink(missing_ok=True)
        (self.work / "out" / "grid_rows.json").unlink(missing_ok=True)
        stub0 = self.stub.stats()
        watch = Stopwatch()
        verbs = [run_verb(self.work, self.argv, traced)]
        clock = watch.read()
        stub = self.stub.stats()
        stub["cpu_s"] -= stub0["cpu_s"]
        return Round(clock, verbs, stub, *_cache_stats(cache))

    def check(self, rnd: Round, tally: Tally):
        tally.verbs(rnd.verbs)
        grid = self.work / "out" / "grid_rows.json"
        tally.op(_guard("grid rows", lambda: checks.check_grid_rows(_json(grid), self.expected, self.scale.n_ex_grid)))
        want, s = self.prompts_per_round, rnd.stub
        counts = (s["requests"], s["distinct_prompts"], rnd.cache_records)
        if counts == (want,) * 3:
            tally.op(None)
        else:
            tally.op(f"requests, distinct prompts, cache records {counts}; {want} prompts asked")

    def close(self):
        for stub in self.stubs:
            stub.stop()


class GridResume(GridLive):
    """The same grid rerun from a full cache, with nothing listening."""

    name = "grid-resume"

    def __init__(self, scale: Scale, seed: int, base: Path):
        super().__init__(scale, seed, base)
        self.prompts_per_round *= scale.resume_reruns
        self.setup_repeats = 1  # its set-up holds a whole live grid
        self.closed_port: socket.socket | None = None

    def setup(self, k: int) -> Path:
        work = super().setup(k)
        fill = run_verb(work, self.argv, False).proc  # the program's own --live path fills the cache
        if fill.rc != 0:
            raise RuntimeError(f"cache fill exited {fill.rc}; its last log lines:\n{fill.log}")
        return work

    def adopt(self, work: Path):
        super().adopt(work)
        bad = checks.check_grid_rows(_json(work / "out" / "grid_rows.json"), self.expected, self.scale.n_ex_grid)
        if bad:
            raise RuntimeError(f"cache fill answered wrongly: {bad}")
        self.stub.stop()
        self.stubs = []
        # hold the stub's port bound but not listening, so any request is refused
        self.closed_port = socket.socket()
        self.closed_port.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.closed_port.bind(("127.0.0.1", self.stub.port))
        self.cache = work / "out" / "completions.jsonl"
        self.cache_digest = _digest(self.cache)

    def round(self, traced: bool) -> Round:
        (self.work / "out" / "grid_rows.json").unlink(missing_ok=True)
        watch = Stopwatch()
        verbs = [run_verb(self.work, self.argv, traced) for _ in range(self.scale.resume_reruns)]
        return Round(watch.read(), verbs, {}, *_cache_stats(self.cache))

    def check(self, rnd: Round, tally: Tally):
        tally.verbs(rnd.verbs)  # a request would find no server, so its rerun exits non-zero
        grid = self.work / "out" / "grid_rows.json"
        tally.op(_guard("grid rows", lambda: checks.check_grid_rows(_json(grid), self.expected, self.scale.n_ex_grid)))
        tally.op(None if _digest(self.cache) == self.cache_digest else "the cache changed during the reruns")

    def close(self):
        super().close()
        if self.closed_port is not None:
            self.closed_port.close()


WORKLOADS = {w.name: w for w in (Pipeline, GridLive, GridResume)}


def _json(path: Path):
    return json.loads(path.read_text())


def _guard(what: str, fn) -> str | None:
    """Run one check; a missing or malformed output fails it."""
    try:
        error = fn()
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    return None if error is None else f"{what}: {error}"


# --- measuring -----------------------------------------------------------


def measure(workload, seconds: float, traced: bool, tally: Tally) -> list[Round]:
    """Whole rounds until `seconds` have passed; at least one."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rnd = workload.round(traced)
        workload.check(rnd, tally)
        rounds.append(rnd)
    return rounds


def end_to_end(workload, rounds: list[Round], setup_times: list[float]) -> dict[str, float]:
    wall = statistics.median(r.clock[0] for r in rounds)
    return {
        "wall_s": wall,
        "prompts_per_s": workload.prompts_per_round / wall,
        "peak_rss_mb": max(v.proc.rss_kb for r in rounds for v in r.verbs) / 1024,
        "setup_s": statistics.median(setup_times),
    }


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def per_layer(rounds: list[Round], overhead_s: float) -> tuple[dict[str, float], dict]:
    """Layer metrics per round, averaged over the traced rounds, and a
    summary of every span name with its count, total and self time."""
    total: dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    completes: list[float] = []
    summary: dict[str, dict[str, float]] = {}

    def add(key, value):
        total[key] += value

    for rnd in rounds:
        for verb in rnd.verbs:
            add(f"cli.{verb.name}_s", verb.main_s)
            if verb.name == "run-grid":
                add("gateway.client_cpu_s", verb.proc.cpu_s)
            spans = verb.spans
            child_time = [0.0] * len(spans)
            for name, start, end, parent, attrs in spans:
                if parent >= 0:
                    child_time[parent] += end - start
            for i, (name, start, end, parent, attrs) in enumerate(spans):
                dur = end - start
                entry = summary.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
                entry["count"] += 1
                entry["total_s"] += dur
                entry["self_s"] += dur - child_time[i]
                if name == "data.prepare":
                    add("data.prepare_s", dur)
                    add("data.prepare_calls", 1)
                elif name == "data.knn_impute":
                    add("data.knn_impute_s", dur)
                elif name == "search":
                    add(f"search.{attrs['family']}_s", dur)
                    add("search.cpu_s", attrs["cpu_s"])
                elif name == "search.fit":
                    add("search.fits", 1)
                    add("search.fit_s", dur)
                elif name == "model.predict" and _under(spans, parent, "search"):
                    add("search.predict_s", dur)
                elif name == "importance":
                    add(f"importance.{attrs['family']}_s", dur)
                    add("importance.calls", 1)
                elif name == "serialize.save":
                    add("serialize.save_s", dur)
                    add("serialize.bytes", attrs["bytes"])
                elif name == "serialize.load":
                    add("serialize.load_s", dur)
                elif name == "dk.render":
                    add("dk.render_s", dur)
                elif name in ("prompts.sample", "prompts.assemble"):
                    add("prompts.assemble_s", dur)
                    if name == "prompts.assemble":
                        add("prompts.assembled", 1)
                        add("prompts.bytes", attrs["bytes"])
                elif name == "gateway.classify":
                    add("gateway.classify_s", dur)
                elif name == "gateway.cache_open":
                    add("gateway.cache_open_s", dur)
                elif name == "gateway.complete":
                    completes.append(dur * 1000.0)
                    add("gateway.retries", max(attrs["sends"] - 1, 0))
                    add("gateway.cache_hits", int(attrs["sends"] == 0))
                elif name == "metrics.score":
                    add("metrics.score_s", dur)
                elif name.startswith("experiment."):
                    add(f"{name}_s", dur)
        add("gateway.requests", rnd.stub.get("requests", 0))
        add("gateway.connections", rnd.stub.get("connections", 0))
        add("gateway.stub_cpu_s", rnd.stub.get("cpu_s", 0.0))
    out = {name: value / len(rounds) for name, value in total.items()}
    connections = out["gateway.connections"]
    out["gateway.requests_per_connection"] = out["gateway.requests"] / connections if connections else 0.0
    out["gateway.complete_ms_p50"] = _percentile(completes, 0.50)
    out["gateway.complete_ms_p99"] = _percentile(completes, 0.99)
    out["gateway.cache_records"] = rounds[-1].cache_records
    out["gateway.cache_bytes"] = rounds[-1].cache_bytes
    out["trace.overhead_s"] = overhead_s
    return out, summary


def _under(spans: list, index: int, name: str) -> bool:
    while index >= 0:
        if spans[index][0] == name:
            return True
        index = spans[index][3]
    return False


def run(workload: Workload, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object that main prints."""
    fresh_dir(workload.base)
    tally = Tally()
    try:
        setup_times, work = [], None
        for k in range(workload.setup_repeats):
            watch = Stopwatch()
            work = workload.setup(k)
            setup_times.append(watch.read()[0])
        workload.adopt(work)
        rounds = measure(workload, seconds, False, tally)
        metrics = end_to_end(workload, rounds, setup_times)
        host = {
            "raw wall_s": statistics.median(r.clock[1] for r in rounds),
            "steal_s": statistics.median(r.clock[2] for r in rounds),
        }
        units = dict(END_TO_END)
        if trace:
            traced = measure(workload, seconds, True, tally)
            overhead = statistics.median(r.clock[0] for r in traced) - metrics["wall_s"]
            metrics, summary = per_layer(traced, overhead)
            (workload.base / "trace_summary.json").write_text(json.dumps(summary, indent=1, sort_keys=True))
            units = dict(PER_LAYER)
    finally:
        workload.close()
    return {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "logs": tally.logs,
        "host": host,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "cardioprompt" / "cli.py").is_file():
        print(f"error: the program is not here: {SRC / 'cardioprompt'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    seed = args.seed % SEED_MODULUS
    result = run(WORKLOADS[args.workload](FULL, seed, OUT / args.workload), args.seconds, bool(args.trace))
    for error in result.pop("errors"):
        print(f"check failed: {error}")
        print(f"check failed: {error}", file=sys.stderr)
    for text in result.pop("logs"):
        print(text, file=sys.stderr)
    for key, value in result.pop("host").items():
        print(f"untraced rounds, median {key} = {value:.6g} s")
    for key, m in result["metrics"].items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    print(f"attempted = {result['attempted']}, failed = {result['failed']}, correct = {result['correct']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
