"""The manifest engine over random graphs of fake tasks, checked against a
build from scratch (Mokhov, Mitchell and Peyton Jones, "Build systems à la
carte", ICFP 2018): after every step, a task exits 0 or exits 1 with a
ValidationError; after an exit 0, every output its entry records is what a
build from scratch writes; after an exit 1, running the tasks the error
names, once each and in order, lets the task exit 0. A `rerun` line is held
to that in one round; a `run ... first` line names the writers of the
missing files alone, so each of those is built in turn with its own advice."""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

import cardioprompt
from cardioprompt import manifest
from cardioprompt.atomic import write_atomic
from cardioprompt.errors import ValidationError

EXTERNAL = "data_path"  # the one input outside the output directory
KEYS = ("shared", "k0", "k1", "k2", "k3")  # the config keys; a task reads some of them, perhaps none


@dataclass(frozen=True)
class FakeTask:
    """A row of a fake table, read by the engine as it reads a `cli.Verb`, and the files it writes."""

    reads: tuple[str, ...]
    writes: tuple[str, ...]
    keys: tuple[str, ...]
    files: tuple[str, ...]
    takes_args: bool  # as run-grid takes its backend; a task that takes none runs with {}


@st.composite
def tables(draw) -> dict[str, FakeTask]:
    """2-6 tasks in pipeline order. Task i writes s<i>.txt, or s<i>/a and s<i>/b as train-models
    writes models/<family>.json. It reads a file of the task before it, so that the walks go
    deep, perhaps one other file of an earlier task, and perhaps the external input. It reads
    some of the config keys, perhaps none."""
    table, written, files = {}, [], []
    for i in range(draw(st.integers(2, 6))):
        reads = [draw(st.sampled_from(files))] if files else []
        if others := [name for name in written if name not in reads]:
            reads += draw(st.lists(st.sampled_from(others), max_size=1))
        reads += [EXTERNAL] * draw(st.booleans())
        files = [f"s{i}.txt"] if draw(st.booleans()) else [f"s{i}/a", f"s{i}/b"]
        writes = (files[0].split("/")[0],)
        keys = tuple(draw(st.lists(st.sampled_from(KEYS), unique=True)))
        table[f"t{i}"] = FakeTask(tuple(reads), writes, keys, tuple(files), draw(st.booleans()))
        written += files
    return table


def content(key: dict, name: str, inputs: list[bytes]) -> bytes:
    """What a fake task writes to `name`: the sha256 of its inputs' bytes and its key."""
    doc = [key, name, [hashlib.sha256(data).hexdigest() for data in inputs]]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest().encode() + b"\n"


class FakeBuild(RuleBasedStateMachine):
    @initialize(table=tables())
    def start(self, table):
        self.table, self.tasks = table, list(table)
        self.writers = manifest.writers(table)
        self.tmp = Path(tempfile.mkdtemp())
        self.out, self.external = self.tmp / "runs", self.tmp / "data.csv"
        self.external.write_bytes(b"0\n")
        self.doc = dict.fromkeys(KEYS, 0)
        self.args = {task: {"arg": 0} if row.takes_args else {} for task, row in table.items()}
        self.last = {}  # by task: its key and external input at its last exit 0

    def teardown(self):
        if hasattr(self, "tmp"):
            shutil.rmtree(self.tmp)

    def key(self, task: str) -> dict:
        """The settings `task` reads: the config keys of its row and its arguments."""
        return {"config": {key: self.doc[key] for key in self.table[task].keys}, "args": self.args[task]}

    def entries(self) -> dict:
        path = self.out / manifest.MANIFEST
        return json.loads(path.read_text()) if path.exists() else {}

    def run(self, task: str) -> str | None:
        """Run `task` as `cli.main` runs a verb: the error on an exit 1, None on an exit 0,
        after which every output its entry records is checked against a build from scratch."""
        row = self.table[task]
        externals = {EXTERNAL: self.external}
        try:
            trace = manifest.Trace(self.table, task, self.doc, self.args[task], self.out, externals)
            if trace.up_to_date():
                trace.remove_leftovers()
            else:
                inputs = [
                    self.external.read_bytes() if name == EXTERNAL else trace.read(name, Path.read_bytes)
                    for name in row.reads
                ]
                for name in row.files:
                    write_atomic(trace.output(name), content(self.key(task), name, inputs).decode())
                trace.commit(0.0)
        except ValidationError as exc:
            return str(exc)
        self.last[task] = (self.key(task), self.external.read_bytes())
        built = self.built(task, self.entries())
        for name in self.entries()[task]["outputs"]:
            assert (self.out / name).read_bytes() == built[name], (task, name)
        return None

    def built(self, task: str, entries: dict) -> dict[str, bytes]:
        """What a build from scratch writes for `task`: each task under the key and external input of
        its last exit 0; a stage artifact that no entry records is read as it is."""
        key, external = self.last[task]
        inputs = []
        for name in self.table[task].reads:
            writer = self.writers.get(name.split("/")[0])
            if writer is None:
                inputs.append(external)
            elif name in entries.get(writer, {}).get("outputs", {}):
                inputs.append(self.built(writer, entries)[name])
            else:
                inputs.append((self.out / name).read_bytes())
        return {name: content(key, name, inputs) for name in self.table[task].files}

    def build(self, task: str):
        """Run `task` and follow its error's advice: each task a `rerun` names exits 0 at once, in
        one round; those a `run ... first` names, the writers of its missing inputs, are built in
        turn, each perhaps naming its own. `task` then exits 0."""
        if (error := self.run(task)) is None:
            return
        advice = error.rpartition("; ")[2]
        first = advice.startswith("run ") and advice.endswith(" first")
        assert first or advice.startswith("rerun "), error
        for named in advice.removeprefix("re").removeprefix("run ").removesuffix(" first").split(" and "):
            if first:
                self.build(named)
            else:
                assert (again := self.run(named)) is None, (error, named, again)
        assert (again := self.run(task)) is None, (error, again)

    @rule(i=st.integers(0, 59))  # 60 is a multiple of each table size, so that each task is as likely
    def run_task(self, i):
        self.build(self.tasks[i % len(self.tasks)])

    @rule(key=st.sampled_from(KEYS))
    def edit_key(self, key):
        """Edit a config key, perhaps one that no task reads."""
        self.doc[key] += 1

    @rule(i=st.integers(0, 59))
    def edit_args(self, i):
        """Edit the arguments of a task that takes any."""
        task = self.tasks[i % len(self.tasks)]
        if self.table[task].takes_args:
            self.args[task] = {"arg": self.args[task]["arg"] + 1}

    @rule(i=st.integers(0, 59), damage=st.sampled_from(["rewrite", "cut", "delete", "external", "manifest"]))
    def damage_a_file(self, i, damage):
        """Rewrite, cut at a byte or delete a stage artifact; rewrite the external input; delete manifest.json."""
        files = [name for row in self.table.values() for name in row.files]
        path = self.out / files[i % len(files)]
        if damage == "external":
            self.external.write_bytes(b"%d\n" % i)
        elif damage == "manifest":
            (self.out / manifest.MANIFEST).unlink(missing_ok=True)
        elif damage == "rewrite":
            write_atomic(path, f"rewritten {i}\n")
        elif path.exists():
            path.write_bytes(path.read_bytes()[:i]) if damage == "cut" else path.unlink()


TestFakeBuild = FakeBuild.TestCase
TestFakeBuild.settings = settings(max_examples=100, stateful_step_count=40, deadline=None)


def chain(*reads: tuple[str, ...], split: int | None = None) -> dict[str, FakeTask]:
    """Tasks t0, t1, ... reading `reads` in turn, taking no arguments; task i reads the config
    keys shared and k<i> and writes s<i>.txt, but task `split` writes s<i>/a and s<i>/b."""
    table = {}
    for i, names in enumerate(reads):
        files = (f"s{i}/a", f"s{i}/b") if i == split else (f"s{i}.txt",)
        table[f"t{i}"] = FakeTask(names, (f"s{i}" if i == split else files[0],), ("shared", f"k{i}"), files, False)
    return table


@settings(phases=[Phase.explicit], deadline=None)
@given(table=tables(), steps=st.just([]))
@example(  # s0/a rewritten, then a new key: t0 writes s0/b anew too, so t1, which read it, runs again
    table=chain((), ("s0/b",), ("s1.txt", "s0/a"), split=0),
    steps=[("build", "t1"), ("damage_a_file", 0, "rewrite"), ("edit_key", "shared"), ("build", "t2")],
)
@example(  # s0.txt rewritten under a new key of t0: t0 writes it anew, so t1 runs again
    table=chain((), ("s0.txt",), ("s1.txt",)),
    steps=[("build", "t2"), ("edit_key", "k0"), ("damage_a_file", 0, "rewrite"), ("build", "t2")],
)
@example(  # s0.txt, which t1 read after the manifest was deleted, is gone: t0 runs again before t1
    table=chain((), ("s0.txt",), ("s1.txt",)),
    steps=[("build", "t1"), ("damage_a_file", 0, "manifest"), ("build", "t1"), ("damage_a_file", 0, "delete"),
           ("build", "t2")],
)
@example(  # s1/a is gone and t1, with no entry, runs first from a rewritten s0.txt: t2, which read s1/b, runs too
    table=chain((), ("s0.txt",), ("s1/b",), ("s2.txt", "s1/a"), split=1),
    steps=[("build", "t1"), ("damage_a_file", 0, "rewrite"), ("damage_a_file", 0, "manifest"), ("build", "t2"),
           ("damage_a_file", 1, "delete"), ("build", "t3")],
)
def test_the_cases_the_machine_found(table, steps):
    machine = FakeBuild()
    machine.start(table=table)
    try:
        for name, *args in steps:
            getattr(machine, name)(*args)
    finally:
        machine.teardown()


def test_the_engine_imports_no_numpy_and_no_pipeline_module():
    # in a fresh interpreter: the package modules loaded, and whether numpy is, after importing the engine
    code = "import json, sys; import cardioprompt.manifest; " + (
        'print(json.dumps([sorted(m for m in sys.modules if m.startswith("cardioprompt")), "numpy" in sys.modules]))'
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cardioprompt.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    loaded, numpy = json.loads(proc.stdout.splitlines()[-1])
    assert not numpy
    allowed = {"cardioprompt", *(f"cardioprompt.{name}" for name in ("manifest", "atomic", "errors", "config"))}
    assert set(loaded) <= allowed and "cardioprompt.manifest" in loaded
