"""What one task reads and writes, checked against and recorded in the
manifest of its output directory.

The manifest holds one entry per task, from that task's last successful
run: the config digest, the task's arguments (run-grid's backend, report's
format), the program identity, the sha256 of every file the task read, as
it read it, and of every artifact it wrote, and its wall time. A task whose
entry still matches, every file included, would write the same bytes again,
so it is up to date and does not run: the verifying traces of Mokhov,
Mitchell and Peyton Jones, "Build systems à la carte" (ICFP 2018). Files are
named relative to the output directory, the external inputs by their key.

The engine knows tasks, not verbs: it is handed a table (`cli.VERBS`) whose
rows, in pipeline order, name the files each task `reads`, the artifacts it
`writes` and the config `keys` whose values decide them. It imports neither
numpy nor a pipeline stage.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

from .atomic import remove_leftovers, write_atomic
from .errors import CardiopromptError, ValidationError

MANIFEST = "manifest.json"


def _sha256(path: Path) -> str | None:
    """The file's sha256, read in chunks; None where there is no file."""
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 20):
                digest.update(chunk)
    except FileNotFoundError:
        return None
    return digest.hexdigest()


@functools.cache
def program_identity() -> str:
    """A digest of this package's own sources, the Python version and
    numpy's version.py (found without importing numpy), so that what another
    program wrote is never up to date."""
    package = Path(__file__).parent
    numpy_version = Path(importlib.util.find_spec("numpy").origin).with_name("version.py")
    digest = hashlib.sha256(f"{sys.version}\nnumpy {_sha256(numpy_version)}\n".encode())
    for path in sorted(package.rglob("*.py")):
        digest.update(f"{path.relative_to(package).as_posix()} {_sha256(path)}\n".encode())
    return digest.hexdigest()


def writers(table: dict) -> dict[str, str]:
    """The task that writes each stage artifact, by its name in the output directory."""
    return {name: task for task, row in table.items() for name in row.writes}


def _config_digest(row, doc: dict) -> str:
    """The sha256 of the config document's values of the row's `keys`, the keys its task reads."""
    return hashlib.sha256(json.dumps({key: doc[key] for key in row.keys}, sort_keys=True).encode()).hexdigest()


def _load_manifest(path: Path, table: dict, externals: dict) -> dict:
    """The manifest's entries by task; none where there is no manifest. An entry
    reads no more than its row's `reads` and the external inputs, so a walk up the writers ends."""
    try:
        entries = json.loads(path.read_text())
    except FileNotFoundError:
        return {}
    except ValueError as exc:
        raise ValidationError(f"{path} is not a manifest ({exc}); delete it to run every verb again") from exc
    if not isinstance(entries, dict) or not all(
        task in table and isinstance(entry, dict)
        and all(isinstance(entry.get(key), dict) for key in ("inputs", "outputs"))
        and entry["inputs"].keys() <= {*table[task].reads, *externals}
        for task, entry in entries.items()
    ):
        raise ValidationError(f"{path} is not a manifest; delete it to run every verb again")
    return entries


class Trace:
    """One run of `task` of `table`. `doc` is the config document and `args` the
    task's arguments besides it that decide what it writes; `externals` holds the
    paths of the inputs outside `output_dir`, by key."""

    def __init__(self, table: dict, task: str, doc: dict, args: dict, output_dir: str | Path, externals: dict):
        self.table, self.task, self.doc, self.externals = table, task, doc, externals
        self.writers = writers(table)
        self.output_dir = Path(output_dir)
        self.manifest = self.output_dir / MANIFEST
        self.key = {"config": _config_digest(table[task], doc), "args": args, "program": program_identity()}
        self.entries = _load_manifest(self.manifest, table, externals)
        self.digests: dict[str, str | None] = {}  # by file name, as `_digest` first took it
        self.writes: list[str] = []
        self._check_reads()

    def path(self, name: str) -> Path:
        return Path(self.externals[name]) if name in self.externals else self.output_dir / name

    def up_to_date(self) -> bool:
        """Whether this task's entry still matches: its key, each recorded
        input by the sha256 `_check_reads` took (the live cache by its own),
        and each output by its sha256."""
        entry = self.entries.get(self.task)
        if entry is None or any(entry.get(key) != value for key, value in self.key.items()):
            return False
        return all(self._digest(n) == entry["inputs"].get(n, "") for n in {*self.reads, *entry["inputs"]}) and all(
            _sha256(self.path(name)) == digest for name, digest in entry["outputs"].items()
        )

    def remove_leftovers(self):
        """What killed writes of this task's recorded outputs left behind."""
        for name in self.entries[self.task]["outputs"]:
            remove_leftovers(self.path(name))

    def _digest(self, name: str) -> str | None:
        """The sha256 of the file `name`, None where there is none, hashed
        once per run: no task writes a file that it or a lineage walk reads.
        `record` hashes the live cache anew, as run-grid leaves it."""
        if name not in self.digests:
            self.digests[name] = _sha256(self.path(name))
        return self.digests[name]

    def _writer(self, name: str) -> str | None:
        """The task that writes the stage artifact `name`; None for an external input."""
        return self.writers.get(name.split("/")[0])

    def _check_reads(self):
        """Hash each file of this task's row `reads` and walk its lineage, collecting
        every finding: a missing stage artifact, one its writer did not write, one
        made from a stage artifact changed since. Any raises one error naming the
        first finding and every task to run or rerun, once each, in pipeline order:
        each writer a finding names, and each task of the lineage that reads what
        one of those writes anew."""
        self.reads = {name: self._digest(name) for name in self.table[self.task].reads}
        found, sources = [], {}  # sources: by task of the lineage, the tasks whose files it read
        for name in self.reads:
            self._lineage(name, self.task, found, sources)
        missing = [name for name, digest in self.reads.items() if digest is None and name not in self.externals]
        anew = {task for _, task, changes in found if changes}
        for task in self.table:  # in pipeline order: a task reads only what an earlier one writes
            if task != self.task and sources.get(task, set()) & anew:
                anew.add(task)
        rerun = {self._writer(name) for name in missing} | {task for _, task, _ in found} | anew
        tasks = " and ".join(sorted(rerun, key=list(self.table).index))
        if missing:
            raise ValidationError(f"missing {' and '.join(map(str, map(self.path, missing)))}; run {tasks} first")
        if found:
            raise ValidationError(f"{found[0][0]}; rerun {tasks}")

    def record(self, name: str):
        """Record a file this task read with its sha256 now: the live cache, as run-grid leaves it."""
        self.reads[name] = _sha256(self.path(name))

    def _lineage(self, name: str, reader: str, found: list, sources: dict):
        """Walk up from the file `name`, which `reader` read, through its writers' entries.
        A file that is not what its writer wrote, or is gone, goes into `found` with that
        writer, which writes it again, anew unless `_rewrites` holds; one made from a stage
        artifact changed since with the task that made it, which writes it anew. A file no
        entry wrote ends the walk: an external input, or one older than the manifest. One
        that is gone goes into `found` with its writer, which writes it anew, and, where a
        writer read it, the walk goes on through what that writer's row reads."""
        if (task := self._writer(name)) is None:
            return
        sources.setdefault(reader, set()).add(task)
        if (entry := self.entries.get(task)) is None:
            if self._digest(name) is None:
                found.append((f"missing {self.path(name)}", task, True))
                for source in self.table[task].reads if reader != self.task else ():
                    self._lineage(source, task, found, sources)
            return
        if (digest := self._digest(name)) != entry["outputs"].get(name, digest):
            what = f"{self.path(name)} changed since {task} wrote it" if digest else f"missing {self.path(name)}"
            found.append((what, task, not self._rewrites(task, entry)))
        for source, made_from in entry["inputs"].items():
            # the source as its writer wrote it last, or as it is now where no entry records it
            outputs = self.entries.get(self._writer(source), {"outputs": {}})["outputs"]
            if self._writer(source) and outputs.get(source, self._digest(source)) != made_from:
                found.append((f"{name} was made from a {source} that has changed since", task, True))
            self._lineage(source, task, found, sources)

    def _rewrites(self, task: str, entry: dict) -> bool:
        """Whether `task`, run again, writes the bytes its entry records: under the same values
        of its config keys and program, from the same external inputs, and with no arguments,
        since those come from its own command line."""
        key = {"config": _config_digest(self.table[task], self.doc), "args": {}, "program": self.key["program"]}
        return all(entry.get(k) == v for k, v in key.items()) and all(
            self._digest(name) == digest for name, digest in entry["inputs"].items() if name in self.externals
        )

    def read(self, name: str, parse):
        """parse(path) of the stage artifact `name` of this task's row
        `reads`, which `_check_reads` found as its writer wrote it. Bytes
        `parse` raises on mean the writer should run again: the parsers leave
        naming the file to this one rule."""
        path, task = self.path(name), self._writer(name)
        try:
            return parse(path)
        except (CardiopromptError, ValueError, KeyError, TypeError) as exc:  # ValueError: not JSON, not UTF-8
            what = f"{type(exc).__name__}: {exc}"
            raise ValidationError(f"{path} is not as {task} writes it ({what}); rerun {task}") from exc

    def output(self, name: str) -> Path:
        """The path of an artifact this task writes, recorded for its entry."""
        self.writes.append(name)
        return self.path(name)

    def commit(self, wall_s: float):
        """Record this run as the task's entry. The other entries are taken
        as the manifest holds them now."""
        entries = _load_manifest(self.manifest, self.table, self.externals)
        entries[self.task] = {
            **self.key,
            "inputs": self.reads,
            "outputs": {name: _sha256(self.path(name)) for name in self.writes},
            "wall_s": round(wall_s, 3),
        }
        write_atomic(self.manifest, json.dumps(entries, indent=2, sort_keys=True) + "\n")
