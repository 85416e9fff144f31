"""Stage artifacts written whole or not at all.

Imports neither numpy nor a pipeline stage: the command line removes what
killed writes left, and writes its manifest, without loading the pipeline.
"""

from __future__ import annotations

import glob
import os
from pathlib import Path


def write_atomic(path: str | Path, text: str) -> None:
    """Write a stage artifact whole or not at all.

    The text goes to a temporary file `.<name>.<16 hex>.tmp` in the same
    directory, which then replaces `path` in one rename, so a killed process
    or a failed write leaves the previous artifact's bytes, never a torn file.
    Temporary files of this artifact that a killed write left behind are
    removed first. The promise covers a killed process, not a lost machine:
    nothing is fsynced, so a power loss or a kernel crash can still lose or
    tear a file the operating system had not yet written out (an fsync per
    completion-cache append would cost a system call per live prompt).
    Parent directories are created. Newlines are written as given.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    remove_leftovers(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "x", newline="")  # permissions from the umask, as a plain write's
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink()
        raise


def remove_leftovers(path: Path) -> None:
    """Remove the temporary files `.<name>.<16 hex>.tmp` that killed
    write_atomic calls for `path` left in its directory."""
    for leftover in path.parent.glob(f".{glob.escape(path.name)}.{'[0-9a-f]' * 16}.tmp"):
        leftover.unlink(missing_ok=True)
