"""Run one cardioprompt CLI verb in this process, as the benchmark's child.

    python3 bench/verb.py RESULT.json [--trace] -- <cardioprompt arguments>

Calls `cardioprompt.cli.main` with the arguments after `--` and writes
RESULT.json with the exit code, the time `main` took and, with --trace, the
spans recorded around the program's layers. The exit code is main's, so a
verb that fails here fails the same way from the `cardioprompt` command.
The package must come from the `src` directory beside this benchmark; any
other copy is refused with exit code 97.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str]) -> int:
    split = argv.index("--")
    result_path, flags, cli_args = Path(argv[0]), argv[1:split], argv[split + 1 :]
    sys.path.insert(0, str(SRC))
    import cardioprompt.cli

    if not Path(cardioprompt.cli.__file__).resolve().is_relative_to(SRC):
        print(f"cardioprompt was imported from {cardioprompt.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 97
    recorder = None
    if "--trace" in flags:
        import tracer

        recorder = tracer.install()
    start = time.perf_counter()
    try:
        rc = cardioprompt.cli.main(cli_args)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        rc = exc.code if isinstance(exc.code, int) else 1
    main_s = time.perf_counter() - start
    doc = {"rc": rc, "main_s": main_s, "spans": recorder.dump() if recorder else []}
    result_path.write_text(json.dumps(doc))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
