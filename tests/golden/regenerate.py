"""Rewrite digests.json from the argvs in tests/test_golden.py.

Run from the repository root: ``python tests/golden/regenerate.py``; it puts
``src/`` on ``sys.path`` itself, so ``PYTHONPATH=src`` is optional.
Before it overwrites the file, it prints each argv whose exit code or file
digests changed, with the old and the new values.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE.parent)]

from test_golden import ARGVS, DIGESTS, artifact_digests, versions  # noqa: E402


def report_moves(old_entries, entries) -> None:
    old = {json.dumps(e["argv"]): e for e in old_entries}
    for entry in entries:
        before = old.get(json.dumps(entry["argv"]), {"exit": None, "files": {}})
        if before == entry:
            continue
        print(" ".join(entry["argv"]))
        if before["exit"] != entry["exit"]:
            print(f"  exit: {before['exit']} -> {entry['exit']}")
        for name in sorted(set(before["files"]) | set(entry["files"])):
            was, now = before["files"].get(name), entry["files"].get(name)
            if was != now:
                print(f"  {name}: {was} -> {now}")


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        entries = [artifact_digests(argv, workdir) for argv in ARGVS]
    report_moves(json.loads(DIGESTS.read_text())["entries"] if DIGESTS.exists() else [], entries)
    # one entry per line, so a changed digest shows in a diff beside its argv
    lines = ",\n  ".join(json.dumps(e) for e in entries)
    DIGESTS.write_text(f'{{\n "versions": {json.dumps(versions())},\n "entries": [\n  {lines}\n ]\n}}\n')
    print(f"wrote {len(entries)} entries to {DIGESTS}")


if __name__ == "__main__":
    main()
