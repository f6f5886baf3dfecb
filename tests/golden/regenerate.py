"""Rewrite digests.json from the argvs in tests/test_golden.py.

Run from the repository root: ``PYTHONPATH=src python tests/golden/regenerate.py``.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from test_golden import ARGVS, DIGESTS, artifact_digests, versions  # noqa: E402


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        entries = [artifact_digests(argv, workdir) for argv in ARGVS]
    # one entry per line, so a changed digest shows in a diff beside its argv
    lines = ",\n  ".join(json.dumps(e) for e in entries)
    DIGESTS.write_text(f'{{\n "versions": {json.dumps(versions())},\n "entries": [\n  {lines}\n ]\n}}\n')
    print(f"wrote {len(entries)} entries to {DIGESTS}")


if __name__ == "__main__":
    main()
