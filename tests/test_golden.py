"""Golden artifact digests: the bytes of every artifact kind the CLI writes.

``golden/digests.json`` holds, for each argv in ``ARGVS``, the exit code and
the sha256 of every file the run writes, together with the Python and numpy
versions that produced them.  Float formatting and LAPACK results may differ
under other versions, so a version mismatch fails; it does not skip.  A change
that alters artifact bytes on purpose regenerates the file with
``PYTHONPATH=src python tests/golden/regenerate.py`` and lists each changed
entry, with its reason, in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
from pathlib import Path

import numpy as np

from quasilab.cli import main

DIGESTS = Path(__file__).parent / "golden" / "digests.json"

# one small argv per subcommand and output format; every artifact goes to a
# file, because the output paths are part of the metadata and so of the bytes
ARGVS = [
    ["sequence", "--s", "2", "--n", "6", "--twin-k", "3", "--output", "out.csv"],
    ["sequence", "--n", "7", "--beta", "0.25", "--format", "json", "--output", "out.json"],
    ["sequence", "--n", "5", "--twin-k", "3", "--format", "json", "--output", "out.json"],
    ["spectrum1d", "--lambda", "0.5", "--level", "10", "--resolution", "1e-3", "--output", "out.csv"],
    ["spectrum1d", "--s", "2", "--a", "2", "--level", "8", "--grid", "257", "--format", "json",
     "--output", "out.json"],
    ["spectrum1d", "--lambda", "1", "--levels", "4,6,8", "--resolution", "1e-3", "--format", "svg",
     "--output", "out.svg"],
    ["spectrum1d", "--a", "2", "--levels", "3,6", "--grid", "257", "--output", "out.csv"],
    ["dos1d", "--a", "2", "--N", "65", "--grid", "11", "--phases", "3", "--seed", "1",
     "--output", "out.csv"],
    ["dos1d", "--lambda", "0.5", "--N", "40", "--grid", "9", "--output", "out.csv"],
    ["dos1d", "--lambda", "0.5", "--N", "64", "--grid", "21", "--emin", "-3", "--format", "json",
     "--output", "out.json"],
    ["dos1d", "--s", "2", "--lambda", "1", "--N", "48", "--grid", "21", "--format", "svg",
     "--output", "out.svg"],
    ["spectrum2d", "--lambda1", "0.5", "--a2", "1.5", "--level", "8", "--resolution", "1e-3",
     "--output", "out.csv"],
    ["spectrum2d", "--s", "2", "--lambda1", "0.3", "--lambda2", "0.3", "--level", "6",
     "--format", "json", "--output", "out.json"],
    ["spectrum2d", "--a1", "2", "--a2", "1", "--level", "7", "--grid", "513", "--format", "svg",
     "--output", "out.svg"],
    ["dos2d", "--lambda1", "0.5", "--lambda2", "0.5", "--N", "33", "--grid", "41", "--bins", "16",
     "--output", "out.csv", "--histogram-output", "hist.csv"],
    ["dos2d", "--s", "2", "--a1", "1.3", "--a2", "2", "--N", "32", "--grid", "21", "--bins", "8",
     "--format", "json", "--output", "out.json"],
    ["dos2d", "--a1", "1.3", "--lambda2", "0.8", "--N", "20", "--grid", "15", "--bins", "6",
     "--format", "json", "--output", "out.json", "--histogram-output", "hist.csv"],
    ["dos2d", "--a1", "1.7", "--a2", "0.6", "--N", "17", "--grid", "31", "--format", "svg",
     "--output", "out.svg"],
    ["thickness", "--a", "4", "--level", "10", "--output", "out.csv", "--gaps-output", "gaps.csv"],
    ["thickness", "--lambda", "1", "--levels", "4,8", "--format", "json", "--output", "out.json"],
    ["thickness", "--a", "3", "--levels", "4,8", "--output", "out.csv"],
    ["sweep", "--steps", "2", "--level", "6", "--output", "out.csv"],
    ["sweep", "--s", "2", "--steps", "2", "--level", "5", "--lambda-max", "0.5", "--format", "json",
     "--output", "out.json"],
    ["sweep", "--steps", "3", "--level", "5", "--format", "svg", "--output", "out.svg"],
    # every criterion but 14, which reruns all the others twice
    ["verify", "--criteria", "1,2,3,4,5,6,7,8,9,10,11,12,13", "--output", "out.txt"],
    ["verify", "--criteria", "1,2,3,4,5,6,7,8,9,10,11,12,13", "--format", "json", "--output", "out.json"],
]


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def artifact_digests(argv, workdir) -> dict:
    """Run ``argv`` in process inside the empty ``workdir``; its exit code and the
    sha256 of each file it writes, which are then deleted."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
    files = {}
    for name in sorted(os.listdir(workdir)):
        path = Path(workdir) / name
        files[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        path.unlink()
    return {"argv": list(argv), "exit": code, "files": files}


def test_artifacts_match_golden_digests(tmp_path):
    golden = json.loads(DIGESTS.read_text())
    assert golden["versions"] == versions(), (
        f"digests were made with {golden['versions']}, this run has {versions()}; "
        "regenerate them under these versions only if the difference is understood"
    )
    assert [e["argv"] for e in golden["entries"]] == ARGVS, "ARGVS changed; regenerate the digests"
    mismatches = []
    for entry in golden["entries"]:
        got = artifact_digests(entry["argv"], tmp_path)
        if got != entry:
            mismatches.append(f"{' '.join(entry['argv'])}\n  golden: exit {entry['exit']} {entry['files']}"
                              f"\n  now:    exit {got['exit']} {got['files']}")
    assert not mismatches, "artifact digests changed:\n" + "\n".join(mismatches)
