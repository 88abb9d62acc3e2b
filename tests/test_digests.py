"""Byte identity of every output the digest tool covers.

`tests/digests.txt` holds the eleven lines of
`tools/digest_outputs.py --seeds 1 2 3 4 5`.  A change that moves an output
on purpose rewrites that file with the tool's new lines and names each
changed line in its change notes.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_output_matches_the_recorded_digests():
    # The `roots` line is pinned too.  Its float poles start from LAPACK's
    # eigenvalues of a companion matrix, so on a host whose LAPACK rounds
    # them otherwise that line alone may differ while the program is right;
    # the other ten do not depend on it.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "digest_outputs.py"),
         "--seeds", "1", "2", "3", "4", "5"],
        capture_output=True, text=True, timeout=600)
    assert (proc.returncode, proc.stderr) == (0, "")
    want = (ROOT / "tests" / "digests.txt").read_text().splitlines()
    assert proc.stdout.splitlines() == want
