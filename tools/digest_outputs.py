"""Digests of every output of the bench's op lists and of the demos.

    python3 tools/digest_outputs.py [--seeds 1 2 3 4 5]

Run from anywhere: the program is imported from the src directory of the
checkout this file sits in, and the op lists are built by that checkout's
bench/workloads.py, read only, in a temporary work directory.  Each op runs
once.  A CLI op contributes its (status, stdout, stderr), a library op the
`repr` of its result, with NumPy arrays printed in full at round-trip
precision.  Each demo contributes its standard output.  The script prints
one SHA-256 per workload, over all the seeds, and one for the demos, so two
checkouts give the same lines exactly when their outputs are the same.

It also prints one `trees` SHA-256 over `repr(parse(text))` of every text
the op lists pass to `sigexpr.parse`, in call order, so a parser change that
keeps every output but builds another tree shows too.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"


def workload_digest(name: str, make_ops, seeds, workdir: Path) -> str:
    """The digest of one workload's outputs over the seeds, in op order.
    The work directory's path is masked, so digests made in different
    directories compare."""
    import numpy as np

    h = hashlib.sha256()
    for seed in seeds:
        where = workdir / f"{name}-{seed}"
        where.mkdir()
        # the same seed string as bench/run.py, so the same inputs
        ops = make_ops(random.Random(f"{name}:{seed}"), where)
        for op in ops:
            try:
                out = op.call()
            except Exception as exc:    # a raising op is an output too
                out = f"raised {type(exc).__name__}: {exc}"
            with np.printoptions(threshold=sys.maxsize, floatmode="unique"):
                text = repr(out)
            h.update(op.name.replace(str(where), "<work>").encode())
            h.update(b"\0")
            h.update(text.replace(str(where), "<work>").encode())
            h.update(b"\0")
    return h.hexdigest()


def recording_parse(texts: list[str]):
    """The parser, after every algspec module that holds `sigexpr.parse`
    was given a wrapper that appends each text it is called on to texts."""
    import algspec.sigexpr

    parse = algspec.sigexpr.parse

    def recording(text):
        texts.append(text)
        return parse(text)

    for modname, mod in list(sys.modules.items()):
        if modname.partition(".")[0] == "algspec":
            for key, value in list(vars(mod).items()):
                if value is parse:
                    setattr(mod, key, recording)
    return parse


def trees_digest(parse, texts: list[str]) -> str:
    """The digest of the tree, or the failure, that each text parses to."""
    h = hashlib.sha256()
    for text in texts:
        try:
            out = repr(parse(text))
        except Exception as exc:        # a refusal is an outcome too
            out = f"raised {type(exc).__name__}: {exc}"
        h.update(text.encode() + b"\0" + out.encode() + b"\0")
    return h.hexdigest()


def demos_digest() -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    h = hashlib.sha256()
    for demo in sorted((ROOT / "demos").glob("*.py")):
        proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT,
                              env=env, capture_output=True, timeout=600)
        h.update(demo.name.encode() + b"\0" + proc.stdout + b"\0")
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    args = ap.parse_args(argv)

    sys.path[:0] = [str(SRC), str(BENCH)]
    from workloads import WORKLOADS

    texts = []
    parse = recording_parse(texts)
    with tempfile.TemporaryDirectory() as tmp:
        for name, make_ops in WORKLOADS.items():
            digest = workload_digest(name, make_ops, args.seeds, Path(tmp))
            print(f"{name}  {digest}", flush=True)
    print(f"trees  {trees_digest(parse, texts)}", flush=True)
    print(f"demos  {demos_digest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
