"""Regenerate ``refs.json``, the stored reference outputs of every pool
input of every workload.

    python3 bench/make_refs.py

Run it only at a commit whose outputs are known to be right: the
benchmark counts every later output that differs as a failed operation.
An input whose output fails its own checks (non-zero exit, a listed
certify failure, a broken filling contract) stops the script.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import OUT, REFS, git_commit, load_lib
from workloads import WORKLOADS


def main() -> int:
    refs = {}
    lib = load_lib()
    workdir = OUT / "make-refs"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in sorted(WORKLOADS):
            wl = WORKLOADS[name](lib, workdir)
            table = {}
            for key in wl.all_keys():
                out = wl.op(wl.prepare(key))
                table[key] = wl.reference(key, out)
                if not wl.matches(key, out, table[key]):
                    print(f"{name} {key}: output fails its checks", file=sys.stderr)
                    return 1
            refs[name] = table
            print(f"{name}: {len(table)} references")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    refs["generated_at_commit"] = git_commit()
    REFS.write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
