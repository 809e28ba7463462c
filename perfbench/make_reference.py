"""Write reference.json: exit code and stdout sha256 of every pool job.

Usage: python3 perfbench/make_reference.py

Run it once on a commit whose outputs are trusted.  A change that alters
the output bytes of a pool job on purpose must regenerate the file and say
so; otherwise the benchmark counts that job as failed.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile

from jobs import all_pool_jobs, job_key
from run import REFERENCE, WORK_PARENT, child_env, spawn


def main() -> int:
    WORK_PARENT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="reference-", dir=WORK_PARENT)
    env = child_env()
    reference = {}
    try:
        for job in all_pool_jobs():
            cmd = [sys.executable, "-m", "qkdv.cli", "--cache-dir", work + "/cache", *job]
            seconds, code, out = spawn(cmd, env, work, work + "/stderr.txt")
            reference[job_key(job)] = {
                "exit": code,
                "sha256": hashlib.sha256(out).hexdigest(),
                "bytes": len(out),
            }
            print(f"{seconds:8.3f} s  exit {code}  {job_key(job)}", flush=True)
    finally:
        shutil.rmtree(work)
        WORK_PARENT.rmdir()
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
