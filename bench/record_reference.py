#!/usr/bin/env python3
"""Record ``bench/reference.json`` from the current commit.

    python3 bench/record_reference.py

Runs one pass of every workload at the reference seed, requires every
response to pass the seed-independent checks, and stores the gate's digest
of each artifact.  Record only at a commit whose outputs are known good;
the benchmark then holds later commits to them.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys

from gate import MANIFEST, REFERENCE_PATH, REFERENCE_SEED, Gate, digest, read_outputs, request_sha256
from run import Setup, _work_dir
from workloads import WORKLOADS


def record(workload: str) -> list:
    work = _work_dir(workload, REFERENCE_SEED, "record")
    try:
        setup = Setup(workload, REFERENCE_SEED, work)
        gate = Gate(workload, REFERENCE_SEED, setup.mix, setup.presets, setup.in_dir,
                    setup.out_root, use_reference=False)
        entries = []
        for i, (req, argv) in enumerate(zip(setup.mix, setup.argvs)):
            with contextlib.redirect_stdout(io.StringIO()):
                rc = setup.cli.main(argv)
            outputs = read_outputs(setup.out_root / f"r{i}")
            errors = gate.check(i, rc, outputs)
            if errors:
                raise SystemExit(f"{workload} request {i} fails its checks: {errors[:3]}")
            entries.append({
                "request_sha256": request_sha256(req),
                "outputs": {k: digest(k, v) for k, v in outputs.items() if k != MANIFEST},
            })
        return entries
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    reference = {workload: record(workload) for workload in WORKLOADS}
    REFERENCE_PATH.write_text(json.dumps(reference, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_PATH} ({REFERENCE_PATH.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
