"""Record the reference outputs of every workload at seed 0.

    python3 perfbench/record.py

Runs two untraced passes of each workload, requires them to be
byte-identical, and stores the first pass's outputs under
perfbench/reference/<workload>/<operation>/ with a manifest of SHA-256
digests and grid-update counts.  snapshots.bin is stored as a digest
(see verify.snapshot_digest).  Re-record only when a change to the
program is meant to change its outputs, and say so in that change.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import verify
import workloads
from run import BENCH_DIR, REFERENCE_DIR, ROOT, SRC


def record(workload: str) -> None:
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_record-") as tmp:
        work = Path(tmp)
        configs = work / "configs"
        workloads.generate(workload, 0, configs)
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "runner.py"), "--src", str(SRC),
             "--workload", workload, "--configs", str(configs), "--work", str(work),
             "--seconds", "0", "--trace", "0", "--result", str(work / "runner.json")],
            check=True, cwd=ROOT,
        )
        first, second = json.loads((work / "runner.json").read_text())["passes"][:2]
        out_dir = REFERENCE_DIR / workload
        shutil.rmtree(out_dir, ignore_errors=True)
        manifest = {"workload": workload, "ops": {}}
        for rec, rec2 in zip(first["ops"], second["ops"]):
            if rec["exit"] != 0 or rec2["exit"] != 0:
                raise SystemExit(f"{workload}/{rec['op']}: exit code {rec['exit']}")
            src = work / first["dir"] / rec["op"]
            dst = out_dir / rec["op"]
            dst.mkdir(parents=True)
            files = {}
            for path in sorted(src.iterdir()):
                sha = verify.sha256(path)
                if sha != verify.sha256(work / second["dir"] / rec["op"] / path.name):
                    raise SystemExit(f"{workload}/{rec['op']}/{path.name}: passes differ")
                files[path.name] = {"sha256": sha, "bytes": path.stat().st_size}
                if path.name == "snapshots.bin":
                    np.savez(dst / "snapshots.npz", **verify.snapshot_digest(path))
                else:
                    shutil.copyfile(path, dst / path.name)
            manifest["ops"][rec["op"]] = {"grid_updates": rec["grid_updates"], "files": files}
        (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
        print(f"{workload}: recorded {len(manifest['ops'])} operations")


if __name__ == "__main__":
    for name in workloads.WORKLOADS:
        record(name)
