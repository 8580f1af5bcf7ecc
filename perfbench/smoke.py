"""Smoke test of the benchmark itself (not part of the tier-1 suite).

    python3 perfbench/smoke.py

Runs every workload once at the tiny size, untraced and traced, and
checks that each prints every metric BENCHMARK.json names with its
unit, that no operation failed, and that the checkout is unchanged
afterwards apart from bytecode caches.  Exits 0 when all hold.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IGNORED = {".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks"}


def tree_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(ROOT.rglob("*")):
        rel = path.relative_to(ROOT)
        if IGNORED.intersection(rel.parts) or not path.is_file():
            continue
        h.update(str(rel).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    before = tree_digest()
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            cmd = spec["command"] + ["--workload", workload, "--seed", "1",
                                     "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            tag = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            out = json.loads(lines[-1])
            if sorted(out) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{tag}: result keys {sorted(out)}")
            if not out["correct"] or out["failed"] != 0 or out["attempted"] < 1:
                problems.append(f"{tag}: correct={out['correct']} failed={out['failed']}"
                                f" attempted={out['attempted']}")
            if not any(line.startswith("failed_ratio: 0/") for line in lines):
                problems.append(f"{tag}: failed_ratio is not 0")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            if got != want:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(want.items()))}")
            for name, unit in want.items():
                if not any(line.startswith(f"{name}: ") and line.endswith(f" {unit}")
                           for line in lines):
                    problems.append(f"{tag}: {name} not printed with unit {unit}")
            print(f"{tag}: ok" if not problems else f"{tag}: checked", flush=True)
    if tree_digest() != before:
        problems.append("the checkout changed")
    for p in problems:
        print(f"problem: {p}")
    print("smoke: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
