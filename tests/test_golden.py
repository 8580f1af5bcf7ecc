"""Golden outputs: the README promises that identical configs give
byte-identical outputs, so the sha256 of every file the CLI writes for
the bundled configs in scripts/configs is pinned here.  Simulate runs
with snapshots switched on; the sweep config gives sweep.csv.

The digests were recorded on x86-64 Linux with Python 3.11 and numpy
2.4.  A change that moves any of them changes the numbers the toolkit
reports and has to say why.
"""

import hashlib
from pathlib import Path

import pytest
import yaml

from shockline.cli import EXIT_OK, main

CONFIGS = Path(__file__).resolve().parent.parent / "scripts" / "configs"

GOLDEN = {
    "demo_t32": {
        "check": {
            "verdict.json": "d48a26df0d20d88bb2df68058a01a8c50e8c11a3dac9cecf9495bd068952329f",
        },
        "simulate": {
            "verdict.json": "d48a26df0d20d88bb2df68058a01a8c50e8c11a3dac9cecf9495bd068952329f",
            "monitors.csv": "e427d492754b223516caf29a3e2882f1e11d2bc2635fcecffa73042b7eec3041",
            "summary.txt": "f98eedaa1835796017f3830319d828359b79c690943a569bbf9088d156d30826",
            "snapshots.bin": "7e8ef61b525d8ff21887f505f485480a2b35e0910d6e8b5a2f47b615d0125322",
        },
    },
    "demo_t41": {
        "check": {
            "verdict.json": "17946b42b25062f6962e57341c0f33971d7142b381c13606efa7667e994b7bca",
        },
        "simulate": {
            "verdict.json": "17946b42b25062f6962e57341c0f33971d7142b381c13606efa7667e994b7bca",
            "monitors.csv": "1e86b857cd98a2ae867bfde9fb05d762c269f4187b3b16b6c0453f3511c4e038",
            "summary.txt": "62edf7970db3d649f3349b0a748562f88cf2d4ff4d6daa81ebd663a887a51c2e",
            "snapshots.bin": "0a7c6228eac0f91e7543ef8468de5d01a321c0b952c763ed26fb0e36a24e4158",
        },
    },
    "gentle_audit": {
        "check": {
            "verdict.json": "2d5332e7b27b29dc0a5b68a5fafff169204bd45dafe7b44b082cec2cf4f633bc",
        },
        "simulate": {
            "verdict.json": "2d5332e7b27b29dc0a5b68a5fafff169204bd45dafe7b44b082cec2cf4f633bc",
            "monitors.csv": "74ae96c3d1471378af35602483c957ce40d300d5be3f1ba2371b0e9a44ad4ce0",
            "summary.txt": "214b60d21f7578564764794798aae81c9f05c39bcc682f7a663e68404040ea7c",
            "snapshots.bin": "a1d44b2186242126dc77ee9bcf75d5e9c45a8f39cf92293ad60b20435d8d5a18",
            "trace.csv": "a06df9b35db71fdc7f77d6dc77a557283f5e56969cfdb1534c8f6755e52b33be",
        },
    },
    "sweep_gap": {
        "sweep": {
            "sweep.csv": "7ac31bfe5a2b6cdb98a87b19b7b39d5393d928b1e1b2529a0f071a6af4b3225e",
        },
    },
}


def test_every_bundled_config_is_pinned():
    assert sorted(p.stem for p in CONFIGS.glob("*.yaml")) == sorted(GOLDEN)


@pytest.mark.parametrize(
    "config,verb",
    [(config, verb) for config, verbs in GOLDEN.items() for verb in verbs],
)
def test_outputs_byte_identical(tmp_path, capsys, config, verb):
    cfg = yaml.safe_load((CONFIGS / f"{config}.yaml").read_text())
    if verb == "simulate":
        cfg["outputs"]["snapshots"] = True
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "out"
    argv = [verb, "--config", str(path), "--out", str(out)]
    if verb == "sweep":
        argv += ["--jobs", "1"]
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    written = sorted(p.name for p in out.iterdir())
    assert written == sorted(GOLDEN[config][verb])
    for name, digest in GOLDEN[config][verb].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
