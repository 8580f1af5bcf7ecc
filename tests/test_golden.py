"""Golden outputs: the README promises that identical configs give
byte-identical outputs, so the sha256 of every file the CLI writes for
the bundled configs in scripts/configs is pinned here.  Simulate runs
with snapshots switched on; the sweep config gives sweep.csv.  The
bundled sweep has t_end 0 and runs no solver, so a test-local sweep
(SOLVER_SWEEP) pins the rows that come from runs: breakdown brackets,
floor audits and the error rows of lambda next to 1.

The digests were recorded on x86-64 Linux with Python 3.11 and numpy
2.4, on numpy's AVX-512 (X86_V4) kernels and again with those disabled
(NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"), which leaves
its AVX2 (X86_V3) kernels.  The two paths differ in the last bit of some
powers, exponentials and logarithms, which moves most outputs of a run:
each such pin holds one exact digest per path (conftest.kernel_path),
and the pins that both paths share hold one.  A change that moves any of
them changes the numbers the toolkit reports and has to say why.
"""

import hashlib
from pathlib import Path

import pytest
import yaml
from conftest import kernel_path

from shockline.cli import EXIT_OK, main

CONFIGS = Path(__file__).resolve().parent.parent / "scripts" / "configs"

GOLDEN = {
    "demo_t32": {
        "check": {
            "verdict.json": "d48a26df0d20d88bb2df68058a01a8c50e8c11a3dac9cecf9495bd068952329f",
        },
        "simulate": {
            "verdict.json": "d48a26df0d20d88bb2df68058a01a8c50e8c11a3dac9cecf9495bd068952329f",
            "monitors.csv": kernel_path(
                "e427d492754b223516caf29a3e2882f1e11d2bc2635fcecffa73042b7eec3041",
                "9284cd7c90c84c3daffc8091510993a6afc35ccfae6f16ed70e734e9f8da6791"),
            "summary.txt": kernel_path(
                "f98eedaa1835796017f3830319d828359b79c690943a569bbf9088d156d30826",
                "cbe5df0f7bb9a99e6b68901d4f6fcbfc5bf2eec80ab30d0e7cc6b7ed8430bf8e"),
            "snapshots.bin": kernel_path(
                "7e8ef61b525d8ff21887f505f485480a2b35e0910d6e8b5a2f47b615d0125322",
                "40eff2b95c9227b99160e73a8b6be8567c6db0eb5ddafba771b2cc622574b544"),
        },
    },
    "demo_t41": {
        "check": {
            "verdict.json": "17946b42b25062f6962e57341c0f33971d7142b381c13606efa7667e994b7bca",
        },
        "simulate": {
            "verdict.json": "17946b42b25062f6962e57341c0f33971d7142b381c13606efa7667e994b7bca",
            "monitors.csv": kernel_path(
                "1e86b857cd98a2ae867bfde9fb05d762c269f4187b3b16b6c0453f3511c4e038",
                "addd6fb1baf4b190ff0fadbd382399c6d79ce5cc91717b55e2c0e673c29a6d82"),
            "summary.txt": kernel_path(
                "62edf7970db3d649f3349b0a748562f88cf2d4ff4d6daa81ebd663a887a51c2e",
                "38d4db99fb98064276bb47f1caab771300b81efd89ee3cee5eee2ef59713a0ab"),
            "snapshots.bin": kernel_path(
                "0a7c6228eac0f91e7543ef8468de5d01a321c0b952c763ed26fb0e36a24e4158",
                "099bb019aacefe55fe86d2ca709acb10c48233d485bf24b767330029c26367d9"),
        },
    },
    "gentle_audit": {
        "check": {
            "verdict.json": "2d5332e7b27b29dc0a5b68a5fafff169204bd45dafe7b44b082cec2cf4f633bc",
        },
        "simulate": {
            "verdict.json": "2d5332e7b27b29dc0a5b68a5fafff169204bd45dafe7b44b082cec2cf4f633bc",
            "monitors.csv": kernel_path(
                "74ae96c3d1471378af35602483c957ce40d300d5be3f1ba2371b0e9a44ad4ce0",
                "8dfcd3c0a1956b52afd247dc9a37af5cdd1105d2d665104be3f684973717021c"),
            "summary.txt": "214b60d21f7578564764794798aae81c9f05c39bcc682f7a663e68404040ea7c",
            "snapshots.bin": kernel_path(
                "a1d44b2186242126dc77ee9bcf75d5e9c45a8f39cf92293ad60b20435d8d5a18",
                "451fc035d2ad82436d032c1bfdae22941bc90c841f887943b280550db0670156"),
            "trace.csv": kernel_path(
                "a581842eb37a5f4810900ea2d5e62f1aa5cee765bcbb06c769200b8a4f0359f8",
                "40f4e8bc3e1b713698fa558acdd6fb7c44e246ec1f3c5c993593f472b3ab25d3"),
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


# gamma x lambda at n=64 up to t = 1: gamma 1.5 to 2.5 audit the
# density floor (past its onset, or with the floor outside double range
# at some steps), gamma 3 is a config error, gamma 4 to 5 break down at
# lambda 1 and just above it, and lambda next to 1 gives RangeError rows
# from gamma 2 on (above gamma 3 only for lambda below 1)
SOLVER_SWEEP = {
    "gas": {"gamma": 2.0, "big_k": 1.0},
    "damping": {"alpha": 1.0, "lambda": 0.0},
    "grid": {"n": 64, "L": 5.0},
    "profile": {"preset": "gaussian", "tau0": 1.0, "u_amp": -1.5,
                "tau_amp": 0.1, "width": 0.3},
    "run": {"t_end": 1.0, "cfl": 0.4},
    "sweep": {"axes": [
        {"name": "gamma", "start": 1.5, "stop": 5.0, "count": 8},
        {"name": "lambda", "start": 0.995, "stop": 1.005, "count": 5},
    ]},
}
SOLVER_SWEEP_DIGEST = kernel_path(
    "bc6805bb5312f66645f41f94481e9b916f67c693cd3727d75e56ad75f89b9e45",
    "bfa7c06725a5645dfbd18f6cac1eb5f297229789b72c26a141ab346df6798df7")


def test_solver_sweep_byte_identical(tmp_path, capsys):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(SOLVER_SWEEP))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out), "--jobs", "1"]) == EXIT_OK
    capsys.readouterr()
    data = (out / "sweep.csv").read_bytes()
    assert b"Traceback" not in data and b"RangeError: exponent" in data
    assert hashlib.sha256(data).hexdigest() == SOLVER_SWEEP_DIGEST
