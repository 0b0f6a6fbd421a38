"""Output bytes pinned across commits.

``golden.json`` holds, for each command line below, the exit code and the
sha256 of stdout, of stderr and of each file the command writes.  Paths are
masked: ``{tmp}`` is the command's own empty directory and ``{in}`` holds
its input files.  A command whose bytes pass through ``np.cos``, ``lstsq``
or BLAS may differ on another CPU, numpy build or Python, so its bytes are
checked only in the environment that wrote the manifest; its exit code is
checked everywhere, and so are the bytes of every other command.

Changing the manifest is a change of results.  Rewrite it with
``PYTHONPATH=src python tests/test_golden.py`` and name in CHANGES.md the
entries that changed and why.
"""

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from bellband.cli import main

MANIFEST = Path(__file__).with_name("golden.json")

_GRID = "--candidate grid --candidate-file {in}/grid.json"
_SEEDS = (0, 1, 2**64 - 1)

#: commands whose bytes pass through np.cos, lstsq or BLAS
NUMERIC = [
    # the criterion-10 commands
    "simulate --theta 1.0472 --n 20000 --seed 42 --out {tmp}/out.csv",
    "lhv --theta-a 0 --theta-b 2.0 --n 20000 --seed 9 --out {tmp}/out.csv",
    "octet --theta1 1.0472 --theta2 1.5708 --theta3 2.0944 --n 20000 --seed 11 --out {tmp}/out.csv",
    "band-map --resolution 7 --out {tmp}/out.csv",
    *(f"analyze {candidate} --seed {seed}" for candidate in (
        "--candidate product", "--candidate locality", "--candidate product-diagonal", _GRID,
    ) for seed in _SEEDS),
    # 200000 rows are four blocks of the sequence codec
    "octet --theta1 1 --theta2 2 --theta3 3 --n 200000 --seed 1 --out {tmp}/out.csv",
    "boole --in {in}/octet.csv",
    # 200003 draws are three whole sampler chunks and a short fourth
    "simulate --theta 1.0472 --n 200003 --seed 5 --out {tmp}/out.csv",
    "lhv --theta-a 0.3 --theta-b 2.2 --n 200003 --seed 5 --out {tmp}/out.csv",
    "octet --theta1 60 --theta2 90 --theta3 30 --degrees --f -0.25 --n 1000 --seed 3"
    " --out {tmp}/out.csv",
    "simulate --theta 60 --degrees --n 1000 --seed 7 --out {tmp}/out.csv",
    "band-map --resolution 50 --out {tmp}/out.csv",
    "scan --candidate product --resolution 50",
    "scan --candidate locality --resolution 10",
    # 30^3 nodes are two blocks of the scan, with thousands of band violations
    "scan --candidate locality --resolution 30",
    "scan --candidate product-diagonal --resolution 5",
    # 26^3 nodes are more than one block of the scan
    f"scan {_GRID} --resolution 26",
    "band --theta1 0 --theta2 0 --theta3 0",
    "band --theta1 120 --theta2 30 --theta3 45 --degrees",
    # a correlation within 1e-9 of +1, where the band collapses
    "band --theta1 3.141551328082391 --theta2 0 --theta3 0",
    "chsh --theta1 2.3562 --theta2 0.7854 --theta3 0.7854 --candidate locality",
    f"chsh --theta1 0.5 --theta2 1.5 --theta3 2.5 {_GRID}",
    "lp-band --c1 -0.5 --c2 0.0 --c3 0.5",
    "lp-band --c1 -5e-1 --c2 0 --c3 0.5",
    # edges: correlations of +-1, and bands that collapse to a point
    "lp-band --c1 1 --c2 1 --c3 1",
    "lp-band --c1 -1 --c2 -1 --c3 -1",
    "lp-band --c1 1 --c2 -1 --c3 -1",
    "lp-band --c1 0.9999999991461013 --c2 -1 --c3 -1",
    "lp-band --c1 -1 --c2 0 --c3 0",
    "lp-band --c1 1 --c2 0.5 --c3 0.5",
]

#: commands whose bytes do not depend on floating-point libraries: CI's
#: rejected inputs, which exit 1 or 2 with one error line, and the version
PORTABLE = [
    "--version",
    "band --theta1 0",
    "band --theta1 0 --theta2 0 --theta3 0 --bogus",
    "band --theta1 nan --theta2 0 --theta3 0",
    "simulate --theta inf --n 10 --out {tmp}/out.csv",
    "lp-band --c1 2 --c2 0 --c3 0",
    "octet --theta1 1 --theta2 2 --theta3 3 --f nan --n 10 --out {tmp}/out.csv",
    "band-map --resolution 201 --out {tmp}/out.csv",
    "boole --in {tmp}",
    "scan --candidate grid --candidate-file {in}/bad.json --resolution 5",
    "scan --candidate product --candidate-file {in}/bad.json --resolution 5",
]


def environment() -> dict:
    return {
        "numpy": np.__version__,
        "python": f"{sys.version_info.major}.{sys.version_info.minor}",
        "machine": platform.machine(),
    }


def write_inputs(directory: Path) -> None:
    """The input files that commands read from ``{in}``."""
    values = np.random.default_rng(26).uniform(-1.0, 1.0, 26 ** 3)
    doc = {"kind": "grid", "name": "golden", "resolution": 26, "values": values.tolist()}
    (directory / "grid.json").write_text(json.dumps(doc))
    (directory / "bad.json").write_text("not json")
    code, _, _, _ = outcome(
        "octet --theta1 1 --theta2 2 --theta3 3 --n 20000 --seed 5 --out {in}/octet.csv",
        directory, directory,
    )
    assert code == 0


def outcome(command: str, inputs: Path, tmp: Path) -> tuple:
    """Run one command in process: its exit code, stdout and stderr with
    the two directories masked, and the files it left in ``tmp``."""
    argv = [arg.replace("{in}", str(inputs)).replace("{tmp}", str(tmp)) for arg in command.split()]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors and --version
            code = exc.code
    masked = [
        text.getvalue().replace(str(inputs), "{in}").replace(str(tmp), "{tmp}")
        for text in (out, err)
    ]
    files = {path.name: path.read_bytes() for path in sorted(tmp.iterdir())}
    return code, *masked, files


def _sha256(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def digest(code, out: str, err: str, files: dict) -> dict:
    return {
        "exit": code,
        "stdout": _sha256(out),
        "stderr": _sha256(err),
        "files": {name: _sha256(data) for name, data in files.items()},
    }


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden-inputs")
    write_inputs(directory)
    return directory


@pytest.fixture(scope="module")
def manifest():
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def test_manifest_covers_every_command(manifest):
    assert list(manifest["entries"]) == NUMERIC + PORTABLE


@pytest.mark.parametrize("command", NUMERIC + PORTABLE)
def test_output_bytes(command, manifest, inputs, tmp_path):
    want = manifest["entries"][command]
    code, out, err, files = outcome(command, inputs, tmp_path)
    got = digest(code, out, err, files)
    assert got["exit"] == want["exit"]
    recorded = manifest["environment"]
    if command in NUMERIC and environment() != recorded:
        pytest.skip(f"bytes recorded with {recorded}, running on {environment()}")
    assert got == want, err


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as base:
        inputs = Path(base, "in")
        inputs.mkdir()
        write_inputs(inputs)
        entries = {}
        for k, command in enumerate(NUMERIC + PORTABLE):
            tmp = Path(base, f"case{k}")
            tmp.mkdir()
            entries[command] = digest(*outcome(command, inputs, tmp))
    doc = {"environment": environment(), "entries": entries}
    MANIFEST.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
