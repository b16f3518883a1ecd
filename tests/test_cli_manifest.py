"""The byte gate, tools/cli_manifest.py, on this tree."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "cli_manifest.py"
_spec = importlib.util.spec_from_file_location("cli_manifest", TOOL)
cli_manifest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_manifest)


def manifest(outdir):
    done = subprocess.run([sys.executable, TOOL, "--tree", ROOT, "--kernel", "numpy", outdir],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_two_numpy_runs_print_one_manifest_and_every_call_exits_as_listed(tmp_path):
    first, second = manifest(tmp_path / "a"), manifest(tmp_path / "b")
    assert first == second
    calls = [line.split() for line in first.splitlines() if line.startswith("call ")]
    assert [(fields[1], int(fields[3])) for fields in calls] == [
        (name, code) for name, _, code in cli_manifest.CALLS]
    files = {line.split()[1] for line in first.splitlines() if line.startswith("file ")}
    assert {"train.json", "ck.rep1.txt", "grid.json", "part.test.txt", "train5.json",
            "ck5.rep0.txt", "train-ci.json"} <= files
    assert not any(name.endswith(".tmp") or name.startswith("missing") for name in files)
