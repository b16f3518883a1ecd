"""The instruction gate, tools/kernel_asm.py, on this tree."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tensorwheel import twd_core

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "kernel_asm.py"


def test_the_generic_and_a_rank_build_each_list_the_exported_functions():
    if shutil.which(twd_core.CC) is None or shutil.which("objdump") is None:
        pytest.skip("no C compiler or no objdump")
    done = subprocess.run([sys.executable, TOOL, "--tree", ROOT, "--ranks", "2,2,2,2,2,2"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    listed = {}
    for line in done.stdout.splitlines():
        build, function, count, digest = line.split()
        assert int(count) > 0 and len(digest) == 64
        listed.setdefault(build, set()).add(function)
    assert list(listed) == ["generic", "2,2,2,2,2,2"]
    for functions in listed.values():
        assert {"tw_epoch", "tw_loss", "tw_partials"} <= functions
