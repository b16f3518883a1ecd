"""The instruction gate, tools/kernel_asm.py, on this tree."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tensorwheel import twd_core

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "kernel_asm.py"
_spec = importlib.util.spec_from_file_location("kernel_asm", TOOL)
kernel_asm = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(kernel_asm)

FMA = ("vfmadd", "vfmsub", "vfnmadd", "vfnmsub")


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


@pytest.fixture(scope="module")
def disassembled(tmp_path_factory):
    """{build: {function: [instruction, ...]}} of the generic build and of
    rank builds, each with the flags kernel_flags gives them where the host
    runs AVX2: compiling needs no AVX2, only running does."""
    if shutil.which(twd_core.CC) is None or shutil.which("objdump") is None:
        pytest.skip("no C compiler or no objdump")
    tmp = tmp_path_factory.mktemp("builds")
    builds = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(twd_core, "host_avx2", lambda: True)
        for ranks in (None, twd_core.Ranks(r=(2, 2, 2), h=(2, 2, 2)),
                      twd_core.Ranks(r=(5, 5, 5), h=(2, 2, 2)),
                      twd_core.Ranks(r=(8, 8, 8), h=(3, 3, 3))):
            name = "generic" if ranks is None else "-".join(map(str, (*ranks.r, *ranks.h)))
            library = tmp / f"{name}.so"
            subprocess.run([twd_core.CC, *twd_core.kernel_flags(ranks), "-o", str(library),
                            str(twd_core.KERNEL_SOURCE)], check=True, capture_output=True)
            builds[name] = kernel_asm.functions(library)
    return builds


def test_no_build_contains_an_fma_instruction(disassembled):
    # an FMA rounds once where a multiply and an add round twice: the bit
    # contract holds only while -ffp-contract=off keeps them out
    for build, functions in disassembled.items():
        for function, code in functions.items():
            fused = [op for op in code if op.startswith(FMA)]
            assert not fused, (build, function, fused[:3])


def test_the_step_calls_no_exported_function_through_the_plt(disassembled):
    for build, functions in disassembled.items():
        calls = [op for op in functions["tw_epoch"] if op.startswith("call")]
        assert calls and not [op for op in calls if "<tw_" in op], (build, calls)


def test_the_round_calls_no_function_through_the_plt(disassembled):
    # tw_round reaches tw_epoch and tw_loss through hidden aliases
    for build, functions in disassembled.items():
        calls = [op for op in functions["tw_round"] if op.startswith("call")]
        assert calls and not [op for op in calls if "@plt" in op], (build, calls)
