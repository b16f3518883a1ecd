"""Print a manifest of the native kernel's machine code: the instruction gate
of a change that must not change what the kernel runs.

The kernel of the package under TREE/src, its ``KERNEL_SOURCE``, is
compiled with that tree's ``CC`` and ``kernel_flags``: the generic build,
then one build per rank tuple given.  Where the host runs AVX2, a tree's
rank builds carry ``-mavx2`` if its ``kernel_flags`` adds it, so compare
two trees whose rank flags agree, or read the rank builds apart.  Each
build goes to a temp directory, not to the kernel cache, and is
disassembled with ``objdump -d``, its addresses and ``%rip`` offsets
dropped, so that code moved as a whole reads the same, and branch and
call targets kept as ``<symbol+offset>``.
The manifest has one line per build and function, with the build, the
function's name, its instruction count and the sha256 of its
instructions, so two trees compare by a ``diff`` of their manifests:

    python3 tools/kernel_asm.py --tree ../parent --ranks 2,2,2,2,2,2 > old.txt
    python3 tools/kernel_asm.py --tree . --ranks 2,2,2,2,2,2 > new.txt
    diff old.txt new.txt

Each rank tuple is R1,R2,R3,H1,H2,H3.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

FUNCTION = re.compile(r"^[0-9a-f]+ <(.+)>:$")
ADDRESS = re.compile(r"^\s*[0-9a-f]+:\s*")
RIP = re.compile(r"[-+]?0x[0-9a-f]+(?=\(%rip\))|\s*#.*")  # an offset, or the address it reads
TARGET = re.compile(r"\b[0-9a-f]+ (?=<[^>]+>)")


def functions(library: Path) -> dict:
    """{name: [instruction, ...]} of library's disassembly, each
    instruction without its address, its %rip offsets and the addresses
    they resolve to, and its branch or call target's address."""
    listing = subprocess.run(["objdump", "-d", "--no-show-raw-insn", str(library)],
                             capture_output=True, text=True, check=True).stdout
    found, current = {}, None
    for line in listing.splitlines():
        head = FUNCTION.match(line)
        if head:
            current = found.setdefault(head.group(1), [])
        elif current is not None and ADDRESS.match(line):
            current.append(TARGET.sub("", RIP.sub("", ADDRESS.sub("", line))).strip())
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", required=True, help="checkout whose src/ is compiled")
    parser.add_argument("--ranks", nargs="+", default=[], metavar="R1,R2,R3,H1,H2,H3",
                        help="rank tuples to build beside the generic build")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.tree, "src").resolve()))
    from tensorwheel import twd_core

    builds = {"generic": None}
    for text in args.ranks:
        try:
            n = [int(x) for x in text.split(",")]
            builds[text] = twd_core.Ranks(r=tuple(n[:3]), h=tuple(n[3:]))
        except (ValueError, twd_core.ParameterError):
            parser.error(f"--ranks takes six integers >= 1, got {text}")
    source = twd_core.KERNEL_SOURCE.read_bytes()
    with tempfile.TemporaryDirectory() as tmp:
        for name, ranks in builds.items():
            library = Path(tmp, f"{name}.so")
            subprocess.run([twd_core.CC, *twd_core.kernel_flags(ranks), "-o", str(library),
                            "-x", "c", "-"], input=source, capture_output=True, check=True)
            for function, code in functions(library).items():
                digest = hashlib.sha256("\n".join(code).encode()).hexdigest()
                print(f"{name} {function} {len(code)} {digest}")
    return 0


if __name__ == "__main__":
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError as exc:  # stdout's reader went away
        # stdout to devnull, so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        status = 1
    sys.exit(status)
