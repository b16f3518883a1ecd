"""Print a manifest of what a fixed list of CLI calls outputs: the byte gate
of a change that must not change any output.

The calls run ``tensorwheel.cli.main`` in this process, on the package
under TREE/src, with OUTDIR as the working directory.  The manifest has
one line per call, with its name, its exit code and the sha256 of its
stdout and of its stderr, then one line per file in OUTDIR, with its
name and sha256.  Every path a call names is relative to OUTDIR, so two
trees compare by a ``diff`` of their manifests:

    python3 tools/cli_manifest.py --tree . --kernel numpy /tmp/new > new.txt
    python3 tools/cli_manifest.py --tree ../parent --kernel numpy /tmp/old > old.txt
    diff old.txt new.txt

``--kernel numpy`` runs without the native kernel, as the tests force it;
``--kernel native`` needs it to build.  OUTDIR must be empty or absent.
The exit status is 1 where a call exits otherwise than CALLS lists.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

TRAIN = ["--input", "obs.txt", "--ranks", "2,2,2,2,2,2", "--eta", "0.3", "--init-scale", "0.3",
         "--split", "8:1:1", "--patience", "3"]

# ranks whose step and loss take every pass of the kernel's sums
RANKS5 = ["--ranks", "5,5,5,2,2,2"]

# files the calls read beside synth's: comment lines among the entries (one led
# by a no-break space), a repeated key, an entry outside the truth's dims, a
# malformed header, and keys out of order with one repeated, whose values
# sum to another mean in another order
INPUTS = {
    "comments.txt": "# dims 4 4 4\n0 0 0 1.0\n# note\n\xa0# odd\n1 2 3 2.0\r\n# end".encode(),
    "repeats.txt": b"0 0 0 1.0\n1 1 1 2.0\n0 0 0 3.0\n",
    "wide.txt": b"0 0 0 1.0\n10 0 0 0.5\n",
    "bad-header.txt": b"0 0 0 1.0\n# dims 4 x 4\n",
    "unordered.txt": b"2 1 0 1e16\n0 3 1 5.0\n1 0 2 -1e16\n0 0 0 1.0\n0 3 1 2.0\n",
}

# (name, argv, the exit code the call must end in)
CALLS = [
    ("synth", ["synth", "--dims", "10,10,8", "--ranks", "2,2,2,2,2,2", "--density", "0.4",
               "--seed", "3", "--output", "obs.txt", "--truth", "truth.txt"], 0),
    ("ingest-check", ["ingest-check", "--input", "obs.txt"], 0),
    ("ingest-check-comments", ["ingest-check", "--input", "comments.txt"], 0),
    ("ingest-check-keep-last", ["ingest-check", "--input", "repeats.txt", "--keep-last"], 0),
    ("ingest-check-bad-header", ["ingest-check", "--input", "bad-header.txt"], 1),
    ("split", ["split", "--input", "obs.txt", "--output-prefix", "part"], 0),
    ("train", ["train", *TRAIN, "--epochs", "40", "--reps", "2", "--report", "train.json",
               "--checkpoint", "ck"], 0),
    ("train-no-validation", ["train", *TRAIN, "--epochs", "8", "--split", "8:0:2", "--reps", "1",
                             "--report", "train-no-valid.json"], 0),
    ("train-no-early-stop", ["train", *TRAIN, "--epochs", "12", "--reps", "1",
                             "--no-early-stop", "--report", "train-full.json"], 0),
    ("train-raw-domain", ["train", *TRAIN, "--epochs", "12", "--reps", "1",
                          "--raw-domain-metrics", "--report", "train-raw.json"], 0),
    ("ablate", ["ablate", *TRAIN, "--epochs", "20", "--reps", "2", "--report", "ablate.json"], 0),
    ("grid-diverging-cell", ["grid", *TRAIN, "--no-normalize", "--etas", "5000,0.05",
                             "--lambdas", "0,0.01", "--epochs", "15", "--report", "grid.json"], 0),
    ("evaluate", ["evaluate", "--input", "part.test.txt", "--checkpoint", "truth.txt"], 0),
    ("evaluate-outside-dims", ["evaluate", "--input", "wide.txt", "--checkpoint", "truth.txt"], 1),
    ("train-unwritable-report", ["train", *TRAIN, "--epochs", "2", "--reps", "1",
                                 "--report", "missing/r.json"], 1),
    ("train-integral", ["train", *TRAIN, "--ci", "0.05", "--epochs", "12", "--reps", "1",
                        "--report", "train-ci.json"], 0),
    ("synth-ranks5", ["synth", "--dims", "9,10,9", *RANKS5, "--density", "0.3", "--seed", "4",
                      "--output", "obs5.txt", "--truth", "truth5.txt"], 0),
    ("train-ranks5", ["train", "--input", "obs5.txt", *RANKS5, "--eta", "0.05", "--lambda", "0.02",
                      "--init-scale", "0.3", "--split", "8:1:1", "--epochs", "10", "--reps", "1",
                      "--report", "train5.json", "--checkpoint", "ck5"], 0),
    ("ingest-check-unordered", ["ingest-check", "--input", "unordered.txt"], 1),
    ("ingest-check-unordered-keep-last", ["ingest-check", "--input", "unordered.txt",
                                          "--keep-last"], 0),
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", required=True, help="checkout whose src/ is run")
    parser.add_argument("--kernel", required=True, choices=["native", "numpy"])
    parser.add_argument("outdir", type=Path, help="empty or absent directory to run in")
    args = parser.parse_args(argv)
    if args.outdir.exists() and any(args.outdir.iterdir()):
        parser.error(f"{args.outdir} is not empty")
    args.outdir.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(Path(args.tree, "src").resolve()))
    from tensorwheel import cli, twd_core

    if args.kernel == "numpy":
        twd_core._native = None
    elif twd_core.native_kernel() is None:
        parser.error("the native kernel cannot be built here")
    os.chdir(args.outdir)
    for name, data in INPUTS.items():
        Path(name).write_bytes(data)
    status = 0
    for name, call, expected in CALLS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(call)
        print(f"call {name} exit {code} stdout {sha256(out.getvalue().encode())} "
              f"stderr {sha256(err.getvalue().encode())}")
        if code != expected:
            print(f"{name} exited {code}, not {expected}: {err.getvalue().strip()}",
                  file=sys.stderr)
            status = 1
    for path in sorted(p for p in Path().rglob("*") if p.is_file()):
        print(f"file {path.as_posix()} {sha256(path.read_bytes())}")
    return status


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
