"""Check that two motkit source trees write byte-identical outputs.

Usage (from the root of a checkout):

    python3 tools/byte_identity.py PARENT_SRC CHANGE_SRC

Each argument is a `src/` directory that holds the `motkit` package.  Every
run below calls `motkit.cli.main` with the same argv against each tree, each
in a fresh interpreter that writes no bytecode, and compares the exit code,
standard output and every file written to `--out`:

* `simulate` and `export` on each of the 4 bundled presets;
* the 3 benchmark workloads' configs (`bench/workloads.py`) at seeds 1-2,
  and `optimize-coil24` at seeds 3-8 as well.

The workload configs are written to a temporary directory; `bench/` is only
read.  Prints one line per run and every output that differs, then exits 1
if anything differed and 0 if everything was identical.
"""
from __future__ import annotations

import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import workloads  # noqa: E402

PRESETS = ("anti_helmholtz", "compact_four", "twisted_cage", "two_piece")
OPTIMIZE_SEEDS = range(1, 9)
OTHER_SEEDS = range(1, 3)

# Runs one CLI invocation with motkit imported from argv[1] and nowhere else.
RUNNER = (
    "import os, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import motkit\n"
    "if not os.path.realpath(motkit.__file__).startswith("
    "os.path.realpath(sys.argv[1]) + os.sep):\n"
    "    raise SystemExit('motkit imported from ' + motkit.__file__)\n"
    "from motkit.cli import main\n"
    "raise SystemExit(main(sys.argv[2:]))\n"
)


def runs(config_dir: str):
    """(label, argv without --out) for every compared invocation."""
    for preset in PRESETS:
        yield f"simulate-{preset}", ["simulate", "--config", preset]
        yield f"export-{preset}", ["export", "--config", preset]
    for name in workloads.NAMES:
        seeds = OPTIMIZE_SEEDS if name == "optimize-coil24" else OTHER_SEEDS
        for seed in seeds:
            label = f"{name}-seed{seed}"
            workdir = os.path.join(config_dir, label)
            os.makedirs(workdir)
            yield label, workloads.make(name, seed, workdir)["argv"]


def outputs(src: str, argv: list, out: str) -> dict:
    """Name -> bytes of everything one run produced."""
    os.makedirs(out)
    proc = subprocess.run([sys.executable, "-B", "-c", RUNNER, src, *argv,
                           "--out", out], capture_output=True)
    found = {"<exit code>": str(proc.returncode).encode(),
             "<stdout>": proc.stdout, "<stderr>": proc.stderr}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            found[name] = fh.read()
    return found


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 tools/byte_identity.py PARENT_SRC CHANGE_SRC",
              file=sys.stderr)
        return 2
    trees = [os.path.abspath(a) for a in args]
    for src in trees:
        if not os.path.isfile(os.path.join(src, "motkit", "__init__.py")):
            print(f"byte_identity: no motkit package in {src}", file=sys.stderr)
            return 2
    differing = 0
    with tempfile.TemporaryDirectory(prefix="motkit-identity-") as tmp:
        for label, run_argv in runs(os.path.join(tmp, "configs")):
            parent, change = (outputs(src, run_argv, os.path.join(tmp, side, label))
                              for side, src in zip(("parent", "change"), trees))
            diffs = [name for name in sorted(parent.keys() | change.keys())
                     if parent.get(name) != change.get(name)]
            print(f"{'DIFFERS' if diffs else 'same':<8}{label} "
                  f"(exit {parent['<exit code>'].decode()}, "
                  f"{len(parent) - 3} files)")
            for name in diffs:
                print(f"    {label}/{name}")
            differing += len(diffs)
    print(f"{differing} differing outputs")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
