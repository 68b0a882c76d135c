"""Check that two motkit source trees write byte-identical outputs.

Usage (from the root of a checkout):

    python3 tools/byte_identity.py PARENT_SRC CHANGE_SRC

Each argument is a `src/` directory that holds the `motkit` package.  Every
run below calls `motkit.cli.main` with the same argv against each tree, each
in a fresh interpreter that writes no bytecode, and compares the exit code,
standard output, standard error and every file written to `--out`:

* `optimize` on the `anti_helmholtz` preset, the one preset with an
  `objective` section, and once more with `--budget 0` (exit 2);
* `scale` at k = 4 and k = 0.5, which with `--out` writes `scaling.json`,
  and at k = 0 (exit 2);
* `simulate` and `export` on each of the 4 bundled presets, and on the
  geometries no preset holds: an open and a closed FreePath round one
  square, and a closed FreePath round two squares with opposite senses,
  once centred and once shifted off the centre with even map sizes, and
  the shifted pair with a spur to the origin, whose zero `simulate` finds
  through the grid scan;
* `simulate` and `export` of TwistedCage, CompactFour and TwoPiece at 24
  segments per turn, so that each builder runs at a second resolution;
* `simulate` and `export` of four configs that fail: an AntiHelmholtz
  with a negative radius (exit 2), a TwistedCage whose bars cross (exit
  2), a CompactFour with no room for its prongs (exit 3), and a straight
  FreePath wire, on which `simulate` finds no |B| minimum (exit 4) and
  `export` exits 0;
* the 3 benchmark workloads' configs (`bench/workloads.py`) at seeds 1-2,
  and `optimize-coil24` at seeds 3-8 as well.

These extra configs and the workload configs are written to a temporary
directory; `bench/` is only read.  Prints one line per run and every output
that differs, then exits 1 if anything differed and 0 if everything was
identical.
"""
from __future__ import annotations

import json
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
# mm: a 20 mm square 5 mm above the centre
SQUARE = [[-10, -10, 5], [10, -10, 5], [10, 10, 5], [-10, 10, 5]]
# the square, then down to z = -5 mm at its first corner and round the
# square the other way there, closing back up that corner: a quadrupole
# with its zero at the centre
SQUARE_PAIR = [[-10, -10, 5], [10, -10, 5], [10, 10, 5], [-10, 10, 5],
               [-10, -10, 5], [-10, -10, -5], [-10, 10, -5], [10, 10, -5],
               [10, -10, -5], [-10, -10, -5]]
# the pair shifted off the centre
SQUARE_PAIR_OFFSET = [[x + 1.25, y - 0.75, z + 1.5] for x, y, z in SQUARE_PAIR]
# configs of the geometries no preset holds
EXTRA_CONFIGS = {
    "free_path_open": {"geometry": {"variant": "FreePath",
                                    "parameters": {"points": SQUARE}}},
    "free_path_closed": {"geometry": {
        "variant": "FreePath", "parameters": {"points": SQUARE, "closed": True}}},
    "free_path_pair": {"geometry": {
        "variant": "FreePath",
        "parameters": {"points": SQUARE_PAIR, "closed": True, "current": 5}}},
    # the pair off the centre, so that a map's constant coordinates are not
    # zero, and with even sample counts, so that no sample lies on the zero
    "free_path_pair_offset": {
        "geometry": {"variant": "FreePath", "parameters": {
            "points": SQUARE_PAIR_OFFSET, "closed": True, "current": 5}},
        "analysis": {"plane_points": 20, "scan_points": 40}},
    # that pair with a spur from its first corner to the origin and back:
    # the first Newton stencil is centred on the spur's tip, so `simulate`
    # finds the zero through the grid scan
    "free_path_spur": {
        "geometry": {"variant": "FreePath", "parameters": {
            "points": SQUARE_PAIR_OFFSET[:1] + [[0, 0, 0]] + SQUARE_PAIR_OFFSET,
            "closed": True, "current": 5}},
        "analysis": {"plane_points": 20, "scan_points": 40}},
    # configs that fail, so that exit codes 2, 3 and 4 and their messages
    # are compared too; export of the wire exits 0
    "negative_length": {"geometry": {
        "variant": "AntiHelmholtz", "parameters": {"radius": -5}}},
    "twisted_cage_crossing": {"geometry": {
        "variant": "TwistedCage", "parameters": {"twist_angle": 1.2}}},
    "compact_four_no_prongs": {"geometry": {
        "variant": "CompactFour", "parameters": {"hole_diameter": 22.5}}},
    "free_path_wire": {"geometry": {"variant": "FreePath", "parameters": {
        "points": [[10, 0, -1000], [10, 0, 1000]]}}},
    **{f"{name}_spt24": {"geometry": {
        "variant": variant, "discretization": {"segments_per_turn": 24}}}
       for name, variant in (("twisted_cage", "TwistedCage"),
                             ("compact_four", "CompactFour"),
                             ("two_piece", "TwoPiece"))},
}

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
    yield "optimize-anti_helmholtz", ["optimize", "--config", "anti_helmholtz"]
    yield "optimize-anti_helmholtz-budget0", ["optimize", "--config",
                                              "anti_helmholtz", "--budget", "0"]
    for k in ("4", "0.5", "0"):
        yield f"scale-{k}", ["scale", k]
    os.makedirs(config_dir)
    for name, doc in EXTRA_CONFIGS.items():
        config = os.path.join(config_dir, f"{name}.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        yield f"simulate-{name}", ["simulate", "--config", config]
        yield f"export-{name}", ["export", "--config", config]
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
