"""Check that two projlab trees write the same bytes on every benchmark config.

    python3 tools/same_outputs.py PARENT_TREE CHANGE_TREE

Each tree is the root of a projlab checkout; its ``src`` is put first on
``PYTHONPATH``.  The configs are those of the CLI workloads in
``perfbench/workloads.py`` (read from this checkout) at seeds 7 and 31, plus
four sweeps over word images that the benchmark does not run: two k = 1
sweeps on the occupancy path, of a mixed-ratio IFS in R^3 counted as the
images of a base tile under words of unequal ratios and of a sample small
enough to count as one identity word; a k = 2 sweep on the occupancy path
of an IFS in R^3 whose words share one ratio; and a k = 1 sweep of the same
IFS on the sort path, counted as the images of 16 words.  Both trees run
``projlab`` on every config, and the tool prints the sha256 of each
``results.csv`` and ``summary.json``, one row per file.  It exits 0 when
every file is the same in both trees and 1 otherwise.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (7, 31)
FILES = ("results.csv", "summary.json")


def extra_configs(seed: int) -> dict[str, dict]:
    """Sweeps over word images beside the benchmark's own."""
    common = {"n": 2, "k": 1, "num_directions": 8, "scale_lo": 2, "threshold_s": 0.5,
              "seed": seed, "mode": "sweep"}
    mixed = {"n": 3, "label": "mixed-ratio-R3",
             "maps": [{"ratio": 0.3, "translation": [0.0, 0.0, 0.0]},
                      {"ratio": 0.4, "translation": [0.6, 0.1, 0.3]},
                      {"ratio": 0.5, "translation": [0.2, 0.5, 0.4]}]}
    dust = {"n": 2, "label": "cantor-dust",
            "maps": [{"ratio": 1 / 3, "translation": [x, y]}
                     for x in (0.0, 2 / 3) for y in (0.0, 2 / 3)]}
    corners = {"n": 3, "label": "corners-0.4-R3",
               "maps": [{"ratio": 0.4, "translation": t}
                        for t in ([0.0, 0.0, 0.0], [0.6, 0.0, 0.0], [0.0, 0.6, 0.0],
                                  [0.0, 0.0, 0.6])]}
    return {
        # 3^12 points as 27 words of a 3^9-point tile; 2^15 cells.
        "lines-mixed-ratio": common | {"ifs": mixed, "n": 3, "depth": 12, "scale_hi": 14},
        # 4^7 points fit one counting batch: one identity word; 2^13 cells.
        "lines-identity": common | {"ifs": dust, "depth": 7, "scale_hi": 12},
        # 4^10 points as 64 one-ratio words of a 4^7-point tile; 2^18 cells.
        "planes-words": common | {"ifs": corners, "n": 3, "k": 2, "depth": 10, "scale_hi": 8,
                                  "num_directions": 4},
        # 4^9 points as 16 words of a 4^7-point tile; 2^21 cells, sorted.
        "sort-words": common | {"ifs": corners, "n": 3, "depth": 9, "scale_hi": 20},
    }


def configs() -> dict[str, dict]:
    """Every config by name: the CLI workloads', then the extra ones."""
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    from workloads import WORKLOADS
    out = {}
    for seed in SEEDS:
        for name, spec in WORKLOADS.items():
            if hasattr(spec, "config"):
                out[f"{name}-seed{seed}"] = spec.config(seed)
        out.update({f"{name}-seed{seed}": cfg for name, cfg in extra_configs(seed).items()})
    return out


def run(tree: Path, config: Path, out: Path) -> dict[str, str]:
    """The sha256 of each output file of ``projlab`` from ``tree`` on
    ``config``, or None for each when it exits non-zero (its error goes to
    standard error)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    mode = json.loads(config.read_text())["mode"]
    proc = subprocess.run([sys.executable, "-m", "projlab.cli", mode, "--config", str(config),
                           "--out", str(out)], env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"{tree}: {config.stem}: exit {proc.returncode}: {proc.stderr.strip()}",
              file=sys.stderr)
        return dict.fromkeys(FILES)
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in FILES}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    trees = [Path(arg).resolve() for arg in argv]
    cases, differ = configs(), 0
    print("| config | file | parent sha256 | change sha256 | same |")
    print("|---|---|---|---|---|")
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        for name, cfg in cases.items():
            path = scratch / f"{name}.json"
            path.write_text(json.dumps(cfg))
            parent, change = (run(tree, path, scratch / f"{name}-{i}")
                              for i, tree in enumerate(trees))
            for file in FILES:
                same = parent[file] == change[file] is not None
                differ += not same
                print(f"| {name} | {file} | {str(parent[file])[:16]} | "
                      f"{str(change[file])[:16]} | {'yes' if same else 'NO'} |")
    print(f"{differ} of {len(FILES) * len(cases)} files differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
