"""Capture the reference stdout of every benchmark command.

Run once at the commit whose outputs define "correct"::

    python3 bench/capture_refs.py

Writes bench/refs/<workload>.json.  Quadrature-only workloads do not
depend on --seed; that is checked on two seeds and one stdout is kept.
Monte-Carlo-backed workloads keep one stdout per seed in REF_SEEDS.
The tolerances used to compare against these live next to them in
bench/refs/tolerances.json.
"""

import json
import sys

from common import ROOT, Launcher, child_env, source_hash
from workloads import WORKLOADS, argv

REF_SEEDS = list(range(32)) + [42]
SEED_FREE = {"quad_study": (42, 7)}


def capture(name, launcher):
    commands = []
    for command in WORKLOADS[name]["commands"]:
        runs = {}
        seeds = SEED_FREE.get(name, REF_SEEDS)
        for seed in seeds:
            code, out, _, _, _ = launcher.run_cli(argv(command, seed))
            runs[str(seed)] = {"exit": code, "stdout": out}
            print(f"{name} seed {seed} exit {code}: {' '.join(command)}",
                  file=sys.stderr)
        if name in SEED_FREE:
            first = runs[str(seeds[0])]
            if any(run != first for run in runs.values()):
                raise SystemExit(f"{name}: output depends on --seed")
            runs = {"any": first}
        commands.append({"command": list(command), "runs": runs})
    return {"workload": name, "source_hash": source_hash(),
            "commands": commands}


def main():
    names = sys.argv[1:] or list(WORKLOADS)
    with Launcher(child_env()) as launcher:
        for name in names:
            path = ROOT / "bench" / "refs" / f"{name}.json"
            path.write_text(json.dumps(capture(name, launcher), indent=1)
                            + "\n")


if __name__ == "__main__":
    main()
