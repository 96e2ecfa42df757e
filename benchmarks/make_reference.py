"""Store the reference output digests the correctness gate compares against.

    python3 benchmarks/make_reference.py

For every workload and every input family 0 .. run.REF_SEEDS - 1 it builds
the input sets, runs the set-up pass over each, checks each output's
verdict, and writes the sha256 prefix of each output to ``reference.json``,
replacing the whole file.  Run it only on a commit whose outputs are known
good, and only after changing the inputs themselves; a change to the library
must reproduce the stored digests, not rewrite them.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.import_library()
    blocks = []
    for workload in run.WORKLOADS:
        rows = []
        for seed in range(run.REF_SEEDS):
            digests = []
            for rep in range(run.SETUP_REPS):
                _, found, wrong = run.setup(workload, seed, rep, run.Clock())
                if wrong:
                    raise SystemExit(f"{workload} seed {seed}: wrong verdict or error in {wrong}")
                digests += found
                run.shutil.rmtree(run.OUT / f"cli-{seed}-{rep}", ignore_errors=True)
            rows.append(f'  "{seed}": {json.dumps(digests, separators=(",", ":"))}')
        blocks.append(f' "{workload}": {{\n' + ",\n".join(rows) + "\n }")
        print(f"{workload}: seeds 0..{run.REF_SEEDS - 1}", file=sys.stderr)
    (run.HERE / "reference.json").write_text("{\n" + ",\n".join(blocks) + "\n}\n",
                                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
