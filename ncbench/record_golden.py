"""Record the golden output digests the benchmark checks against.

    python3 ncbench/record_golden.py SEED [SEED ...]

Runs one untraced pass of every workload for each seed, plus the digest
matrix, and merges the digests into ``ncbench/golden.json``.  The digests
are the byte-identity contract of the package's outputs: record them only
on a commit whose outputs are known good, and never to make a mismatch go
away.  A seed whose pass fails a domain check is not recorded.
"""

import json
import sys
import tempfile
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent


def main(argv) -> int:
    seeds = [int(s) for s in argv]
    run.import_package()
    from workloads import WORKLOADS, digest_matrix

    path = HERE / "golden.json"
    golden = json.loads(path.read_text(encoding="ascii"))
    workdir = run.ROOT / ".ncbench_work" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    status = 0
    for name, cls in WORKLOADS.items():
        for seed in seeds:
            units = cls(seed, workdir).run()
            problems = [f"{u.name}: {p}" for u in units for p in u.problems]
            if problems:
                print(f"{name} seed {seed} not recorded: {problems}", file=sys.stderr)
                status = 1
                continue
            digests = {k: v for u in units for k, v in u.digests.items()}
            table = golden["workloads"].setdefault(name, {})
            changed = str(seed) in table and table[str(seed)] != digests
            table[str(seed)] = digests
            print(f"{name} seed {seed}: {len(digests)} digests"
                  + (" CHANGED from the recorded ones" if changed else ""), file=sys.stderr)
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        matrix = digest_matrix(Path(tmp))
    if golden["matrix"] and golden["matrix"] != matrix:
        print("digest matrix CHANGED from the recorded one", file=sys.stderr)
    golden["matrix"] = matrix
    golden["workloads"] = {
        name: dict(sorted(table.items(), key=lambda kv: int(kv[0])))
        for name, table in golden["workloads"].items()}
    path.write_text(json.dumps(golden, indent=1) + "\n", encoding="ascii")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
