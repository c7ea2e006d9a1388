"""Record the output digests that closed_form and cli_cold runs are checked against.

Usage: python3 perfbench/record_digests.py PASSES

Writes perfbench/digests.json: for the full and the tiny size, the digest of
each of the first PASSES closed_form passes and of the cli_cold pass.  A
pass's digest does not depend on the seed, which only orders the pass, so
the table covers every seed; passes past the recorded ones are checked by
their invariants alone.  Record only from a commit whose outputs are
trusted; a run whose outputs differ counts those ops as failed.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main(passes: int) -> None:
    table = {"closed_form": {}, "cli_cold": {}}
    cli = workloads.WORKLOADS["cli_cold"]
    cf = workloads.WORKLOADS["closed_form"]
    for tiny in (False, True):
        key = workloads.digest_key(tiny)
        table["cli_cold"][key] = [workloads.cli_digest([cli.op(argv) for argv in cli.make_pass(0, tiny, 0)])]
        table["closed_form"][key] = []
        for k in range(passes):
            table["closed_form"][key].append(
                workloads.closed_form_digest([cf.op(p) for p in cf.make_pass(0, tiny, k)])
            )
            print(key, k, file=sys.stderr)
    workloads.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(int(sys.argv[1]))
