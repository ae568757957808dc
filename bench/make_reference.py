"""Write ``reference.json``: the outputs every benchmark sample is gated on.

    PYTHONPATH=src python3 bench/make_reference.py

Run it only on a commit whose outputs are known good; a change that claims
to keep the outputs must pass the gates of the existing file instead.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import qranks
import qranks.cli
from workloads import (GRID_K, GRID_MODULUS, GRID_N_MAX, WORKLOADS, coefficients_sha256,
                       residue_counts, sha256)


def cli_reference(name: str) -> dict:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = qranks.cli.main(WORKLOADS[name].argv(random.Random(0)))
    stdout = buffer.getvalue().encode()
    if code != 0:
        raise SystemExit(f"{name}: exit code {code}")
    records = [json.loads(line) for line in stdout.decode().splitlines()]
    cells = [r for r in records if "status" in r]
    if any(r["status"] != "pass" for r in cells):
        raise SystemExit(f"{name}: a verify cell failed")
    return {"stdout_sha256": sha256(stdout), "ops": len(cells) or 1}


def grid_reference() -> dict:
    s = qranks.marked_durfee_rank_series(GRID_K, GRID_N_MAX)
    return {"coefficients_sha256": coefficients_sha256(s), "ops": 1 + GRID_MODULUS ** 2,
            "residues": residue_counts(s, GRID_MODULUS)}


def main() -> int:
    ref = {name: grid_reference() if w.kind == "grid" else cli_reference(name)
           for name, w in WORKLOADS.items()}
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
