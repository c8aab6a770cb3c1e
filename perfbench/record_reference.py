"""Record the certificate digests the benchmark checks its outputs against.

    python3 perfbench/record_reference.py

Writes ``reference.json``: the SHA-256 of each benchmark cell's
certificate file, as ``certify --out`` writes it (``to_json()`` plus a
newline).  Certificates are meant to stay byte-identical, so re-record
only for a change that alters them on purpose, and say why.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from knotcert.certify import certify_no_sfs  # noqa: E402
from workloads import GRID_CELLS, LARGE_CELLS, certificate_digest  # noqa: E402

digests = {f"{p},{q}": certificate_digest(certify_no_sfs(p, q).to_json() + "\n")
           for p, q in sorted(set(GRID_CELLS + LARGE_CELLS))}
(HERE / "reference.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
