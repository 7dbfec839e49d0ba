"""Record the decision procedure's verdict on the CFI pair over the Heawood graph.

    python3 tools/cfi_counterexample.py

The untwisted and the twisted compact Cai-Fürer-Immerman graphs over the
Heawood graph (`corpus.cfi_graph`, 56 vertices each) are not isomorphic,
because the base graph is connected (Cai, Fürer & Immerman 1992).  The
script runs the unmodified `gi_decide(a, b, max_binding_order=8192)` under
sas on them (binding order 6441, above the default budget).  It writes the
base edges, both graphs as graph6 and the fields of `GiResult.to_json()` to
`tests/artifacts/cfi_heawood_sas.json`.  A YES there refutes the claim that
the stable partition of a binding graph is its automorphism partition.

graphbind is imported from the `src/` directory next to this script.  On
one core the decision takes 2-12 minutes and peaks at about 2.5 GB, so run
it alone, not beside the benchmark; the test suite reads the artifact and
never reruns the decision.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

# Single-threaded BLAS, as in the benchmark, set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from graphbind.corpus import cfi_graph, heawood_graph  # noqa: E402
from graphbind.decide import gi_decide  # noqa: E402
from graphbind.graphio import dumps_graph  # noqa: E402

MAX_BINDING_ORDER = 8192
ARTIFACT = ROOT / "tests" / "artifacts" / "cfi_heawood_sas.json"


def heawood_edges() -> list[list[int]]:
    return [[int(u), int(v)] for u, v in np.argwhere(np.triu(heawood_graph().labels))]


def main() -> int:
    edges = heawood_edges()
    untwisted, twisted = cfi_graph(edges, False), cfi_graph(edges, True)
    start = time.perf_counter()
    result = gi_decide(untwisted, twisted, process="sas", max_binding_order=MAX_BINDING_ORDER)
    seconds = time.perf_counter() - start
    doc = {
        "base": "heawood",
        "base_edges": edges,
        "untwisted": dumps_graph(untwisted, "graph6").strip(),
        "twisted": dumps_graph(twisted, "graph6").strip(),
        "process": "sas",
        "max_binding_order": MAX_BINDING_ORDER,
        **result.to_json(),
    }
    ARTIFACT.parent.mkdir(parents=True, exist_ok=True)
    ARTIFACT.write_text(json.dumps(doc, indent=1) + "\n")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        f"verdict {doc['verdict']}, rounds {doc['rounds']}, dims {doc['dims']}; "
        f"{seconds:.0f} s, peak RSS {peak_mb:.0f} MB; wrote {ARTIFACT}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
