"""Set-up as a user pays it: a fresh interpreter imports the package and builds
every FamilySpec one workload uses.  Prints ``{"import_s", "build_s"}`` as JSON.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD`` (run.py times it).
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(workload):
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import riemannwaves
    import riemannwaves.cli  # the CLI layer, used by the interactive workload
    t1 = time.perf_counter()
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import build
    build(riemannwaves, workload, 0)  # builds every FamilySpec the workload's jobs use
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1}))


if __name__ == "__main__":
    main(sys.argv[1])
