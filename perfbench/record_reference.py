"""Record the reference outputs of every workload at its default seed.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Writes perfbench/reference.json, which worker.py compares every
default-seed experiment against.  Re-record only when a change is meant to
move the outputs, and say why in the change.

Tolerances (measured at the commit that defined the benchmark):
- ``rtol`` 1e-6 on every output.  Round-off moves them far less: noise of
  1e-15 relative injected into every transform moved them by at most
  5e-9, and a SuperLU ordering change (MMD_AT_PLUS_A for COLAMD) moved the
  gauge distances by at most 2e-9.
- The amplitude integral residuals are round-off-level numbers (about
  4e-17), so they only have to stay within a factor 10.  Noise injection
  moved them by at most 1.3x; switching vekua_solve from the Neumann
  series to GMRES moved them 60x, so this is what catches that change of
  solver path.  On rtau_ladder the two paths agree to 1e-14, below any
  output tolerance; there the path shows only in the traced run's
  ``transforms.gmres_calls``.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import WORKLOADS  # noqa: E402

RTOL = 1e-6
FACTOR = 10.0
ROUND_OFF = (".amplitude_residual",)


def record(name: str) -> dict:
    workload = WORKLOADS[name]
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as workdir:
        out = workload.experiment(workload.setup(workload.default_seed, Path(workdir)))
    problems = workload.check(out)
    if problems:
        raise SystemExit(f"{name}: outputs fail their check: {problems}")
    floats = {k: v for k, v in out.items() if isinstance(v, float)}
    return {"seed": workload.default_seed, "rtol": RTOL, "factor": FACTOR,
            "outputs": {k: v for k, v in floats.items() if not k.endswith(ROUND_OFF)},
            "round_off_outputs": {k: v for k, v in floats.items()
                                  if k.endswith(ROUND_OFF)}}


def main(names) -> None:
    path = HERE / "reference.json"
    ref = json.loads(path.read_text()) if path.exists() else {}
    for name in names or WORKLOADS:
        ref[name] = record(name)
        print(f"recorded {name}", flush=True)
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
