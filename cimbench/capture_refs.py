"""Capture the pattern reference values the benchmark checks against.

Run from the repository root, on the commit whose numbers are the
reference:

    python3 cimbench/capture_refs.py

Writes cimbench/pattern_refs.json: directivity, both half-power
beamwidths and the average side-lobe directivity of every pattern_grid
fixture at 0.25 degrees.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cimsim.arrays import scenario_geometry  # noqa: E402
from cimsim.patterns import steered_pattern, summarize  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    refs = {}
    for fixture in sorted(workloads.ACCEPT_HPBW_DEG):
        kind, az, el = fixture
        spec = scenario_geometry(kind, workloads.WAVELENGTH)
        summary = summarize(steered_pattern(spec, az, el))
        key = workloads.fixture_key(*fixture)
        refs[key] = {name: float(getattr(summary, name))
                     for name in workloads.SUMMARY_FIELDS}
        print(key, refs[key])
    workloads.REFERENCE_FILE.write_text(json.dumps(refs, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
