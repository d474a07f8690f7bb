"""Regenerate reference.json: the gated instances' outputs at the default seed.

    python3 bench/write_reference.py

Run it only when an exact output is meant to change, and say why in the
change; the benchmark compares every default-seed run against this file.
"""

from __future__ import annotations

import json

import run


def main() -> None:
    run.pin_environment()
    run.import_library()
    import gate
    import workloads

    reference = {}
    for name in run.WORKLOAD_NAMES:
        w = workloads.WORKLOADS[name]
        pool = workloads.make_pool(w, run.DEFAULT_SEED, run.GATE_CYCLES)
        outputs = []
        for inst in pool:
            raw = w.pipeline(inst)
            problems = w.check(inst, raw)
            if problems:
                raise SystemExit(f"{name}: {problems}")
            outputs.append(w.record(inst, raw))
        reference[name] = gate.reference_record(outputs)
        print(name, gate.run_digest(reference[name]["digests"]))
    gate.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
