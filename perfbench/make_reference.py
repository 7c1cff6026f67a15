"""Regenerate the benchmark's stored reference data under ``perfbench/data``.

    python3 perfbench/make_reference.py long-ramp   # DOP853 xi for the long-ramp pool
    python3 perfbench/make_reference.py canaries    # the sweep-suite canary tables

``long-ramp`` needs scipy and never imports ``ottospin``; it then reports how
far the library's current ``transition_probability`` lies from each value.
``canaries`` records the library's own output at fixed inputs, so rerun it
only on purpose, when an output format is meant to change.  region-grid's
canary is the same region table, so it has no file of its own.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import oracle

DATA = Path(__file__).resolve().parent / "data"
LONG_RAMP_FILE = DATA / "long_ramp_reference.json"
LEVELS = 9
CANDIDATES = 16
POOL_SEED = 20181107


def make_long_ramp() -> dict:
    law = oracle.RampLaw()
    rng = np.random.default_rng(POOL_SEED)
    levels = []
    for product in law.levels(LEVELS):
        candidates = []
        for _ in range(CANDIDATES):
            nu_cold, nu_hot, tau = law.draw(rng, product)
            candidates.append({"nu_cold": nu_cold, "nu_hot": nu_hot, "tau": tau,
                               "xi": oracle.ramp_xi(nu_cold, nu_hot, tau)})
        levels.append({"product": product, "candidates": candidates})
        print(f"level nu_hot*tau = {product:.3f}: {CANDIDATES} references", file=sys.stderr)
    return {
        "method": "scipy.integrate.solve_ivp DOP853, rtol=1e-12, atol=1e-12",
        "law": law.__dict__,
        "pool_seed": POOL_SEED,
        "levels": levels,
    }


def library_deviation(data: dict) -> float:
    import run

    run.import_ottospin()
    from ottospin import RampProtocol, suggested_steps, transition_probability

    worst = 0.0
    for level in data["levels"]:
        for c in level["candidates"]:
            steps = suggested_steps(c["nu_hot"], c["tau"])
            xi = transition_probability(RampProtocol(c["nu_cold"], c["nu_hot"], c["tau"], steps))
            worst = max(worst, abs(xi - c["xi"]))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("what", choices=("long-ramp", "canaries"))
    args = parser.parse_args(argv)
    if args.what == "long-ramp":
        data = make_long_ramp()
        LONG_RAMP_FILE.write_text(json.dumps(data, indent=1) + "\n")
        print(f"library max |xi - reference| = {library_deviation(data):.3e}")
        return 0
    import run

    run.import_ottospin()
    import workloads

    run.OUT.mkdir(exist_ok=True)
    target = DATA / "canary"
    target.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
        outputs = workloads.make("sweep-suite", seed=0, workdir=Path(workdir)).canary_outputs()
    for filename, text in outputs.items():
        (target / filename).write_text(text)
        print(f"wrote {target / filename}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
