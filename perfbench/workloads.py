"""The benchmark's four workloads: seeded inputs, one operation, its record.

Each workload turns a seed into an endless stream of *rounds* (lists of
operation inputs) and runs one operation per input through ottospin's public
API.  After the timed call, :meth:`Workload.record` turns the output into a
JSON record (writing large texts to the work directory) that
``checks.py`` judges in its own process.  Workloads with a stored reference
also produce *canary* outputs at fixed inputs, compared against
``data/canary/`` and, when run twice, against each other byte for byte.

The library is always called through module attributes (``ottospin.x``,
``ottospin.cli.main``) so the wrappers of a traced run see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import zlib
from pathlib import Path

import numpy as np

import ottospin
import ottospin.cli
import oracle
from checks import SWEEP_FORMATS

DATA = Path(__file__).resolve().parent / "data"


def _frequency_pair(rng):
    """Sorted (nu_cold, nu_hot) uniform in 1-10 kHz, at least 100 Hz apart."""
    while True:
        nu_cold, nu_hot = np.sort(rng.uniform(1000.0, 10000.0, size=2))
        if nu_hot - nu_cold >= 100.0:
            return float(nu_cold), float(nu_hot)


class Workload:
    name = ""

    def __init__(self, seed: int, tiny: bool = False, workdir: Path | None = None):
        self.rng = np.random.default_rng([seed, zlib.crc32(self.name.encode())])
        self.tiny = tiny
        self.workdir = workdir

    def rounds(self):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def record(self, inp, out) -> dict:
        """The output as the JSON record that ``checks.py`` checks."""
        raise NotImplementedError

    def canary_outputs(self) -> dict[str, str]:
        return {}


# --- cycle-sample -----------------------------------------------------------

class CycleSample(Workload):
    """trace_cycle plus closed_form_cycle at the traced xi, criterion-3 domain."""

    name = "cycle-sample"

    def rounds(self):
        while True:
            p_cold = float(self.rng.uniform(0.05, 0.45))
            p_hot = float(self.rng.uniform(0.55, 0.95))
            nu_cold, nu_hot = _frequency_pair(self.rng)
            tau = float(self.rng.uniform(50e-6, 500e-6))
            yield [(p_cold, p_hot, nu_cold, nu_hot, tau, ottospin.DEFAULT_STEPS)]

    def run(self, inp):
        p_cold, p_hot, nu_cold, nu_hot, tau, steps = inp
        cold = ottospin.ReservoirSpec.from_population(nu_cold, p_cold)
        hot = ottospin.ReservoirSpec.from_population(nu_hot, p_hot)
        traced = ottospin.trace_cycle(cold, hot, ottospin.RampProtocol(nu_cold, nu_hot, tau, steps))
        closed = ottospin.closed_form_cycle(ottospin.CyclePoint(cold=cold, hot=hot, xi=traced.xi))
        return closed, traced

    def record(self, inp, out):
        closed, traced = out
        fields = ("work", "q_hot", "q_cold")
        return {"closed": {f: float(getattr(closed, f)) for f in fields},
                "traced": {**{f: float(getattr(traced, f)) for f in fields},
                           "xi": float(traced.xi)}}


# --- long-ramp --------------------------------------------------------------

class LongRamp(Workload):
    """transition_probability on slow ramps at suggested_steps.

    A round holds one ramp per step-count level, in bit-reversed level order
    so that a partial round still spans the levels.  The first rounds take
    their ramps from the stored DOP853 pool (a seeded permutation per level,
    no ramp repeated); later rounds draw fresh ramps at the same levels.
    """

    name = "long-ramp"

    def __init__(self, seed, tiny=False, workdir=None):
        super().__init__(seed, tiny, workdir)
        data = json.loads((DATA / "long_ramp_reference.json").read_text())
        self.law = oracle.RampLaw(**data["law"])
        self.levels = data["levels"]
        width = (len(self.levels) - 1).bit_length()
        self.order = sorted(range(len(self.levels)),
                            key=lambda k: format(k, f"0{width}b")[::-1])
        self.permutations = [self.rng.permutation(len(level["candidates"]))
                             for level in self.levels]

    def rounds(self):
        r = 0
        while True:
            batch = []
            for k in self.order:
                level = self.levels[k]
                if r < len(level["candidates"]):
                    c = level["candidates"][self.permutations[k][r]]
                    nu_cold, nu_hot, tau, xi_ref = c["nu_cold"], c["nu_hot"], c["tau"], c["xi"]
                else:
                    nu_cold, nu_hot, tau = self.law.draw(self.rng, level["product"])
                    xi_ref = None
                batch.append((nu_cold, nu_hot, tau, ottospin.suggested_steps(nu_hot, tau), xi_ref))
            yield batch[:1] if self.tiny else batch
            r += 1

    def run(self, inp):
        nu_cold, nu_hot, tau, steps, _ = inp
        return ottospin.transition_probability(ottospin.RampProtocol(nu_cold, nu_hot, tau, steps))

    def record(self, inp, xi):
        return {"xi": xi}


# --- sweep-suite ------------------------------------------------------------

BASELINE_POINT = {"nu_cold": 2000.0, "nu_hot": 3600.0, "tau": 200e-6,
                  "p_cold": 0.261, "p_hot": 0.813}
CANARY_LISTS = ["--tau-list", "1e-4,2e-4,3e-4,4e-4",
                "--p-hot-range", "0.51:0.99:13", "--xi-range", "0:0.5:11"]


def _point_args(point):
    return ["--nu-cold", repr(point["nu_cold"]), "--nu-hot", repr(point["nu_hot"]),
            "--tau", repr(point["tau"]), "--p-cold", repr(point["p_cold"]),
            "--p-hot", repr(point["p_hot"])]


class SweepSuite(Workload):
    """The figure set: four in-process ``ottospin sweep`` calls per operation.

    Timed operations use the CLI's default grids at a fresh seeded operating
    point, so drive times are shared within an operation the way the CLI
    shares them and no protocol repeats across operations.  A tiny run uses
    the canary's shorter lists at the fresh point.
    """

    name = "sweep-suite"

    def rounds(self):
        lists = CANARY_LISTS if self.tiny else []
        while True:
            nu_cold, nu_hot = _frequency_pair(self.rng)
            point = {"nu_cold": nu_cold, "nu_hot": nu_hot,
                     "tau": float(self.rng.uniform(50e-6, 500e-6)),
                     "p_cold": float(self.rng.uniform(0.05, 0.45)),
                     "p_hot": float(self.rng.uniform(0.55, 0.95))}
            yield [(point, lists)]

    def _sweeps(self, args):
        paths = {}
        for kind, fmt in SWEEP_FORMATS.items():
            path = self.workdir / f"{kind}.{fmt}"
            with contextlib.redirect_stderr(io.StringIO()):
                code = ottospin.cli.main(["sweep", kind, *args, "--format", fmt,
                                          "--out", str(path)])
            if code != 0:
                raise RuntimeError(f"ottospin sweep {kind} exited {code}")
            paths[f"{kind}.{fmt}"] = str(path)
        return paths

    def run(self, inp):
        point, lists = inp
        return self._sweeps(_point_args(point) + lists)

    def record(self, inp, paths):
        return paths

    def canary_outputs(self):
        paths = self._sweeps(_point_args(BASELINE_POINT) + CANARY_LISTS)
        return {name: Path(path).read_text() for name, path in paths.items()}


# --- region-grid ------------------------------------------------------------

class RegionGrid(Workload):
    """region_map over a seeded ~20k-cell (p_hot, xi) grid, then CSV and JSON."""

    name = "region-grid"

    def rounds(self):
        n_p, n_xi = (8, 5) if self.tiny else (160, 125)
        while True:
            p_cold = float(self.rng.uniform(0.05, 0.45))
            nu_cold, nu_hot = _frequency_pair(self.rng)
            p_grid = np.linspace(self.rng.uniform(0.501, 0.55), self.rng.uniform(0.95, 0.999), n_p)
            xi_grid = np.linspace(0.0, self.rng.uniform(0.45, 0.5), n_xi)
            yield [(p_cold, nu_cold, nu_hot, p_grid.tolist(), xi_grid.tolist())]

    def run(self, inp):
        table = ottospin.region_map(*inp)
        return table.to_csv(), table.to_json()

    def record(self, inp, out):
        paths = {}
        for name, text in zip(("region.csv", "region.json"), out):
            path = self.workdir / name
            path.write_text(text)
            paths[name] = str(path)
        return paths

    def canary_outputs(self):
        p = BASELINE_POINT
        csv_text, json_text = self.run((p["p_cold"], p["nu_cold"], p["nu_hot"],
                                        np.linspace(0.51, 0.99, 13).tolist(),
                                        np.linspace(0.0, 0.5, 11).tolist()))
        return {"region.csv": csv_text, "region.json": json_text}


WORKLOADS = {w.name: w for w in (CycleSample, LongRamp, SweepSuite, RegionGrid)}


def make(name: str, seed: int, tiny: bool = False, workdir: Path | None = None) -> Workload:
    return WORKLOADS[name](seed, tiny=tiny, workdir=workdir)
