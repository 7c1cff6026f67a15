"""Output checks of the benchmark, run in a child interpreter.

Nothing here imports ``ottospin``: every check compares what the library
wrote against :mod:`oracle`, against stored reference files or against
itself.  The checks run in their own process (:class:`Checker`), so the
memory they use to parse tables and integrate reference ramps stays out of
the benchmark process's ``ru_maxrss``.

The benchmark process sends one JSON line per request and reads one JSON
line back:

* ``{"op": workload, "inp": ..., "rec": ...}`` checks one operation's
  record (see ``Workload.record``); the reply is ``{"error": null}`` or
  ``{"error": "<type>: <message>"}``.
* ``{"canary": name, "path": ...}`` compares a canary file with its stored
  reference, with the same reply.

At end of input the child replies ``{"peak_rss_mb": ...}`` and exits.

    python3 perfbench/checks.py    # serve requests on stdin
"""

from __future__ import annotations

import json
import math
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np

import oracle

DATA = Path(__file__).resolve().parent / "data"
CANARY = DATA / "canary"
# Stored reference of each canary file.  region-grid's CSV and JSON and
# sweep-suite's region sweep are the same table, kept once.
CANARY_REFERENCES = {"xi-tau.csv": "xi-tau.csv", "region.json": "region.json",
                     "eta-phot.csv": "eta-phot.csv", "eta-ratio.json": "eta-ratio.json",
                     "region.csv": "region.json"}
FLOAT_TOL = 1e-8
# Timed propagations against the DOP853 oracle.  At the seed commit the
# library's RK4 (4096 steps, or suggested_steps above that) deviated by at
# most 3.5e-13 over 180 ramps of the cycle-sample and sweep-suite domains;
# 1e-9 leaves room for rounding changes such as a reordered step product,
# while an xi taken from another protocol is off by far more.
XI_TOL = 1e-9
DEFAULT_STEPS = 4096


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


class CheckerError(RuntimeError):
    """The checker process died or answered out of protocol."""


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _rel_err(a, b):
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


def check_xi(label, xi, nu_cold, nu_hot, tau):
    """``xi`` within :data:`XI_TOL` of the DOP853 transition probability."""
    ref = oracle.ramp_xi(nu_cold, nu_hot, tau)
    _require(abs(xi - ref) <= XI_TOL,
             f"{label}: xi {xi!r} differs from DOP853 {ref!r} by more than {XI_TOL:g}")


# --- tables: parsing and comparison ------------------------------------------

def parse_table(text: str, fmt: str) -> dict:
    """{"columns", "rows", "metadata"} from a SweepTable CSV or JSON text.

    CSV cells are typed like JSON cells: empty -> None, numbers -> float,
    anything else stays a string.  A CSV has no metadata (``None``).
    """
    if fmt == "json":
        return json.loads(text)
    lines = text.splitlines()

    def cell(value):
        if value == "":
            return None
        try:
            return float(value)
        except ValueError:
            return value

    return {"columns": lines[0].split(","),
            "rows": [[cell(v) for v in line.split(",")] for line in lines[1:]],
            "metadata": None}


def read_table(path) -> dict:
    path = Path(path)
    return parse_table(path.read_text(), path.suffix[1:])


def _same_value(a, b):
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same_value(x, y) for x, y in zip(a, b))
    if isinstance(a, (int, float)) and isinstance(b, (int, float)) and not (
            isinstance(a, bool) or isinstance(b, bool)):
        return abs(a - b) <= FLOAT_TOL * max(1.0, abs(b))
    return a == b


def compare_to_reference(got: dict, ref: dict, label: str) -> None:
    """Schema and labels exactly equal, numbers within 1e-8 (relative above 1).

    Metadata is compared when both tables carry it.
    """
    _require(got["columns"] == ref["columns"], f"{label}: columns differ from the reference")
    if got["metadata"] is not None and ref["metadata"] is not None:
        _require(sorted(got["metadata"]) == sorted(ref["metadata"]),
                 f"{label}: metadata keys differ from the reference")
        for key, value in ref["metadata"].items():
            _require(_same_value(got["metadata"][key], value), f"{label}: metadata {key} differs")
    _require(len(got["rows"]) == len(ref["rows"]), f"{label}: row count differs")
    for i, (row, ref_row) in enumerate(zip(got["rows"], ref["rows"])):
        _require(_same_value(row, ref_row), f"{label}: row {i} differs from the reference")


def check_canary(name: str, path) -> None:
    ref = read_table(CANARY / CANARY_REFERENCES[name])
    compare_to_reference(read_table(path), ref, name)


def check_regimes(label, p_cold, nu_cold, p_hot, nu_hot, xi, regimes, etas):
    """Regime labels and efficiencies against :func:`oracle.cycle_oracle`."""
    expected, eta, ambiguous = oracle.cycle_oracle(p_cold, nu_cold, p_hot, nu_hot, xi)
    for i, (got_label, got_eta) in enumerate(zip(regimes, etas)):
        if ambiguous.flat[i]:
            continue
        _require(got_label == expected.flat[i],
                 f"{label}: cell {i} regime {got_label} != {expected.flat[i]}")
        if expected.flat[i] == oracle.NOT_ENGINE:
            _require(got_eta is None, f"{label}: cell {i} has an efficiency outside the engine")
        else:
            _require(got_eta is not None and abs(got_eta - eta.flat[i]) <= FLOAT_TOL,
                     f"{label}: cell {i} efficiency {got_eta} != {eta.flat[i]}")


def _column(table, name):
    index = table["columns"].index(name)
    return [row[index] for row in table["rows"]]


def _check_grid(label, got, expected):
    _require(len(got) == len(expected) and np.allclose(got, expected, rtol=1e-12, atol=0.0),
             f"{label}: grid differs from the requested one")


def _check_schema(label, got, ref):
    _require(got["columns"] == ref["columns"], f"{label}: columns differ")
    if got["metadata"] is not None and ref["metadata"] is not None:
        _require(sorted(got["metadata"]) == sorted(ref["metadata"]),
                 f"{label}: metadata keys differ")


# --- one check per workload -------------------------------------------------

def check_cycle_sample(inp, rec):
    p_cold, p_hot, nu_cold, nu_hot, tau, steps = inp
    closed, traced = rec["closed"], rec["traced"]
    for field in ("work", "q_hot", "q_cold"):
        err = _rel_err(closed[field], traced[field])
        _require(err <= 1e-8, f"closed form vs trace: {field} rel err {err:.3e} > 1e-8")
    for result in (closed, traced):
        residual = abs(result["work"] + result["q_hot"] + result["q_cold"])
        budget = 1e-10 * (abs(result["q_hot"]) + abs(result["q_cold"]))
        _require(residual <= budget, f"first law residual {residual:.3e} > {budget:.3e}")
    check_xi("trace_cycle", traced["xi"], nu_cold, nu_hot, tau)


def check_long_ramp(inp, rec):
    # Raw drift above 1e-9 raises AccuracyError inside the operation,
    # which the harness already counts as a failure.
    xi, xi_ref = rec["xi"], inp[4]
    _require(math.isfinite(xi) and 0.0 <= xi <= 0.5 + 1e-9, f"xi {xi!r} outside [0, 0.5]")
    if xi_ref is not None:
        _require(abs(xi - xi_ref) <= FLOAT_TOL,
                 f"xi {xi!r} differs from DOP853 reference {xi_ref!r} by > 1e-8")


SWEEP_FORMATS = {"xi-tau": "csv", "region": "json", "eta-phot": "csv", "eta-ratio": "json"}
ETA_PHOT_TAUS = [1e-4, 2e-4, 3e-4, 4e-4]


def check_sweep_suite(inp, rec):
    point, lists = inp
    tables = {kind: read_table(rec[f"{kind}.{fmt}"]) for kind, fmt in SWEEP_FORMATS.items()}
    nu_cold, nu_hot, p_cold = point["nu_cold"], point["nu_hot"], point["p_cold"]
    if lists:  # the canary grids
        xi_taus = ETA_PHOT_TAUS
        p_grid, xi_grid = np.linspace(0.51, 0.99, 13), np.linspace(0.0, 0.5, 11)
    else:  # the CLI defaults
        xi_taus = np.linspace(100e-6, 400e-6, 13)
        p_grid, xi_grid = np.linspace(0.51, 0.99, 49), np.linspace(0.0, 0.5, 26)
    for kind, fmt in SWEEP_FORMATS.items():
        _check_schema(kind, tables[kind], read_table(CANARY / CANARY_REFERENCES[f"{kind}.{fmt}"]))

    xt = tables["xi-tau"]
    _check_grid("xi-tau tau", _column(xt, "tau_s"), xi_taus)
    _require(all(s >= DEFAULT_STEPS for s in _column(xt, "steps")), "xi-tau: steps below base")
    for tau, xi in zip(_column(xt, "tau_s"), _column(xt, "xi")):
        check_xi(f"xi-tau tau {tau}", xi, nu_cold, nu_hot, tau)

    region = tables["region"]
    _require(region["metadata"]["nu_hot_hz"] == nu_hot, "region: metadata nu_hot differs")
    _require(len(region["rows"]) == len(p_grid) * len(xi_grid), "region: row count")
    rows = np.array([(r[0], r[1]) for r in region["rows"]])
    _check_grid("region p_hot", sorted(set(rows[:, 0])), p_grid)
    _check_grid("region xi", sorted(set(rows[:, 1])), xi_grid)
    check_regimes("region", p_cold, nu_cold, rows[:, 0], nu_hot, rows[:, 1],
                  _column(region, "regime"), _column(region, "eta"))

    phot = tables["eta-phot"]
    _check_grid("eta-phot p_hot", _column(phot, "p_hot_plus"), p_grid)
    for i, tau in enumerate(ETA_PHOT_TAUS):
        xi = _column(phot, f"xi_tau_{i}")[0]
        check_xi(f"eta-phot tau {tau}", xi, nu_cold, nu_hot, tau)
        check_regimes(f"eta-phot tau {i}", p_cold, nu_cold, p_grid, nu_hot, xi,
                      _column(phot, f"regime_tau_{i}"), _column(phot, f"eta_tau_{i}"))
    eta_otto = 1.0 - nu_cold / nu_hot
    _require(all(abs(v - eta_otto) <= 1e-12 for v in _column(phot, "eta_otto")),
             "eta-phot: eta_otto differs from 1 - nu_cold/nu_hot")

    ratio = tables["eta-ratio"]
    ratios = ratio["metadata"]["ratios"]
    _check_grid("eta-ratio ratios", ratios, sorted([0.4, nu_cold / nu_hot, 0.7]))
    _check_grid("eta-ratio p_hot", _column(ratio, "p_hot_plus"), p_grid)
    for i, r in enumerate(ratios):
        xi = _column(ratio, f"xi_ratio_{i}")[0]
        check_xi(f"eta-ratio {r}", xi, nu_cold, nu_cold / r, point["tau"])
        _require(all(abs(v - (1.0 - r)) <= 1e-12
                     for v in _column(ratio, f"eta_otto_ratio_{i}")),
                 f"eta-ratio: eta_otto_ratio_{i} differs from 1 - ratio")
        check_regimes(f"eta-ratio {i}", p_cold, nu_cold, p_grid, nu_cold / r, xi,
                      _column(ratio, f"regime_ratio_{i}"), _column(ratio, f"eta_ratio_{i}"))


def check_region_grid(inp, rec):
    p_cold, nu_cold, nu_hot, p_grid, xi_grid = inp
    from_csv, from_json = read_table(rec["region.csv"]), read_table(rec["region.json"])
    ref = read_table(CANARY / "region.json")
    _require(from_json["columns"] == ref["columns"] == from_csv["columns"], "columns differ")
    _require(sorted(from_json["metadata"]) == sorted(ref["metadata"]), "metadata keys differ")
    _require(from_csv["rows"] == from_json["rows"], "CSV and JSON rows differ")
    _require(len(from_csv["rows"]) == len(p_grid) * len(xi_grid), "row count")
    p_hot = np.repeat(p_grid, len(xi_grid))
    xi = np.tile(xi_grid, len(p_grid))
    rows = from_json["rows"]
    _require(np.array_equal([r[0] for r in rows], p_hot)
             and np.array_equal([r[1] for r in rows], xi), "grid differs from the input")
    check_regimes("region", p_cold, nu_cold, p_hot, nu_hot, xi,
                  [r[2] for r in rows], [r[3] for r in rows])


CHECKS = {"cycle-sample": check_cycle_sample, "long-ramp": check_long_ramp,
          "sweep-suite": check_sweep_suite, "region-grid": check_region_grid}


# --- the checker process ----------------------------------------------------

def _answer(request) -> dict:
    try:
        if "canary" in request:
            check_canary(request["canary"], request["path"])
        else:
            CHECKS[request["op"]](request["inp"], request["rec"])
    except Exception as exc:  # a wrong or malformed output, reported back
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {"error": None}


def serve(stdin=sys.stdin, stdout=sys.stdout) -> None:
    for line in stdin:
        stdout.write(json.dumps(_answer(json.loads(line))) + "\n")
        stdout.flush()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    stdout.write(json.dumps({"peak_rss_mb": peak}) + "\n")
    stdout.flush()


class Checker:
    """Client of a checker process; use as a context manager.

    Requests are answered one at a time, so no check runs while an
    operation is being timed.
    """

    def __init__(self):
        self.peak_rss_mb = None
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, cwd=Path(__file__).resolve().parent)

    def _ask(self, request) -> dict:
        try:
            self._proc.stdin.write(json.dumps(request) + "\n")
            self._proc.stdin.flush()
        except OSError as exc:
            raise CheckerError(f"checker process is gone: {exc}") from None
        line = self._proc.stdout.readline()
        if not line:
            raise CheckerError(f"checker process exited {self._proc.poll()}")
        return json.loads(line)

    def op(self, workload: str, inp, rec) -> str | None:
        """None if the record passes, else the failure."""
        return self._ask({"op": workload, "inp": inp, "rec": rec})["error"]

    def canary(self, name: str, path) -> str | None:
        return self._ask({"canary": name, "path": str(path)})["error"]

    def close(self) -> None:
        """End the process and wait for it; records its peak RSS."""
        if self._proc.poll() is None:
            try:
                self._proc.stdin.close()
                last = self._proc.stdout.readline()
                if last:
                    self.peak_rss_mb = json.loads(last)["peak_rss_mb"]
                self._proc.wait(timeout=30)
            except (OSError, ValueError, KeyError, subprocess.TimeoutExpired):
                self._proc.kill()
                self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


if __name__ == "__main__":
    serve()
