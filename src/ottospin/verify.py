"""Built-in verification suite.

Runs every acceptance-level check at its pinned tolerance and reports
one pass/fail line per check.  The same checks back both the ``verify``
CLI subcommand and the acceptance test module, so the two can never
drift apart.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .analysis import (
    find_crossing_population,
    region_map,
    sweep_efficiency_vs_population,
    tomography_reference_check,
)
from .otto import (
    CyclePoint,
    Regime,
    closed_form_cycle,
    efficiency,
    efficiency_ratio_form,
    trace_cycle,
)
from .propagator import (
    RampProtocol,
    propagate,
    suggested_steps,
    transition_probability,
    transition_symmetry,
)
from .qspin import ReservoirSpec

BASELINE = {
    "nu_cold": 2000.0,
    "nu_hot": 3600.0,
    "tau": 200e-6,
    "steps": 4096,
    "p_cold_plus": 0.261,
    "p_hot_plus": 0.813,
}

SAMPLE_SEED = 20260810
SAMPLE_SIZE = 200


@dataclass(frozen=True)
class VerifyParams:
    nu_cold: float = BASELINE["nu_cold"]
    nu_hot: float = BASELINE["nu_hot"]
    tau: float = BASELINE["tau"]
    steps: int = BASELINE["steps"]
    p_cold_plus: float = BASELINE["p_cold_plus"]
    p_hot_plus: float = BASELINE["p_hot_plus"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass
class VerificationReport:
    backend: str
    results: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> list[str]:
        out = [f"kernel backend: {self.backend}"]
        for r in self.results:
            out.append(f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}")
        out.append("verification " + ("PASSED" if self.passed else "FAILED"))
        return out


def _rel_err(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return 0.0
    return abs(a - b) / scale


def _sample_parameter_sets(params: VerifyParams, size: int = SAMPLE_SIZE):
    """Seeded random (cold, hot, protocol) triples spanning the sweep domain."""
    rng = np.random.default_rng(SAMPLE_SEED)
    sets = []
    while len(sets) < size:
        p_cold = rng.uniform(0.05, 0.45)
        p_hot = rng.uniform(0.55, 0.95)
        nus = np.sort(rng.uniform(1000.0, 10000.0, size=2))
        if nus[1] - nus[0] < 100.0:
            continue
        tau = rng.uniform(50e-6, 500e-6)
        cold = ReservoirSpec.from_population(float(nus[0]), float(p_cold))
        hot = ReservoirSpec.from_population(float(nus[1]), float(p_hot))
        proto = RampProtocol(nu_cold=float(nus[0]), nu_hot=float(nus[1]), tau=float(tau),
                             steps=params.steps)
        sets.append((cold, hot, proto))
    return sets


def _cycle_pairs(params: VerifyParams):
    """(closed-form, trace-based) cycle results over the seeded sample."""
    pairs = []
    for cold, hot, proto in _sample_parameter_sets(params):
        traced = trace_cycle(cold, hot, proto)
        point = CyclePoint(cold=cold, hot=hot, xi=traced.xi)
        pairs.append((point, closed_form_cycle(point), traced))
    return pairs


def check_reference_states(params: VerifyParams) -> CheckResult:
    start = time.perf_counter()
    proto = RampProtocol(params.nu_cold, params.nu_hot, params.tau, params.steps)
    outcome = tomography_reference_check(proto=proto)
    elapsed = time.perf_counter() - start
    worst = max(outcome.entry_deviations.values())
    entry_failures = [f for f in outcome.failures if "deviates" in f]
    ok = not entry_failures and elapsed < 1.0
    return CheckResult(
        "reference state regeneration",
        ok,
        f"max entrywise deviation {worst:.4f} (tol 0.005), runtime {elapsed:.2f}s (< 1s)",
    )


def check_reference_fidelities(params: VerifyParams) -> CheckResult:
    proto = RampProtocol(params.nu_cold, params.nu_hot, params.tau, params.steps)
    outcome = tomography_reference_check(proto=proto)
    worst = max(outcome.fidelity_deviations.values())
    fid_failures = [f for f in outcome.failures if "fidelity" in f]
    values = {p.label: round(p.fidelity, 4) for p in outcome.report.pairs}
    return CheckResult(
        "reference fidelities",
        not fid_failures,
        f"fidelities {values}, max deviation {worst:.4f} (tol 0.002)",
    )


def check_closed_form_vs_trace(params: VerifyParams, pairs=None,
                               sample_seconds: float = 0.0) -> CheckResult:
    start = time.perf_counter()
    if pairs is None:
        pairs = _cycle_pairs(params)
    worst_energy = 0.0
    worst_eta = 0.0
    engines = 0
    for point, closed, traced in pairs:
        for a, b in ((closed.work, traced.work), (closed.q_hot, traced.q_hot),
                     (closed.q_cold, traced.q_cold)):
            worst_energy = max(worst_energy, _rel_err(a, b))
        if closed.efficiency is not None and traced.efficiency is not None:
            engines += 1
            ratio_eta = efficiency_ratio_form(point)
            worst_eta = max(worst_eta, _rel_err(closed.efficiency, ratio_eta))
            worst_eta = max(worst_eta, _rel_err(traced.efficiency, ratio_eta))
    elapsed = time.perf_counter() - start + sample_seconds
    ok = worst_energy <= 1e-8 and worst_eta <= 1e-10 and elapsed < 30.0
    return CheckResult(
        "closed forms vs stroke traces",
        ok,
        f"{len(pairs)} random sets ({engines} engines): max W/Q rel err {worst_energy:.2e} "
        f"(tol 1e-8), max eta rel err {worst_eta:.2e} (tol 1e-10), runtime {elapsed:.1f}s",
    )


def check_transition_limits(params: VerifyParams) -> CheckResult:
    sudden = transition_probability(
        RampProtocol(params.nu_cold, params.nu_hot, 1e-12, params.steps))
    slow_steps = suggested_steps(params.nu_hot, 1.0, base=params.steps)
    slow = transition_probability(
        RampProtocol(params.nu_cold, params.nu_hot, 1.0, slow_steps))
    grid = [
        transition_probability(RampProtocol(params.nu_cold, params.nu_hot, t, params.steps))
        for t in np.linspace(100e-6, 400e-6, 13)
    ]
    ok = (
        abs(sudden - 0.5) <= 1e-6
        and slow < 1e-3
        and max(grid) <= 0.5 + 1e-9
        and grid[0] > grid[-1]
    )
    return CheckResult(
        "sudden and adiabatic limits",
        ok,
        f"xi(1e-12s)={sudden:.8f} (0.5 +/- 1e-6), xi(1s)={slow:.2e} (< 1e-3), "
        f"grid max {max(grid):.4f} (<= 0.5), xi(100us)={grid[0]:.4f} > xi(400us)={grid[-1]:.4f}",
    )


def check_otto_limit_invariance(params: VerifyParams) -> CheckResult:
    worst = 0.0
    for nu_cold, nu_hot, p_cold in ((params.nu_cold, params.nu_hot, params.p_cold_plus),
                                    (1500.0, 5000.0, 0.35)):
        cold = ReservoirSpec.from_population(nu_cold, p_cold)
        hot = ReservoirSpec.from_beta(nu_hot, -cold.beta * nu_cold / nu_hot)
        limit = 1.0 - nu_cold / nu_hot
        for xi in (0.0, 0.1, 0.25, 0.49):
            point = CyclePoint(cold=cold, hot=hot, xi=xi)
            worst = max(worst, abs(efficiency(point) - limit))
    return CheckResult(
        "quasi-static efficiency invariance at matched weights",
        worst <= 1e-12,
        f"max |eta - (1 - nu_c/nu_h)| = {worst:.2e} (tol 1e-12) over xi in {{0, 0.1, 0.25, 0.49}}",
    )


def check_crossing_point(params: VerifyParams) -> CheckResult:
    crossing = find_crossing_population(params.p_cold_plus, params.nu_cold, params.nu_hot)
    expected = 1.0 - params.p_cold_plus
    if crossing is None or abs(crossing - expected) > 0.002:
        return CheckResult("regime crossing point", False,
                           f"crossing {crossing} not within 0.002 of {expected}")
    step = 0.002
    p_grid = np.arange(0.511, 0.9951, step)
    table = sweep_efficiency_vs_population(
        params.p_cold_plus, params.nu_cold, params.nu_hot,
        [100e-6, 200e-6, 300e-6, 400e-6], p_grid, steps=params.steps)
    p_col = table.column("p_hot_plus")
    worst_offset = 0.0
    for i in range(4):
        etas = table.column(f"eta_tau_{i}")
        flip = None
        previous = None
        for p, eta in zip(p_col, etas):
            if eta is None:
                continue
            sign = eta - (1.0 - params.nu_cold / params.nu_hot)
            if previous is not None and previous < 0.0 <= sign:
                flip = p
                break
            previous = sign
        if flip is None:
            return CheckResult("regime crossing point", False,
                               f"no sign change found for curve {i}")
        worst_offset = max(worst_offset, abs(flip - crossing))
    ok = worst_offset <= step + 1e-12
    return CheckResult(
        "regime crossing point",
        ok,
        f"crossing {crossing:.6f} (expected {expected:.3f} +/- 0.002); all curves flip "
        f"within {worst_offset:.4f} of it (one grid cell = {step})",
    )


def check_drive_speed_ordering(params: VerifyParams) -> CheckResult:
    taus = (100e-6, 200e-6, 400e-6)
    xis = [
        transition_probability(RampProtocol(params.nu_cold, params.nu_hot, t, params.steps))
        for t in taus
    ]
    cold = ReservoirSpec.from_population(params.nu_cold, params.p_cold_plus)

    def eta_at(p_hot, xi):
        point = CyclePoint(cold=cold,
                           hot=ReservoirSpec.from_population(params.nu_hot, p_hot), xi=xi)
        return closed_form_cycle(point)

    deep = [eta_at(0.95, xi) for xi in xis]
    deep_ok = (
        all(r.regime is Regime.SUPER_OTTO for r in deep)
        and deep[0].efficiency > deep[1].efficiency > deep[2].efficiency
    )
    shallow = [eta_at(0.55, xi) for xi in xis]
    shallow_ok = (
        shallow[0].regime is Regime.NOT_ENGINE
        and shallow[1].regime is Regime.SUB_OTTO
        and shallow[2].regime is Regime.SUB_OTTO
        and shallow[1].efficiency < shallow[2].efficiency
    )
    deep_etas = [round(r.efficiency, 4) if r.efficiency is not None else None for r in deep]
    shallow_etas = [round(r.efficiency, 4) if r.efficiency is not None else None
                    for r in shallow]
    return CheckResult(
        "drive-speed ordering of efficiency",
        deep_ok and shallow_ok,
        f"p_hot=0.95: eta(100/200/400us)={deep_etas} strictly decreasing with tau; "
        f"p_hot=0.55: ordering reversed where the engine runs, "
        f"eta(100/200/400us)={shallow_etas} (100us extracts no work)",
    )


def check_region_map(params: VerifyParams) -> CheckResult:
    crossing = 1.0 - params.p_cold_plus
    table = region_map(params.p_cold_plus, params.nu_cold, params.nu_hot,
                       np.linspace(0.51, 0.99, 25), np.linspace(0.0, 0.5, 26))
    sub_blank = 0
    super_blank = 0
    for p_hot, xi, label, _eta in table.rows:
        if label is Regime.NOT_ENGINE:
            if p_hot < crossing:
                sub_blank += 1
            else:
                super_blank += 1
    ok = sub_blank >= 1 and super_blank == 0
    return CheckResult(
        "work-extraction blank region",
        ok,
        f"{sub_blank} non-engine cells on the sub-Otto side, {super_blank} on the "
        f"super-Otto side (expected >= 1 and 0)",
    )


def check_first_law(params: VerifyParams, pairs=None) -> CheckResult:
    if pairs is None:
        pairs = _cycle_pairs(params)
    worst = 0.0
    for _point, closed, traced in pairs:
        for r in (closed, traced):
            residual = abs(r.work + r.q_hot + r.q_cold)
            budget = 1e-10 * (abs(r.q_hot) + abs(r.q_cold))
            worst = max(worst, residual / budget if budget > 0 else residual)
    return CheckResult(
        "first law over the closed cycle",
        worst <= 1.0,
        f"max |W+Q_hot+Q_cold| at {worst:.2e} of the 1e-10*(|Q_hot|+|Q_cold|) budget, "
        f"closed-form and trace-based",
    )


def check_numerical_hygiene(params: VerifyParams) -> CheckResult:
    proto = RampProtocol(params.nu_cold, params.nu_hot, params.tau, params.steps)
    u = propagate(proto, "expansion")
    v = propagate(proto, "compression")
    drift = max(u.drift, v.drift)
    adjoint_gap = float(np.max(np.abs(v.matrix - u.matrix.conj().T)))
    xi_here = transition_probability(proto)
    doubled = RampProtocol(proto.nu_cold, proto.nu_hot, proto.tau, 2 * proto.steps)
    richardson = abs(transition_probability(doubled) - xi_here)
    spread = transition_symmetry(proto).max_difference()
    ok = drift <= 1e-9 and richardson < 1e-8 and adjoint_gap <= 1e-8 and spread <= 1e-8
    return CheckResult(
        "propagator numerical hygiene",
        ok,
        f"drift {drift:.2e} (<= 1e-9), step-doubling xi change {richardson:.2e} (< 1e-8), "
        f"adjoint gap {adjoint_gap:.2e} (<= 1e-8), symmetry spread {spread:.2e} (<= 1e-8)",
    )


def _guard(func, params: VerifyParams, name: str, **kwargs) -> CheckResult:
    try:
        return func(params, **kwargs)
    except Exception as exc:  # every failure must become a report line
        return CheckResult(name, False, f"error: {exc}")


def run_all(params: VerifyParams | None = None) -> VerificationReport:
    """Run the full verification suite and collect one result per check."""
    params = params or VerifyParams()
    report = VerificationReport(backend=_kernels.BACKEND)
    sample_start = time.perf_counter()
    try:
        pairs = _cycle_pairs(params)
        sample_seconds = time.perf_counter() - sample_start
    except Exception as exc:
        pairs = None
        sample_seconds = 0.0
        report.results.append(CheckResult("random parameter sample", False, f"error: {exc}"))

    report.results.append(_guard(check_reference_states, params, "reference state regeneration"))
    report.results.append(_guard(check_reference_fidelities, params, "reference fidelities"))
    report.results.append(
        _guard(check_closed_form_vs_trace, params, "closed forms vs stroke traces",
               pairs=pairs, sample_seconds=sample_seconds))
    report.results.append(_guard(check_transition_limits, params, "sudden and adiabatic limits"))
    report.results.append(
        _guard(check_otto_limit_invariance, params,
               "quasi-static efficiency invariance at matched weights"))
    report.results.append(_guard(check_crossing_point, params, "regime crossing point"))
    report.results.append(
        _guard(check_drive_speed_ordering, params, "drive-speed ordering of efficiency"))
    report.results.append(_guard(check_region_map, params, "work-extraction blank region"))
    report.results.append(_guard(check_first_law, params, "first law over the closed cycle",
                                 pairs=pairs))
    report.results.append(_guard(check_numerical_hygiene, params,
                                 "propagator numerical hygiene"))
    return report
