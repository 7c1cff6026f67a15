"""Time-ordered propagation of the expansion/compression ramp.

Integrates dU/dt = -i*2*pi*H(t)*U with fixed-step RK4 (H in h=1 Hz
units, so the 2*pi converts to hbar units) and projects the raw RK4
product onto the nearest unitary matrix once, at the end.  The
compression propagator is integrated independently from
H_comp(t) = -H_exp(tau - t) rather than defined as the adjoint of the
expansion one, which turns the adjoint identity into a testable
statement.

Everything here is pure; propagations for different parameters are
independent and safe to run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import AccuracyError, DomainError
from .qspin import Eigenbasis, eigenbasis, stroke_hamiltonian

DEFAULT_STEPS = 4096
DRIFT_LIMIT = 1e-9
_DRIFT_TARGET = 1e-10

DIRECTIONS = ("expansion", "compression")


@dataclass(frozen=True)
class RampProtocol:
    """Expansion/compression drive parameters.

    nu_cold/nu_hot in Hz, tau in seconds, steps = RK4 step count per
    ramp.  The default step count holds the unitarity drift below 1e-9
    and the transition-probability convergence below 1e-8 for drive
    times up to a few milliseconds; use :func:`suggested_steps` for
    longer ramps.
    """

    nu_cold: float
    nu_hot: float
    tau: float
    steps: int = DEFAULT_STEPS

    def __post_init__(self):
        if not (np.isfinite(self.nu_cold) and self.nu_cold > 0):
            raise DomainError(f"nu_cold must be positive, got {self.nu_cold}")
        if not (np.isfinite(self.nu_hot) and self.nu_hot > self.nu_cold):
            raise DomainError(
                f"nu_hot must exceed nu_cold, got nu_hot={self.nu_hot}, nu_cold={self.nu_cold}"
            )
        if not (np.isfinite(self.tau) and self.tau > 0):
            raise DomainError(f"tau must be positive, got {self.tau}")
        if int(self.steps) != self.steps or self.steps < 1:
            raise DomainError(f"steps must be a positive integer, got {self.steps}")
        object.__setattr__(self, "steps", int(self.steps))

    def cold_hamiltonian(self) -> np.ndarray:
        return stroke_hamiltonian("cold", self.nu_cold)

    def hot_hamiltonian(self) -> np.ndarray:
        return stroke_hamiltonian("hot", self.nu_hot)

    def cold_basis(self) -> Eigenbasis:
        return eigenbasis(self.cold_hamiltonian())

    def hot_basis(self) -> Eigenbasis:
        return eigenbasis(self.hot_hamiltonian())


def suggested_steps(nu_hot: float, tau: float, base: int = DEFAULT_STEPS) -> int:
    """Step count keeping the raw RK4 unitarity drift near 1e-10.

    The per-step drift of RK4 on a unitary generator scales as the sixth
    power of the phase advanced per step, so the total over N steps is
    roughly (pi*nu*tau)^6 / (72*N^5); this inverts that estimate.
    """
    phase = math.pi * nu_hot * tau
    needed = math.ceil((phase**6 / (72.0 * _DRIFT_TARGET)) ** 0.2)
    return max(int(base), needed)


@dataclass(frozen=True)
class Propagator:
    """Unitary ramp propagator plus the raw integrator drift that produced it."""

    matrix: np.ndarray
    protocol: RampProtocol
    direction: str
    drift: float

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if np.max(np.abs(m.conj().T @ m - np.eye(2))) > 1e-9:
            raise DomainError("propagator matrix is not unitary within tolerance")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def propagate(proto: RampProtocol, direction: str = "expansion") -> Propagator:
    """Integrate the ramp propagator; raises AccuracyError if the step
    count cannot hold the unitarity drift at or below 1e-9."""
    if direction not in DIRECTIONS:
        raise DomainError(f"unknown direction {direction!r}; expected one of {DIRECTIONS}")
    e01, e10, dt = _kernels.stage_coefficients(
        proto.nu_cold, proto.nu_hot, proto.tau, proto.steps, direction
    )
    matrix, drift = _kernels.rk4_propagate(e01, e10, dt, proto.steps)
    if drift > DRIFT_LIMIT:
        raise AccuracyError(
            f"unitarity drift {drift:.3e} exceeds {DRIFT_LIMIT:.0e} at steps={proto.steps}; "
            f"increase steps (suggested_steps gives {suggested_steps(proto.nu_hot, proto.tau)})",
            drift=drift,
        )
    return Propagator(matrix=matrix, protocol=proto, direction=direction, drift=drift)


def _probability(bra: np.ndarray, matrix: np.ndarray, ket: np.ndarray) -> float:
    amplitude = bra.conj() @ matrix @ ket
    return float(abs(amplitude) ** 2)


def transition_probability(proto: RampProtocol) -> float:
    """Probability of hopping between instantaneous eigenstates over the ramp.

    Computed as |<+_hot|U|-_cold>|^2 from the expansion propagator.  It
    is 1/2 in the sudden-quench limit (the cold and hot eigenbases are
    mutually unbiased) and decays toward 0 for slow driving.
    """
    u = propagate(proto, "expansion")
    return _probability(proto.hot_basis().plus, u.matrix, proto.cold_basis().minus)


@dataclass(frozen=True)
class TransitionSymmetry:
    """The four matrix-element probabilities that unitarity makes equal.

    Two come from the expansion propagator U and two from the
    independently integrated compression propagator V; all four agree to
    the integration accuracy because V equals the adjoint of U.
    """

    u_plus_hot_from_minus_cold: float
    u_minus_hot_from_plus_cold: float
    v_plus_cold_from_minus_hot: float
    v_minus_cold_from_plus_hot: float

    def values(self) -> tuple[float, float, float, float]:
        return (
            self.u_plus_hot_from_minus_cold,
            self.u_minus_hot_from_plus_cold,
            self.v_plus_cold_from_minus_hot,
            self.v_minus_cold_from_plus_hot,
        )

    def max_difference(self) -> float:
        vals = self.values()
        return max(vals) - min(vals)


def transition_symmetry(proto: RampProtocol) -> TransitionSymmetry:
    """Evaluate all four equivalent transition probabilities."""
    cold = proto.cold_basis()
    hot = proto.hot_basis()
    u = propagate(proto, "expansion").matrix
    v = propagate(proto, "compression").matrix
    return TransitionSymmetry(
        u_plus_hot_from_minus_cold=_probability(hot.plus, u, cold.minus),
        u_minus_hot_from_plus_cold=_probability(hot.minus, u, cold.plus),
        v_plus_cold_from_minus_hot=_probability(cold.plus, v, hot.minus),
        v_minus_cold_from_plus_hot=_probability(cold.minus, v, hot.plus),
    )
