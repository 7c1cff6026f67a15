"""Exact 2x2 algebra for the spin-1/2 working medium.

Pauli operators, the cold/hot stroke Hamiltonians, the driven-ramp
Hamiltonian, Gibbs states, and the map between excited-state population
and inverse spin temperature.

Unit convention: Planck's constant is set to 1 everywhere, so Hamiltonian
entries carry units of Hz, inverse temperatures carry 1/Hz, and energies
come out in h*Hz.  Every physical result depends only on beta*h*nu
products, so laboratory frequencies can be used verbatim.

All functions here are pure; returned arrays are safe to share between
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DegeneracyError, DomainError, InfiniteTemperatureError

if TYPE_CHECKING:
    from .propagator import RampProtocol

HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
EIGENVALUE_ATOL = 1e-12
DEGENERACY_RTOL = 1e-14

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

IDENTITY = np.eye(2, dtype=complex)
IDENTITY.setflags(write=False)
for _m in _PAULI.values():
    _m.setflags(write=False)


def pauli(axis: str) -> np.ndarray:
    """Return the Pauli matrix for ``axis`` in {'x', 'y', 'z'}."""
    try:
        return _PAULI[axis]
    except KeyError:
        raise DomainError(f"unknown Pauli axis {axis!r}; expected 'x', 'y' or 'z'") from None


def _as_matrix(mat) -> np.ndarray:
    m = np.asarray(mat, dtype=complex)
    if m.shape != (2, 2):
        raise DomainError(f"expected a 2x2 matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise DomainError("matrix contains non-finite entries")
    return m


def _require_hermitian(m: np.ndarray, atol: float = HERMITICITY_ATOL) -> None:
    if np.max(np.abs(m - m.conj().T)) > atol:
        raise DomainError("matrix is not Hermitian within tolerance")


@dataclass(frozen=True)
class DensityMatrix:
    """A validated 2x2 density matrix.

    Construction enforces Hermiticity and unit trace to 1e-12 and
    positive semidefiniteness to -1e-12 on the eigenvalues, so any value
    of this type can be trusted downstream.
    """

    mat: np.ndarray

    def __post_init__(self):
        m = _as_matrix(self.mat)
        _require_hermitian(m)
        if abs(m.trace() - 1.0) > TRACE_ATOL:
            raise DomainError(f"density matrix trace {m.trace():.6g} is not 1")
        if np.linalg.eigvalsh(m).min() < -EIGENVALUE_ATOL:
            raise DomainError("density matrix has a negative eigenvalue")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    def expectation(self, op: np.ndarray) -> float:
        """Real expectation value Tr(rho * op) for a Hermitian operator."""
        return float(np.trace(self.mat @ op).real)

    def purity(self) -> float:
        return float(np.trace(self.mat @ self.mat).real)


def stroke_hamiltonian(kind: str, nu: float) -> np.ndarray:
    """Hamiltonian held during an isochoric stroke, in h=1 units (Hz).

    'cold' gives -nu/2 * sigma_x and 'hot' gives -nu/2 * sigma_y; both
    have eigenvalues +-nu/2.
    """
    if not (np.isfinite(nu) and nu > 0):
        raise DomainError(f"frequency must be positive and finite, got {nu}")
    if kind == "cold":
        return -0.5 * nu * _PAULI["x"]
    if kind == "hot":
        return -0.5 * nu * _PAULI["y"]
    raise DomainError(f"unknown stroke kind {kind!r}; expected 'cold' or 'hot'")


def ramp_hamiltonian(proto: "RampProtocol", t: float, direction: str = "expansion") -> np.ndarray:
    """Drive Hamiltonian at time ``t`` of the expansion or compression ramp.

    The expansion interpolates the gap linearly from nu_cold to nu_hot
    while rotating the spin axis from x to y through an angle
    pi*t/(2*tau).  The compression drive is the negated, time-reversed
    expansion: H_comp(t) = -H_exp(tau - t).
    """
    if direction not in ("expansion", "compression"):
        raise DomainError(f"unknown ramp direction {direction!r}")
    if not (0.0 <= t <= proto.tau):
        raise DomainError(f"time {t} outside the ramp interval [0, {proto.tau}]")
    sign = 1.0
    if direction == "compression":
        t = proto.tau - t
        sign = -1.0
    frac = t / proto.tau
    nu_t = proto.nu_cold * (1.0 - frac) + proto.nu_hot * frac
    angle = 0.5 * math.pi * frac
    return sign * (-0.5) * nu_t * (math.cos(angle) * _PAULI["x"] + math.sin(angle) * _PAULI["y"])


def beta_from_population(p_plus: float, nu: float) -> float:
    """Inverse temperature (1/Hz, h=1) matching an excited-state population.

    beta = ln((1 - p+)/p+) / nu, so p+ < 1/2 gives beta > 0 and p+ > 1/2
    (population inversion) gives beta < 0.
    """
    if not (np.isfinite(nu) and nu > 0):
        raise DomainError(f"frequency must be positive and finite, got {nu}")
    if p_plus in (0.0, 1.0):
        raise InfiniteTemperatureError(
            f"population {p_plus} corresponds to an infinite inverse-temperature magnitude"
        )
    if not (0.0 < p_plus < 1.0):
        raise DomainError(f"population must lie in (0, 1), got {p_plus}")
    return math.log((1.0 - p_plus) / p_plus) / nu


def population_from_beta(beta: float, nu: float) -> float:
    """Excited-state population of the Gibbs state at inverse temperature ``beta``."""
    if not (np.isfinite(nu) and nu > 0):
        raise DomainError(f"frequency must be positive and finite, got {nu}")
    if not np.isfinite(beta):
        raise DomainError(f"beta must be finite, got {beta}")
    x = beta * nu
    if x > 0.0:  # exp(-x) underflows to 0 where exp(x) would overflow
        weight = math.exp(-x)
        return weight / (1.0 + weight)
    return 1.0 / (math.exp(x) + 1.0)


@dataclass(frozen=True)
class ReservoirSpec:
    """One reservoir: its frequency and temperature in both encodings.

    ``beta`` and ``p_plus`` are kept consistent; build instances with
    :meth:`from_population` or :meth:`from_beta`.
    """

    nu: float
    beta: float
    p_plus: float

    def __post_init__(self):
        if not (np.isfinite(self.nu) and self.nu > 0):
            raise DomainError(f"reservoir frequency must be positive, got {self.nu}")
        if not np.isfinite(self.beta):
            raise DomainError("reservoir beta must be finite")
        if not (0.0 < self.p_plus < 1.0):
            raise DomainError(f"reservoir population must lie in (0, 1), got {self.p_plus}")
        if abs(self.p_plus - population_from_beta(self.beta, self.nu)) > 1e-9:
            raise DomainError("beta and p_plus are inconsistent for this frequency")

    @classmethod
    def from_population(cls, nu: float, p_plus: float) -> "ReservoirSpec":
        if p_plus == 0.5:
            return cls(nu=nu, beta=0.0, p_plus=0.5)
        return cls(nu=nu, beta=beta_from_population(p_plus, nu), p_plus=p_plus)

    @classmethod
    def from_beta(cls, nu: float, beta: float) -> "ReservoirSpec":
        return cls(nu=nu, beta=beta, p_plus=population_from_beta(beta, nu))


def gibbs_state(hamiltonian: np.ndarray, beta: float) -> DensityMatrix:
    """Gibbs state exp(-beta*H)/Z via spectral decomposition.

    Exact for 2x2 up to round-off; the largest exponent is subtracted
    before exponentiating, so arbitrarily large |beta*nu| stays finite.
    Negative beta (population inversion) is handled identically.
    """
    h = _as_matrix(hamiltonian)
    _require_hermitian(h, atol=1e-10)
    if not np.isfinite(beta):
        raise DomainError("beta must be finite")
    w, v = np.linalg.eigh(h)
    exponents = -beta * w
    weights = np.exp(exponents - exponents.max())
    weights /= weights.sum()
    rho = (v * weights) @ v.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return DensityMatrix(rho)


@dataclass(frozen=True)
class Eigenbasis:
    """Ordered, phase-fixed eigenpair of a nondegenerate 2x2 Hamiltonian.

    ``plus`` carries the positive eigenvalue.  The global phase of each
    vector is fixed by making its first nonzero component real positive,
    which keeps repeated calls bit-identical.
    """

    plus: np.ndarray
    minus: np.ndarray
    energy_plus: float
    energy_minus: float


def _fix_phase(vec: np.ndarray) -> np.ndarray:
    for component in vec:
        if abs(component) > 1e-12:
            vec = vec * (component.conjugate() / abs(component))
            break
    vec.setflags(write=False)
    return vec


def eigenbasis(hamiltonian: np.ndarray) -> Eigenbasis:
    """Eigenvectors and energies of a Hermitian 2x2 Hamiltonian."""
    h = _as_matrix(hamiltonian)
    _require_hermitian(h, atol=1e-10)
    norm = np.max(np.abs(h))
    w, v = np.linalg.eigh(h)
    if abs(w[1] - w[0]) <= DEGENERACY_RTOL * max(norm, 1e-300):
        raise DegeneracyError("Hamiltonian spectrum is degenerate within tolerance")
    return Eigenbasis(
        plus=_fix_phase(v[:, 1].copy()),
        minus=_fix_phase(v[:, 0].copy()),
        energy_plus=float(w[1]),
        energy_minus=float(w[0]),
    )
