"""Reference physics for the benchmark's output checks.

Nothing here imports ``ottospin``: the checks compare the library against
formulas and an integrator that share no code with it, so a change to the
library cannot move its own reference.

* :func:`cycle_oracle` evaluates the closed-form cycle quantities on numpy
  arrays directly from the excited-state populations (``tanh(beta*nu/2)``
  equals ``1 - 2*p`` for the cold reservoir and ``2*p - 1`` for the
  inverted hot one), so it skips the library's beta round trip.
* :func:`ramp_xi` integrates the ramp Schroedinger equation with scipy's
  DOP853 at ``rtol = atol = 1e-12``.
* :class:`RampLaw` is the long-ramp input distribution and the step-count
  levels that the long-ramp workload draws from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NOT_ENGINE = "NotEngine"
SUB_OTTO = "EngineSubOtto"
SUPER_OTTO = "EngineSuperOtto"

# Cells closer than this to a regime boundary may carry either label: the
# library and this module round differently in the last bits.
TIE_MARGIN = 1e-9


def cycle_oracle(p_cold, nu_cold, p_hot, nu_hot, xi):
    """Closed-form regime, efficiency and ambiguity flag for broadcastable inputs.

    Returns ``(labels, eta, ambiguous)``: ``labels`` is an object array of
    regime strings, ``eta`` is NaN outside the engine regime and
    ``ambiguous`` marks cells within :data:`TIE_MARGIN` of a boundary.
    """
    p_cold, nu_cold, p_hot, nu_hot, xi = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (p_cold, nu_cold, p_hot, nu_hot, xi)))
    t_cold = 1.0 - 2.0 * p_cold
    t_hot = 2.0 * p_hot - 1.0
    gain = 0.5 * (nu_hot - nu_cold) * (t_cold + t_hot)
    friction_rate = nu_hot * t_cold - nu_cold * t_hot
    work = -gain + xi * friction_rate
    q_hot = 0.5 * nu_hot * (t_cold + t_hot) - xi * nu_hot * t_cold
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = np.where(friction_rate > 0.0, gain / friction_rate, np.inf)
        engine = xi < bound
        eta = np.where(engine, -work / q_hot, np.nan)
    labels = np.where(engine, np.where(t_hot >= t_cold, SUPER_OTTO, SUB_OTTO), NOT_ENGINE)
    ambiguous = (np.abs(xi - bound) <= TIE_MARGIN * np.maximum(1.0, np.abs(bound))) | (
        np.abs(t_hot - t_cold) <= TIE_MARGIN)
    return labels.astype(object), eta, ambiguous


def ramp_xi(nu_cold: float, nu_hot: float, tau: float) -> float:
    """Transition probability |<+_hot|psi(tau)>|^2 from |-_cold>, by DOP853.

    The ramp Hamiltonian is H(t) = -nu(t)/2 (cos(a) sigma_x + sin(a) sigma_y)
    with nu(t) linear from nu_cold to nu_hot and a = pi t / (2 tau); the
    state obeys d(psi)/dt = -2 pi i H psi (h = 1 units).
    """
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        frac = t / tau
        rate = math.pi * (nu_cold * (1.0 - frac) + nu_hot * frac)
        angle = 0.5 * math.pi * frac
        c, s = math.cos(angle), math.sin(angle)
        a = complex(y[0], y[1])
        b = complex(y[2], y[3])
        # d(psi0)/dt = i*pi*nu*exp(-i a)*psi1, d(psi1)/dt = i*pi*nu*exp(i a)*psi0
        da = 1j * rate * complex(c, -s) * b
        db = 1j * rate * complex(c, s) * a
        return [da.real, da.imag, db.real, db.imag]

    amp = 1.0 / math.sqrt(2.0)
    sol = solve_ivp(rhs, (0.0, tau), [amp, 0.0, amp, 0.0], method="DOP853",
                    rtol=1e-12, atol=1e-12)
    if not sol.success:
        raise RuntimeError(f"solve_ivp failed: {sol.message}")
    a = complex(sol.y[0, -1], sol.y[1, -1])
    b = complex(sol.y[2, -1], sol.y[3, -1])
    # <+_hot| = (1, i)/sqrt(2) as a bra, since |+_hot> = (1, -i)/sqrt(2).
    return abs(a + 1j * b) ** 2 / 2.0


@dataclass(frozen=True)
class RampLaw:
    """Long-ramp inputs: nu_hot uniform, tau log-uniform, nu_cold uniform below nu_hot.

    The step count of a ramp depends only on the phase product
    ``nu_hot * tau``, so the workload fixes ``levels`` of that product (the
    midpoints of ``len(levels)`` equal-probability bands of its law) and
    draws the ramp that realises each level from the conditional law.
    Every round of the workload then costs the same whatever the seed.
    """

    nu_min: float = 1000.0
    nu_hot_min: float = 1100.0
    nu_max: float = 10000.0
    gap: float = 100.0
    tau_min: float = 2e-3
    tau_max: float = 20e-3

    def product_cdf(self, product: float) -> float:
        """P(nu_hot * tau <= product), averaged over nu_hot by the midpoint rule."""
        nu = self.nu_hot_min + (self.nu_max - self.nu_hot_min) * (np.arange(20000) + 0.5) / 20000
        log_span = math.log(self.tau_max / self.tau_min)
        frac = (np.log(product / nu) - math.log(self.tau_min)) / log_span
        return float(np.clip(frac, 0.0, 1.0).mean())

    def levels(self, count: int) -> list[float]:
        out = []
        for k in range(count):
            target = (k + 0.5) / count
            lo = math.log(self.nu_hot_min * self.tau_min)
            hi = math.log(self.nu_max * self.tau_max)
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                if self.product_cdf(math.exp(mid)) < target:
                    lo = mid
                else:
                    hi = mid
            out.append(math.exp(0.5 * (lo + hi)))
        return out

    def draw(self, rng: np.random.Generator, product: float) -> tuple[float, float, float]:
        """(nu_cold, nu_hot, tau) with nu_hot * tau == product.

        Given the product, nu_hot is uniform over the values that keep tau
        inside its range, which is the conditional law of nu_hot.
        """
        lo = max(self.nu_hot_min, product / self.tau_max)
        hi = min(self.nu_max, product / self.tau_min)
        nu_hot = float(rng.uniform(lo, hi))
        nu_cold = float(rng.uniform(self.nu_min, nu_hot - self.gap))
        return nu_cold, nu_hot, product / nu_hot
