"""Ramp propagation kernel: fixed-step RK4 as an ordered product of step maps.

The ramp obeys the linear equation dU/dt = A(t)U, so one RK4 step is a
fixed 2x2 matrix M_n built from the generator sampled at the start, the
midpoint and the end of the step, and the raw RK4 propagator is the
ordered product M_{N-1} ... M_1 M_0, an associative reduction.  The maps
are built on component arrays one block of :data:`BLOCK` steps at a
time, so the working memory of the product stays O(BLOCK) however long
the ramp.  Each block is reduced by a pairwise (tree) product and folded
into a running 2x2 product ``raw``.

The raw unitarity drift of the integrator is read off ``raw``, and the
returned propagator is the Newton-Schulz polar projection of ``raw``,
the unitary matrix nearest to it.
"""

from __future__ import annotations

import math

import numpy as np

BACKEND = "numpy"

# Steps per block of step maps.  Peak memory grows with the block (a few
# complex arrays of BLOCK entries are alive at once); from a few thousand
# steps on, the per-block Python overhead is small against the arithmetic.
BLOCK = 4096

_POLAR_TOL = 1e-15
_POLAR_MAX_ITERATIONS = 100


def stage_coefficients(nu_cold: float, nu_hot: float, tau: float, steps: int, direction: str):
    """Generator matrix elements on the RK4 half-step grid.

    The ramp generator is -2*pi*i*H(t) with H in h=1 Hz units (the 2*pi
    converts h-units to hbar-units).  H(t) only has sigma_x/sigma_y
    components, so the generator is fully described by its two
    off-diagonal entries e01(t) and e10(t), sampled here at
    t_j = j*dt/2 for j = 0..2*steps.
    """
    t = np.linspace(0.0, tau, 2 * steps + 1)
    if direction == "compression":
        t = tau - t
        sign = -1.0
    else:
        sign = 1.0
    frac = t / tau
    nu_t = nu_cold * (1.0 - frac) + nu_hot * frac
    angle = 0.5 * np.pi * frac
    hx = sign * (-0.5) * nu_t * np.cos(angle)
    hy = sign * (-0.5) * nu_t * np.sin(angle)
    c = hx + 1j * hy
    e10 = -2j * np.pi * c
    e01 = -2j * np.pi * np.conj(c)
    return e01, e10, tau / steps


def _step_maps(a: np.ndarray, b: np.ndarray, dt: float) -> np.ndarray:
    """RK4 step maps M = I + X of n steps from 2n+1 samples e01=a, e10=b.

    Returns X, shape (2, 2, n).  With A_k = [[0, a_k], [b_k, 0]] at the
    step's start (k=0), midpoint (1) and end (2), A_1^2 = a_1*b_1*I, and
    the four RK4 stages collapse to X = dt/6 (A_0 + 4A_1 + A_2)
    + dt^2/6 (A_1A_0 + A_1^2 + A_2A_1) + dt^3/12 (A_1^2A_0 + A_2A_1^2)
    + dt^4/24 A_2A_1^2A_0.  Keeping the identity out of X keeps the small
    per-step terms from being rounded against 1.
    """
    a0, a1, a2 = a[:-1:2], a[1::2], a[2::2]
    b0, b1, b2 = b[:-1:2], b[1::2], b[2::2]
    ab = a1 * b1
    x = np.empty((2, 2, a1.size), dtype=np.complex128)
    x[0, 0] = dt * dt / 6.0 * (a1 * b0 + ab + a2 * b1) + dt**4 / 24.0 * ab * a2 * b0
    x[1, 1] = dt * dt / 6.0 * (b1 * a0 + ab + b2 * a1) + dt**4 / 24.0 * ab * b2 * a0
    ab *= dt**3 / 12.0
    x[0, 1] = dt / 6.0 * (a0 + 4.0 * a1 + a2) + ab * (a0 + a2)
    x[1, 0] = dt / 6.0 * (b0 + 4.0 * b1 + b2) + ab * (b0 + b2)
    return x


def _ordered_product(x: np.ndarray) -> np.ndarray:
    """M_{n-1} ... M_1 M_0 of the maps M_k = I + x[:, :, k], by pairwise reduction.

    Adjacent maps combine as (I + L)(I + E) = I + (L + E + LE).
    """
    while x.shape[2] > 1:
        pairs = x.shape[2] // 2
        early = x[:, :, 0:2 * pairs:2]
        late = x[:, :, 1:2 * pairs:2]
        product = late + early + late[:, :1] * early[:1] + late[:, 1:] * early[1:]
        if x.shape[2] % 2:
            product = np.concatenate((product, x[:, :, -1:]), axis=2)
        x = product
    return np.eye(2) + x[:, :, 0]


def _polar(raw: np.ndarray) -> np.ndarray:
    """Unitary polar factor of a nonsingular 2x2 matrix by Newton-Schulz iteration.

    Scaling to Frobenius norm sqrt(2) leaves the factor unchanged and puts
    every singular value at or below sqrt(2), inside the iteration's
    convergence range (0, sqrt(3)), however far a coarse step count has
    pushed ``raw`` from unitary.
    """
    u = raw * (math.sqrt(2.0) / np.linalg.norm(raw))
    for _ in range(_POLAR_MAX_ITERATIONS):
        gram = u.conj().T @ u
        if np.max(np.abs(gram - np.eye(2))) <= _POLAR_TOL:
            break
        u = 1.5 * u - 0.5 * (u @ gram)
    return u


def rk4_propagate(e01: np.ndarray, e10: np.ndarray, dt: float, steps: int):
    """RK4 propagator over ``steps`` steps; returns (unitary propagator, raw drift).

    ``e01``/``e10`` are the generator's off-diagonal entries on the
    half-step grid (2*steps + 1 samples, as from :func:`stage_coefficients`).
    """
    raw = np.eye(2, dtype=np.complex128)
    for start in range(0, steps, BLOCK):
        stop = min(start + BLOCK, steps)
        window = slice(2 * start, 2 * stop + 1)
        raw = _ordered_product(_step_maps(e01[window], e10[window], dt)) @ raw
    drift = float(np.max(np.abs(raw.conj().T @ raw - np.eye(2))))
    return _polar(raw), drift
