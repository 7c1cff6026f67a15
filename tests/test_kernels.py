import numpy as np
import pytest
from numpy.testing import assert_allclose

from ottospin import ramp_hamiltonian
from ottospin._kernels import BLOCK, rk4_propagate, stage_coefficients
from ottospin.propagator import RampProtocol

PROTO = RampProtocol(2000.0, 3600.0, 200e-6, steps=512)


def _hamiltonian_from_coefficients(e01, e10, j):
    scale = -2j * np.pi
    return np.array([[0.0, e01[j] / scale], [e10[j] / scale, 0.0]])


@pytest.mark.parametrize("direction", ["expansion", "compression"])
def test_stage_coefficients_match_ramp_hamiltonian(direction):
    e01, e10, dt = stage_coefficients(PROTO.nu_cold, PROTO.nu_hot, PROTO.tau,
                                      PROTO.steps, direction)
    assert dt == PROTO.tau / PROTO.steps
    for j in (0, 1, 17, 2 * PROTO.steps):
        t = 0.5 * j * dt
        expected = ramp_hamiltonian(PROTO, t, direction)
        assert_allclose(_hamiltonian_from_coefficients(e01, e10, j), expected, atol=1e-10)


def _rk4_loop(e01, e10, dt, steps):
    """Step-by-step RK4 reference: (propagator re-unitarized after every step
    by two Newton-Schulz iterations, raw drift of an unprojected copy)."""

    def gen_apply(j, x):
        out = np.empty_like(x)
        out[0] = e01[j] * x[1]
        out[1] = e10[j] * x[0]
        return out

    def rk4_step(j0, x):
        k1 = gen_apply(j0, x)
        k2 = gen_apply(j0 + 1, x + (0.5 * dt) * k1)
        k3 = gen_apply(j0 + 1, x + (0.5 * dt) * k2)
        k4 = gen_apply(j0 + 2, x + dt * k3)
        return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    u = np.eye(2, dtype=np.complex128)
    raw = np.eye(2, dtype=np.complex128)
    for n in range(steps):
        j0 = 2 * n
        u = rk4_step(j0, u)
        for _ in range(2):
            u = 1.5 * u - 0.5 * (u @ (u.conj().T @ u))
        raw = rk4_step(j0, raw)
    drift = float(np.max(np.abs(raw.conj().T @ raw - np.eye(2))))
    return u, drift


# Step counts around the block boundaries.  On the 20 us ramp even a single
# step advances the phase little enough for the loop's two Newton-Schulz
# iterations per step to converge, so both results are the polar factor of
# the same RK4 product; the 200 us baseline ramp checks a realistic drive.
LOOP_CASES = ([(20e-6, steps) for steps in (1, 2, 3, 10, BLOCK - 1, BLOCK, BLOCK + 1,
                                            2 * BLOCK + 3)]
              + [(PROTO.tau, 10), (PROTO.tau, 2 * BLOCK + 3)])


@pytest.mark.parametrize("direction", ["expansion", "compression"])
@pytest.mark.parametrize("tau, steps", LOOP_CASES)
def test_matches_step_by_step_loop(tau, steps, direction):
    e01, e10, dt = stage_coefficients(PROTO.nu_cold, PROTO.nu_hot, tau, steps, direction)
    u, drift = rk4_propagate(e01, e10, dt, steps)
    u_loop, drift_loop = _rk4_loop(e01, e10, dt, steps)
    assert np.max(np.abs(u - u_loop)) <= 1e-12
    assert abs(drift - drift_loop) <= 1e-3 * drift_loop + 1e-13


def test_projection_keeps_result_unitary_even_when_raw_drifts():
    e01, e10, dt = stage_coefficients(PROTO.nu_cold, PROTO.nu_hot, PROTO.tau, 10,
                                      "expansion")
    u, drift = rk4_propagate(e01, e10, dt, 10)
    assert drift > 1e-9
    assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12
