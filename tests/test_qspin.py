import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ottospin import (
    DegeneracyError,
    DensityMatrix,
    DomainError,
    InfiniteTemperatureError,
    RampProtocol,
    ReservoirSpec,
    beta_from_population,
    eigenbasis,
    gibbs_state,
    pauli,
    population_from_beta,
    ramp_hamiltonian,
    stroke_hamiltonian,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
IDENT = np.eye(2)


def test_pauli_values():
    assert_allclose(pauli("x"), SX)
    assert_allclose(pauli("y"), SY)
    assert_allclose(pauli("z"), np.diag([1.0, -1.0]).astype(complex))
    assert_allclose(pauli("z") @ pauli("z"), IDENT)


@pytest.mark.parametrize("axis", ["x", "y", "z"])
def test_pauli_properties(axis):
    sigma = pauli(axis)
    assert_allclose(sigma @ sigma, IDENT, atol=1e-15)
    assert abs(np.trace(sigma)) == 0.0
    assert_allclose(sigma, sigma.conj().T)


def test_pauli_rejects_unknown_axis():
    with pytest.raises(DomainError):
        pauli("w")


def test_stroke_hamiltonian_values():
    assert_allclose(stroke_hamiltonian("cold", 2000.0), -1000.0 * SX)
    assert_allclose(stroke_hamiltonian("hot", 3600.0), -1800.0 * SY)


@pytest.mark.parametrize("kind,nu", [("cold", 2000.0), ("hot", 3600.0), ("cold", 123.4)])
def test_stroke_hamiltonian_spectrum(kind, nu):
    w = np.linalg.eigvalsh(stroke_hamiltonian(kind, nu))
    assert_allclose(w, [-0.5 * nu, 0.5 * nu], rtol=1e-12)


def test_stroke_hamiltonian_rejects_bad_inputs():
    with pytest.raises(DomainError):
        stroke_hamiltonian("cold", 0.0)
    with pytest.raises(DomainError):
        stroke_hamiltonian("cold", -5.0)
    with pytest.raises(DomainError):
        stroke_hamiltonian("tepid", 2000.0)


def test_ramp_boundaries(baseline_protocol):
    h0 = ramp_hamiltonian(baseline_protocol, 0.0, "expansion")
    h1 = ramp_hamiltonian(baseline_protocol, baseline_protocol.tau, "expansion")
    assert_allclose(h0, stroke_hamiltonian("cold", 2000.0), atol=1e-9)
    assert_allclose(h1, stroke_hamiltonian("hot", 3600.0), atol=1e-9)


def test_ramp_midpoint(baseline_protocol):
    # Direct evaluation of the interpolation law at t = tau/2: the gap is
    # the frequency mean and the axis sits halfway between x and y.
    mid = ramp_hamiltonian(baseline_protocol, 0.5 * baseline_protocol.tau, "expansion")
    expected = -0.5 * 2800.0 * (SX + SY) / math.sqrt(2.0)
    assert_allclose(mid, expected, atol=1e-10)


def test_ramp_compression_mirrors_expansion(baseline_protocol):
    tau = baseline_protocol.tau
    for t in np.linspace(0.0, tau, 7):
        comp = ramp_hamiltonian(baseline_protocol, t, "compression")
        assert_allclose(comp, -ramp_hamiltonian(baseline_protocol, tau - t, "expansion"),
                        atol=1e-15)


def test_ramp_rejects_time_outside_interval(baseline_protocol):
    with pytest.raises(DomainError):
        ramp_hamiltonian(baseline_protocol, -1e-9, "expansion")
    with pytest.raises(DomainError):
        ramp_hamiltonian(baseline_protocol, baseline_protocol.tau + 1e-9, "expansion")
    with pytest.raises(DomainError):
        ramp_hamiltonian(baseline_protocol, 0.0, "sideways")


def test_ramp_is_hermitian_traceless_with_interpolated_gap(baseline_protocol):
    proto = baseline_protocol
    for frac in np.linspace(0.0, 1.0, 11):
        t = frac * proto.tau
        h = ramp_hamiltonian(proto, t, "expansion")
        assert_allclose(h, h.conj().T, atol=1e-14)
        assert abs(np.trace(h)) < 1e-12
        nu_t = proto.nu_cold * (1 - frac) + proto.nu_hot * frac
        w = np.linalg.eigvalsh(h)
        assert abs((w[1] - w[0]) - nu_t) < 1e-12 * nu_t


def test_beta_equal_populations_is_infinite_temperature():
    assert beta_from_population(0.5, 2000.0) == 0.0


def test_beta_matches_log_ratio():
    beta = beta_from_population(0.261, 2000.0)
    assert abs(beta * 2000.0 - math.log(0.739 / 0.261)) < 1e-12
    assert beta * 2000.0 == pytest.approx(1.0406, abs=5e-4)


def test_beta_negative_under_inversion():
    assert beta_from_population(0.813, 3600.0) < 0.0


@pytest.mark.parametrize("p", np.linspace(0.01, 0.99, 25))
def test_beta_tanh_identity(p):
    nu = 2718.0
    beta = beta_from_population(p, nu)
    assert abs(math.tanh(0.5 * beta * nu) - (1.0 - 2.0 * p)) < 1e-12


def test_beta_errors():
    for p in (0.0, 1.0):
        with pytest.raises(InfiniteTemperatureError):
            beta_from_population(p, 2000.0)
    for p in (-0.1, 1.2):
        with pytest.raises(DomainError):
            beta_from_population(p, 2000.0)
    with pytest.raises(DomainError):
        beta_from_population(0.3, -2000.0)


def test_population_beta_round_trip():
    nu = 5000.0
    for p in np.linspace(0.01, 0.99, 49):
        assert abs(population_from_beta(beta_from_population(p, nu), nu) - p) < 1e-12


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_population_from_beta_at_extreme_beta(sign):
    with localcontext() as ctx:
        ctx.prec = 60
        for x in (1.0, 40.0, 709.0, 720.0, 745.0, 800.0):
            want = float(1 / (Decimal(sign * x).exp() + 1))
            assert abs(population_from_beta(sign * x, 1.0) - want) <= math.ulp(want)
    assert population_from_beta(sign * 1e308, 10.0) == (0.0 if sign > 0 else 1.0)
    with pytest.raises(DomainError):
        ReservoirSpec.from_beta(800.0, sign * 1.0)
    for beta in (sign * math.inf, math.nan):
        with pytest.raises(DomainError):
            population_from_beta(beta, 1.0)


def test_reservoir_spec_round_trip():
    spec = ReservoirSpec.from_population(3600.0, 0.813)
    assert spec.beta < 0
    again = ReservoirSpec.from_beta(spec.nu, spec.beta)
    assert abs(again.p_plus - 0.813) < 1e-12


def test_reservoir_spec_validation():
    assert ReservoirSpec.from_population(2000.0, 0.5).beta == 0.0
    with pytest.raises(DomainError):
        ReservoirSpec(nu=2000.0, beta=1e-3, p_plus=0.9)
    with pytest.raises(DomainError):
        ReservoirSpec.from_population(-1.0, 0.3)


def test_gibbs_infinite_temperature_is_maximally_mixed():
    rho = gibbs_state(stroke_hamiltonian("cold", 2000.0), 0.0)
    assert_allclose(rho.mat, IDENT / 2, atol=1e-15)


def test_gibbs_cold_reference_state():
    # rho = (I + t*sigma_x)/2 with t = 1 - 2*p for the cold Hamiltonian.
    p = 0.26
    beta = beta_from_population(p, 2000.0)
    rho = gibbs_state(stroke_hamiltonian("cold", 2000.0), beta)
    t = 1.0 - 2.0 * p
    assert_allclose(rho.mat, (IDENT + t * SX) / 2.0, atol=1e-12)
    assert_allclose(rho.mat, np.array([[0.50, 0.24], [0.24, 0.50]]), atol=1e-12)


def test_gibbs_hot_reference_state():
    # Population inversion polarizes along -y: rho = (I - t*sigma_y)/2
    # with t = 2*p - 1.
    p = 0.813
    beta = beta_from_population(p, 3600.0)
    rho = gibbs_state(stroke_hamiltonian("hot", 3600.0), beta)
    t = 2.0 * p - 1.0
    assert_allclose(rho.mat, (IDENT - t * SY) / 2.0, atol=1e-12)
    assert_allclose(rho.mat[0, 1], 0.313j, atol=1e-12)


@pytest.mark.parametrize("kind,nu", [("cold", 2000.0), ("hot", 3600.0)])
@pytest.mark.parametrize("beta_nu", [-20.0, -1.0, -1e-3, 0.0, 1e-3, 1.0, 20.0])
def test_gibbs_population_identity(kind, nu, beta_nu):
    beta = beta_nu / nu
    h = stroke_hamiltonian(kind, nu)
    rho = gibbs_state(h, beta)
    basis = eigenbasis(h)
    population = float(np.real(basis.plus.conj() @ rho.mat @ basis.plus))
    assert abs(population - 1.0 / (math.exp(beta * nu) + 1.0)) < 1e-12


def test_gibbs_survives_extreme_beta():
    h = stroke_hamiltonian("cold", 2000.0)
    for beta_nu in (-600.0, 600.0):
        rho = gibbs_state(h, beta_nu / 2000.0)
        assert abs(np.trace(rho.mat) - 1.0) < 1e-12


def test_gibbs_rejects_non_hermitian():
    with pytest.raises(DomainError):
        gibbs_state(np.array([[0.0, 1.0], [0.0, 0.0]]), 1e-3)


def test_eigenbasis_cold():
    basis = eigenbasis(stroke_hamiltonian("cold", 2000.0))
    assert_allclose(basis.minus, np.array([1.0, 1.0]) / math.sqrt(2.0), atol=1e-12)
    assert_allclose(basis.plus, np.array([1.0, -1.0]) / math.sqrt(2.0), atol=1e-12)
    assert abs(basis.energy_plus - 1000.0) < 1e-9
    assert abs(basis.energy_minus + 1000.0) < 1e-9


def test_eigenbasis_hot():
    basis = eigenbasis(stroke_hamiltonian("hot", 3600.0))
    assert_allclose(basis.minus, np.array([1.0, 1.0j]) / math.sqrt(2.0), atol=1e-12)
    assert_allclose(basis.plus, np.array([1.0, -1.0j]) / math.sqrt(2.0), atol=1e-12)


def test_eigenbasis_mutually_unbiased_overlap():
    cold = eigenbasis(stroke_hamiltonian("cold", 2000.0))
    hot = eigenbasis(stroke_hamiltonian("hot", 3600.0))
    assert abs(abs(hot.plus.conj() @ cold.minus) ** 2 - 0.5) < 1e-12


def test_eigenbasis_orthonormal_and_residuals(baseline_protocol):
    rng = np.random.default_rng(7)
    for _ in range(20):
        t = rng.uniform(0.0, baseline_protocol.tau)
        h = ramp_hamiltonian(baseline_protocol, t, "expansion")
        basis = eigenbasis(h)
        assert abs(np.vdot(basis.plus, basis.plus) - 1.0) < 1e-12
        assert abs(np.vdot(basis.minus, basis.minus) - 1.0) < 1e-12
        assert abs(np.vdot(basis.plus, basis.minus)) < 1e-12
        for vec, energy in ((basis.plus, basis.energy_plus),
                            (basis.minus, basis.energy_minus)):
            assert np.max(np.abs(h @ vec - energy * vec)) < 1e-10


def test_eigenbasis_deterministic_phase():
    h = stroke_hamiltonian("hot", 3600.0)
    first = eigenbasis(h)
    second = eigenbasis(h)
    assert np.array_equal(first.plus, second.plus)
    assert np.array_equal(first.minus, second.minus)
    for vec in (first.plus, first.minus):
        leading = vec[np.flatnonzero(np.abs(vec) > 1e-12)[0]]
        assert leading.imag == pytest.approx(0.0, abs=1e-15)
        assert leading.real > 0


def test_eigenbasis_degenerate_rejected():
    with pytest.raises(DegeneracyError):
        eigenbasis(np.zeros((2, 2), dtype=complex))


def test_density_matrix_validation():
    with pytest.raises(DomainError):
        DensityMatrix(np.array([[0.6, 0.0], [0.0, 0.6]]))
    with pytest.raises(DomainError):
        DensityMatrix(np.array([[0.5, 0.3], [0.1, 0.5]]))
    with pytest.raises(DomainError):
        DensityMatrix(np.array([[1.2, 0.0], [0.0, -0.2]]))
    valid = DensityMatrix(np.array([[0.7, 0.1], [0.1, 0.3]]))
    assert valid.purity() <= 1.0 + 1e-12


def test_protocol_accessors(baseline_protocol):
    assert_allclose(baseline_protocol.cold_hamiltonian(), -1000.0 * SX)
    assert_allclose(baseline_protocol.hot_hamiltonian(), -1800.0 * SY)
    with pytest.raises(DomainError):
        RampProtocol(3600.0, 2000.0, 1e-4)
