"""Hamiltonians and Lindblad models of the driven NV-cantilever system.

Three model variants share the Lambda-system core (|+1>, |-1> driven to |A2>
at two-photon resonance, Zeeman-gradient coupling to the phonon):

  * three-level: leakage out of the Lambda system folded into renormalized
    decays gamma_+-,
  * four-level:  explicit |0> with a direct |A2> -> |0> leak and effective
    repump channels |0> -> |+-1|,
  * seven-level: explicit |0>, |E_y>, |1A1| with the full recycling pump.

All energies/rates in units of omega_m.  The mechanical bath enters either as
pure damping ("zero") or as a thermal pair gamma_m(N+1) on b and gamma_m N on
b^dag ("thermal").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .constants import G_E_DEFAULT, HBAR, MU_B
from .effective import effective_pump_rates
from .operators import HilbertSpace, LindbladModel, Operator
from .params import ModelParams

LAMBDA_LEVELS = ("+1", "-1", "A2")
FOUR_LEVELS = ("+1", "-1", "A2", "0")
SEVEN_LEVELS = ("+1", "-1", "A2", "0", "Ey", "1A1")


@dataclass
class DressedStateReport:
    e_plus: float          # upper dressed energy (units omega_m)
    e_minus: float         # lower dressed energy
    phi: float             # mixing angle, rad
    linewidth_plus: float  # Gamma cos^2(phi)
    linewidth_minus: float # Gamma sin^2(phi)


def _require_levels(space, needed):
    missing = [lab for lab in needed if lab not in space.internal_labels]
    if missing:
        raise KeyError(f"space is missing internal levels {missing}")


def dark_state_vector(space) -> np.ndarray:
    """Internal amplitude vector of |d> = (|+1> - |-1>)/sqrt(2)."""
    v = np.zeros(space.n_internal, dtype=complex)
    v[space.internal_index("+1")] = 1 / math.sqrt(2)
    v[space.internal_index("-1")] = -1 / math.sqrt(2)
    return v


def bright_state_vector(space) -> np.ndarray:
    """Internal amplitude vector of |B> = (|+1> + |-1>)/sqrt(2)."""
    v = np.zeros(space.n_internal, dtype=complex)
    v[space.internal_index("+1")] = 1 / math.sqrt(2)
    v[space.internal_index("-1")] = 1 / math.sqrt(2)
    return v


def rotating_hamiltonian(params: ModelParams, space: HilbertSpace) -> Operator:
    """Time-independent frame Hamiltonian of the driven Lambda system.

    omega_m b^dag b - Delta |A2><A2| + (Omega_0/2)(|A2><+1| + |A2><-1| + h.c.)
    + lambda (|+1><+1| - |-1><-1|)(b + b^dag), plus the quasi-static
    nuclear-bath shift delta_n |-1><-1| when set.
    """
    _require_levels(space, LAMBDA_LEVELS)
    H = ops.number_operator(space)
    H = H - params.detuning * transition_sym(space, "A2", "A2")
    rabi = transition_sym(space, "A2", "+1") + transition_sym(space, "A2", "-1")
    H = H + (params.rabi_omega0 / 2) * rabi
    lam = params.lambda_coupling
    if lam:
        ladder = ops.fock_ladder(space.fock_dim)
        H = H + Operator(space, lam * np.kron(_zeeman(space), ladder + ladder.T))
    if params.nuclear_shift:
        H = H + params.nuclear_shift * transition_sym(space, "-1", "-1")
    return H


def parity(model: LindbladModel):
    """Pi = (-1)^{b^dag b} (x) swap(|+1>, |-1>) as (states, signs), with
    Pi|a> = signs[a] |states[a]>, when it is a symmetry of the model
    (`operators.is_symmetric`); None when it is not, or is the identity.

    The gradient coupling is odd under both factors, the Lambda drive and the
    dark state (up to its sign) are even under the swap, so every model with
    gamma_+ = gamma_-, gamma_p1 = gamma_m1, Gamma_p1 = Gamma_m1 and no nuclear
    shift has it.  A space without both |+1> and |-1> gets the phonon parity alone.
    """
    space = model.space
    internal = np.arange(space.n_internal)
    if {"+1", "-1"} <= set(space.internal_labels):
        plus, minus = space.internal_index("+1"), space.internal_index("-1")
        internal[[plus, minus]] = minus, plus
    fock = np.arange(space.fock_dim)
    states = (internal[:, None] * space.fock_dim + fock).ravel()
    signs = np.tile(1 - 2 * (fock % 2), space.n_internal)
    if np.array_equal(states, np.arange(space.dim)) and (signs > 0).all():
        return None
    return (states, signs) if ops.is_symmetric(model, states, signs) else None


def _zeeman(space) -> np.ndarray:
    """Internal factor |+1><+1| - |-1><-1| of the gradient coupling."""
    z = np.zeros(space.n_internal)
    z[space.internal_index("+1")], z[space.internal_index("-1")] = 1.0, -1.0
    return np.diag(z)


def transition_sym(space, a, b) -> Operator:
    """|a><b| + |b><a| for a != b, else the projector |a><a|."""
    t = ops.transition(space, a, b)
    if a == b:
        return t
    return t + ops.transition(space, b, a)


def effective_hamiltonian(params: ModelParams, space: HilbertSpace):
    """Polaron-frame split (H0, V) of the rotating Hamiltonian, first order in eta.

    H0 couples only the bright combination to |A2> (strength sqrt(2)/2 Omega_0);
    V = eta (b - b^dag)((Omega_0/sqrt(2)) |A2><d| - h.c.) carries all phonon
    sidebands of the dark state.
    """
    _require_levels(space, LAMBDA_LEVELS)
    nI = space.n_internal
    H0 = ops.number_operator(space).matrix
    H0 = H0 - params.detuning * ops.transition(space, "A2", "A2").matrix
    bright = bright_state_vector(space)
    a2 = np.zeros(nI, dtype=complex)
    a2[space.internal_index("A2")] = 1.0
    a2_bright = np.outer(a2, bright.conj())
    H0 = H0 + (math.sqrt(2) / 2) * params.rabi_omega0 * np.kron(
        a2_bright + a2_bright.conj().T, np.eye(space.fock_dim))

    dark = dark_state_vector(space)
    a2_dark = np.outer(a2, dark.conj())
    ladder = ops.fock_ladder(space.fock_dim)
    V = params.eta * np.kron(
        (params.rabi_omega0 / math.sqrt(2)) * (a2_dark - a2_dark.conj().T),
        ladder - ladder.T)
    return Operator(space, H0), Operator(space, V)


def polaron_generator(params: ModelParams, space: HilbertSpace) -> Operator:
    """Hermitian S with e^{-iS} H^rot e^{iS} = H0 + V + O(eta^2)."""
    _require_levels(space, LAMBDA_LEVELS)
    ladder = ops.fock_ladder(space.fock_dim)
    return Operator(space, -1j * params.eta * np.kron(_zeeman(space), ladder - ladder.T))


def dressed_states(params: ModelParams) -> DressedStateReport:
    """Energies and linewidths of the bright/excited dressed pair."""
    omega0, delta = params.rabi_omega0, params.detuning
    if omega0 == 0.0 and delta == 0.0:
        raise ValueError("dressed states undefined at Omega_0 = Delta = 0 "
                         "(degenerate mixing angle)")
    root = math.sqrt(2 * omega0**2 + delta**2)
    e_plus = (-delta + root) / 2
    e_minus = (-delta - root) / 2
    phi = 0.5 * math.acos(-delta / root)
    gamma = params.gamma_total
    return DressedStateReport(
        e_plus=e_plus, e_minus=e_minus, phi=phi,
        linewidth_plus=gamma * math.cos(phi) ** 2,
        linewidth_minus=gamma * math.sin(phi) ** 2)


def optimal_detuning(m_ratio) -> float:
    """Detuning (m_R^2 - 2)/2 that puts the red sideband on the upper dressed state."""
    return (m_ratio**2 - 2.0) / 2.0


# ---------------------------------------------------------------------------
# model builders

def _mechanical_channels(params, space):
    b = ops.annihilation(space)
    if params.bath == "thermal":
        from .analytics import thermal_occupation
        n_th = thermal_occupation(params.omega_m, params.temperature)
        return [(params.gamma_mech * (n_th + 1.0), b),
                (params.gamma_mech * n_th, b.dagger())]
    return [(params.gamma_mech, b)]


def _common_observables(params, space):
    return {
        "n": ops.number_operator(space),
        "p_dark": ops.internal_projector(space, dark_state_vector(space)),
        "p_A2": ops.transition(space, "A2", "A2"),
    }


def build_three_level_model(params: ModelParams, fock_dim) -> LindbladModel:
    """Lambda system with renormalized decays gamma_+- and mechanical damping."""
    space = ops.compose_space(LAMBDA_LEVELS, fock_dim)
    channels = _mechanical_channels(params, space)
    channels.append((params.gamma_plus, ops.transition(space, "+1", "A2")))
    channels.append((params.gamma_minus, ops.transition(space, "-1", "A2")))
    return LindbladModel(space, rotating_hamiltonian(params, space), channels,
                         _common_observables(params, space))


def build_four_level_model(params: ModelParams, fock_dim) -> LindbladModel:
    """Lambda system plus explicit |0> with leak gamma_0 and effective repump.

    The pump's dephasing of |0> (effective.gamma_op_0) and its light shift
    (effective.stark_shift_0) are left out.  Nothing couples |0> coherently to
    the other levels, so coherences between them are never created; those
    coherences are all that the dephasing and the light shift act on, so
    <n(t)> does not depend on them (tests/test_nvmodel.py checks it to 1e-12).
    """
    effective = effective_pump_rates(params.rabi_pump, params.pump_detuning,
                                     params.Gamma_0, params.Gamma_p1, params.Gamma_m1)
    space = ops.compose_space(FOUR_LEVELS, fock_dim)
    H = rotating_hamiltonian(params, space)
    channels = _mechanical_channels(params, space)
    channels.append((params.gamma_p1, ops.transition(space, "+1", "A2")))
    channels.append((params.gamma_m1, ops.transition(space, "-1", "A2")))
    channels.append((params.gamma_0, ops.transition(space, "0", "A2")))
    channels.append((effective.gamma_op_p1, ops.transition(space, "+1", "0")))
    channels.append((effective.gamma_op_m1, ops.transition(space, "-1", "0")))
    obs = _common_observables(params, space)
    obs["p_0"] = ops.transition(space, "0", "0")
    return LindbladModel(space, H, channels, obs)


def build_seven_level_model(params: ModelParams, fock_dim) -> LindbladModel:
    """Full recycling model: |0>, |E_y>, |1A1> and the pump drive kept explicit.

    The pump enters the Hamiltonian as Omega_p(|E_y><0| + h.c.) plus
    Delta_e |E_y><E_y| when the pump is detuned.
    """
    space = ops.compose_space(SEVEN_LEVELS, fock_dim)
    H = rotating_hamiltonian(params, space)
    if params.rabi_pump:
        H = H + params.rabi_pump * transition_sym(space, "Ey", "0")
    if params.pump_detuning:
        H = H + params.pump_detuning * transition_sym(space, "Ey", "Ey")
    channels = _mechanical_channels(params, space)
    channels.append((params.gamma_p1, ops.transition(space, "+1", "A2")))
    channels.append((params.gamma_m1, ops.transition(space, "-1", "A2")))
    channels.append((params.gamma_dark, ops.transition(space, "1A1", "A2")))
    channels.append((params.gamma_s, ops.transition(space, "0", "1A1")))
    channels.append((params.Gamma_0, ops.transition(space, "0", "Ey")))
    channels.append((params.Gamma_p1, ops.transition(space, "+1", "Ey")))
    channels.append((params.Gamma_m1, ops.transition(space, "-1", "Ey")))
    obs = _common_observables(params, space)
    obs["p_0"] = ops.transition(space, "0", "0")
    obs["p_Ey"] = ops.transition(space, "Ey", "Ey")
    obs["p_1A1"] = ops.transition(space, "1A1", "1A1")
    return LindbladModel(space, H, channels, obs)


# ---------------------------------------------------------------------------
# SI-side conversions

def lamb_dicke_from_physical(mass, omega_m, mfg, g_e=G_E_DEFAULT, x0_override=None):
    """Zero-point amplitude, gradient coupling (rad/s) and Lamb-Dicke parameter.

    x0 = sqrt(hbar / (2 M omega_m)) unless overridden; lambda = g_e mu_B B' x0 / hbar.
    """
    if mass <= 0 or omega_m <= 0:
        raise ValueError("mass and omega_m must be > 0")
    if x0_override is not None:
        if x0_override <= 0:
            raise ValueError("x0_override must be > 0")
        x0 = x0_override
    else:
        x0 = math.sqrt(HBAR / (2.0 * mass * omega_m))
    lam = g_e * MU_B * mfg * x0 / HBAR
    return {"x0": x0, "lambda": lam, "eta": lam / omega_m}
