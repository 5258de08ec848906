"""Correctness checks on eitcool outputs, computed apart from the program.

Every check returns a list of failure messages (empty when the output is
correct).  The reference values are either closed forms evaluated here, a
property the method must have, or the paper's published numbers; none is a
stored copy of an earlier output.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

# published reference values (the paper's parameter set, omega_m/2pi = 1 MHz)
PUBLISHED_A_MINUS_KHZ = 112.85     # within 1 %
PUBLISHED_A_PLUS_KHZ = 1.63        # within 0.05 kHz
PUBLISHED_N_SS = 0.052             # at Q = 1e5, T = 20 mK, to three decimals

DIP_FLOOR = 1e-8                   # absorption at omega = 0, relative to the peak
RATE_RTOL = 1e-12                  # CSV A+- against the formula evaluated here
RECYCLING_BOUND = 0.05             # pairwise max relative deviation of <n>(t)
HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-10
EIG_FLOOR = -1e-8
GENERATOR_TOL = 1e-9               # max |L(rho)| entry, generator built here
DARK_FLOOR = 0.95


def read_csv(path):
    """The rows of an eitcool CSV, below its header, as a float array."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_manifest_hashes(path):
    """{csv name: sha256} from the `csv <name> sha256 <digest> ...` lines."""
    out = {}
    for line in Path(path).read_text().splitlines():
        parts = line.split()
        if len(parts) >= 4 and parts[0] == "csv" and parts[2] == "sha256":
            out[parts[1]] = parts[3]
    return out


def check_manifest(outdir):
    """Every CSV's SHA-256, recomputed here, equals its manifest entry."""
    outdir = Path(outdir)
    hashes = read_manifest_hashes(outdir / "manifest.txt")
    if not hashes:
        return [f"{outdir}: manifest lists no CSV"]
    fails = []
    for name, digest in sorted(hashes.items()):
        actual = hashlib.sha256((outdir / name).read_bytes()).hexdigest()
        if actual != digest:
            fails.append(f"{outdir / name}: sha256 {actual} != manifest {digest}")
    return fails


# ---------------------------------------------------------------------------
# closed forms

def dressed_energies(rabi_omega0, detuning):
    """E+- = (-Delta +- sqrt(2 Omega_0^2 + Delta^2)) / 2."""
    root = math.sqrt(2.0 * rabi_omega0**2 + detuning**2)
    return (-detuning + root) / 2.0, (-detuning - root) / 2.0


def rate_coefficients(m_r, detuning, gamma, eta):
    """(A+, A-) = 2 Gamma eta^2 Omega_0^2 / (Gamma^2 + 4 (Omega_0^2/2 +- Delta - 1)^2)."""
    num = 2.0 * gamma * eta**2 * m_r**2
    a_plus = num / (gamma**2 + 4.0 * (m_r**2 / 2.0 + detuning - 1.0) ** 2)
    a_minus = num / (gamma**2 + 4.0 * (m_r**2 / 2.0 - detuning - 1.0) ** 2)
    return a_plus, a_minus


def check_absorption(omega, absorption, rabi_omega0, detuning):
    """Dark dip at omega = 0 and the peaks on the grid points nearest E+-.

    The grid puts E+- on grid points, so a correct peak sits within half a
    step of them; a peak one step off is rejected.
    """
    fails = []
    step = float(np.min(np.diff(omega)))
    peak = float(np.max(absorption))
    k0 = int(np.argmin(np.abs(omega)))
    if abs(omega[k0]) > step / 2:
        fails.append("absorption grid does not contain omega = 0")
    elif not absorption[k0] < DIP_FLOOR * peak:
        fails.append(f"absorption dip {absorption[k0]:.3e} at omega = 0 is not "
                     f"below {DIP_FLOOR:g} of the peak {peak:.3e}")
    e_plus, e_minus = dressed_energies(rabi_omega0, detuning)
    for label, side, energy in (("E+", omega > 0, e_plus), ("E-", omega < 0, e_minus)):
        w_side, a_side = omega[side], absorption[side]
        w_peak = float(w_side[np.argmax(a_side)])
        if abs(w_peak - energy) > 0.5 * step * (1 + 1e-6):
            fails.append(f"absorption peak at {w_peak:.6g} is not on the grid "
                         f"point nearest {label} = {energy:.6g} (step {step:g})")
    return fails


def check_rates_vs_mr(m_r, a_plus, a_minus, gamma, eta, omega_m_mhz=1.0):
    """Every A+- equals the closed form at Delta = (m_R^2 - 2)/2, and the
    published A+- hold at m_R = 8."""
    fails = []
    detuning = (m_r**2 - 2.0) / 2.0
    ref_plus, ref_minus = rate_coefficients(m_r, detuning, gamma, eta)
    for label, got, ref in (("A+", a_plus, ref_plus), ("A-", a_minus, ref_minus)):
        rel = np.abs(got - ref) / np.abs(ref)
        if not np.all(rel <= RATE_RTOL):
            k = int(np.argmax(rel))
            fails.append(f"{label} at m_R = {m_r[k]:.6g} is {got[k]:.17g}, "
                         f"the closed form gives {ref[k]:.17g}")
    k8 = int(np.argmin(np.abs(m_r - 8.0)))
    if abs(m_r[k8] - 8.0) > 1e-9:
        return fails + ["rates grid does not contain m_R = 8"]
    to_khz = omega_m_mhz * 1e3
    a_minus_khz, a_plus_khz = a_minus[k8] * to_khz, a_plus[k8] * to_khz
    if abs(a_minus_khz - PUBLISHED_A_MINUS_KHZ) > 0.01 * PUBLISHED_A_MINUS_KHZ:
        fails.append(f"A- at m_R = 8 is {a_minus_khz:.4f} kHz, published "
                     f"{PUBLISHED_A_MINUS_KHZ} kHz")
    if abs(a_plus_khz - PUBLISHED_A_PLUS_KHZ) > 0.05:
        fails.append(f"A+ at m_R = 8 is {a_plus_khz:.4f} kHz, published "
                     f"{PUBLISHED_A_PLUS_KHZ} kHz")
    return fails


def check_steady_map(quality_q, temperature_mk, n_ss):
    """The published n_ss = 0.052 at (Q = 1e5, T = 20 mK)."""
    k = int(np.argmin(np.abs(np.log10(quality_q) - 5.0)
                      + np.abs(temperature_mk - 20.0)))
    if abs(quality_q[k] / 1e5 - 1) > 1e-9 or abs(temperature_mk[k] - 20.0) > 1e-9:
        return ["steady map does not contain (Q = 1e5, T = 20 mK)"]
    if round(float(n_ss[k]), 3) != PUBLISHED_N_SS:
        return [f"n_ss at (1e5, 20 mK) is {n_ss[k]:.5f}, published {PUBLISHED_N_SS}"]
    return []


def check_robustness(fraction, curves):
    """Curves ordered in gamma_m = 0 < 10 < 100 Hz at every point, with
    minima at a non-zero Rabi error."""
    fails = []
    for k in range(len(curves) - 1):
        if not np.all(curves[k] < curves[k + 1]):
            fails.append(f"robustness curve {k} is not below curve {k + 1} everywhere")
    step = float(np.min(np.diff(fraction)))
    for k, curve in enumerate(curves):
        f_min = float(fraction[np.argmin(curve)])
        if abs(f_min) < step / 2:
            fails.append(f"robustness curve {k} has its minimum at zero Rabi error")
    return fails


# ---------------------------------------------------------------------------
# Lindblad evolution

def check_recycling(times, curves, n0=3.0):
    """<n> starts at n0 and falls in every model; the models agree pairwise.

    Starting in |-1> (not the dark state), <n> first rises for about one
    omega_m^-1, so "falls" means: it ends below n0 and decreases at every
    sample of the second half of the horizon.
    """
    fails = []
    for name, n in curves.items():
        if abs(n[0] - n0) > 1e-9:
            fails.append(f"{name}: <n>(0) = {n[0]:.12g}, expected {n0}")
        if not (n[-1] < n[0] and np.all(np.diff(n[len(n) // 2:]) < 0)):
            fails.append(f"{name}: <n>(t) does not fall")
    names = sorted(curves)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            dev = np.abs(curves[a] - curves[b]) / np.maximum(curves[a], curves[b])
            if dev.max() > RECYCLING_BOUND:
                fails.append(f"{a} and {b} differ by {dev.max():.4f} > "
                             f"{RECYCLING_BOUND} at t = {times[np.argmax(dev)]:g}")
    return fails


def check_nuclear_tails(delta_max, n_tail):
    """The tail <n> does not fall as delta_max grows."""
    order = np.argsort(delta_max)
    tails = np.asarray(n_tail)[order]
    if np.any(np.diff(tails) < 0):
        return [f"nuclear-bath tail falls as delta_max grows: {tails.tolist()}"]
    return []


def check_same_hashes(first, other):
    """Outputs of a repeated run hash the same as the first run's."""
    if first != other:
        return [f"CSV hashes differ between runs: {first} vs {other}"]
    return []


# ---------------------------------------------------------------------------
# steady states

def lindblad_generator(hamiltonian, channels, rho):
    """-i[H, rho] + sum_k gamma_k (L rho L^dag - {L^dag L, rho}/2), written
    out here so the check does not share code with eitcool.operators."""
    out = -1j * (hamiltonian @ rho - rho @ hamiltonian)
    for rate, jump in channels:
        jd = jump.conj().T
        jdj = jd @ jump
        out = out + rate * (jump @ rho @ jd - 0.5 * (jdj @ rho + rho @ jdj))
    return out


def dark_population(rho, labels, fock_dim):
    """<d| Tr_phonon(rho) |d> with |d> = (|+1> - |-1>)/sqrt(2)."""
    n_int = len(labels)
    reduced = np.einsum("injn->ij", rho.reshape(n_int, fock_dim, n_int, fock_dim))
    v = np.zeros(n_int, dtype=complex)
    v[labels.index("+1")] = 1 / math.sqrt(2)
    v[labels.index("-1")] = -1 / math.sqrt(2)
    return float((v.conj() @ reduced @ v).real)


def check_steady_state(rho, hamiltonian, channels, labels, fock_dim):
    """Hermitian, unit trace, positive, annihilated by the generator, dark."""
    fails = []
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    if herm > HERMITIAN_TOL:
        fails.append(f"steady state not Hermitian: residual {herm:.3e}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > TRACE_TOL:
        fails.append(f"steady state trace {tr} is not 1")
    lowest = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0])
    if lowest < EIG_FLOOR:
        fails.append(f"steady state eigenvalue {lowest:.3e} below {EIG_FLOOR:g}")
    residual = float(np.max(np.abs(lindblad_generator(hamiltonian, channels, rho))))
    if residual > GENERATOR_TOL:
        fails.append(f"generator residual {residual:.3e} exceeds {GENERATOR_TOL:g}")
    dark = dark_population(rho, labels, fock_dim)
    if dark < DARK_FLOOR:
        fails.append(f"dark-state population {dark:.4f} below {DARK_FLOOR}")
    return fails
