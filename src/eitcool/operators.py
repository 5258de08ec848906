"""Dense operators and states on composite (internal x Fock) Hilbert spaces, and
the Lindblad generator as one sparse (CSR) superoperator, built per solve.

Basis ordering is internal-major and fixed: state index = i_internal * fock_dim + n,
so serialized operators are bit-comparable across runs.

Dissipator convention: every channel (gamma, L) enters the generator in the
standard trace-preserving Lindblad form

    (gamma/2) * (2 L rho L^dag - L^dag L rho - rho L^dag L).

Printed master equations in this problem family often abbreviate the channel as
(gamma/2)[L rho L^dag - rho L^dag L - L^dag L rho]; that literal form loses trace
at rate gamma/2 * <L^dag L> and is read here as shorthand for the standard form.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

# Dense-operator guard: beyond this total dimension the dense d x d operators
# and states stop being a sensible desk-scale tool.
MAX_DENSE_DIM = 1024


class DimensionError(ValueError):
    """Operator/state dimensions incompatible with the given space."""


@dataclass(frozen=True)
class HilbertSpace:
    """Composite space: ordered internal levels tensor a truncated Fock ladder."""

    internal_labels: tuple
    fock_dim: int

    def __post_init__(self):
        labels = tuple(self.internal_labels)
        object.__setattr__(self, "internal_labels", labels)
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate internal level label in {labels}")
        if len(labels) < 1 or self.fock_dim < 1:
            raise ValueError("need at least one internal level and fock_dim >= 1")

    @property
    def n_internal(self):
        return len(self.internal_labels)

    @property
    def dim(self):
        return self.n_internal * self.fock_dim

    def internal_index(self, label) -> int:
        try:
            return self.internal_labels.index(label)
        except ValueError:
            raise KeyError(f"unknown internal level {label!r}; "
                           f"space has {self.internal_labels}") from None

    def index(self, label, n) -> int:
        """Flat basis index of |label, n> (internal-major ordering)."""
        if not 0 <= n < self.fock_dim:
            raise IndexError(f"Fock index {n} outside [0, {self.fock_dim})")
        return self.internal_index(label) * self.fock_dim + n


def compose_space(internal_labels, fock_dim) -> HilbertSpace:
    """Build a composite space; fock_dim >= 2 (a 1-level ladder has no phonon)."""
    if fock_dim < 2:
        raise ValueError(f"fock_dim must be >= 2, got {fock_dim}")
    space = HilbertSpace(tuple(internal_labels), int(fock_dim))
    if space.dim > MAX_DENSE_DIM:
        raise DimensionError(
            f"total dimension {space.dim} exceeds the dense-path guard {MAX_DENSE_DIM}")
    return space


def internal_space(internal_labels) -> HilbertSpace:
    """Space carrying only internal levels (degenerate fock_dim = 1)."""
    return HilbertSpace(tuple(internal_labels), 1)


@dataclass
class Operator:
    """Dense complex matrix tagged with its space."""

    space: HilbertSpace
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        d = self.space.dim
        if self.matrix.shape != (d, d):
            raise DimensionError(
                f"matrix shape {self.matrix.shape} does not match space dimension {d}")

    def dagger(self) -> "Operator":
        return Operator(self.space, self.matrix.conj().T)

    def is_hermitian(self, tol=1e-10) -> bool:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T))) <= tol

    def __add__(self, other):
        self._same_space(other)
        return Operator(self.space, self.matrix + other.matrix)

    def __sub__(self, other):
        self._same_space(other)
        return Operator(self.space, self.matrix - other.matrix)

    def __mul__(self, scalar):
        return Operator(self.space, scalar * self.matrix)

    __rmul__ = __mul__

    def __matmul__(self, other):
        self._same_space(other)
        return Operator(self.space, self.matrix @ other.matrix)

    def _same_space(self, other):
        if other.space.dim != self.space.dim:
            raise DimensionError("operators live on different spaces")


@dataclass
class DensityMatrix:
    """State on a composite space; validation is explicit (it costs O(d^3))."""

    space: HilbertSpace
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        d = self.space.dim
        if self.matrix.shape != (d, d):
            raise DimensionError(
                f"matrix shape {self.matrix.shape} does not match space dimension {d}")

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def hermiticity_residual(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))

    def min_eigenvalue(self) -> float:
        herm = (self.matrix + self.matrix.conj().T) / 2
        return float(np.linalg.eigvalsh(herm)[0])

    def validate(self, herm_tol=1e-10, trace_tol=1e-9, eig_floor=-1e-8):
        """Raise ValueError unless Hermitian, unit trace and positive (within floors)."""
        if self.hermiticity_residual() > herm_tol:
            raise ValueError(
                f"state not Hermitian: residual {self.hermiticity_residual():.3e}")
        tr = self.trace()
        if abs(tr - 1.0) > trace_tol:
            raise ValueError(f"state trace {tr} deviates from 1")
        lo = self.min_eigenvalue()
        if lo < eig_floor:
            raise ValueError(f"state has eigenvalue {lo:.3e} below floor {eig_floor}")
        return self


@dataclass
class LindbladModel:
    """Hamiltonian plus (rate, jump) channels and named observables."""

    space: HilbertSpace
    hamiltonian: Operator
    channels: list = field(default_factory=list)
    observables: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.hamiltonian.is_hermitian(1e-10):
            raise ValueError("Hamiltonian is not Hermitian within 1e-10")
        for rate, jump in self.channels:
            if rate < 0:
                raise ValueError(f"negative channel rate {rate}")
            if jump.space.dim != self.space.dim:
                raise DimensionError("jump operator on wrong space")


# ---------------------------------------------------------------------------
# operator constructors

def identity(space) -> Operator:
    return Operator(space, np.eye(space.dim, dtype=complex))


def annihilation(space) -> Operator:
    """b acting on the Fock factor, identity on the internal factor."""
    nf = space.fock_dim
    b = np.zeros((nf, nf), dtype=complex)
    for n in range(1, nf):
        b[n - 1, n] = np.sqrt(n)
    return Operator(space, np.kron(np.eye(space.n_internal, dtype=complex), b))


def number_operator(space) -> Operator:
    b = annihilation(space)
    return Operator(space, b.matrix.conj().T @ b.matrix)


def transition(space, ket, bra) -> Operator:
    """|ket><bra| on the internal factor, identity on the Fock factor."""
    e = np.zeros((space.n_internal, space.n_internal), dtype=complex)
    e[space.internal_index(ket), space.internal_index(bra)] = 1.0
    return Operator(space, np.kron(e, np.eye(space.fock_dim, dtype=complex)))


def internal_projector(space, vector) -> Operator:
    """|v><v| (x) identity for an internal-state amplitude vector."""
    v = np.asarray(vector, dtype=complex)
    if v.shape != (space.n_internal,):
        raise DimensionError("projector vector length does not match internal levels")
    return Operator(space, np.kron(np.outer(v, v.conj()),
                                   np.eye(space.fock_dim, dtype=complex)))


def basis_state(space, label, n) -> DensityMatrix:
    """Pure |label, n><label, n|."""
    d = space.dim
    rho = np.zeros((d, d), dtype=complex)
    k = space.index(label, n)
    rho[k, k] = 1.0
    return DensityMatrix(space, rho)


def product_state(space, internal_vector, fock_populations) -> DensityMatrix:
    """(|v><v|) (x) diag(populations); populations are renormalized to sum 1."""
    v = np.asarray(internal_vector, dtype=complex)
    v = v / np.linalg.norm(v)
    p = np.asarray(fock_populations, dtype=float)
    if p.shape != (space.fock_dim,):
        raise DimensionError("Fock population vector length does not match fock_dim")
    if p.min() < 0:
        raise ValueError("negative Fock population")
    p = p / p.sum()
    return DensityMatrix(space, np.kron(np.outer(v, v.conj()), np.diag(p).astype(complex)))


# ---------------------------------------------------------------------------
# generator

def liouvillian(model: LindbladModel) -> sparse.csr_array:
    """The Lindblad generator as a CSR superoperator on row-major vec(rho).

    With vec(A rho B) = kron(A, B^T) vec(rho) and G = -iH - (1/2) sum gamma C^dag C,
    it is kron(G, I) + kron(I, G*) + sum gamma kron(C, C*), summed from COO triplets.
    """
    d = model.space.dim
    G = -1j * model.hamiltonian.matrix
    sandwiches = []
    for rate, jump in model.channels:
        C = jump.matrix
        G = G - 0.5 * rate * (C.conj().T @ C)
        sandwiches.append(_kron_triplets(rate * C, C.conj()))
    I = np.eye(d)
    terms = [_kron_triplets(G, I), _kron_triplets(I, G.conj())] + sandwiches
    rows, cols, vals = (np.concatenate(part) for part in zip(*terms))
    return sparse.coo_array((vals, (rows, cols)), shape=(d * d, d * d)).tocsr()


def _kron_triplets(a, b):
    """(rows, cols, values) of kron(a, b) over the nonzeros of two d x d matrices."""
    d = b.shape[0]
    ra, ca = np.nonzero(a)
    rb, cb = np.nonzero(b)
    return ((ra[:, None] * d + rb).ravel(), (ca[:, None] * d + cb).ravel(),
            np.outer(a[ra, ca], b[rb, cb]).ravel())


def lindblad_rhs(model: LindbladModel, rho) -> np.ndarray:
    """d(rho)/dt = -i[H, rho] + sum_k (gamma_k/2)(2 L rho L^dag - {L^dag L, rho})."""
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    d = model.space.dim
    if mat.shape != (d, d):
        raise DimensionError(f"state shape {mat.shape} does not match model dimension {d}")
    return (liouvillian(model) @ mat.ravel()).reshape(d, d)


def liouvillian_matrix(model: LindbladModel) -> np.ndarray:
    """Dense view of `liouvillian` for tests and debugging; DimensionError when its
    16 d^4 bytes exceed physical memory."""
    d = model.space.dim
    need = 16 * d ** 4
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise DimensionError(f"dense superoperator at dimension {d} needs {need} bytes, "
                             f"more than the {have} bytes of physical memory")
    return liouvillian(model).toarray()


def expectation(rho: DensityMatrix, op: Operator) -> complex:
    """Tr(op rho)."""
    if rho.space.dim != op.space.dim:
        raise DimensionError("state and operator dimensions differ")
    return complex(np.trace(op.matrix @ rho.matrix))


# ---------------------------------------------------------------------------
# debug serialization (row, col, re, im); not a stability-guaranteed format

def matrix_to_csv(matrix, path):
    m = np.asarray(matrix, dtype=complex)
    with open(path, "w", newline="\n") as fh:
        fh.write("row,col,re,im\n")
        rows, cols = np.nonzero(m)
        for r, c in zip(rows, cols):
            fh.write(f"{r},{c},{m[r, c].real:.17g},{m[r, c].imag:.17g}\n")


def matrix_from_csv(path, dim):
    m = np.zeros((dim, dim), dtype=complex)
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "row,col,re,im":
            raise ValueError(f"unexpected header {header!r}")
        for line in fh:
            r, c, re, im = line.strip().split(",")
            m[int(r), int(c)] = float(re) + 1j * float(im)
    return m
