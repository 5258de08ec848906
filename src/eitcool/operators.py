"""Dense operators and states on composite (internal x Fock) Hilbert spaces, and
the Lindblad generator as one sparse (CSR) superoperator, built per solve, with
its real form in Hermitian coordinates.

Basis ordering is internal-major and fixed: state index = i_internal * fock_dim + n,
so operators are bit-comparable across runs.

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
# scipy.sparse is imported by the four generator functions that use it: the
# closed forms build dense operators only, and `import eitcool` stays on numpy

# Dense-operator guard: beyond this total dimension the dense d x d operators
# and states stop being a sensible desk-scale tool.
MAX_DENSE_DIM = 1024
# peak bytes per COO triplet while `liouvillian` builds: 32 for its int64 row and
# column and complex value, 32 for their concatenated copy and about 28 for the
# CSR conversion (88-93 measured under tracemalloc)
BUILD_BYTES_PER_TRIPLET = 96


class DimensionError(ValueError):
    """Operator/state dimensions incompatible with the given space."""


class SolverError(RuntimeError):
    """Integration failed or produced an untrustworthy state."""


class LeakageError(SolverError):
    """Population reached the top of the Fock ladder; the truncation is inadequate."""


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

    def _same_space(self, other):
        if other.space.dim != self.space.dim:
            raise DimensionError("operators live on different spaces")


@dataclass
class DensityMatrix:
    """State on a composite space; `evolve` checks its trace and Hermiticity."""

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
        for k, (rate, jump) in enumerate(self.channels):
            if not 0.0 <= rate < np.inf:
                raise ValueError(f"channel rate must be finite and >= 0, got {rate}")
            if jump.space.dim != self.space.dim:
                raise DimensionError("jump operator on wrong space")
            if not np.isfinite(jump.matrix).all():
                raise ValueError(f"channel {k} has a non-finite jump operator entry")


# ---------------------------------------------------------------------------
# operator constructors

def fock_ladder(fock_dim) -> np.ndarray:
    """The Fock factor of b: sqrt(n) on the superdiagonal, fock_dim x fock_dim."""
    return np.diag(np.sqrt(np.arange(1, fock_dim)), k=1).astype(complex)


def annihilation(space) -> Operator:
    """b acting on the Fock factor, identity on the internal factor."""
    return Operator(space, np.kron(np.eye(space.n_internal), fock_ladder(space.fock_dim)))


def number_operator(space) -> Operator:
    """b^dag b with diagonal fl(sqrt(n) sqrt(n)), as the product rounds it."""
    root = np.sqrt(np.arange(space.fock_dim))
    return Operator(space, np.kron(np.eye(space.n_internal), np.diag(root * root)))


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

def liouvillian(model: LindbladModel):
    """The Lindblad generator as a CSR superoperator on row-major vec(rho).

    With vec(A rho B) = kron(A, B^T) vec(rho) and G = -iH - (1/2) sum gamma C^dag C,
    it is kron(G, I) + kron(I, G*) + sum gamma kron(C, C*), summed from COO triplets.
    DimensionError when building from the triplets would exceed physical memory,
    counted before each is allocated.
    """
    from scipy import sparse
    d = model.space.dim
    # nnz(C)^2 triplets in each sandwich, and in _gram one pair per two nonzeros of a row
    per_row = [np.count_nonzero(jump.matrix, axis=1) for _, jump in model.channels]
    jump_triplets = sum(int(k.sum()) ** 2 + int(k @ k) for k in per_row)
    _check_memory(BUILD_BYTES_PER_TRIPLET * jump_triplets,
                  f"the jump terms of the generator at dimension {d}")
    G = -1j * model.hamiltonian.matrix
    sandwiches = []
    for rate, jump in model.channels:
        C = jump.matrix
        G = G - 0.5 * rate * _gram(C)
        sandwiches.append(_kron_triplets(rate * C, C.conj()))
    held = sum(len(vals) for _, _, vals in sandwiches)
    _check_memory(BUILD_BYTES_PER_TRIPLET * (held + 2 * d * np.count_nonzero(G)),
                  f"the generator at dimension {d}")
    I = np.eye(d)
    terms = [_kron_triplets(G, I), _kron_triplets(I, G.conj())] + sandwiches
    rows, cols, vals = (np.concatenate(part) for part in zip(*terms))
    return sparse.coo_array((vals, (rows, cols)), shape=(d * d, d * d)).tocsr()


def _gram(C) -> np.ndarray:
    """C^dag C, summed over the pairs of nonzeros that share a row of C.

    A dense d x d product would start numpy's BLAS threads.  The pairs cost no
    more than the nnz(C)^2 triplets of C's sandwich term.
    """
    rows, cols = np.nonzero(C)
    vals = C[rows, cols]
    p, q = np.nonzero(rows[:, None] == rows)
    out = np.zeros(C.shape, dtype=complex)
    np.add.at(out, (cols[p], cols[q]), vals[p].conj() * vals[q])
    return out


def _kron_triplets(a, b):
    """(rows, cols, values) of kron(a, b) over the nonzeros of two d x d matrices."""
    d = b.shape[0]
    ra, ca = np.nonzero(a)
    rb, cb = np.nonzero(b)
    return ((ra[:, None] * d + rb).ravel(), (ca[:, None] * d + cb).ravel(),
            np.outer(a[ra, ca], b[rb, cb]).ravel())


def hermitian_coordinates(d):
    """The unitary T with T vec(rho) = x = (rho_ii, sqrt2 Re rho_ij, sqrt2 Im rho_ij), i < j.

    Row-major vec(rho), diagonal coordinates first, then the real and the imaginary
    parts over the pairs; x is real for Hermitian rho and T^dag x = vec(rho).
    """
    from scipy import sparse
    i, j = np.triu_indices(d, k=1)
    upper, lower = i * d + j, j * d + i
    re_rows = d + np.arange(len(i))
    im_rows = re_rows + len(i)
    s = np.full(len(i), 1 / np.sqrt(2))
    rows = np.concatenate([np.arange(d), re_rows, re_rows, im_rows, im_rows])
    cols = np.concatenate([np.arange(d) * (d + 1), upper, lower, upper, lower])
    vals = np.concatenate([np.ones(d), s, s, -1j * s, 1j * s])
    return sparse.csr_array((vals, (rows, cols)), shape=(d * d, d * d))


def is_symmetric(model: LindbladModel, states, signs) -> bool:
    """Whether rho -> Pi rho Pi^dag, for the involution Pi|a> = signs[a] |states[a]>,
    commutes with the model's generator and leaves every observable unchanged.

    Read exactly off the factors: Pi H Pi^dag = H and Pi O Pi^dag = O for every
    observable O, and Pi maps the channels onto themselves, each jump onto one
    of the same rate up to its sign.
    """
    d = len(states)
    flat = (states[:, None] * d + states).ravel()
    outer = np.outer(signs[states], signs[states]).ravel()

    def image(op):
        return (op.matrix.ravel()[flat] * outer).reshape(d, d)

    if not all(np.array_equal(image(op), op.matrix)
               for op in [model.hamiltonian, *model.observables.values()]):
        return False
    unmatched = list(model.channels)
    for rate, jump in model.channels:
        mapped = image(jump)
        match = next((k for k, (r, other) in enumerate(unmatched) if r == rate and (
            np.array_equal(mapped, other.matrix) or np.array_equal(mapped, -other.matrix))),
            None)
        if match is None:
            return False
        del unmatched[match]
    return True


def even_basis(states, signs):
    """(V, reps): a basis of the coordinate vectors x of `hermitian_coordinates`
    that rho -> Pi rho Pi^dag leaves unchanged, for the involution
    Pi|a> = signs[a] |states[a]>.

    On the coordinates that map is a signed permutation, x'[perm[k]] = sign[k] x[k],
    so the even subspace has the sparse basis e_k (perm[k] = k, sign[k] = +1) and
    e_k + sign[k] e_perm[k] (k < perm[k]).  V holds these columns, in the order of
    their coordinates reps = k, and its entries are exactly 0 and +-1.
    """
    from scipy import sparse
    d = len(states)
    i, j = np.triu_indices(d, k=1)
    a, b = states[i], states[j]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    pair = lo * (2 * d - lo - 1) // 2 + hi - lo - 1      # position of (lo, hi) in (i, j)
    s = signs[i] * signs[j]
    # Im rho_ab changes sign when Pi reverses the order of the pair
    perm = np.concatenate([states, d + pair, d + len(i) + pair])
    sign = np.concatenate([np.ones(d), s, np.where(a < b, s, -s)])
    k = np.arange(d * d)
    reps = np.flatnonzero((perm > k) | ((perm == k) & (sign > 0)))
    col = np.full(d * d, -1)
    col[reps] = col[perm[reps]] = np.arange(len(reps))
    coef = np.where(perm >= k, 1.0, sign)
    rows = col >= 0
    indptr = np.concatenate([[0], np.cumsum(rows)])
    return sparse.csr_array((coef[rows], col[rows], indptr), shape=(d * d, len(reps))), reps


def real_liouvillian(model: LindbladModel):
    """(Re(T L T^dag) as CSR, the largest |Im| entry dropped from it).

    A Lindblad generator maps Hermitian matrices to Hermitian ones, so in the
    coordinates of `hermitian_coordinates` it is real and the dropped part is
    rounding.  Its first d rows (the diagonal coordinates) sum to zero down each
    column: the trace is conserved.
    """
    from scipy import sparse
    T = hermitian_coordinates(model.space.dim)
    full = (T @ liouvillian(model) @ T.conj().T).tocsr()
    dropped = float(np.abs(full.data.imag).max(initial=0.0))
    # a contiguous copy: scipy would copy the strided .real view on every mat-vec
    real = sparse.csr_array((np.ascontiguousarray(full.data.real), full.indices,
                             full.indptr), shape=full.shape)
    real.eliminate_zeros()
    # once, here: scipy sorts an unsorted CSR in place on calls such as abs(), which
    # would move the rounding of every later L @ v
    real.sort_indices()
    return real, dropped


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
    _check_memory(16 * d ** 4, f"dense superoperator at dimension {d}")
    return liouvillian(model).toarray()


def _check_memory(need, what):
    """DimensionError when `need` bytes exceed physical memory."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise DimensionError(f"{what} needs {need} bytes, "
                             f"more than the {have} bytes of physical memory")


def expectation(rho: DensityMatrix, op: Operator) -> complex:
    """Tr(op rho)."""
    if rho.space.dim != op.space.dim:
        raise DimensionError("state and operator dimensions differ")
    return complex(np.sum(op.matrix * rho.matrix.T))
