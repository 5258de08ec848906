import math
import re
import tracemalloc

import numpy as np
import pytest

from eitcool import operators as ops
from eitcool.operators import (DensityMatrix, DimensionError, LindbladModel,
                               annihilation, basis_state, compose_space,
                               expectation, hermitian_coordinates, identity,
                               internal_space, liouvillian, lindblad_rhs,
                               liouvillian_matrix, number_operator,
                               real_liouvillian, transition)

LEVELS3 = ("+1", "-1", "A2")
LEVELS6 = ("+1", "-1", "A2", "0", "Ey", "1A1")


def random_model(rng, labels=LEVELS3, fock=4, n_channels=2):
    space = compose_space(labels, fock)
    d = space.dim
    raw = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    H = ops.Operator(space, (raw + raw.conj().T) / 2)
    channels = []
    for _ in range(n_channels):
        c = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        channels.append((rng.uniform(0.1, 2.0), ops.Operator(space, c)))
    return LindbladModel(space, H, channels)


def thermal_random_model(rng, labels=LEVELS3, fock=4, n_channels=2):
    """Random model plus a thermal b / b^dag pair on the Fock ladder."""
    model = random_model(rng, labels, fock, n_channels)
    b = annihilation(model.space)
    n_th, gamma = rng.uniform(0.1, 2.0), rng.uniform(0.1, 1.0)
    return LindbladModel(model.space, model.hamiltonian, model.channels
                         + [(gamma * (n_th + 1), b), (gamma * n_th, b.dagger())])


def sandwich_rhs(model, rho):
    """Reference generator on d x d matrices: G rho + rho G^dag + sum gamma L rho L^dag
    with G = -iH - (1/2) sum gamma L^dag L."""
    G = -1j * model.hamiltonian.matrix
    for rate, jump in model.channels:
        G = G - 0.5 * rate * (jump.matrix.conj().T @ jump.matrix)
    out = G @ rho + rho @ G.conj().T
    for rate, jump in model.channels:
        out = out + rate * (jump.matrix @ rho @ jump.matrix.conj().T)
    return out


def random_density(rng, space):
    d = space.dim
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return DensityMatrix(space, rho / np.trace(rho))


class TestSpaces:
    def test_dimensions(self):
        assert compose_space(LEVELS3, 10).dim == 30
        assert compose_space(LEVELS6, 16).dim == 96

    def test_degenerate_fock_cut_rejected(self):
        with pytest.raises(ValueError):
            compose_space(LEVELS3, 1)

    def test_duplicate_label_rejected(self):
        with pytest.raises(ValueError):
            compose_space(("a", "a", "b"), 4)

    def test_internal_major_ordering(self):
        space = compose_space(LEVELS3, 5)
        assert space.index("+1", 0) == 0
        assert space.index("-1", 3) == 8
        assert space.index("A2", 4) == 14

    def test_dense_guard(self):
        labels = tuple(f"l{i}" for i in range(40))
        with pytest.raises(DimensionError):
            compose_space(labels, 30)

    def test_internal_space_allows_single_fock_level(self):
        assert internal_space(LEVELS3).dim == 3


class TestLadderOperators:
    def test_fock_block(self):
        b = annihilation(compose_space(("g",), 2)).matrix
        assert np.allclose(b, [[0, 1], [0, 0]])

    def test_number_on_fock_one(self):
        space = compose_space(LEVELS3, 4)
        rho = basis_state(space, "+1", 1)
        assert expectation(rho, number_operator(space)) == pytest.approx(1.0)

    def test_truncation_fixed_point(self):
        space = compose_space(LEVELS3, 6)
        top = basis_state(space, "-1", 5)
        assert expectation(top, number_operator(space)) == pytest.approx(5.0)

    def test_commutator_confined_to_top_level(self):
        space = compose_space(("g",), 7)
        b = annihilation(space).matrix
        comm = b @ b.conj().T - b.conj().T @ b
        dev = comm - np.eye(7)
        dev[6, 6] = 0.0
        assert np.abs(dev).max() < 1e-14
        assert (b @ b.conj().T - b.conj().T @ b)[6, 6] == pytest.approx(-6.0)


class TestTransitions:
    def test_adjoint_symmetry(self):
        space = compose_space(LEVELS3, 3)
        assert np.allclose(transition(space, "A2", "+1").dagger().matrix,
                           transition(space, "+1", "A2").matrix)

    def test_projector_idempotent(self):
        space = compose_space(LEVELS3, 3)
        p = transition(space, "-1", "-1")
        assert np.allclose((p @ p).matrix, p.matrix)

    def test_sigma_y_from_transitions(self):
        space = compose_space(LEVELS3, 2)
        dark = (transition(space, "+1", "A2") - transition(space, "-1", "A2")) \
            * (1 / np.sqrt(2))
        sy = -1j * (dark.dagger() - dark)
        assert sy.is_hermitian(1e-14)

    def test_unknown_label(self):
        space = compose_space(LEVELS3, 2)
        with pytest.raises(KeyError):
            transition(space, "A2", "nope")

    def test_composition_rule(self):
        space = compose_space(LEVELS3, 2)
        for a in LEVELS3:
            for b in LEVELS3:
                for c in LEVELS3:
                    for d in LEVELS3:
                        prod = (transition(space, a, b) @ transition(space, c, d)).matrix
                        want = transition(space, a, d).matrix if b == c \
                            else np.zeros_like(prod)
                        assert np.allclose(prod, want)


class TestGenerator:
    def test_zero_model(self):
        space = compose_space(LEVELS3, 3)
        model = LindbladModel(space, identity(space) * 0.0)
        rho = basis_state(space, "+1", 1)
        assert np.abs(lindblad_rhs(model, rho)).max() == 0.0

    def test_pure_damping_rate(self):
        gamma = 0.7
        space = compose_space(("g",), 5)
        model = LindbladModel(space, identity(space) * 0.0,
                              [(gamma, annihilation(space))])
        rho = basis_state(space, "g", 1)
        dn = np.trace(number_operator(space).matrix @ lindblad_rhs(model, rho))
        assert dn.real == pytest.approx(-gamma, rel=1e-12)

    def test_trace_preservation_random(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            model = random_model(rng)
            rho = random_density(rng, model.space)
            assert abs(np.trace(lindblad_rhs(model, rho))) < 1e-12

    def test_hermiticity_preservation_random(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            model = random_model(rng)
            rho = random_density(rng, model.space)
            out = lindblad_rhs(model, rho)
            assert np.abs(out - out.conj().T).max() < 1e-12

    def test_dimension_mismatch(self):
        model = random_model(np.random.default_rng(0))
        other = basis_state(compose_space(LEVELS3, 7), "+1", 0)
        with pytest.raises(DimensionError):
            lindblad_rhs(model, other)

    def test_liouvillian_matches_rhs(self):
        rng = np.random.default_rng(9)
        model = thermal_random_model(rng, fock=3)
        rho = random_density(rng, model.space)
        want = sandwich_rhs(model, rho.matrix)
        via_super = (liouvillian_matrix(model) @ rho.matrix.ravel()).reshape(want.shape)
        assert np.abs(lindblad_rhs(model, rho) - want).max() < 1e-12
        assert np.abs(via_super - want).max() < 1e-12

    def test_sparse_generator_matches_sandwich_reference(self):
        rng = np.random.default_rng(12)
        for labels, fock in ((LEVELS3, 4), (LEVELS6, 2), (("g",), 9)):
            for _ in range(5):
                model = thermal_random_model(rng, labels, fock, n_channels=3)
                rho = random_density(rng, model.space).matrix
                got = (liouvillian(model) @ rho.ravel()).reshape(rho.shape)
                assert np.abs(got - sandwich_rhs(model, rho)).max() < 1e-12

    def test_hermitian_coordinates_unitary(self):
        for d in (1, 2, 5, 12):
            T = hermitian_coordinates(d).toarray()
            assert np.abs(T @ T.conj().T - np.eye(d * d)).max() < 1e-15

    def test_hermitian_coordinates_real_on_hermitian_states(self):
        rng = np.random.default_rng(13)
        rho = random_density(rng, compose_space(LEVELS3, 3)).matrix
        x = hermitian_coordinates(9) @ rho.ravel()
        assert np.abs(x.imag).max() < 1e-15
        assert np.allclose(x[:9], np.diag(rho).real)
        assert np.abs(x[:9].sum() - 1.0) < 1e-15

    def test_real_generator_matches_sandwich_reference(self):
        # same 15 random models as the CSR test: non-Hermitian jumps plus a thermal pair
        rng = np.random.default_rng(12)
        for labels, fock in ((LEVELS3, 4), (LEVELS6, 2), (("g",), 9)):
            for _ in range(5):
                model = thermal_random_model(rng, labels, fock, n_channels=3)
                d = model.space.dim
                T = hermitian_coordinates(d).toarray()
                # column k of T^dag is vec of the k-th basis matrix
                basis = T.conj().T.T.reshape(d * d, d, d)
                want = T @ sandwich_rhs(model, basis).reshape(d * d, d * d).T
                got, dropped = real_liouvillian(model)
                assert np.abs(got.toarray() - want).max() < 1e-12
                assert dropped <= 1e-12
                # the diagonal-coordinate rows carry d(Tr rho)/dt = 0
                assert np.abs(got[:d].sum(axis=0)).max() < 1e-12

    def test_real_generator_data_is_contiguous(self):
        # a strided view of the complex data would be copied on every mat-vec
        model = thermal_random_model(np.random.default_rng(14))
        assert real_liouvillian(model)[0].data.flags.c_contiguous

    def test_dense_view_refuses_superoperator_beyond_memory(self, monkeypatch):
        # d = 400: the dense superoperator would need 16 * 400^4 bytes (about 410 GB);
        # sysconf reports 64 GB, so the outcome does not depend on the host's memory
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 16 * 2 ** 20}
        monkeypatch.setattr(ops.os, "sysconf", pages.__getitem__)
        space = compose_space(("g", "e"), 200)
        model = LindbladModel(space, number_operator(space), [(0.1, annihilation(space))])
        tracemalloc.start()
        try:
            with pytest.raises(DimensionError, match=str(16 * 400 ** 4)):
                liouvillian_matrix(model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10_000_000

    @pytest.mark.parametrize("n_channels, need", [
        (1, 96 * (3600 ** 2 + 60 * 60 ** 2)),   # a dense jump: its sandwich and _gram
        (0, 96 * 2 * 60 * 3600)])               # a dense H: kron(G, I) and kron(I, G*)
    def test_generator_refuses_triplets_beyond_memory(self, monkeypatch, n_channels, need):
        # d = 60, dense operators, 96 bytes per triplet; sysconf reports 4 MB, so
        # the outcome does not depend on the host's memory
        model = random_model(np.random.default_rng(3), fock=20, n_channels=n_channels)
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1024}
        monkeypatch.setattr(ops.os, "sysconf", pages.__getitem__)
        tracemalloc.start()
        try:
            with pytest.raises(DimensionError, match=f"at dimension 60 needs {need} bytes"):
                liouvillian(model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("n_channels", [0, 1])
    def test_generator_builds_within_its_memory_bound(self, monkeypatch, n_channels):
        # d = 6, dense operators: the second count binds, the sandwiches plus
        # kron(G, I) and kron(I, G*), at 96 bytes per triplet
        model = random_model(np.random.default_rng(4), fock=2, n_channels=n_channels)
        d = model.space.dim
        need = 96 * (n_channels * d ** 4 + 2 * d ** 3)
        pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": need}
        monkeypatch.setattr(ops.os, "sysconf", pages.__getitem__)
        assert liouvillian(model).shape == (d * d, d * d)
        pages["SC_PHYS_PAGES"] = need - 1
        with pytest.raises(DimensionError, match=f"generator at dimension {d} needs {need} "):
            liouvillian(model)


class TestExpectation:
    def test_ground_state(self):
        space = compose_space(LEVELS3, 4)
        rho = basis_state(space, "+1", 0)
        assert expectation(rho, number_operator(space)) == pytest.approx(0.0)

    def test_fock_two(self):
        space = compose_space(LEVELS3, 4)
        rho = basis_state(space, "A2", 2)
        assert expectation(rho, number_operator(space)) == pytest.approx(2.0)

    def test_maximally_mixed_internal(self):
        space = compose_space(LEVELS3, 2)
        rho = DensityMatrix(space, np.eye(6) / 6.0)
        dark = np.array([1, -1, 0]) / np.sqrt(2)
        proj = ops.internal_projector(space, dark)
        assert expectation(rho, proj).real == pytest.approx(1 / 3, rel=1e-12)

    def test_hermitian_expectation_real(self):
        rng = np.random.default_rng(10)
        space = compose_space(LEVELS3, 3)
        rho = random_density(rng, space)
        assert abs(expectation(rho, number_operator(space)).imag) < 1e-10


class TestStateValidation:
    def test_valid_state_passes(self):
        space = compose_space(LEVELS3, 3)
        basis_state(space, "+1", 0).validate()

    def test_bad_trace(self):
        space = compose_space(LEVELS3, 2)
        rho = DensityMatrix(space, np.eye(6, dtype=complex))
        with pytest.raises(ValueError, match="trace"):
            rho.validate()

    def test_negative_eigenvalue(self):
        space = compose_space(("g",), 2)
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(space, m).validate()

    @pytest.mark.parametrize("rate", [-0.1, math.nan, math.inf])
    def test_model_rejects_bad_rate(self, rate):
        space = compose_space(LEVELS3, 2)
        with pytest.raises(ValueError, match=f"^channel rate must be finite and >= 0, got {rate}$"):
            LindbladModel(space, identity(space) * 0.0, [(rate, annihilation(space))])

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
    def test_model_rejects_non_finite_jump(self, entry):
        space = compose_space(LEVELS3, 2)
        jump = annihilation(space)
        jump.matrix[0, 1] = entry
        with pytest.raises(ValueError, match="^channel 1 has a non-finite jump operator entry$"):
            LindbladModel(space, identity(space) * 0.0,
                          [(0.5, annihilation(space)), (0.5, jump)])

    def test_nan_coherence_is_invalid(self):
        space = compose_space(("g",), 2)
        m = np.diag([1.0, 0.0]).astype(complex)
        m[0, 1] = m[1, 0] = math.nan
        with pytest.raises(ValueError, match="^state not Hermitian: residual nan$"):
            DensityMatrix(space, m).validate()

    def test_model_rejects_nonhermitian_hamiltonian(self):
        space = compose_space(LEVELS3, 2)
        with pytest.raises(ValueError):
            LindbladModel(space, annihilation(space))


SPACE = compose_space(LEVELS3, 2)       # d = 6
OTHER = compose_space(LEVELS3, 3)       # d = 9
SKEWED = np.eye(6, dtype=complex) / 6
SKEWED[0, 1] = 1.0


# each argument check of the operator layer, with the error it raises
@pytest.mark.parametrize("call, error, says", [
    (lambda: ops.HilbertSpace((), 2), ValueError,
     "need at least one internal level and fock_dim >= 1"),
    (lambda: ops.HilbertSpace(("g",), 0), ValueError,
     "need at least one internal level and fock_dim >= 1"),
    (lambda: SPACE.index("+1", 2), IndexError, "Fock index 2 outside [0, 2)"),
    (lambda: ops.Operator(SPACE, np.eye(5)), DimensionError,
     "matrix shape (5, 5) does not match space dimension 6"),
    (lambda: identity(SPACE) + identity(OTHER), DimensionError,
     "operators live on different spaces"),
    (lambda: DensityMatrix(SPACE, np.eye(5)), DimensionError,
     "matrix shape (5, 5) does not match space dimension 6"),
    (lambda: DensityMatrix(SPACE, SKEWED).validate(), ValueError,
     "state not Hermitian: residual 1.000e+00"),
    (lambda: LindbladModel(SPACE, identity(SPACE) * 0.0, [(0.1, identity(OTHER))]),
     DimensionError, "jump operator on wrong space"),
    (lambda: ops.internal_projector(SPACE, [1.0, 0.0]), DimensionError,
     "projector vector length does not match internal levels"),
    (lambda: ops.product_state(SPACE, [1.0, 0.0, 0.0], [1.0]), DimensionError,
     "Fock population vector length does not match fock_dim"),
    (lambda: ops.product_state(SPACE, [1.0, 0.0, 0.0], [1.5, -0.5]), ValueError,
     "negative Fock population"),
    (lambda: expectation(basis_state(SPACE, "+1", 0), identity(OTHER)), DimensionError,
     "state and operator dimensions differ"),
])
def test_argument_check(call, error, says):
    with pytest.raises(error, match=f"^{re.escape(says)}$") as caught:
        call()
    assert type(caught.value) is error
