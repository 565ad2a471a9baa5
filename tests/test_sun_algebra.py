import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toqc import sun_algebra as sa
from toqc.errors import (
    BranchAmbiguityError,
    DimensionMismatchError,
    InvalidDimensionError,
    InvalidSubspaceError,
)

RNG = np.random.default_rng(2024)


def hermitian_strategy(n):
    return st.integers(min_value=0, max_value=2**31 - 1).map(
        lambda s: sa.random_traceless_hermitian(np.random.default_rng(s), n))


# --- bases -----------------------------------------------------------------

def test_pauli_basis_normalization_and_algebra():
    sx, sy, sz = sa.pauli_basis()
    assert abs(np.trace(sz @ sz).real - 2.0) < 1e-15
    assert abs(np.trace(sx @ sy)) < 1e-15
    np.testing.assert_allclose(sa.commutator(sx, sy), 2 * sz, atol=1e-15)


def test_gellmann_basis_matches_printed_table():
    basis = sa.gellmann_basis()
    np.testing.assert_allclose(basis[7], np.diag([1, 1, -2]) / np.sqrt(3), atol=1e-15)
    assert abs(np.trace(basis[3] @ basis[3]).real - 2.0) < 1e-14
    assert abs(np.trace(basis[2] @ basis[7])) < 1e-14
    # all eight entrywise
    expected = {
        0: np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]]),
        1: np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]]),
        2: np.diag([1, -1, 0]),
        3: np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]]),
        4: np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]]),
        5: np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]]),
        6: np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]]),
    }
    for idx, mat in expected.items():
        np.testing.assert_allclose(basis[idx], mat, atol=1e-15)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_generalized_gellmann_gram(n):
    basis = sa.generalized_gellmann(n)
    assert len(basis) == n * n - 1
    gram = np.array([[np.trace(a @ b).real for b in basis] for a in basis])
    np.testing.assert_allclose(gram, 2 * np.eye(n * n - 1), atol=1e-12)


def test_generalized_gellmann_reduces_to_low_dim():
    for a, b in zip(sa.generalized_gellmann(2), sa.pauli_basis()):
        np.testing.assert_allclose(a, b, atol=1e-15)
    for a, b in zip(sa.generalized_gellmann(3), sa.gellmann_basis()):
        np.testing.assert_allclose(a, b, atol=1e-15)


def test_generalized_gellmann_rejects_bad_dim():
    with pytest.raises(InvalidDimensionError):
        sa.generalized_gellmann(1)


# --- inner product and expansion ---------------------------------------------

def test_inner_examples():
    sx, sy, sz = sa.pauli_basis()
    assert sa.inner(sz, sz) == pytest.approx(1.0)
    assert sa.inner(sx, sy) == pytest.approx(0.0, abs=1e-15)
    gm = sa.gellmann_basis()
    sig_x = gm[3] - 0.5 * gm[2] + gm[7] / (2 * np.sqrt(3))
    assert sa.inner(gm[3], sig_x) == pytest.approx(1.0)


def test_inner_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        sa.inner(sa.SIGMA_X, sa.gellmann_basis()[0])



def test_require_traceless_hermitian_refuses_non_finite_entries():
    # NaN compares false with every tolerance, so it used to pass both checks
    for bad in (np.nan, np.inf):
        a = sa.SIGMA_Z.copy()
        a[1, 1] = bad
        with pytest.raises(DimensionMismatchError, match="non-finite"):
            sa.require_traceless_hermitian(a, "costate")

def test_expand_pauli_example():
    basis = sa.pauli_basis()
    np.testing.assert_allclose(sa.expand(sa.SIGMA_Z, basis), [0, 0, 1], atol=1e-15)


def test_expand_triplet_exchange_coefficients():
    gm = sa.gellmann_basis()
    sig_z = gm[2] - gm[7] / np.sqrt(3)
    coeffs = sa.expand(sig_z, gm)
    expected = np.zeros(8)
    expected[2] = 1.0
    expected[7] = -1.0 / np.sqrt(3)
    np.testing.assert_allclose(coeffs, expected, atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(hermitian_strategy(3))
def test_expand_reconstruct_roundtrip(a):
    basis = sa.generalized_gellmann(3)
    np.testing.assert_allclose(sa.reconstruct(sa.expand(a, basis), basis), a,
                               atol=1e-12)


# --- commutator ---------------------------------------------------------------

def test_commutator_self_is_zero():
    a = sa.random_traceless_hermitian(RNG, 3)
    assert np.max(np.abs(sa.commutator(a, a))) < 1e-14


def test_commutator_of_commuting_triplet_operators():
    # exchange and drift generators commute; cross-checked by brute-force
    # matrix product against their Gell-Mann expansions
    gm = sa.gellmann_basis()
    sig_z = gm[2] - gm[7] / np.sqrt(3)
    sig_x = gm[3] - 0.5 * gm[2] + gm[7] / (2 * np.sqrt(3))
    direct = -1j * (sig_z @ sig_x - sig_x @ sig_z)
    np.testing.assert_allclose(sa.commutator(sig_z, sig_x), direct, atol=1e-14)
    assert np.max(np.abs(direct)) < 1e-14


@settings(max_examples=30, deadline=None)
@given(hermitian_strategy(3), hermitian_strategy(3), hermitian_strategy(3))
def test_jacobi_identity(a, b, c):
    total = (sa.commutator(a, sa.commutator(b, c))
             + sa.commutator(b, sa.commutator(c, a))
             + sa.commutator(c, sa.commutator(a, b)))
    scale = max(1.0, np.max(np.abs(a)), np.max(np.abs(b)), np.max(np.abs(c)))
    assert np.max(np.abs(total)) < 1e-12 * scale ** 2 * 10


# --- projection ----------------------------------------------------------------

def test_project_idempotent_and_orthogonal_residual():
    basis = sa.generalized_gellmann(3)
    sub = basis[:4]
    a = sa.random_traceless_hermitian(RNG, 3)
    p = sa.project(a, sub)
    np.testing.assert_allclose(sa.project(p, sub), p, atol=1e-12)
    for c in sub:
        assert abs(sa.inner(a - p, c)) < 1e-12


def test_project_in_span_and_orthogonal():
    sx, sy, sz = sa.pauli_basis()
    np.testing.assert_allclose(sa.project(sx, [sx]), sx, atol=1e-14)
    # a z drift has no component along an x-only control subspace
    assert np.max(np.abs(sa.project(sz, [sx]))) < 1e-14


def test_project_rejects_non_orthonormal_subspace():
    sx, sy, _ = sa.pauli_basis()
    with pytest.raises(InvalidSubspaceError):
        sa.project(sx, [sx, sx + sy])


# --- stacked products ---------------------------------------------------------

def _complex_stack(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stack_product_equals_matmul_on_every_caller_shape(n):
    # the shapes its callers pass: a stack and one matrix (the costate
    # flow), stack times stack (the march, the Pade kernel), and the
    # blocked node product of evolve_unitary; 40 blocks of 64 cross the
    # 2048-member chunk, and so do the 2500-member stacks
    rng = np.random.default_rng(70 + n)
    pairs = [((n, n), (5, n, n)), ((n, n), (2500, n, n)), ((2500, n, n), (n, n)),
             ((5, n, n), (5, n, n)), ((2500, n, n), (2500, n, n)),
             ((40, 64, n, n), (40, 1, n, n))]
    for a_shape, b_shape in pairs:
        a, b = _complex_stack(rng, a_shape), _complex_stack(rng, b_shape)
        want = a @ b
        got = sa.stack_product(a, b)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
        # summed in a given output, as the node product of evolve_unitary is
        out = np.empty(want.shape, dtype=complex)
        assert sa.stack_product(a, b, out=out) is out
        assert np.array_equal(out, got)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stack_product_member_bits_do_not_depend_on_the_stack(n):
    # one member alone, in a 5-member stack and at the far side of the
    # chunk edge of a 2049-member stack: the same bits each time
    rng = np.random.default_rng(80 + n)
    a, b = _complex_stack(rng, (2, n, n))
    alone = sa.stack_product(a[None], b[None])[0]
    for size, at in ((5, 2), (2049, 2048)):
        xs, ys = _complex_stack(rng, (2, size, n, n))
        xs[at], ys[at] = a, b
        assert np.array_equal(sa.stack_product(xs, ys)[at], alone)
        assert np.array_equal(sa.stack_product(a, ys)[at],
                              sa.stack_product(a, b[None])[0])


# --- exponential and logarithm ---------------------------------------------

def test_exp_op_examples():
    sx, _, sz = sa.pauli_basis()
    np.testing.assert_allclose(
        sa.exp_op(sz, np.pi / 2),
        np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)]), atol=1e-14)
    np.testing.assert_allclose(sa.exp_op(sz, 0.0), np.eye(2), atol=1e-15)
    np.testing.assert_allclose(
        sa.exp_op(sx, np.pi / 4),
        np.cos(np.pi / 4) * np.eye(2) - 1j * np.sin(np.pi / 4) * sx, atol=1e-14)


@settings(max_examples=30, deadline=None)
@given(hermitian_strategy(2),
       st.floats(min_value=-2, max_value=2),
       st.floats(min_value=-2, max_value=2))
def test_exp_op_group_property(a, s, t):
    lhs = sa.exp_op(a, s) @ sa.exp_op(a, t)
    np.testing.assert_allclose(lhs, sa.exp_op(a, s + t), atol=1e-10)


def test_log_op_examples():
    assert np.max(np.abs(sa.log_op(np.eye(2, dtype=complex)))) < 1e-14
    u = np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)])
    np.testing.assert_allclose(sa.log_op(u), (np.pi / 4) * sa.SIGMA_Z, atol=1e-14)


def test_log_op_roundtrip_small_generators():
    rng = np.random.default_rng(7)
    for n in (2, 3):
        for _ in range(50):
            l0 = sa.random_traceless_hermitian(rng, n, scale=0.3)
            l = sa.log_op(sa.exp_op(l0))
            np.testing.assert_allclose(l, l0, atol=1e-10)


def test_log_op_traceless_after_branch_shift():
    # principal phases sum to 2*pi here; the shift must restore tracelessness
    l0 = np.diag([2.8, 2.8, -5.6]).astype(complex)
    u = sa.exp_op(l0)
    l = sa.log_op(u)
    assert abs(np.trace(l)) < 1e-9
    np.testing.assert_allclose(sa.exp_op(l), u, atol=1e-10)


def test_exp_op_time_stack_matches_per_time():
    rng = np.random.default_rng(31)
    ts = np.concatenate([[0.0, -1.7], rng.uniform(-4.0, 4.0, 40)])
    for n in (2, 3, 4):
        a = sa.random_traceless_hermitian(rng, n)
        stack = sa.exp_op(a, ts)
        assert stack.shape == (len(ts), n, n)
        for t, u in zip(ts, stack):
            np.testing.assert_allclose(u, sa.exp_op(a, float(t)), rtol=0, atol=1e-13)
        # a generator stack with one time per generator
        gens = np.stack([sa.random_traceless_hermitian(rng, n) for _ in ts])
        stack = sa.exp_op(gens, ts)
        assert stack.shape == (len(ts), n, n)
        for g, t, u in zip(gens, ts, stack):
            np.testing.assert_allclose(u, sa.exp_op(g, float(t)), rtol=0, atol=1e-13)


def test_exp_op_su2_closed_form_against_expm():
    # the N = 2 closed form on every shape exp_op takes, with a trace part
    # (a phase) and a zero generator (exactly the identity)
    import scipy.linalg
    rng = np.random.default_rng(33)

    def expm(a, t):
        return scipy.linalg.expm(-1j * t * a)

    a = sa.random_traceless_hermitian(rng, 2) + 0.7 * np.eye(2)
    np.testing.assert_allclose(sa.exp_op(a, 1.3), expm(a, 1.3), rtol=0, atol=1e-14)
    np.testing.assert_allclose(sa.exp_op(np.asfortranarray(a), 1.3), expm(a, 1.3),
                               rtol=0, atol=1e-14)
    ts = rng.uniform(-3.0, 3.0, 12)
    stack = sa.exp_op(a, ts)
    assert stack.shape == (12, 2, 2)
    np.testing.assert_allclose(stack, [expm(a, t) for t in ts], rtol=0, atol=1e-14)
    gens = np.stack([sa.random_traceless_hermitian(rng, 2) + rng.normal() * np.eye(2)
                     for _ in ts])
    stack = sa.exp_op(gens, ts)
    assert stack.shape == (12, 2, 2)
    np.testing.assert_allclose(stack, [expm(g, t) for g, t in zip(gens, ts)],
                               rtol=0, atol=1e-14)
    for zero in (np.zeros((2, 2), dtype=complex), np.zeros((3, 2, 2), dtype=complex)):
        out = sa.exp_op(zero, np.array([0.4, 1.1, -2.0]))
        assert np.array_equal(out, np.broadcast_to(np.eye(2), out.shape))


@pytest.mark.parametrize("n", [3, 4])
def test_exp_op_pade_stack_against_expm(n):
    # a generator stack with N >= 3 takes the Pade form member by member
    # below theta_3 (in the 1-norm of s A) and the eigendecomposition above
    import scipy.linalg
    rng = np.random.default_rng(34 + n)
    gens = np.stack([sa.random_traceless_hermitian(rng, n) for _ in range(16)])
    one_norms = np.max(np.sum(np.abs(gens), axis=-2), axis=-1)
    below = sa._PADE3_THETA * rng.uniform(0.9, 0.999999, 16) / one_norms
    above = sa._PADE3_THETA * rng.uniform(1.000001, 1.1, 16) / one_norms
    mixed = np.where(np.arange(16) % 2 == 0, below, -above)
    for ts in (below, -below, above, mixed):
        stack = sa.exp_op(gens, ts)
        ref = [scipy.linalg.expm(-1j * t * g) for g, t in zip(gens, ts)]
        np.testing.assert_allclose(stack, ref, rtol=0, atol=1e-14)
        assert np.max(sa.unitarity_defect(stack)) <= 1e-14
        for k in range(16):
            assert np.array_equal(stack[k], sa.exp_op(gens[k:k + 1], ts[k:k + 1])[0])


def test_random_special_unitary_draws_keep_the_eigendecomposition():
    # seeded targets are built from these draws: they stay the eigenbasis
    # exponential of the drawn generator, bit for bit
    for n in (2, 3, 4):
        draws, rng = np.random.default_rng(35), np.random.default_rng(35)
        for _ in range(5):
            h = sa.random_traceless_hermitian(rng, n)
            w, v = np.linalg.eigh(h)
            want = (v * np.exp(-1j * w)) @ v.conj().T
            assert np.array_equal(sa.random_special_unitary(draws, n), want)


def test_log_norms_match_log_op_per_matrix():
    rng = np.random.default_rng(32)
    for n in (2, 3, 4):
        # large generators make the principal phases need period shifts
        us = [sa.exp_op(sa.random_traceless_hermitian(rng, n, scale=s))
              for s in (0.2, 1.0, 3.0) for _ in range(20)]
        norms = sa.log_norms(np.stack(us))
        want = [sa.hs_norm(sa.log_op(u)) for u in us]
        np.testing.assert_allclose(norms, want, rtol=1e-12, atol=1e-13)


def test_log_norms_nan_on_the_cut_or_off_the_group():
    u = sa.random_special_unitary(np.random.default_rng(33), 3)
    cut = np.diag([-1.0, -1.0, 1.0]).astype(complex)
    norms = sa.log_norms(np.stack([u, cut, 1.01 * u, 1.5 * u]))
    assert norms[0] == pytest.approx(sa.hs_norm(sa.log_op(u)), rel=1e-12)
    assert np.all(np.isnan(norms[1:]))
    # 1.5 U is normal, so its Schur form is diagonal; only U^dagger U tells
    for refused in (cut, 1.01 * u, 1.5 * u):
        with pytest.raises(BranchAmbiguityError):
            sa.log_op(refused)


def test_log_op_branch_cut_error():
    with pytest.raises(BranchAmbiguityError):
        sa.log_op(np.diag([-1.0 + 0j, -1.0 + 0j]))


def test_exp_log_unitarity_invariants():
    rng = np.random.default_rng(3)
    for _ in range(20):
        u = sa.random_special_unitary(rng, 3)
        assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-12
        assert abs(np.linalg.det(u) - 1) < 1e-10


@pytest.mark.parametrize("n", [2, 3])
def test_expand_reconstruct_roundtrip_many(n):
    rng = np.random.default_rng(140 + n)
    basis = sa.generalized_gellmann(n)
    for _ in range(100):
        a = sa.random_traceless_hermitian(rng, n)
        np.testing.assert_allclose(
            sa.reconstruct(sa.expand(a, basis), basis), a, atol=1e-12)
