"""Linear algebra over su(N) and SU(N).

Operators are plain complex ``numpy`` arrays.  Conventions used throughout:

* su(N) elements are traceless Hermitian matrices; the group map is
  ``SU(N) = exp(-i su(N))``.
* Orthonormal bases ``{t_j}`` satisfy ``tr[t_i t_j] = 2 delta_ij``, i.e. they
  are orthonormal under the inner product ``<A, B> = (1/2) Re tr[A B]``.
* The commutator operation returns ``-i[A, B]`` so every result stays
  Hermitian; callers that need ``i[.,.]`` negate.

The exponential has three forms (:func:`exp_op`): the Cayley-Hamilton
closed form for N = 2; for the small steps of a generator stack with
N >= 3, the degree-6 Taylor polynomial, three stacked products and no
solve, whose remainder there is below unit roundoff; and otherwise the
eigendecomposition of the Hermitian generator (always diagonalizable).
Logarithms go through the eigendecomposition, which keeps unitarity exact
and the logarithm branch under explicit control.  Products of stacks of
N x N matrices go through :func:`stack_product`, and every span question
(is an operator in the span of others, what survives a set of conditions)
through :func:`_complement`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    BranchAmbiguityError,
    DimensionMismatchError,
    InvalidDimensionError,
)
from .tolerances import DEFAULT_TOL

__all__ = [
    "pauli_basis",
    "gellmann_basis",
    "generalized_gellmann",
    "inner",
    "hs_norm",
    "commutator",
    "expand",
    "reconstruct",
    "exp_op",
    "log_op",
    "log_norms",
    "dagger",
    "traceless",
    "is_unitary",
    "unitarity_defect",
    "stack_product",
    "require_traceless_hermitian",
    "require_same_dim",
    "random_traceless_hermitian",
    "random_special_unitary",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
]

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_TINY = np.finfo(float).tiny


def dagger(a: np.ndarray) -> np.ndarray:
    """Hermitian conjugate (of each matrix, for a stack)."""
    return np.swapaxes(a.conj(), -1, -2)


def traceless(a: np.ndarray) -> np.ndarray:
    """Remove the trace part: A - (tr A / N) I."""
    n = a.shape[0]
    return a - (np.trace(a) / n) * np.eye(n)


# members per pass over a long stack, in stack_product and the Taylor
# kernel of _exp_stack: bounds the stack-sized temporaries of a pass (peak
# memory)
_STACK_CHUNK = 2048


def stack_product(a: np.ndarray, b: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """The matrix product ``a @ b`` of (stacks of) N x N matrices.

    numpy's stacked ``@`` handles each member of a stack on its own, which
    for N <= 3 costs more than the product itself; there the product is the
    sum of N broadcast outer products a[..., :, k] b[..., k, :], formed for
    the whole stack at once.  For N >= 4 it is ``@``.  The form depends on N
    alone and every member is reduced on its own, so a member's result does
    not depend on the stack it sits in.  An operand of more than
    ``_STACK_CHUNK`` members goes through in chunks of about that many
    along the leading axis, each summed in ``out`` (peak memory); ``out``
    must not overlap ``a`` or ``b``.
    """
    n = a.shape[-1]
    if n > 3:
        return np.matmul(a, b, out=out)
    if max(a.size, b.size) <= _STACK_CHUNK * n * n:
        return _outer_sum(a, b, n, out)
    shape = np.broadcast_shapes(a.shape, b.shape)
    if out is None:
        out = np.empty(shape, dtype=np.result_type(a, b))
    a, b = np.broadcast_to(a, shape), np.broadcast_to(b, shape)
    step = max(1, _STACK_CHUNK // math.prod(shape[1:-2]))
    for start in range(0, shape[0], step):
        rows = slice(start, start + step)
        _outer_sum(a[rows], b[rows], n, out[rows])
    return out


def _outer_sum(a: np.ndarray, b: np.ndarray, n: int,
               out: np.ndarray | None) -> np.ndarray:
    """sum_k a[..., :, k] b[..., k, :], in order k = 0 .. n - 1, summed in
    ``out`` (a new array when None)."""
    out = np.multiply(a[..., :, :1], b[..., :1, :], out=out)
    for k in range(1, n):
        out += a[..., :, k:k + 1] * b[..., k:k + 1, :]
    return out


def unitarity_defect(u: np.ndarray) -> float | np.ndarray:
    """max |U^dagger U - I| over the entries; one value per matrix of a stack.

    U^dagger U is one :func:`stack_product`.
    """
    gram = stack_product(dagger(u), u)
    gram -= np.eye(u.shape[-1])   # in place: no second stack-sized array
    return np.max(np.abs(gram), axis=(-2, -1))


def is_unitary(u: np.ndarray) -> bool | np.ndarray:
    """U^dagger U within ``DEFAULT_TOL.unitary`` of the identity, entrywise.

    A stack gives one verdict per matrix.
    """
    return unitarity_defect(u) <= DEFAULT_TOL.unitary


def require_traceless_hermitian(a: np.ndarray, name: str = "operator") -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"{name} must be a square matrix, got shape {a.shape}")
    # NaN fails every comparison below, so non-finite entries are refused first
    if not np.all(np.isfinite(a)):
        raise DimensionMismatchError(f"{name} has a non-finite entry")
    if np.max(np.abs(a - dagger(a))) >= DEFAULT_TOL.hermitian:
        raise DimensionMismatchError(f"{name} is not Hermitian to {DEFAULT_TOL.hermitian}")
    if abs(np.trace(a)) >= DEFAULT_TOL.trace * max(1.0, float(np.max(np.abs(a)))):
        raise DimensionMismatchError(f"{name} is not traceless to {DEFAULT_TOL.trace}")


def require_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimensionMismatchError(f"dimension mismatch: {a.shape} vs {b.shape}")


def pauli_basis() -> list[np.ndarray]:
    """The Pauli matrices [sigma_x, sigma_y, sigma_z], tr[s_i s_j] = 2 d_ij."""
    return [SIGMA_X.copy(), SIGMA_Y.copy(), SIGMA_Z.copy()]


def gellmann_basis() -> list[np.ndarray]:
    """The eight Gell-Mann matrices lambda_1..lambda_8 for su(3)."""
    l1 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
    l2 = np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex)
    l3 = np.array([[1, 0, 0], [0, -1, 0], [0, 0, 0]], dtype=complex)
    l4 = np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex)
    l5 = np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]], dtype=complex)
    l6 = np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
    l7 = np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]], dtype=complex)
    l8 = np.diag([1, 1, -2]).astype(complex) / np.sqrt(3)
    return [l1, l2, l3, l4, l5, l6, l7, l8]


def generalized_gellmann(n: int) -> list[np.ndarray]:
    """Orthonormal basis of su(N) with tr[t_i t_j] = 2 d_ij.

    Elements are ordered shell by shell (k = 2..N): the symmetric and
    antisymmetric off-diagonal pairs coupling levels (j, k) for j < k,
    followed by the k-th diagonal generator.  For n = 2 this reproduces
    ``pauli_basis`` and for n = 3 ``gellmann_basis``, element for element.
    """
    if n < 2:
        raise InvalidDimensionError(f"dimension must be >= 2, got {n}")
    out: list[np.ndarray] = []
    for k in range(1, n):  # zero-based shell index: level k couples to 0..k-1
        for j in range(k):
            sym = np.zeros((n, n), dtype=complex)
            sym[j, k] = 1.0
            sym[k, j] = 1.0
            out.append(sym)
            asym = np.zeros((n, n), dtype=complex)
            asym[j, k] = -1j
            asym[k, j] = 1j
            out.append(asym)
        diag = np.zeros((n, n), dtype=complex)
        diag[np.arange(k), np.arange(k)] = 1.0
        diag[k, k] = -k
        out.append(diag * np.sqrt(2.0 / (k * (k + 1))))
    return out


def inner(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product (1/2) Re tr[A B]; positive definite on Hermitian operators."""
    require_same_dim(a, b)
    return 0.5 * float(np.trace(a @ b).real)


def hs_norm(a: np.ndarray) -> float:
    """Norm induced by :func:`inner`."""
    return float(np.sqrt(max(inner(a, a), 0.0)))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hermitian-valued commutator -i[A, B]."""
    require_same_dim(a, b)
    return -1j * (a @ b - b @ a)


def expand(a: np.ndarray, basis: list[np.ndarray]) -> np.ndarray:
    """Coefficients of a traceless Hermitian operator in an orthonormal basis.

    A stack (..., N, N) of operators gives one row of coefficients each.
    """
    if basis and a.shape[-2:] != basis[0].shape:
        raise DimensionMismatchError(
            f"operator dim {a.shape} does not match basis dim {basis[0].shape}")
    products = a[..., None, :, :] @ np.stack(basis)
    return 0.5 * np.trace(products, axis1=-2, axis2=-1).real


def reconstruct(coeffs: np.ndarray, basis: list[np.ndarray]) -> np.ndarray:
    """Inverse of :func:`expand`: sum_j c_j t_j (of each row, for a stack)."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape[-1:] != (len(basis),):
        raise DimensionMismatchError(
            f"{coeffs.shape[-1]} coefficients for a basis of {len(basis)} elements")
    return np.einsum("...j,jab->...ab", coeffs, np.stack(basis))


def _complement(rows: np.ndarray) -> np.ndarray:
    """Orthonormal rows Q spanning the complement of span(rows), for rows
    (k, d) of :func:`expand` coefficients: the one span test.  A row of norm
    <= 1e-14 spans nothing and a singular value <= 1e-9 of the largest counts
    as zero; with no row left Q is the identity.  The part of v off the span
    is (Q @ v) @ Q, and the rank is d - len(Q)."""
    rows = np.asarray(rows, dtype=float)
    rows = rows[np.linalg.norm(rows, axis=1) > 1e-14]
    if not len(rows):
        return np.eye(rows.shape[1])
    _, s, vt = np.linalg.svd(rows)
    return vt[int(np.sum(s > 1e-9 * s[0])):]


def exp_op(a: np.ndarray, s: float | np.ndarray = 1.0) -> np.ndarray:
    """exp(-i s A) for Hermitian A.

    The result is unitary to machine precision; for traceless A it lies in
    SU(N) exactly up to rounding.  An array of times ``s`` gives the stack
    of exp(-i s_k A), shape ``s.shape + (N, N)``, from one decomposition.
    A generator stack A of shape (K, N, N) with times of shape (K,) gives
    the stack of exp(-i s_k A_k).

    Three forms, chosen from the shape of A and the norm of each step:

    * N = 2, every shape: Cayley-Hamilton gives the closed form
      e^{-i s a} [cos(s r) I - i (sin(s r) / r) H] with a = tr A / 2,
      H = A - a I and r^2 = (1/2) tr H^2 (a zero generator gives exactly I).
    * N >= 3, a generator stack: each member with ||s_k A_k||_1 <= theta_3
      takes the degree-6 Taylor polynomial (:func:`_exp_stack`), exact to
      unit roundoff there; a member above theta_3 takes the
      eigendecomposition.  The choice is made per member, so every member's
      result is independent of the rest of the stack.  The time steps of
      :func:`toqc.dynamics.evolve_unitary` and of the coupled-flow march
      take this form.
    * N >= 3, one generator (with one time or many): one eigendecomposition
      for all times.  The navigation scan and root, the closed-form
      navigation flow and the callers of :func:`log_op` take this form.
    """
    if a.shape[-1] == 2:
        return _exp_su2(a, np.asarray(s, dtype=float))
    if a.ndim == 3:
        return _exp_stack(a, np.broadcast_to(np.asarray(s, dtype=float), a.shape[:1]))
    return _exp_eigh(a, s)


# Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005), table 2.3 (theta_3):
# below this 1-norm of X the remainder of the degree-6 Taylor polynomial of
# e^X is at most theta^7 / 7! ~ 3.3e-17, under unit roundoff
_TAYLOR_THETA = 1.495585217958292e-2


def _exp_stack(a: np.ndarray, s: np.ndarray) -> np.ndarray:
    """:func:`exp_op` of a generator stack (K, N, N) with times (K,).

    With X = -i s_k A_k, the degree-6 Taylor polynomial in Paterson-Stockmeyer
    form, T_6(X) = (I + X + X^2/2) + X^3 (I/6 + X/24 + X^2/120 + X^3/720)
    (Bader, Blanes and Casas, Mathematics 7, 1174 (2019)): three
    :func:`stack_product` calls and no solve, summed from the small terms up.
    Below theta_3 it is e^X, and so unitary, to unit roundoff.  Members above
    ``_TAYLOR_THETA`` take :func:`_exp_eigh`; the rest go through in chunks
    of ``_STACK_CHUNK`` written into one output.
    """
    n = a.shape[-1]
    out = np.empty(a.shape, dtype=complex)
    fits = np.abs(s) * np.max(np.sum(np.abs(a), axis=-2), axis=-1) <= _TAYLOR_THETA
    large, small = np.flatnonzero(~fits), np.flatnonzero(fits)
    if large.size:
        out[large] = _exp_eigh(a[large], s[large])
    eye = np.eye(n)
    for start in range(0, small.size, _STACK_CHUNK):
        rows = small[start:start + _STACK_CHUNK]
        x = (-1j * s[rows])[:, None, None] * a[rows]
        x2 = stack_product(x, x)
        x3 = stack_product(x2, x)
        tail = stack_product(x3, eye / 6.0 + x / 24.0 + x2 / 120.0 + x3 / 720.0)
        tail += 0.5 * x2
        tail += x
        out[rows] = tail + eye
    return out


def _exp_eigh(a: np.ndarray, s: float | np.ndarray) -> np.ndarray:
    """:func:`exp_op` through the batched eigendecomposition, for any N."""
    w, v = np.linalg.eigh(a)
    phases = np.exp((-1j * np.asarray(s, dtype=float))[..., None] * w)
    scaled = v * phases[..., None, :]
    # conjugated in place: one stack-sized temporary fewer (peak memory)
    return scaled @ np.swapaxes(np.conjugate(v, out=v), -1, -2)


def _exp_su2(a: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The N = 2 closed form of :func:`exp_op`; the trace part is a phase."""
    # C order, so that the reshapes below are views of the arrays they edit
    a = np.ascontiguousarray(a, dtype=complex)
    trace = a[..., 0, 0] + a[..., 1, 1]
    has_trace = np.count_nonzero(trace) > 0
    if has_trace:
        trace = 0.5 * trace.real
        a = a - trace[..., None, None] * np.eye(2)
    flat = a.reshape(-1, 4).view(float)
    r = np.sqrt(0.5 * np.einsum("bi,bi->b", flat, flat)).reshape(trace.shape)
    x = s * r
    out = a * np.asarray(-1j * np.sin(x) / np.maximum(r, _TINY))[..., None, None]
    out.reshape(-1, 4)[:, ::3] += np.cos(x).reshape(-1, 1)
    if has_trace:
        out *= np.asarray(np.exp(-1j * (s * trace)))[..., None, None]
    return out


def _remove_periods(phases: np.ndarray) -> np.ndarray:
    """Make each row of principal eigenphases sum to zero.

    Since det U = 1 the phases in (-pi, pi] sum to a multiple k of 2*pi; k
    whole periods are removed from the k largest phases (k > 0) or added to
    the |k| smallest (k < 0), the shift that costs the least Hilbert-Schmidt
    norm.
    """
    n = phases.shape[-1]
    rank = np.argsort(np.argsort(phases, axis=-1), axis=-1)
    k = np.rint(np.sum(phases, axis=-1) / (2.0 * np.pi)).astype(int)[..., None]
    return phases - 2.0 * np.pi * ((k > 0) & (rank >= n - k)) \
        + 2.0 * np.pi * ((k < 0) & (rank < -k))


def _branch_cut_hit(eigvals: np.ndarray) -> np.ndarray:
    return np.min(np.abs(eigvals + 1.0), axis=-1) < DEFAULT_TOL.branch_cut


def log_op(u: np.ndarray) -> np.ndarray:
    """Principal traceless Hermitian L with exp(-i L) = U.

    Eigenphases are taken in (-pi, pi], and the whole periods their sum
    picks up are removed as in :func:`_remove_periods`.

    Raises
    ------
    BranchAmbiguityError
        if any eigenvalue of U lies within ``DEFAULT_TOL.branch_cut`` of -1,
        or U is not unitary to ``DEFAULT_TOL.unitary`` (:func:`is_unitary`).
    """
    if not is_unitary(u):
        raise BranchAmbiguityError(f"matrix is not unitary to {DEFAULT_TOL.unitary:g}")
    import scipy.linalg   # deferred: only logarithms pay for scipy's import
    # Complex Schur form: for a (normal) unitary matrix T is diagonal and Z
    # unitary, which is what makes the reassembled logarithm exactly Hermitian.
    t, z = scipy.linalg.schur(u, output="complex")
    eigvals = np.diag(t)
    if _branch_cut_hit(eigvals):
        raise BranchAmbiguityError(
            "eigenvalue within tolerance of -1: principal logarithm branch is "
            "ambiguous; perturb the operator or choose a branch explicitly")
    phases = _remove_periods(-np.angle(eigvals))
    l = (z * phases) @ dagger(z)
    return 0.5 * (l + dagger(l))


def log_norms(u: np.ndarray) -> np.ndarray:
    """``hs_norm(log_op(U))`` for every matrix of a (K, N, N) stack.

    The eigenphases of all K matrices come from one batched call.  An entry
    is NaN where :func:`log_op` would refuse the logarithm: an eigenvalue
    within ``DEFAULT_TOL.branch_cut`` of -1, or U not unitary to
    ``DEFAULT_TOL.unitary``.
    """
    eigvals = np.linalg.eigvals(u)
    phases = _remove_periods(-np.angle(eigvals))
    norms = np.sqrt(0.5 * np.sum(phases ** 2, axis=-1))
    refused = ~is_unitary(u) | _branch_cut_hit(eigvals)
    return np.where(refused, np.nan, norms)


def random_traceless_hermitian(rng: np.random.Generator, n: int,
                               scale: float = 1.0) -> np.ndarray:
    """Gaussian random traceless Hermitian matrix (GUE-style)."""
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return traceless(0.5 * (x + dagger(x))) * scale


def random_special_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish random SU(N) element via exp of a random generator.

    The exponential is the eigendecomposition one for every N, so a seed
    gives the same draws bit for bit whichever form :func:`exp_op` takes
    (seeded test and benchmark targets are built from them).
    """
    return _exp_eigh(random_traceless_hermitian(rng, n), 1.0)
