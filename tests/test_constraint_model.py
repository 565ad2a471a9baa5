import numpy as np
import pytest

from toqc import constraint_model as cm
from toqc.errors import DimensionMismatchError, ValidationError
from toqc.scenarios import triplet_operators
from toqc.sun_algebra import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    exp_op,
    gellmann_basis,
    generalized_gellmann,
    hs_norm,
    inner,
    random_traceless_hermitian,
)

RNG = np.random.default_rng(11)


def lz_constraint(omega0=1.0, bound=2.0):
    return cm.ConstraintSet(2, omega0 * SIGMA_Z, (SIGMA_X,),
                            cm.Box(np.array([-bound]), np.array([bound])))


def xy_constraint(omega0=0.3, bound=1.0):
    return cm.ConstraintSet(2, omega0 * SIGMA_Z, (SIGMA_X, SIGMA_Y),
                            cm.Typical(bound))


def ex3_constraint(omega0=1.0, bound=2.0):
    ops = triplet_operators()
    return cm.ConstraintSet(
        3, omega0 * ops["Sigma_x_tilde"],
        (ops["S1"], ops["S2"], ops["S3"], ops["Sigma_z_tilde"]),
        cm.BallInCoords(bound, np.eye(4)),
        control_names=("b1", "b2", "b3", "J"))


# --- classification ----------------------------------------------------------

def test_classify_landau_zener():
    rep = cm.classify(lz_constraint())
    assert rep.type_label == "lotus_leaf"
    assert rep.planar and not rep.typical
    assert not rep.drift_in_bracket


def test_classify_one_qubit_xy():
    rep = cm.classify(xy_constraint())
    assert rep.type_label == "lotus_leaf"
    assert rep.typical
    assert rep.drift_in_bracket  # [sx, sy] spans sz


def test_classify_zero_drift_is_lollipop():
    c = cm.ConstraintSet(2, np.zeros((2, 2), complex), (SIGMA_X,),
                         cm.Box(np.array([-1.0]), np.array([1.0])))
    assert cm.classify(c).type_label == "lollipop"


def test_classify_invariant_under_control_basis_rotation():
    base = xy_constraint()
    rep0 = cm.classify(base)
    for _ in range(10):
        theta = RNG.uniform(0, 2 * np.pi)
        b1 = np.cos(theta) * SIGMA_X + np.sin(theta) * SIGMA_Y
        b2 = -np.sin(theta) * SIGMA_X + np.cos(theta) * SIGMA_Y
        rot = cm.ConstraintSet(2, base.drift, (b1, b2), cm.Typical(1.0))
        rep = cm.classify(rot)
        assert rep == rep0


# --- maximizer ---------------------------------------------------------------

def test_maximizer_singular_when_costate_orthogonal():
    assert cm.maximizer(SIGMA_Z, lz_constraint()).singular
    assert cm.is_singular(SIGMA_Z, lz_constraint())
    assert not cm.is_singular(SIGMA_X, lz_constraint())


def test_maximizer_typical_direction_and_saturation():
    c = xy_constraint(omega0=0.3, bound=1.0)
    r = cm.maximizer(SIGMA_X + SIGMA_Z, c)
    assert not r.singular
    np.testing.assert_allclose(r.hamiltonian, 0.3 * SIGMA_Z + SIGMA_X, atol=1e-12)
    hc = r.hamiltonian - c.drift
    assert abs(0.5 * np.trace(hc @ hc).real - 1.0) < 1e-10


def test_maximizer_box_bang_rule():
    c = lz_constraint(bound=2.0)
    r = cm.maximizer(0.7 * SIGMA_X, c)
    assert r.controls[0] == pytest.approx(2.0)
    r = cm.maximizer(-0.7 * SIGMA_X + SIGMA_Z, c)
    assert r.controls[0] == pytest.approx(-2.0)


def test_maximizer_box_partial_singular_flag():
    c = cm.ConstraintSet(2, 0.5 * SIGMA_Z, (SIGMA_X, SIGMA_Y),
                         cm.Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0])))
    r = cm.maximizer(0.5 * SIGMA_X, c)  # no sigma-y component
    assert not r.singular
    assert r.partially_singular == (1,)
    assert r.controls[1] == 0.0


def test_maximizer_ball_saturates_bound():
    c = ex3_constraint()
    f = 0.4 * c.control_basis[0] + 0.1 * c.control_basis[3] + 0.2 * c.drift
    r = cm.maximizer(f, c)
    u = r.controls
    assert abs(u @ u - c.kind.radius ** 2) < 1e-10


def test_maximizer_ball_metric_direction():
    # with a non-unit metric the maximizer follows the metric gradient
    ops = triplet_operators()
    metric = np.diag([1.0, 1.0, 1.0, 8.0 / 3.0])
    c = cm.ConstraintSet(3, ops["Sigma_x_tilde"],
                         (ops["S1"], ops["S2"], ops["S3"], ops["Sigma_z_tilde"]),
                         cm.BallInCoords(2.0, metric))
    f = ops["Sigma_z_tilde"]
    r = cm.maximizer(f, c)
    g = np.array([np.trace(b @ f).real for b in c.control_basis])
    expected = np.linalg.solve(metric, g)
    expected *= 2.0 / np.sqrt(g @ np.linalg.solve(metric, g))
    np.testing.assert_allclose(r.controls, expected, atol=1e-12)


def _near_orthonormal_frame(frame, rng, size):
    # an accepted Typical frame: orthonormal to within the Gram bar, not to
    # rounding
    return tuple(b + size * random_traceless_hermitian(rng, len(b)) for b in frame)


def test_typical_maximizer_controls_are_admissible_frame_coefficients():
    # Gram within 2.3e-11 of I; coefficients on the orthonormalized span,
    # read on this frame, leave the ball by more than 1e-10
    rng = np.random.default_rng(7)
    frame = _near_orthonormal_frame((SIGMA_X, SIGMA_Y, SIGMA_Z), rng, 2.4e-11)
    c = cm.ConstraintSet(2, 0.3 * SIGMA_Z, frame, cm.Typical(10.0))
    for _ in range(64):
        r = cm.maximizer(random_traceless_hermitian(rng, 2), c)
        assert c.bound_violation(r.controls) <= 1e-14
        assert np.max(np.abs(c.hamiltonian(r.controls) - r.hamiltonian)) <= 1e-14


def test_typical_is_the_gram_metric_ball():
    rng = np.random.default_rng(9)
    basis = np.stack(generalized_gellmann(3))
    q = np.linalg.qr(rng.standard_normal((len(basis), 4)))[0]
    frame = _near_orthonormal_frame(np.einsum("aj,abc->jbc", q, basis), rng, 1e-11)
    gram = np.array([[inner(a, b) for b in frame] for a in frame])
    drift = random_traceless_hermitian(rng, 3)
    typical = cm.ConstraintSet(3, drift, frame, cm.Typical(1.5))
    ball = cm.ConstraintSet(3, drift, frame, cm.BallInCoords(1.5, gram))
    for _ in range(32):
        f = random_traceless_hermitian(rng, 3)
        rt, rb = cm.maximizer(f, typical), cm.maximizer(f, ball)
        assert not rt.singular and not rb.singular
        np.testing.assert_allclose(rt.controls, rb.controls, rtol=0, atol=1e-14)
        np.testing.assert_allclose(rt.hamiltonian, rb.hamiltonian, rtol=0, atol=1e-14)


def test_maximizer_dominates_random_admissible_points():
    c = xy_constraint()
    rng = np.random.default_rng(5)
    for _ in range(10):
        f = rng.standard_normal() * SIGMA_X + rng.standard_normal() * SIGMA_Y \
            + rng.standard_normal() * SIGMA_Z
        r = cm.maximizer(f, c)
        if r.singular:
            continue
        best = cm.pontryagin_h(r.hamiltonian, f)
        for _ in range(200):
            w = rng.standard_normal(2)
            w *= rng.uniform() / np.linalg.norm(w)
            k = c.drift + w[0] * SIGMA_X + w[1] * SIGMA_Y
            assert cm.pontryagin_h(k, f) <= best + 1e-10


def test_is_singular_examples():
    c = xy_constraint()
    assert cm.is_singular(SIGMA_Z, c)
    # two-qubit triplet sector: singular structure of the costate coefficients
    gm = gellmann_basis()
    f = 0.2 * (gm[0] - gm[5]) + 0.3 * (gm[1] - gm[6]) + 0.7 * gm[3]
    assert cm.is_singular(f, ex3_constraint())
    assert not cm.is_singular(gm[0], ex3_constraint())


def test_is_singular_agrees_with_maximizer():
    # a short frame element: the projection of F is 1e-7, far above the
    # singular threshold, although its raw pairing with 1e-3 sigma_x is 1e-10
    c = cm.ConstraintSet(2, 0.3 * SIGMA_Z, (1e-3 * SIGMA_X,),
                         cm.Box(np.array([-1.0]), np.array([1.0])))
    f = 1e-7 * SIGMA_X + SIGMA_Y
    assert not cm.is_singular(f, c)
    assert not cm.maximizer(f, c).singular
    # random scaled frames, costates with a projection around the threshold
    rng = np.random.default_rng(23)
    for _ in range(300):
        n = int(rng.integers(2, 4))
        l = int(rng.integers(1, 4))
        frame = tuple(random_traceless_hermitian(rng, n) * 10 ** rng.uniform(-4, 1)
                      for _ in range(l))
        basis = np.stack(generalized_gellmann(n))
        q = np.linalg.qr(rng.standard_normal((len(basis), l)))[0]
        drift = random_traceless_hermitian(rng, n)
        for c in (cm.ConstraintSet(n, drift, frame, cm.Box(-np.ones(l), np.ones(l))),
                  cm.ConstraintSet(n, drift, frame, cm.BallInCoords(1.0, np.eye(l))),
                  cm.ConstraintSet(n, drift, tuple(np.einsum("aj,abc->jbc", q, basis)),
                                   cm.Typical(1.0))):
            g = random_traceless_hermitian(rng, n)
            p = c.project_control(g)
            f = g - p + 10 ** rng.uniform(-11, -7) * p / hs_norm(p)
            assert cm.is_singular(f, c) == cm.maximizer(f, c).singular


def test_singular_test_on_a_linearly_dependent_frame():
    # two controls on one axis: the Gram matrix is singular, and ||P F|| is
    # read through its pseudo-inverse
    c = cm.ConstraintSet(2, 0.3 * SIGMA_Z, (SIGMA_X, 2.0 * SIGMA_X),
                         cm.Box(-np.ones(2), np.ones(2)))
    assert not cm.is_singular(1e-8 * SIGMA_X + SIGMA_Y, c)
    assert cm.is_singular(1e-10 * SIGMA_X + SIGMA_Y, c)
    r = cm.maximizer(SIGMA_X + SIGMA_Z, c)
    np.testing.assert_array_equal(r.controls, [1.0, 1.0])
    np.testing.assert_allclose(r.hamiltonian, 0.3 * SIGMA_Z + 3.0 * SIGMA_X,
                               rtol=0, atol=1e-15)


def test_pontryagin_values():
    assert cm.pontryagin_h(SIGMA_Z, SIGMA_Z / 2) == pytest.approx(0.0)
    z = np.zeros((2, 2), complex)
    assert cm.pontryagin_h(z, z) == pytest.approx(-1.0)


# --- validation ---------------------------------------------------------------

def test_typical_requires_orthonormal_frame():
    with pytest.raises(ValidationError):
        cm.ConstraintSet(2, 0.3 * SIGMA_Z, (SIGMA_X, SIGMA_X + SIGMA_Y),
                         cm.Typical(1.0))


def test_ball_requires_spd_metric():
    with pytest.raises(ValidationError):
        cm.ConstraintSet(2, 0.3 * SIGMA_Z, (SIGMA_X, SIGMA_Y),
                         cm.BallInCoords(1.0, np.diag([1.0, -1.0])))


def test_box_bounds_must_be_ordered():
    with pytest.raises(ValidationError):
        cm.ConstraintSet(2, 0.3 * SIGMA_Z, (SIGMA_X,),
                         cm.Box(np.array([1.0]), np.array([-1.0])))


@pytest.mark.parametrize("kind", [
    cm.Typical(np.nan),
    cm.Typical(np.inf),
    cm.Box(np.array([np.nan]), np.array([np.nan])),
    cm.Box(np.array([-np.inf]), np.array([1.0])),
    cm.Box(np.array([-1.0]), np.array([np.inf])),
    cm.BallInCoords(np.nan, np.eye(1)),
    cm.BallInCoords(np.inf, np.eye(1)),
    cm.BallInCoords(1.0, np.array([[np.nan]])),
    cm.BallInCoords(1.0, np.array([[np.inf]])),
], ids=["typical-nan", "typical-inf", "box-nan", "box-lo-inf", "box-hi-inf",
        "ball-radius-nan", "ball-radius-inf", "ball-metric-nan",
        "ball-metric-inf"])
def test_constraint_rejects_non_finite_bounds(kind):
    # NaN fails every ordering check silently: a NaN box gave a NaN
    # bound_violation (so any control passed) and a NaN omega NaN controls
    with pytest.raises(ValidationError, match="finite"):
        cm.ConstraintSet(2, 0.3 * SIGMA_Z, (SIGMA_X,), kind)



@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_constraint_rejects_non_finite_operators(bad):
    # a NaN entry fails the Hermitian and trace comparisons silently, so a
    # NaN drift or control used to be accepted
    drift = 0.3 * SIGMA_Z.copy()
    drift[0, 0] = bad
    with pytest.raises(DimensionMismatchError, match="non-finite"):
        cm.ConstraintSet(2, drift, (SIGMA_X,), cm.Typical(1.0))
    control = SIGMA_X.copy()
    control[0, 1] = control[1, 0] = bad
    with pytest.raises(DimensionMismatchError, match="non-finite"):
        cm.ConstraintSet(2, 0.3 * SIGMA_Z, (control,), cm.Typical(1.0))

def test_maximizer_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        cm.maximizer(np.zeros((3, 3), complex), lz_constraint())


# --- bound violation ------------------------------------------------------------

@pytest.mark.parametrize("make", [lz_constraint, xy_constraint, ex3_constraint])
def test_bound_violation_stack_equals_rows(make):
    c = make()
    u = RNG.normal(scale=2.0, size=(200, c.n_controls))
    stacked = c.bound_violation(u)
    assert stacked.shape == (200,)
    assert np.any(stacked > 0) and np.any(stacked == 0)
    np.testing.assert_allclose(stacked, [c.bound_violation(row) for row in u],
                               rtol=0, atol=1e-14)


# --- Hamiltonian stacks ------------------------------------------------------------

@pytest.mark.parametrize("make", [lz_constraint, xy_constraint, ex3_constraint])
def test_hamiltonian_matches_einsum_reference(make):
    c = make()
    frame = np.stack(c.control_basis)
    for shape in [(c.n_controls,), (300, c.n_controls), (4, 7, c.n_controls)]:
        u = RNG.normal(scale=0.5, size=shape)
        h = c.hamiltonian(u)
        assert h.shape == shape[:-1] + (c.dim, c.dim)
        np.testing.assert_allclose(
            h, c.drift + np.einsum("...j,jab->...ab", u, frame),
            rtol=0, atol=1e-15)
