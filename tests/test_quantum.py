"""State-vector core: construction, brackets, evolution, measurement, POVM."""

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qkdsim import (
    Basis,
    Ket2,
    Ket4,
    PovmOutcome,
    PovmSet,
    Rng,
    apply_unitary,
    build_povm,
    expectation,
    inner,
    measure_povm,
    measure_projective,
    polarization,
    povm_probabilities,
    quad_form,
    rotation,
    states_equal,
    uncertainty_product,
)
from qkdsim.errors import (
    BadBasis,
    DimensionMismatch,
    NotHermitian,
    NotUnitary,
    ThetaOutOfRange,
    ZeroVector,
)
from util import eig_bounds_2x2, rand_hermitian, rand_ket

VERTICAL = Ket2(1, 0)
HORIZONTAL = Ket2(0, 1)
DIAG = Ket2(1, 1)


class TestKetConstruction:
    def test_basis_state_passthrough(self):
        k = Ket2(1, 0)
        assert k.a0 == 1 and k.a1 == 0

    def test_scalar_multiple_same_state(self):
        k = Ket2(2, 0)
        assert k.a0 == pytest.approx(1) and k.a1 == 0

    def test_equal_weights_normalize(self):
        k = Ket2(1, 1)
        assert k.a0 == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        assert k.a1 == pytest.approx(1 / math.sqrt(2), abs=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            Ket2(0, 0)
        with pytest.raises(ZeroVector):
            Ket2(1e-13, 0)  # squared norm below 1e-24
        with pytest.raises(ZeroVector):
            Ket4(0, 0, 0, 0)

    def test_norms_are_unit(self):
        rng = Rng(40)
        for _ in range(500):
            assert abs(rand_ket(rng).norm() - 1.0) < 1e-12

    def test_non_finite_norm_rejected(self):
        # 1e200 squared overflows to inf, and scaling by 1/sqrt(inf) gives the zero vector.
        for amps in ((1e200, 1e200), (math.nan, 0), (math.inf, 0), (0, complex(0, math.inf))):
            with pytest.raises(ValueError, match="not finite"):
                Ket2(*amps)
        with pytest.raises(ValueError, match="not finite"):
            Ket4(1e200, 0, 0, 1e200)
        with pytest.raises(ValueError, match="not finite"):
            Ket4(0, 0, math.nan, 1)


class TestInner:
    def test_orthonormal_basis(self):
        assert inner(VERTICAL, HORIZONTAL) == 0

    def test_code_state_overlap_at_pi_8(self):
        # Oracle: (cos t, sin t) . (cos t, -sin t) = cos^2 t - sin^2 t = cos 2t.
        t = math.pi / 8
        by_hand = math.cos(t) * math.cos(t) - math.sin(t) * math.sin(t)
        got = inner(polarization(t), polarization(-t))
        assert got.imag == 0
        assert got.real == pytest.approx(by_hand, abs=1e-15)
        assert got.real == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_conjugate_symmetry(self):
        rng = Rng(41)
        for _ in range(100):
            u, v = rand_ket(rng), rand_ket(rng)
            assert inner(u, v) == pytest.approx(inner(v, u).conjugate(), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            inner(VERTICAL, Ket4(1, 0, 0, 0))


class TestApplyUnitary:
    def test_identity(self):
        out = apply_unitary(np.eye(2), DIAG)
        assert states_equal(out, DIAG, tol=1e-14)

    def test_quarter_turn_maps_vertical_to_horizontal(self):
        # Oracle: rotation matrix [[cos, -sin], [sin, cos]] at phi = pi/2.
        out = apply_unitary(rotation(math.pi / 2), VERTICAL)
        assert abs(inner(out, HORIZONTAL)) == pytest.approx(1.0, abs=1e-12)

    def test_not_unitary_rejected(self):
        with pytest.raises(NotUnitary):
            apply_unitary(np.array([[2, 0], [0, 1]]), VERTICAL)

    def test_output_norm(self):
        rng = Rng(42)
        for _ in range(200):
            phi = rng.uniform() * math.tau
            out = apply_unitary(rotation(phi), rand_ket(rng))
            assert abs(out.norm() - 1.0) < 1e-12

    def test_four_dim(self):
        mat = np.kron(rotation(0.3), rotation(-0.7))
        with pytest.raises(DimensionMismatch):
            apply_unitary(mat, VERTICAL)

    def test_nan_matrix_rejected(self):
        with pytest.raises(NotUnitary):
            apply_unitary(rotation(math.nan), VERTICAL)

    def test_infinite_matrix_rejected_without_warning(self):
        # inf - inf would be NaN with a RuntimeWarning; the check must not get that far.
        with pytest.raises(NotUnitary, match="by inf"):
            apply_unitary(np.array([[math.inf, 0], [0, 1]]), VERTICAL)


class TestMeasureProjective:
    def test_eigenstate_is_certain(self):
        rng = Rng(43)
        for _ in range(200):
            bit, collapsed = measure_projective(VERTICAL, (HORIZONTAL, VERTICAL), rng)
            assert bit == 1 and collapsed is VERTICAL

    def test_diagonal_in_vh_basis_is_even(self):
        # Oracle: |cos 45|^2 = 1/2 exactly.
        rng = Rng(44)
        n = 100_000
        ones = sum(measure_projective(DIAG, (HORIZONTAL, VERTICAL), rng)[0] for _ in range(n))
        assert abs(ones / n - 0.5) < 0.01

    def test_vertical_in_oblique_basis_is_even(self):
        rng = Rng(45)
        basis = (Ket2(1, -1), Ket2(1, 1))
        n = 100_000
        ones = sum(measure_projective(VERTICAL, basis, rng)[0] for _ in range(n))
        assert abs(ones / n - 0.5) < 0.01

    def test_bad_basis(self):
        with pytest.raises(BadBasis):
            measure_projective(VERTICAL, (VERTICAL, DIAG), Rng(0))

    def test_bad_basis_is_checked_before_the_state(self):
        with pytest.raises(BadBasis):
            measure_projective(Ket4(1, 0, 0, 0), (VERTICAL, DIAG), Rng(0))

    @pytest.mark.parametrize("basis", [(HORIZONTAL, VERTICAL), Basis(HORIZONTAL, VERTICAL)], ids=["tuple", "Basis"])
    def test_non_qubit_state_is_refused(self, basis):
        with pytest.raises(DimensionMismatch):
            measure_projective(Ket4(1, 0, 0, 0), basis, Rng(0))

    def test_frequencies_match_born_rule(self):
        # 3-sigma binomial band around |<b|s>|^2 for an arbitrary state.
        rng = Rng(46)
        state = rand_ket(Rng(999))
        p1 = abs(inner(VERTICAL, state)) ** 2
        n = 100_000
        ones = sum(measure_projective(state, (HORIZONTAL, VERTICAL), rng)[0] for _ in range(n))
        sigma = math.sqrt(p1 * (1 - p1) / n)
        assert abs(ones / n - p1) < 3 * sigma + 1e-9

    def test_determinism(self):
        rng_a, rng_b = Rng(123), Rng(123)
        a = [measure_projective(DIAG, (HORIZONTAL, VERTICAL), rng_a)[0] for _ in range(2000)]
        b = [measure_projective(DIAG, (HORIZONTAL, VERTICAL), rng_b)[0] for _ in range(2000)]
        assert a == b


class TestBasis:
    def test_is_the_pair(self):
        basis = Basis(HORIZONTAL, VERTICAL)
        assert basis == (HORIZONTAL, VERTICAL)
        assert basis[1] is VERTICAL

    def test_survives_copy_and_pickle(self):
        basis = Basis(DIAG.orthogonal(), DIAG)
        for twin in (copy.deepcopy(basis), pickle.loads(pickle.dumps(basis))):
            assert type(twin) is Basis
            assert [(k.a0, k.a1) for k in twin] == [(k.a0, k.a1) for k in basis]

    def test_non_orthogonal_pair_refused(self):
        with pytest.raises(BadBasis, match="not orthogonal"):
            Basis(VERTICAL, DIAG)

    @pytest.mark.parametrize(
        "pair",
        [(VERTICAL, Ket4(0, 1, 0, 0)), ((1, 0), (0, 1)), (HORIZONTAL, np.array([1, 0]))],
        ids=["ket4", "tuples", "array"],
    )
    def test_pair_that_is_not_ket2_refused(self, pair):
        with pytest.raises(BadBasis, match="pair of qubit states"):
            Basis(*pair)


class TestPovm:
    def test_theta_range(self):
        for bad in (0.0, math.pi / 4, -0.1, 1.0):
            with pytest.raises(ThetaOutOfRange):
                build_povm(bad)

    def test_unambiguous_annihilation(self):
        povm = build_povm(math.pi / 8)
        plus, minus = polarization(math.pi / 8), polarization(-math.pi / 8)
        assert quad_form(povm.a_minus, plus) == pytest.approx(0.0, abs=1e-12)
        assert quad_form(povm.a_plus, minus) == pytest.approx(0.0, abs=1e-12)

    def test_conclusive_rate_closed_form(self):
        # Oracle: evaluate the 2x2 elements numerically and compare with
        # 1 - cos 2t, the closed-form conclusive probability.
        t = math.pi / 8
        povm = build_povm(t)
        plus = polarization(t)
        v = plus.vec
        numeric = float((v.conj() @ (povm.a_plus @ v)).real)
        assert numeric == pytest.approx(1 - math.cos(2 * t), abs=1e-12)
        assert numeric == pytest.approx(1 - 1 / math.sqrt(2), abs=1e-12)
        assert numeric == pytest.approx(0.29289321881345254, abs=1e-12)

    def test_elements_sum_to_identity(self):
        povm = build_povm(math.pi / 8)
        total = povm.a_plus + povm.a_minus + povm.a_inconclusive
        assert np.max(np.abs(total - np.eye(2))) < 1e-10

    def test_validity_sweep(self):
        # Completeness, Hermiticity, positivity across the allowed range.
        lo, hi = 0.01, math.pi / 4 - 0.01
        for i in range(50):
            theta = lo + (hi - lo) * i / 49
            povm = build_povm(theta)
            total = povm.a_plus + povm.a_minus + povm.a_inconclusive
            assert np.max(np.abs(total - np.eye(2))) < 1e-10
            for el in povm.elements():
                assert np.max(np.abs(el - el.conj().T)) < 1e-10
                assert float(np.trace(el).real) > -1e-10
                assert float(np.linalg.det(el).real) > -1e-10

    def test_elements_are_read_only(self):
        # The set reads its entries once; a write would leave them stale.
        povm = build_povm(math.pi / 8)
        for el in (povm.a_plus, povm.a_minus, povm.a_inconclusive):
            with pytest.raises(ValueError):
                el[0, 0] = 0.0

    def test_caller_arrays_stay_writable(self):
        ref = build_povm(math.pi / 8)
        a, b, c = (np.array(el) for el in (ref.a_plus, ref.a_minus, ref.a_inconclusive))
        povm = PovmSet(a, b, c)
        assert a.flags.writeable and b.flags.writeable and c.flags.writeable
        a[0, 0] = 0.0
        assert povm_probabilities(DIAG, povm) == povm_probabilities(DIAG, ref)


_COS, _SIN = math.cos(math.pi / 8), math.sin(math.pi / 8)


@settings(max_examples=200, deadline=None)
@given(
    theta=st.floats(0.0, math.pi / 4, exclude_min=True, exclude_max=True),
    amps=st.tuples(*[st.floats(-1.0, 1.0)] * 4),
    seed=st.integers(0, 2**32 - 1),
    offset=st.integers(0, 50),
)
# The two B92 code states at the talk's pi/8.
@example(theta=math.pi / 8, amps=(_COS, 0.0, _SIN, 0.0), seed=8, offset=0)
@example(theta=math.pi / 8, amps=(_COS, 0.0, -_SIN, 0.0), seed=9, offset=3)
# Subnormal thetas, where an LU determinant of the elements divides by zero.
@example(theta=1e-309, amps=(1.0, 0.0, 0.0, 0.0), seed=10, offset=0)
@example(theta=2.2250738585072014e-308, amps=(0.0, 0.0, 1.0, 0.0), seed=11, offset=1)
def test_povm_readout_matches_quad_form_oracle(theta, amps, seed, offset):
    re0, im0, re1, im1 = amps
    assume(re0 * re0 + im0 * im0 + re1 * re1 + im1 * im1 > 1e-12)
    state = Ket2(complex(re0, im0), complex(re1, im1))
    povm = build_povm(theta)
    oracle = tuple(quad_form(el, state) for el in povm.elements())
    assert povm_probabilities(state, povm) == oracle
    rng, twin = Rng(seed), Rng(seed)
    for _ in range(offset):
        rng.uniform()
        twin.uniform()
    assert measure_povm(state, povm, rng) is PovmOutcome(twin.pick_weighted(oracle))
    assert rng.uniform() == twin.uniform()


class TestMeasurePovm:
    def test_nan_element_rejected(self):
        ref = build_povm(math.pi / 8)
        bad = np.array(ref.a_inconclusive)
        bad[1, 1] = math.nan
        povm = PovmSet(ref.a_plus, ref.a_minus, bad)
        with pytest.raises(NotHermitian):
            measure_povm(DIAG, povm, Rng(12))

    def test_forbidden_outcome_never_fires(self):
        povm = build_povm(math.pi / 8)
        minus = polarization(-math.pi / 8)
        rng = Rng(47)
        outcomes = [measure_povm(minus, povm, rng) for _ in range(100_000)]
        assert PovmOutcome.ONE not in outcomes

    def test_plus_state_rates(self):
        povm = build_povm(math.pi / 8)
        plus = polarization(math.pi / 8)
        rng = Rng(48)
        n = 100_000
        outcomes = [measure_povm(plus, povm, rng) for _ in range(n)]
        one_rate = outcomes.count(PovmOutcome.ONE) / n
        inc_rate = outcomes.count(PovmOutcome.INCONCLUSIVE) / n
        assert abs(one_rate - 0.293) < 0.01
        assert abs(inc_rate - 0.707) < 0.01

    def test_arbitrary_state_matches_quadratic_forms(self):
        povm = build_povm(math.pi / 8)
        state = VERTICAL
        expected = povm_probabilities(state, povm)
        assert sum(expected) == pytest.approx(1.0, abs=1e-10)
        rng = Rng(49)
        n = 100_000
        counts = [0, 0, 0]
        for _ in range(n):
            counts[int(measure_povm(state, povm, rng))] += 1
        for got, want in zip(counts, expected):
            assert abs(got / n - want) < 0.01


class TestExpectation:
    def test_eigenstate(self):
        assert expectation(np.diag([1, -1]), VERTICAL) == pytest.approx(1.0)

    def test_balanced_state(self):
        assert expectation(np.diag([1, -1]), DIAG) == pytest.approx(0.0, abs=1e-15)

    def test_not_hermitian(self):
        with pytest.raises(NotHermitian):
            expectation(np.array([[0, 1], [0, 0]]), VERTICAL)

    def test_nan_observable_rejected(self):
        with pytest.raises(NotHermitian):
            expectation(np.diag([1.0, math.nan]), VERTICAL)

    def test_infinite_observable_rejected_without_warning(self):
        with pytest.raises(NotHermitian, match="by inf"):
            expectation(np.diag([math.inf, 1.0]), VERTICAL)
        with pytest.raises(NotHermitian, match="by inf"):
            uncertainty_product(np.diag([math.inf, 1.0]), np.eye(2), VERTICAL)

    def test_within_eigenvalue_bracket(self):
        # Oracle: eigenvalues from the 2x2 characteristic polynomial.
        rng = Rng(54)
        for _ in range(300):
            obs = rand_hermitian(rng)
            lo, hi = eig_bounds_2x2(obs)
            val = expectation(obs, rand_ket(rng))
            assert lo - 1e-9 <= val <= hi + 1e-9


class TestUncertainty:
    def test_equal_observables(self):
        obs = rand_hermitian(Rng(55))
        lhs, rhs, holds = uncertainty_product(obs, obs, rand_ket(Rng(56)))
        assert rhs == pytest.approx(0.0, abs=1e-12)
        assert holds

    def test_hand_worked_flip_pair(self):
        # A = [[0,1],[1,0]], B = diag(1,-1), state (1,0):
        # <A>=0, <A^2>=1 so var_A = 1; B has the state as eigenvector so
        # var_B = 0; lhs = 0.  [A,B] = [[0,-2],[2,0]] has zero mean on
        # (1,0), so rhs = 0: the inequality holds with equality.
        flip = np.array([[0, 1], [1, 0]], dtype=complex)
        lhs, rhs, holds = uncertainty_product(flip, np.diag([1.0, -1.0]), VERTICAL)
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert rhs == pytest.approx(0.0, abs=1e-12)
        assert holds

    def test_random_pairs_hold(self):
        rng = Rng(57)
        for _ in range(1000):
            lhs, rhs, holds = uncertainty_product(
                rand_hermitian(rng), rand_hermitian(rng), rand_ket(rng)
            )
            assert holds, (lhs, rhs)

    def test_not_hermitian(self):
        with pytest.raises(NotHermitian):
            uncertainty_product(np.array([[0, 1], [0, 0]]), np.eye(2), VERTICAL)
