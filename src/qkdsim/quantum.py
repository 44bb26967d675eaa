"""Exact state-vector mechanics for one polarization qubit.

States are unit vectors over the complex numbers (:class:`Ket2`), and
operators are plain 2x2 complex numpy arrays.  Amplitudes are kept as
Python complex scalars so the per-pulse hot path (inner products,
Born-rule draws) avoids numpy call overhead; matrix-level operations go
through numpy.  The POVM follows the same rule: a :class:`PovmSet`
reads its element entries into Python complex scalars once, when it is
built, and each POVM readout works on those.

Every eavesdropper forwards a :class:`Ket2`, so the engine never builds
a joint carrier/probe state.  The only joint-state code left, :class:`Ket4`,
:func:`product_factors` and :func:`measure_povm_carrier`, is the entangling
tap's test oracle, and the benchmark's tracer wraps the last one by name.

Conventions
-----------
* Linear polarization at angle ``phi`` from the reference (vertical)
  axis is the real vector ``(cos phi, sin phi)``.  Vertical is ``(1, 0)``,
  horizontal ``(0, 1)``, the oblique states ``(1, +-1)/sqrt(2)``, and the
  B92 code pair ``(cos theta, +-sin theta)`` -- whose overlap is then the
  real, positive ``cos(2 theta)``.
* Measurement outcomes are selected by cumulative-probability inversion
  in a fixed order (bit 0 before bit 1; ZERO, ONE, INCONCLUSIVE), so
  equal seeds give identical outcome sequences.
* Tolerances: 1e-12 on state norms, 1e-10 on unitarity, Hermiticity and
  positivity.  Double precision on these tiny matrices is far better
  than either bound.  Checks read ``not defect <= TOL``, so NaN fails.

Where the checks run
--------------------
A check on a value that stays fixed for a session runs once, when the
value is built; a check on what changes per call runs on every call.

* :class:`Ket2` normalizes, and refuses a zero or non-finite pair, when
  it is built.
* :class:`Basis` checks that its pair is two orthogonal :class:`Ket2`
  when it is built.  :func:`measure_projective` trusts a ``Basis`` and
  checks any other pair on every call, as ``BadBasis``, before it checks
  that the measured state is a qubit (``DimensionMismatch``).
* :func:`build_povm` checks each element's Hermiticity and positivity,
  and the set's completeness, once.  :func:`measure_povm` checks on
  every readout that the state's probabilities sum to 1.
"""

import math
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .errors import (
    BadBasis,
    DimensionMismatch,
    NotHermitian,
    NotUnitary,
    ThetaOutOfRange,
    ZeroVector,
)

NORM_TOL = 1e-12
OPERATOR_TOL = 1e-10
_ZERO_NORM_SQ = 1e-24


class Ket2:
    """Unit state vector of a single qubit: amplitudes over basis states 0 and 1.

    Construction rescales the input to unit norm, so any nonzero, finite
    amplitude pair represents a valid state.
    """

    __slots__ = ("a0", "a1")

    def __init__(self, a0, a1):
        a0 = complex(a0)
        a1 = complex(a1)
        n2 = a0.real * a0.real + a0.imag * a0.imag + a1.real * a1.real + a1.imag * a1.imag
        if not n2 < math.inf:
            raise ValueError(f"squared norm of the amplitudes is not finite: {n2!r}")
        if n2 < _ZERO_NORM_SQ:
            raise ZeroVector("cannot normalize the zero vector")
        if n2 != 1.0:
            inv = 1.0 / math.sqrt(n2)
            a0 *= inv
            a1 *= inv
        self.a0 = a0
        self.a1 = a1

    @property
    def vec(self) -> np.ndarray:
        return np.array([self.a0, self.a1], dtype=complex)

    def norm(self) -> float:
        return math.sqrt(abs(self.a0) ** 2 + abs(self.a1) ** 2)

    def orthogonal(self) -> "Ket2":
        """The unique (up to phase) state orthogonal to this one."""
        return Ket2(-self.a1.conjugate(), self.a0.conjugate())

    def __repr__(self):
        return f"Ket2({self.a0:.6g}, {self.a1:.6g})"


class Ket4:
    """Unit state vector of a carrier qubit paired with a probe qubit.

    Amplitude index is ``2 * carrier_bit + probe_bit``.
    """

    __slots__ = ("c",)

    def __init__(self, c0, c1, c2, c3):
        c = (complex(c0), complex(c1), complex(c2), complex(c3))
        n2 = sum(z.real * z.real + z.imag * z.imag for z in c)
        if not n2 < math.inf:
            raise ValueError(f"squared norm of the amplitudes is not finite: {n2!r}")
        if n2 < _ZERO_NORM_SQ:
            raise ZeroVector("cannot normalize the zero vector")
        if n2 != 1.0:
            inv = 1.0 / math.sqrt(n2)
            c = tuple(z * inv for z in c)
        self.c = c

    def __repr__(self):
        return "Ket4(" + ", ".join(f"{z:.6g}" for z in self.c) + ")"


def polarization(angle: float) -> Ket2:
    """Linear-polarization state at ``angle`` radians from the reference axis."""
    return Ket2(math.cos(angle), math.sin(angle))


def inner(u, v) -> complex:
    """Bracket of two states, conjugate-linear in the first argument.

    Raises
    ------
    DimensionMismatch
        Unless both operands are qubit states.
    """
    if isinstance(u, Ket2) and isinstance(v, Ket2):
        return u.a0.conjugate() * v.a0 + u.a1.conjugate() * v.a1
    raise DimensionMismatch(f"cannot pair {type(u).__name__} with {type(v).__name__}")


def states_equal(u: Ket2, v: Ket2, tol: float = OPERATOR_TOL) -> bool:
    """True when two unit states coincide up to a global phase."""
    return abs(inner(u, v)) >= 1.0 - tol


def rotation(phi: float) -> np.ndarray:
    """Polarization rotation by ``phi`` radians (a real unitary)."""
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s], [s, c]], dtype=complex)


# A non-finite entry is an infinite defect, caught before arithmetic that would warn.
def _unitarity_defect(mat: np.ndarray) -> float:
    if not np.isfinite(mat).all():
        return math.inf
    eye = np.eye(mat.shape[0])
    return float(np.max(np.abs(mat.conj().T @ mat - eye)))


def _hermiticity_defect(mat: np.ndarray) -> float:
    if not np.isfinite(mat).all():
        return math.inf
    return float(np.max(np.abs(mat - mat.conj().T)))


def apply_unitary(mat: np.ndarray, state: Ket2) -> Ket2:
    """Evolve a qubit state by a 2x2 unitary matrix.

    Raises
    ------
    NotUnitary
        If ``mat`` fails the 1e-10 unitarity check.
    DimensionMismatch
        If ``state`` is not a qubit or ``mat`` is not 2x2.
    """
    if not isinstance(state, Ket2):
        raise DimensionMismatch(f"cannot evolve {type(state).__name__}")
    mat = np.asarray(mat, dtype=complex)
    if mat.shape != (2, 2):
        raise DimensionMismatch(f"matrix shape {mat.shape} does not act on a qubit")
    defect = _unitarity_defect(mat)
    if not defect <= OPERATOR_TOL:
        raise NotUnitary(f"matrix deviates from unitarity by {defect:.3e}")
    a0, a1 = state.a0, state.a1
    return Ket2(mat[0, 0] * a0 + mat[0, 1] * a1, mat[1, 0] * a0 + mat[1, 1] * a1)


def _check_basis(basis):
    b0, b1 = basis
    if not (isinstance(b0, Ket2) and isinstance(b1, Ket2)):
        raise BadBasis("basis must be a pair of qubit states")
    if not abs(inner(b0, b1)) <= OPERATOR_TOL:
        raise BadBasis(f"basis states are not orthogonal: |<b0|b1>| = {abs(inner(b0, b1)):.3e}")
    return b0, b1


class Basis(tuple):
    """Orthonormal pair of qubit states, indexed by bit label, checked once when built.

    A basis is the tuple ``(b0, b1)``: it indexes and unpacks as the
    plain pair does, and a copy is built, and checked, again.

    Raises
    ------
    BadBasis
        Unless both states are :class:`Ket2` and they are orthogonal
        within 1e-10.
    """

    __slots__ = ()

    def __new__(cls, b0: Ket2, b1: Ket2):
        return super().__new__(cls, _check_basis((b0, b1)))

    def __getnewargs__(self):
        return tuple(self)


def measure_projective(state: Ket2, basis, rng):
    """Projective measurement of ``state`` in an orthonormal basis pair.

    Parameters
    ----------
    basis : Basis or (Ket2, Ket2)
        Basis states indexed by their bit label: ``basis[b]`` is the
        state reported as outcome ``b``.  A :class:`Basis` was checked
        when it was built; any other pair is checked on every call.
    rng : Rng
        Source for the single Born-rule draw.

    Returns
    -------
    (bit, collapsed) : (int, Ket2)
        Outcome ``b`` occurs with probability ``|<basis[b]|state>|**2``
        and leaves the system in ``basis[b]``.

    Raises
    ------
    BadBasis
        If a pair that is not a :class:`Basis` fails the basis check.
    DimensionMismatch
        Unless ``state`` is a qubit state.
    """
    b0, b1 = basis if isinstance(basis, Basis) else _check_basis(basis)
    if not isinstance(state, Ket2):
        raise DimensionMismatch(f"cannot pair {type(b0).__name__} with {type(state).__name__}")
    # inner(b0, state), written out.
    p0 = abs(b0.a0.conjugate() * state.a0 + b0.a1.conjugate() * state.a1) ** 2
    bit = 0 if rng.uniform() < p0 else 1
    return bit, (b0 if bit == 0 else b1)


class PovmOutcome(IntEnum):
    ZERO = 0
    ONE = 1
    INCONCLUSIVE = 2


_OUTCOMES = tuple(PovmOutcome)


@dataclass(frozen=True, eq=False)
class PovmSet:
    """Three-element positive operator measure for unambiguous code-state readout.

    ``a_plus`` fires only for the plus code state (outcome ONE),
    ``a_minus`` only for the minus code state (outcome ZERO), and
    ``a_inconclusive`` absorbs the rest.  The set keeps read-only copies
    of the elements, so the entries it reads once at construction, as
    Python complex scalars in outcome order, cannot go stale.
    """

    a_plus: np.ndarray
    a_minus: np.ndarray
    a_inconclusive: np.ndarray
    _entries: tuple = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("a_plus", "a_minus", "a_inconclusive"):
            mat = np.array(getattr(self, name), dtype=complex)
            mat.flags.writeable = False
            object.__setattr__(self, name, mat)
        entries = tuple(tuple(complex(z) for z in el.flat) for el in self.elements())
        object.__setattr__(self, "_entries", entries)

    def elements(self):
        """Elements in outcome order: ZERO, ONE, INCONCLUSIVE."""
        return (self.a_minus, self.a_plus, self.a_inconclusive)


def quad_form(mat: np.ndarray, state: Ket2) -> float:
    """Real quadratic form <state|mat|state> of a Hermitian 2x2 matrix."""
    a0, a1 = state.a0, state.a1
    m00 = complex(mat[0, 0])
    m01 = complex(mat[0, 1])
    m10 = complex(mat[1, 0])
    m11 = complex(mat[1, 1])
    return (a0.conjugate() * (m00 * a0 + m01 * a1) + a1.conjugate() * (m10 * a0 + m11 * a1)).real


def _positivity_defect(mat: np.ndarray) -> float:
    # 2x2 Hermitian positivity via trace and closed-form determinant; avoids an
    # eigensolver.  np.max keeps a NaN, so a NaN entry fails the check.
    m00, m11, m01 = float(mat[0, 0].real), float(mat[1, 1].real), complex(mat[0, 1])
    det = m00 * m11 - (m01.real * m01.real + m01.imag * m01.imag)
    return float(np.max((-(m00 + m11), -det, 0.0)))


def build_povm(theta: float) -> PovmSet:
    """Construct the unambiguous-discrimination POVM for code states at +-theta.

    The plus element annihilates the minus code state and vice versa::

        a_plus  = (1 - |minus><minus|) / (1 + <plus|minus>)
        a_minus = (1 - |plus><plus|)   / (1 + <plus|minus>)
        a_inconclusive = 1 - a_plus - a_minus

    Raises
    ------
    ThetaOutOfRange
        Unless 0 < theta < pi/4.
    """
    if not 0.0 < theta < math.pi / 4:
        raise ThetaOutOfRange(f"theta must lie in (0, pi/4), got {theta!r}")
    plus = polarization(theta)
    minus = polarization(-theta)
    overlap = math.cos(2.0 * theta)
    eye = np.eye(2, dtype=complex)
    proj_plus = np.outer(plus.vec, plus.vec.conj())
    proj_minus = np.outer(minus.vec, minus.vec.conj())
    a_plus = (eye - proj_minus) / (1.0 + overlap)
    a_minus = (eye - proj_plus) / (1.0 + overlap)
    a_inc = eye - a_plus - a_minus
    povm = PovmSet(a_plus, a_minus, a_inc)

    completeness = float(np.max(np.abs(a_plus + a_minus + a_inc - eye)))
    if not completeness <= OPERATOR_TOL:
        raise NotHermitian(f"POVM completeness defect {completeness:.3e}")
    for el in povm.elements():
        if not _hermiticity_defect(el) <= OPERATOR_TOL:
            raise NotHermitian("POVM element is not Hermitian")
        if not _positivity_defect(el) <= OPERATOR_TOL:
            raise NotHermitian("POVM element is not positive semidefinite")
    return povm


def povm_probabilities(state: Ket2, povm: PovmSet):
    """Outcome probabilities (ZERO, ONE, INCONCLUSIVE) for a given state.

    Each is :func:`quad_form` of one element, evaluated by the same
    expression on the set's scalar entries, so the floats are identical.
    """
    a0, a1 = state.a0, state.a1
    c0, c1 = a0.conjugate(), a1.conjugate()
    (z00, z01, z10, z11), (o00, o01, o10, o11), (i00, i01, i10, i11) = povm._entries
    return (
        (c0 * (z00 * a0 + z01 * a1) + c1 * (z10 * a0 + z11 * a1)).real,
        (c0 * (o00 * a0 + o01 * a1) + c1 * (o10 * a0 + o11 * a1)).real,
        (c0 * (i00 * a0 + i01 * a1) + c1 * (i10 * a0 + i11 * a1)).real,
    )


def measure_povm(state: Ket2, povm: PovmSet, rng) -> PovmOutcome:
    """Sample one POVM outcome; probabilities are the three quadratic forms.

    Raises
    ------
    NotHermitian
        If the probabilities do not sum to 1 within 1e-10.
    """
    probs = povm_probabilities(state, povm)
    p0, p1, p2 = probs
    total = p0 + p1 + p2  # sum(probs), written out
    if not abs(total - 1.0) <= OPERATOR_TOL:
        raise NotHermitian(f"POVM probabilities sum to {total!r}")
    return _OUTCOMES[rng.pick_weighted(probs)]


def product_factors(joint: Ket4, tol: float = 1e-8):
    """Split a product state back into (carrier, probe) factors.

    Raises
    ------
    ValueError
        If the state is entangled beyond ``tol`` (mixed residuals are
        out of scope for this package).
    """
    mat = np.array([[joint.c[0], joint.c[1]], [joint.c[2], joint.c[3]]])
    u, s, vh = np.linalg.svd(mat)
    if not s[1] <= tol * max(s[0], 1.0):
        raise ValueError(f"state is entangled (secondary singular value {s[1]:.3e})")
    return Ket2(u[0, 0], u[1, 0]), Ket2(vh[0, 0], vh[0, 1])


def measure_povm_carrier(joint: Ket4, povm: PovmSet, rng):
    """Apply a carrier-side POVM to a joint product state.

    Outcome ``i`` occurs with probability ``<J|(A_i (x) 1)|J>``.  The
    probe factor of a product state is untouched by any carrier
    measurement, so the residual is exact; entangled inputs are
    rejected by :func:`product_factors`.
    """
    mat = np.array([[joint.c[0], joint.c[1]], [joint.c[2], joint.c[3]]])
    probs = tuple(float(np.trace(mat.conj().T @ el @ mat).real) for el in povm.elements())
    if not abs(sum(probs) - 1.0) <= OPERATOR_TOL:
        raise NotHermitian(f"POVM probabilities sum to {sum(probs)!r}")
    _, probe = product_factors(joint)
    outcome = PovmOutcome(rng.pick_weighted(probs))
    return outcome, probe


def _require_hermitian(mat: np.ndarray) -> np.ndarray:
    mat = np.asarray(mat, dtype=complex)
    defect = _hermiticity_defect(mat)
    if not defect <= OPERATOR_TOL:
        raise NotHermitian(f"matrix deviates from self-adjointness by {defect:.3e}")
    return mat


def expectation(observable: np.ndarray, state: Ket2) -> float:
    """Mean observed value <state|observable|state> of a Hermitian matrix."""
    return quad_form(_require_hermitian(observable), state)


def uncertainty_product(obs_a: np.ndarray, obs_b: np.ndarray, state: Ket2):
    """Evaluate both sides of the uncertainty inequality for two observables.

    Returns
    -------
    (lhs, rhs, holds)
        ``lhs`` is the product of the two mean-squared deviations,
        ``rhs`` is ``|<[A, B]>|**2 / 4``, and ``holds`` reports
        ``lhs >= rhs - 1e-9``.
    """
    mat_a = _require_hermitian(obs_a)
    mat_b = _require_hermitian(obs_b)
    eye = np.eye(2, dtype=complex)
    dev_a = mat_a - expectation(mat_a, state) * eye
    dev_b = mat_b - expectation(mat_b, state) * eye
    var_a = quad_form(dev_a @ dev_a, state)
    var_b = quad_form(dev_b @ dev_b, state)
    lhs = var_a * var_b
    comm = mat_a @ mat_b - mat_b @ mat_a
    vec = state.vec
    mean_comm = complex(vec.conj() @ (comm @ vec))
    rhs = 0.25 * abs(mean_comm) ** 2
    return lhs, rhs, lhs >= rhs - 1e-9
