"""Complex linear algebra kernel for three-qubit pure states.

States are length-8 complex vectors indexed by the basis label b1 b2 b3 with
qubit 1 as the leftmost bit (index = 4*b1 + 2*b2 + b3).  A measurement
direction is a unit vector stored as its Cartesian components; its polar
and azimuth angles are derived for I/O and the closed forms.  Observables
are spin projections n.sigma, and all matrices stay at most 8x8; the
Hermitian eigenproblems go to LAPACK through numpy.linalg.eigh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-9
HERM_TOL = 1e-10

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
PAULIS = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])


class ValidationError(ValueError):
    """Raised when an input violates a structural invariant."""


@dataclass(frozen=True)
class GhzClassParams:
    """Angles (theta, theta3) of the GHZ-class family, both in [0, pi/2]."""

    theta: float
    theta3: float

    def __post_init__(self):
        for name, value in (("theta", self.theta), ("theta3", self.theta3)):
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite")
            if not -1e-12 <= value <= math.pi / 2 + 1e-12:
                raise ValidationError(f"{name}={value} outside [0, pi/2]")


@dataclass(frozen=True)
class WClassParams:
    """Real non-negative amplitudes (alpha, beta, gamma) with unit norm.

    Signs of the amplitudes are absorbable by local phases, so non-negativity
    loses no generality.
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        amps = (self.alpha, self.beta, self.gamma)
        if any(not math.isfinite(a) for a in amps):
            raise ValidationError("amplitudes must be finite")
        if any(a < 0 for a in amps):
            raise ValidationError("amplitudes must be non-negative")
        norm_sq = sum(a * a for a in amps)
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValidationError(f"alpha^2+beta^2+gamma^2 = {norm_sq}, not 1")


@dataclass(frozen=True, slots=True)
class UnitVector:
    """Measurement direction stored as its Cartesian components (x, y, z).

    The components are kept exactly as given, so a direction that an
    optimizer reached comes back bit for bit; the angles are derived.
    """

    x: float
    y: float
    z: float

    def __post_init__(self):
        components = tuple(float(c) for c in (self.x, self.y, self.z))
        if not all(math.isfinite(c) for c in components):
            raise ValidationError("components must be finite")
        norm = math.hypot(*components)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValidationError(f"direction has norm {norm}, not 1")
        for name, value in zip("xyz", components):
            object.__setattr__(self, name, value)

    @property
    def cartesian(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    @property
    def polar(self) -> float:
        """Angle from +z in [0, pi]; atan2 keeps it accurate at the poles."""
        return math.atan2(math.hypot(self.x, self.y), self.z)

    @property
    def azimuth(self) -> float:
        azimuth = math.atan2(self.y, self.x) % (2 * math.pi)
        # The modulo rounds a tiny negative angle up to exactly 2 pi.
        return azimuth if azimuth < 2 * math.pi else 0.0

    @classmethod
    def from_angles(cls, polar: float, azimuth: float) -> "UnitVector":
        """The direction at polar angle in [0, pi] and azimuth, in radians."""
        if not (math.isfinite(polar) and math.isfinite(azimuth)):
            raise ValidationError("angles must be finite")
        if not -1e-12 <= polar <= math.pi + 1e-12:
            raise ValidationError(f"polar={polar} outside [0, pi]")
        st = math.sin(polar)
        return cls(st * math.cos(azimuth), st * math.sin(azimuth),
                   math.cos(polar))


X_HAT = UnitVector.from_angles(math.pi / 2, 0.0)
Z_HAT = UnitVector.from_angles(0.0, 0.0)


class ThreeQubitPureState:
    """Unit-norm vector of 8 complex amplitudes."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes):
        amps = np.asarray(amplitudes, dtype=complex)
        if amps.shape != (8,):
            raise ValidationError("state needs exactly 8 amplitudes")
        if not np.all(np.isfinite(amps.view(float))):
            raise ValidationError("amplitudes must be finite")
        norm_sq = float(np.vdot(amps, amps).real)
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValidationError(f"squared norm {norm_sq} deviates from 1")
        object.__setattr__(self, "amplitudes", amps)
        amps.setflags(write=False)

    def __repr__(self):
        return f"ThreeQubitPureState({self.amplitudes.tolist()})"


def ghz_state(p: GhzClassParams) -> ThreeQubitPureState:
    """cos(theta)|000> + sin(theta)cos(theta3)|110> + sin(theta)sin(theta3)|111>."""
    amps = np.zeros(8, dtype=complex)
    amps[0] = math.cos(p.theta)
    amps[6] = math.sin(p.theta) * math.cos(p.theta3)
    amps[7] = math.sin(p.theta) * math.sin(p.theta3)
    return ThreeQubitPureState(amps)


def w_state(p: WClassParams) -> ThreeQubitPureState:
    """alpha|001> + beta|010> + gamma|100>."""
    amps = np.zeros(8, dtype=complex)
    amps[1] = p.alpha
    amps[2] = p.beta
    amps[4] = p.gamma
    return ThreeQubitPureState(amps)


def haar_random_state(rng: np.random.Generator) -> ThreeQubitPureState:
    """Uniform pure state: 8 complex standard normals, then normalized."""
    z = rng.normal(size=8) + 1j * rng.normal(size=8)
    return ThreeQubitPureState(z / np.linalg.norm(z))


def haar_local_unitary(rng: np.random.Generator) -> np.ndarray:
    """U1 x U2 x U3, each factor Haar-random on U(2) by a phase-fixed QR."""
    q, r = np.linalg.qr(rng.normal(size=(3, 2, 2))
                        + 1j * rng.normal(size=(3, 2, 2)))
    phases = np.diagonal(r, axis1=1, axis2=2)
    return tensor3(*(q * (phases / np.abs(phases))[:, None]))


def _derived_seed(seed: int, index: int) -> int:
    """Seed of the index-th independent stream derived from `seed`."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _amplitudes(s) -> np.ndarray:
    """The amplitudes of a state, or an (..., 8) stack of amplitude vectors
    checked as ThreeQubitPureState checks one: finite and of unit norm
    within NORM_TOL."""
    if isinstance(s, ThreeQubitPureState):
        return s.amplitudes
    amps = np.asarray(s, dtype=complex)
    if amps.ndim < 1 or amps.shape[-1] != 8:
        raise ValidationError("state needs exactly 8 amplitudes")
    if not np.isfinite(amps).all():
        raise ValidationError("amplitudes must be finite")
    norm_sq = np.einsum("...i,...i->...", amps.conj(), amps).real
    off = np.abs(norm_sq - 1.0)
    if not np.all(off <= NORM_TOL):
        raise ValidationError(
            f"squared norm {norm_sq.flat[np.argmax(off)]} deviates from 1")
    return amps


def _directions(n) -> np.ndarray:
    """The components of a UnitVector, or an (..., 3) stack of directions
    checked as UnitVector checks one: finite and of unit norm within
    NORM_TOL."""
    if isinstance(n, UnitVector):
        return n.cartesian
    n = np.asarray(n, dtype=float)
    if n.ndim < 1 or n.shape[-1] != 3:
        raise ValidationError("expected directions of shape (..., 3)")
    if not np.isfinite(n).all():
        raise ValidationError("components must be finite")
    norm = np.sqrt(np.einsum("...i,...i->...", n, n))
    off = np.abs(norm - 1.0)
    if not np.all(off <= NORM_TOL):
        raise ValidationError(
            f"direction has norm {norm.flat[np.argmax(off)]}, not 1")
    return n


def spin_observable(n) -> np.ndarray:
    """n . sigma as a 2x2 Hermitian matrix with eigenvalues +-1, for a
    UnitVector or for each direction of an (..., 3) stack (..., 2, 2)."""
    return np.einsum("...i,ijk->...jk", _directions(n), PAULIS)


def tensor3(o1: np.ndarray, o2: np.ndarray, o3: np.ndarray) -> np.ndarray:
    """Kronecker product of 2x2 factors in qubit order 1 x 2 x 3, as np.kron,
    or of each triple of (..., 2, 2) stacks, which broadcast."""
    o12 = o1[..., :, None, :, None] * o2[..., None, :, None, :]
    o12 = o12.reshape(o12.shape[:-4] + (4, 4))
    o = o12[..., :, None, :, None] * o3[..., None, :, None, :]
    return o.reshape(o.shape[:-4] + (8, 8))


def expectation(s, o: np.ndarray):
    """<psi|O|psi> for a Hermitian O; a large imaginary residue is a bug.

    `s` is a state or an (..., 8) stack of amplitude vectors and `o` an
    8x8 operator or an (..., 8, 8) stack; the stacks broadcast.  One state
    and one operator give a float, stacks an array of floats, each equal
    to the call on its state and operator alone: O psi is one stacked
    product and <psi| O psi> one np.vdot per entry.
    """
    amps = _amplitudes(s)
    applied = (o @ amps[..., None])[..., 0]
    amps = np.broadcast_to(amps, applied.shape)
    values = np.array([np.vdot(a, b) for a, b in zip(
        amps.reshape(-1, 8), applied.reshape(-1, 8))]).reshape(
            applied.shape[:-1])
    residue = np.abs(values.imag)
    if not np.all(residue <= 1e-10):
        # argmax stops at the first NaN, so a NaN residue is the one named.
        worst = values.imag.flat[np.argmax(residue)]
        raise ValidationError(
            f"imaginary residue {worst} in expectation; operator not Hermitian")
    return float(values.real) if values.ndim == 0 else values.real


# Each retained set of qubits names the einsum that traces the others out
# of |psi><psi|, for one amplitude vector or a stack of them.
_KEEP = {
    (1, 2): "...abc,...dec->...abde",
    (2, 3): "...abc,...ade->...bcde",
    (1, 3): "...abc,...dbe->...acde",
    (1,): "...abc,...dbc->...ad",
    (2,): "...abc,...adc->...bd",
    (3,): "...abc,...abd->...cd",
}


def _reduced(amplitudes: np.ndarray, keep: tuple) -> np.ndarray:
    """Reduced density matrices of the qubits `keep` (ascending labels, a
    key of _KEEP) for amplitude vectors of shape (..., 8)."""
    psi = amplitudes.reshape(amplitudes.shape[:-1] + (2, 2, 2))
    dim = 2 ** len(keep)
    return np.einsum(_KEEP[keep], psi, psi.conj()).reshape(
        amplitudes.shape[:-1] + (dim, dim))


def partial_trace(s: ThreeQubitPureState, keep) -> np.ndarray:
    """Reduced 4x4 density matrix of the retained qubit pair (labels ascending)."""
    keep = tuple(sorted(keep))
    if len(keep) != 2 or keep not in _KEEP:
        raise ValidationError(f"keep must be one of (1,2),(2,3),(1,3), got {keep}")
    return _reduced(s.amplitudes, keep)


def reduced_single(s: ThreeQubitPureState, qubit: int) -> np.ndarray:
    """2x2 reduced density matrix of one qubit."""
    if qubit not in (1, 2, 3):
        raise ValidationError(f"qubit label must be 1, 2 or 3, got {qubit}")
    return _reduced(s.amplitudes, (qubit,))


def herm_eig(m: np.ndarray):
    """Eigen-decomposition of a small Hermitian matrix, or of each matrix of
    an (..., n, n) stack, by LAPACK (eigh).

    Raises unless the matrices are square, of size at most 8, finite and
    Hermitian within HERM_TOL.  Returns (values, vectors) with values
    descending along the last axis and vectors as columns.
    """
    if m.ndim < 2 or m.shape[-2] != m.shape[-1] or m.shape[-1] > 8:
        raise ValidationError("expected a square matrix of size at most 8")
    if not np.isfinite(m).all():
        raise ValidationError("matrix has a non-finite entry")
    if not np.all(np.abs(m - m.conj().swapaxes(-1, -2)) <= HERM_TOL):
        raise ValidationError("matrix is not Hermitian within tolerance")
    vals, vecs = np.linalg.eigh(m)
    return vals[..., ::-1], vecs[..., ::-1]
