"""Complex linear algebra kernel for three-qubit pure states.

States are length-8 complex vectors indexed by the basis label b1 b2 b3 with
qubit 1 as the leftmost bit (index = 4*b1 + 2*b2 + b3).  A measurement
direction is a row of its three Cartesian components, and a function that
takes one also takes an (..., 3) stack; `_directions` is its one check.
Its polar and azimuth angles are derived for I/O and the closed forms, by
one scalar helper (`_angles`) that reads any three components, and
`_angle_components` maps angles back.  Measurement settings keep their six
directions as one checked (6, 3) array (`bell.MeasurementSettings`).
Observables are spin projections n.sigma, and all matrices stay at most
8x8; the Hermitian eigenproblems go to LAPACK through numpy.linalg.eigh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-10
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


def _angles(x: float, y: float, z: float) -> tuple:
    """Polar angle in [0, pi] and azimuth in [0, 2 pi) of a direction's
    components, by math.atan2, which keeps the polar angle accurate at the
    poles (numpy's arctan2 rounds differently)."""
    azimuth = math.atan2(y, x) % (2 * math.pi)
    # The modulo rounds a tiny negative angle up to exactly 2 pi.
    return (math.atan2(math.hypot(x, y), z),
            azimuth if azimuth < 2 * math.pi else 0.0)


def _angle_components(polar: float, azimuth: float) -> tuple:
    """The Cartesian components of the direction at polar angle in [0, pi]
    and azimuth, in radians; the angles are checked, the norm is not."""
    if not (math.isfinite(polar) and math.isfinite(azimuth)):
        raise ValidationError("angles must be finite")
    if not -1e-12 <= polar <= math.pi + 1e-12:
        raise ValidationError(f"polar={polar} outside [0, pi]")
    st = math.sin(polar)
    return st * math.cos(azimuth), st * math.sin(azimuth), math.cos(polar)


def _amplitudes(s) -> np.ndarray:
    """The amplitudes of a state, or an (..., 8) stack of amplitude vectors
    after the one check of amplitudes, which ThreeQubitPureState also
    makes: finite and of unit norm within NORM_TOL."""
    if isinstance(s, ThreeQubitPureState):
        return s.amplitudes
    amps = np.asarray(s, dtype=complex)
    if amps.ndim < 1 or amps.shape[-1] != 8:
        raise ValidationError("state needs exactly 8 amplitudes")
    norm_sq = np.einsum("...i,...i->...", amps.conj(), amps).real
    off = np.abs(norm_sq - 1.0)
    # A non-finite amplitude makes its norm non-finite, so it fails here.
    if not np.all(off <= NORM_TOL):
        if not np.isfinite(amps).all():
            raise ValidationError("amplitudes must be finite")
        raise ValidationError(
            f"squared norm {norm_sq.flat[np.argmax(off)]} deviates from 1")
    return amps


def _directions(n) -> np.ndarray:
    """The components of a direction, or an (..., 3) stack of directions,
    after the one check of directions: finite and of unit norm within
    NORM_TOL."""
    n = np.asarray(n, dtype=float)
    if n.ndim < 1 or n.shape[-1] != 3:
        raise ValidationError("expected directions of shape (..., 3)")
    norm = np.sqrt(np.einsum("...i,...i->...", n, n))
    off = np.abs(norm - 1.0)
    # A non-finite component makes its norm non-finite, so it fails here.
    if not np.all(off <= NORM_TOL):
        if not np.isfinite(n).all():
            raise ValidationError("components must be finite")
        raise ValidationError(
            f"direction has norm {norm.flat[np.argmax(off)]}, not 1")
    return n


class ThreeQubitPureState:
    """Unit-norm vector of 8 complex amplitudes, held as a read-only copy of
    the amplitudes it is given."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes):
        amps = np.array(amplitudes, dtype=complex)
        if amps.shape != (8,):
            raise ValidationError("state needs exactly 8 amplitudes")
        # The one check of amplitudes, on a stack of one.
        object.__setattr__(self, "amplitudes", _amplitudes(amps))
        amps.setflags(write=False)

    def __repr__(self):
        return f"ThreeQubitPureState({self.amplitudes.tolist()})"


def _ghz_amplitudes(p: GhzClassParams) -> np.ndarray:
    """The amplitudes of `ghz_state(p)`, unchecked."""
    sin = math.sin(p.theta)
    return np.array([math.cos(p.theta), 0.0, 0.0, 0.0, 0.0, 0.0,
                     sin * math.cos(p.theta3), sin * math.sin(p.theta3)],
                    dtype=complex)


def ghz_state(p: GhzClassParams) -> ThreeQubitPureState:
    """cos(theta)|000> + sin(theta)cos(theta3)|110> + sin(theta)sin(theta3)|111>."""
    return ThreeQubitPureState(_ghz_amplitudes(p))


def _w_amplitudes(p: WClassParams) -> np.ndarray:
    """The amplitudes of `w_state(p)`, unchecked."""
    return np.array([0.0, p.alpha, p.beta, 0.0, p.gamma, 0.0, 0.0, 0.0],
                    dtype=complex)


def w_state(p: WClassParams) -> ThreeQubitPureState:
    """alpha|001> + beta|010> + gamma|100>."""
    return ThreeQubitPureState(_w_amplitudes(p))


def _haar_amplitudes(rng: np.random.Generator) -> np.ndarray:
    """The amplitudes of `haar_random_state(rng)`, from the same draws."""
    z = rng.normal(size=8) + 1j * rng.normal(size=8)
    return z / np.linalg.norm(z)


def haar_random_state(rng: np.random.Generator) -> ThreeQubitPureState:
    """Uniform pure state: 8 complex standard normals, then normalized."""
    return ThreeQubitPureState(_haar_amplitudes(rng))


def haar_local_unitary(rng: np.random.Generator) -> np.ndarray:
    """U1 x U2 x U3, each factor Haar-random on U(2) by a phase-fixed QR."""
    q, r = np.linalg.qr(rng.normal(size=(3, 2, 2))
                        + 1j * rng.normal(size=(3, 2, 2)))
    phases = np.diagonal(r, axis1=1, axis2=2)
    return tensor3(*(q * (phases / np.abs(phases))[:, None]))


def _derived_seed(seed: int, index: int) -> int:
    """Seed of the index-th independent stream derived from `seed`."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def spin_observable(n) -> np.ndarray:
    """n . sigma as a 2x2 Hermitian matrix with eigenvalues +-1, for one
    direction's three components or for each direction of an (..., 3)
    stack (..., 2, 2)."""
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
    if keep not in _KEEP:
        raise ValidationError(f"keep must be a key of _KEEP, got {keep}")
    psi = amplitudes.reshape(amplitudes.shape[:-1] + (2, 2, 2))
    dim = 2 ** len(keep)
    return np.einsum(_KEEP[keep], psi, psi.conj()).reshape(
        amplitudes.shape[:-1] + (dim, dim))


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
