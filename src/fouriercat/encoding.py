"""Constellations, Gram matrices and the quantum Fourier encodings.

The two-mode code is built from the orbit of a coherent amplitude vector
under a finite subgroup of U(2).  The encoded basis states are obtained by
applying the inverse group Fourier transform to the Gram-orthonormalized
constellation states.

A code depends only on (group, alpha vector, cutoff), so it is built once
per process.  ``constellation_from_vector`` (and through it
``make_constellation`` and ``deform_constellation``) is memoized on the
group object, the bytes of the complex alpha vector and the cutoff;
``code_basis`` on its constellation and Fourier transform objects.  Each
memo keeps its 8 latest results.  One cutoff-25 code with its D8 or Q8
constellation retains about 0.14 MB, one at cutoff 60 about 0.72 MB, so
the two memos hold at most 1.8 MB at cutoff 25 and 9.6 MB at cutoff 60.
Constellations and code bases compare and hash by identity and their
arrays are read-only, so a memo hit never returns changed contents.  A
construction that raises (degenerate constellation, starved cutoff,
singular Gram matrix) is not memoized and raises again on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .fock import (
    DEFAULT_CUTOFF,
    FockConfig,
    coherent_amplitudes,
    hermitian_inv_sqrt,
    normalize,
    overlap_matrix,
)
from .groups import memoized

GRAM_FLOOR = 1e-12
# Results kept by the constellation and code-basis memos.
CODE_MEMO_SIZE = 8


class DegenerateConstellationError(ValueError):
    """An orbit in which two group elements send alpha to the same point."""


@dataclass(eq=False)
class Constellation:
    """The orbit {|g alpha>} of a two-mode coherent state under the group."""

    group: object
    alpha_vec: np.ndarray
    amplitudes: np.ndarray  # (|G|, d, d): the state |g alpha> for each g
    config: FockConfig

    @property
    def points(self):
        """The C^2 amplitude vectors g @ alpha_vec, in group order."""
        return self.group.matrices() @ self.alpha_vec


@dataclass(eq=False)
class CodeBasis:
    """The four encoded basis states, ordered (0,0), (0,1), (1,0), (1,1)."""

    constellation: Constellation
    fourier: object
    amplitudes: np.ndarray  # (4, d, d), basis state (l, m) at index 2 l + m

    @property
    def config(self):
        return self.constellation.config

    @property
    def basis_states(self):
        """The rows of ``amplitudes`` as records with an ``amplitudes`` attribute."""
        return [SimpleNamespace(amplitudes=row) for row in self.amplitudes]

    @property
    def alpha(self):
        return float(np.abs(self.constellation.alpha_vec[0]))


def _min_distance(points):
    """Smallest pairwise distance between rows of ``points`` (inf if < 2)."""
    i, j = np.triu_indices(len(points), 1)
    return float(np.min(np.linalg.norm(points[i] - points[j], axis=1), initial=np.inf))


def constellation_from_vector(group, alpha_vec, cutoff=DEFAULT_CUTOFF):
    """The orbit of |alpha_vec> under the group, memoized (see the module docstring)."""
    alpha_vec = np.asarray(alpha_vec, dtype=complex)
    if alpha_vec.shape != (2,):
        raise ValueError("alpha vector must have two entries")
    return _constellation(group, alpha_vec.tobytes(), cutoff)


@memoized(CODE_MEMO_SIZE)
def _constellation(group, alpha_bytes, cutoff):
    """The constellation of the alpha vector whose complex128 bytes are ``alpha_bytes``."""
    alpha_vec = np.frombuffer(alpha_bytes, dtype=complex)  # read-only
    points = group.matrices() @ alpha_vec
    if _min_distance(points) <= 1e-9 * max(1.0, float(np.linalg.norm(alpha_vec))):
        raise DegenerateConstellationError("degenerate constellation")
    factors = coherent_amplitudes(points, cutoff)  # (|G|, 2, d), one per mode
    factors /= np.linalg.norm(factors, axis=-1, keepdims=True)
    amplitudes = factors[:, 0, :, None] * factors[:, 1, None, :]
    amplitudes.flags.writeable = False
    return Constellation(
        group=group, alpha_vec=alpha_vec, amplitudes=amplitudes, config=FockConfig(2, cutoff)
    )


def make_constellation(group, alpha, phi, cutoff=DEFAULT_CUTOFF):
    """Constellation of |alpha, alpha e^{i phi}> under the group orbit."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return constellation_from_vector(
        group, [alpha, alpha * np.exp(1j * phi)], cutoff
    )


def deform_constellation(constellation, u):
    """The constellation obtained from the initial state |U alpha>."""
    return constellation_from_vector(
        constellation.group,
        np.asarray(u, dtype=complex) @ constellation.alpha_vec,
        constellation.config.cutoff,
    )


def gram_matrix(constellation):
    """Fock-space Gram matrix of the constellation states (Hermitized)."""
    g = overlap_matrix(constellation.amplitudes, constellation.amplitudes)
    return (g + g.conj().T) / 2


def analytic_gram(group, alpha_vec):
    """Exact coherent-state overlaps <g alpha|h alpha>, truncation-free."""
    pts = group.matrices() @ np.asarray(alpha_vec, dtype=complex)
    sq = np.sum(np.abs(pts) ** 2, axis=1)
    cross = pts.conj() @ pts.T
    return np.exp(cross - 0.5 * (sq[:, None] + sq[None, :]))


@memoized(CODE_MEMO_SIZE)
def code_basis(constellation, fourier):
    """All four encoded basis states, ordered (0,0), (0,1), (1,0), (1,1).

    State (l, m) has coefficients column (lambda, l, m) of Gamma^(-1/2) F^dag
    on the constellation states.  Memoized on the two argument objects; the
    amplitudes are read-only.
    """
    inv_sqrt = hermitian_inv_sqrt(gram_matrix(constellation), floor=GRAM_FLOOR).inv_sqrt
    label = fourier.defining_label
    rows = [fourier.row(label, l, m) for l in (0, 1) for m in (0, 1)]
    coeff = (inv_sqrt @ fourier.matrix.conj().T)[:, rows]
    amps = np.tensordot(coeff.T, constellation.amplitudes, axes=1)
    amps /= np.linalg.norm(amps, axis=(1, 2), keepdims=True)
    amps.flags.writeable = False
    return CodeBasis(constellation=constellation, fourier=fourier, amplitudes=amps)


def covariant_encode(constellation, fourier, l, omega):
    """Single-qubit covariant encoding: F^dag applied directly to |g alpha>.

    The multiplicity slot of the Fourier row is contracted with the
    normalized 2-vector ``omega``.  Returns the normalized (d, d) state.
    """
    omega = np.asarray(omega, dtype=complex)
    if abs(np.linalg.norm(omega) - 1.0) > 1e-10:
        raise ValueError("omega must be normalized")
    label = fourier.defining_label
    coeff = np.zeros(constellation.group.order, dtype=complex)
    for m in (0, 1):
        row = fourier.matrix[fourier.row(label, l, m)]
        coeff += omega[m] * row.conj()
    vec = np.tensordot(coeff, constellation.amplitudes, axes=1)
    norm = np.linalg.norm(vec)
    if norm < 1e-12:
        raise ValueError("covariant encoding projected to the zero vector")
    return vec / norm


def gram_fourier_spectrum(gram, fourier):
    """F Gamma F^dag, its off-diagonal mass and the defining-irrep block.

    Returns (rotated matrix, off-diagonal Frobenius norm, 4x4 block of the
    2-dimensional irrep rows, deviation of that block from scalar * I).
    """
    f = fourier.matrix
    rotated = f @ gram @ f.conj().T
    off = rotated - np.diag(np.diag(rotated))
    label = fourier.defining_label
    idx = [fourier.row(label, l, m) for l in (0, 1) for m in (0, 1)]
    block = rotated[np.ix_(idx, idx)]
    scalar = np.trace(block) / 4.0
    return rotated, float(np.linalg.norm(off)), block, float(
        np.linalg.norm(block - scalar * np.eye(4))
    )


def min_euclidean_distance(constellation):
    """Smallest pairwise distance between constellation points in C^2."""
    pts = constellation.points
    if len(pts) < 2:
        raise ValueError("constellation has fewer than two points")
    return _min_distance(pts)


@dataclass
class CatQuditCode:
    """Single-mode d-dimensional cat code over the cyclic group Z_N."""

    n: int
    d: int
    alpha: float
    delta: np.ndarray
    codewords: np.ndarray  # (d, cutoff + 1), codeword k in row k

    @property
    def m(self):
        return self.n // self.d


def cat_qudit(n, d, alpha, cutoff=None):
    """Standard cat-qudit codewords and the cyclic Gram spectrum.

    delta_k = e^{-alpha^2} sum_l w^{kl} e^{alpha^2 w^l} are the Fourier
    eigenvalues of the cyclic Gram matrix; the codeword for |k> is the
    normalized sum of w^{-kpM}-weighted rotated coherent states.
    """
    if d < 1 or n % d != 0:
        raise ValueError("d must divide N")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if cutoff is None:
        cutoff = max(DEFAULT_CUTOFF, int(np.ceil(abs(alpha) ** 2 + 10 * abs(alpha))))
    w = np.exp(2j * np.pi / n)
    ls = np.arange(n)
    delta = np.array(
        [np.exp(-(alpha**2)) * np.sum(w ** (k * ls) * np.exp(alpha**2 * w**ls)) for k in range(n)]
    )
    if np.max(np.abs(delta.imag)) > 1e-10 or np.min(delta.real) < -1e-12:
        raise ValueError("cyclic Gram spectrum is not real nonnegative")
    delta = np.clip(delta.real, 0.0, None)
    km = np.arange(d) * (n // d)  # the Fourier index k M of codeword k, below N
    if np.min(delta[km]) < 1e-12:
        raise ValueError("codeword numerically null")
    weights = w ** -np.outer(km, ls) / np.sqrt(n * delta[km])[:, None]
    codewords = normalize(weights @ coherent_amplitudes(w**ls * alpha, cutoff), axes=-1)
    return CatQuditCode(n=n, d=d, alpha=alpha, delta=delta, codewords=codewords)


def cyclic_gram(n, alpha):
    """Gram matrix of the rotated coherent family {|w^k alpha>}."""
    w = np.exp(2j * np.pi / n)
    k = np.arange(n)
    return np.exp(alpha**2 * (-1 + w ** (k[None, :] - k[:, None])))


def cyclic_fourier(n):
    """DFT matrix w^{kl}/sqrt(N) matching the cat-qudit convention."""
    w = np.exp(2j * np.pi / n)
    k = np.arange(n)
    return w ** np.outer(k, k) / np.sqrt(n)
