"""Constellations, Gram matrices and the quantum Fourier encodings.

The two-mode code is built from the orbit of a coherent amplitude vector
under a finite subgroup of U(2).  The encoded basis states are obtained by
applying the inverse group Fourier transform to the Gram-orthonormalized
constellation states.  The single-mode cat qudit is the same construction
for the cyclic group Z_N, written in its closed form.

A code depends only on (group, alpha vector, cutoff), so it is built once
per process.  ``make_constellation`` and ``deform_constellation`` pass the
bytes of the complex alpha vector to ``_constellation``, which checks the
vector and is memoized on the group object, those bytes and the cutoff;
``code_basis`` on its constellation and Fourier transform objects.  Each
keeps its ``CODE_MEMO_SIZE`` latest results, and neither keeps a call that
raises.  A constellation keeps only its normalized per-mode coherent factors
(``factors``, |G| x 2 x d); its cutoff is d - 1 and its (|G|, d, d)
``amplitudes`` are formed from them on each read, so no object holds the
cutoff apart from the arrays.  A code basis keeps its amplitudes and its
expansion over the constellation states (``coefficients``, 4 x |G|), so
amplitudes[i] = sum_g coefficients[i, g] factors[g, 0] (x) factors[g, 1];
the Fock loss oracle contracts these instead of the (d, d) states.  A D8 or
Q8 constellation retains about 8 kB at cutoff 25 and 17 kB at cutoff 60, a
code with its constellation 53 kB and 0.26 MB, so the two memos hold at most
0.48 MB at 25 and 2.2 MB at 60.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .fock import (
    DEFAULT_CUTOFF,
    coherent_amplitudes,
    coherent_state,
    hermitian_inv_sqrt,
    normalize,
    overlap_matrix,
)
from .groups import AMPLITUDE_RULE, _integer_at_least, _positive_amplitude, memoized

# Results kept by the constellation and code-basis memos.
CODE_MEMO_SIZE = 8


class DegenerateConstellationError(ValueError):
    """An orbit in which two group elements send alpha to the same point."""


@dataclass(eq=False)
class Constellation:
    """The orbit {|g alpha>} of a two-mode coherent state under the group."""

    group: object
    alpha_vec: np.ndarray
    factors: np.ndarray  # (|G|, 2, d): unit per-mode factors, |g alpha> = f_g0 (x) f_g1

    @property
    def cutoff(self):
        return self.factors.shape[-1] - 1

    @property
    def points(self):
        """The C^2 amplitude vectors g @ alpha_vec, in group order."""
        return self.group.matrices @ self.alpha_vec

    @property
    def amplitudes(self):
        """The (|G|, d, d) states |g alpha>, formed from ``factors`` on each read (read-only)."""
        amplitudes = self.factors[:, 0, :, None] * self.factors[:, 1, None, :]
        amplitudes.flags.writeable = False
        return amplitudes


@dataclass(eq=False)
class CodeBasis:
    """The four encoded basis states, ordered (0,0), (0,1), (1,0), (1,1)."""

    constellation: Constellation
    fourier: object
    amplitudes: np.ndarray  # (4, d, d), basis state (l, m) at index 2 l + m
    # (4, |G|): amplitudes[i] = sum_g coefficients[i, g] constellation.amplitudes[g]
    coefficients: np.ndarray

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


@memoized(CODE_MEMO_SIZE)
def _constellation(group, alpha_bytes, cutoff):
    """The orbit of the two-entry alpha vector whose complex128 bytes are ``alpha_bytes``."""
    alpha_vec = np.frombuffer(alpha_bytes, dtype=complex)  # read-only
    if alpha_vec.shape != (2,):
        raise ValueError("alpha vector must have two entries")
    # so |alpha|^2 <= 2 max |alpha_i|^2 is finite; a NaN entry makes the max NaN
    if not _positive_amplitude(np.max(np.abs(alpha_vec))):
        raise ValueError(AMPLITUDE_RULE)
    points = group.matrices @ alpha_vec
    if _min_distance(points) <= 1e-9 * max(1.0, float(np.linalg.norm(alpha_vec))):
        raise DegenerateConstellationError("degenerate constellation")
    factors = coherent_state(points, cutoff)  # (|G|, 2, d), one per mode
    factors.flags.writeable = False
    return Constellation(group=group, alpha_vec=alpha_vec, factors=factors)


def make_constellation(group, alpha, phi, cutoff=DEFAULT_CUTOFF):
    """Constellation of |alpha, alpha e^{i phi}> under the group orbit."""
    if not _positive_amplitude(alpha):
        raise ValueError(AMPLITUDE_RULE)
    if not np.isfinite(phi):
        raise ValueError("phi must be finite")
    alpha_vec = np.array([alpha, alpha * np.exp(1j * phi)], dtype=complex)
    return _constellation(group, alpha_vec.tobytes(), cutoff)


def deform_constellation(constellation, u):
    """The constellation obtained from the initial state |U alpha>."""
    alpha_vec = np.asarray(u, dtype=complex) @ constellation.alpha_vec
    return _constellation(constellation.group, alpha_vec.tobytes(), constellation.cutoff)


def gram_matrix(constellation):
    """Fock-space Gram matrix of the constellation states (Hermitized)."""
    g = overlap_matrix(constellation.amplitudes, constellation.amplitudes)
    return (g + g.conj().T) / 2


def analytic_gram(group, alpha_vec):
    """Exact coherent-state overlaps <g alpha|h alpha>, truncation-free."""
    pts = group.matrices @ np.asarray(alpha_vec, dtype=complex)
    sq = np.sum(np.abs(pts) ** 2, axis=1)
    cross = pts.conj() @ pts.T
    return np.exp(cross - 0.5 * (sq[:, None] + sq[None, :]))


@memoized(CODE_MEMO_SIZE)
def code_basis(constellation, fourier):
    """All four encoded basis states, ordered (0,0), (0,1), (1,0), (1,1).

    State (l, m) has coefficients column (lambda, l, m) of Gamma^(-1/2) F^dag
    on the constellation states, scaled so that its truncated amplitudes
    have unit norm.  Memoized on the two argument objects; the amplitudes
    and coefficients are read-only.
    """
    states = constellation.amplitudes  # formed once, for the Gram matrix and the expansion
    inv_sqrt = hermitian_inv_sqrt(overlap_matrix(states, states)).inv_sqrt
    coeff = (inv_sqrt @ fourier.matrix.conj().T)[:, fourier.logical_rows]
    amps = np.tensordot(coeff.T, states, axes=1)
    norms = np.linalg.norm(amps, axis=(1, 2))
    amps /= norms[:, None, None]
    coeff = coeff.T / norms[:, None]
    amps.flags.writeable = coeff.flags.writeable = False
    return CodeBasis(
        constellation=constellation, fourier=fourier, amplitudes=amps, coefficients=coeff
    )


def gram_fourier_spectrum(gram, fourier):
    """Off-diagonal mass of F Gamma F^dag and its defining-irrep block's defect.

    Returns (off-diagonal Frobenius norm of F Gamma F^dag, deviation of its
    4x4 block on the 2-dimensional irrep rows from scalar * I).
    """
    f = fourier.matrix
    rotated = f @ gram @ f.conj().T
    off = rotated - np.diag(np.diag(rotated))
    rows = fourier.logical_rows
    block = rotated[np.ix_(rows, rows)]
    scalar = np.trace(block) / 4.0
    return float(np.linalg.norm(off)), float(
        np.linalg.norm(block - scalar * np.eye(4))
    )


@dataclass
class CatQuditCode:
    """Single-mode d-dimensional cat code over the cyclic group Z_N."""

    alpha: float
    delta: np.ndarray
    codewords: np.ndarray  # (d, cutoff + 1), codeword k in row k


def cat_qudit(n, d, alpha, cutoff=None):
    """Standard cat-qudit codewords: the Fourier code of Z_N in closed form.

    delta_k = e^{-alpha^2} sum_l w^{kl} e^{alpha^2 w^l} are the Fourier
    eigenvalues of the Gram matrix of the orbit w^l alpha, taken as N times
    an inverse FFT; the codeword for |k> is the normalized sum of
    w^{-kMl}-weighted rotated coherent states, M = N / d.  The Z_N
    group route (``cyclic_group`` with its Fourier transform) gives the same
    DFT, but its Cayley table and character check cost O(N^3) time; this
    form costs O(d N cutoff), the (d, N) @ (N, cutoff + 1) product of the
    weights and the coherent amplitudes, and leaves the group memos alone.
    """
    if not (_integer_at_least(n, 1) and _integer_at_least(d, 1)):
        raise ValueError("N and d must be positive integers")
    if n % d != 0:
        raise ValueError("d must divide N")
    if not _positive_amplitude(alpha):
        raise ValueError(AMPLITUDE_RULE)
    if cutoff is None:
        cutoff = max(DEFAULT_CUTOFF, int(np.ceil(abs(alpha) ** 2 + 10 * abs(alpha))))
    w = np.exp(2j * np.pi / n)
    ls = np.arange(n)
    delta = n * np.fft.ifft(np.exp(alpha**2 * (w**ls - 1)))
    if np.max(np.abs(delta.imag)) > 1e-10 or np.min(delta.real) < -1e-12:
        raise ValueError("cyclic Gram spectrum is not real nonnegative")
    delta = np.clip(delta.real, 0.0, None)
    km = np.arange(d) * (n // d)  # the Fourier index k M of codeword k, below N
    if np.min(delta[km]) < 1e-12:
        raise ValueError("codeword numerically null")
    weights = w ** -np.outer(km, ls) / np.sqrt(n * delta[km])[:, None]
    codewords = normalize(weights @ coherent_amplitudes(w**ls * alpha, cutoff), axes=-1)
    return CatQuditCode(alpha=alpha, delta=delta, codewords=codewords)
