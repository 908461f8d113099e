"""Truncated multimode Fock-space numerics.

A state is its amplitude array: a plain complex tensor of shape ``(d,) *
modes`` with one axis per mode, d = cutoff + 1.  Operators are plain
functions on such tensors: they map an array whose last ``modes`` axes are
the modes to an array of the same shape, and any leading axes are a batch,
so a stack of states is mapped in one call.  No operator is stored as a
matrix over the full space; the general (non-monomial) two-mode passive
unitary holds its total-photon sectors packed two to a row of one (d, d, d)
stack, and a memo of the 32 latest lifts, keyed on the bytes of U and the
config, lifts each U once.  Every constructor that builds a physical state
from coherent amplitudes audits the truncated Poisson tail so that silent
truncation errors cannot creep into downstream fidelity computations.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

DEFAULT_CUTOFF = 25
TAIL_TOL = 1e-12


@dataclass(frozen=True)
class FockConfig:
    """Mode count and per-mode photon-number cutoff."""

    modes: int
    cutoff: int = DEFAULT_CUTOFF

    def __post_init__(self):
        if self.modes < 1 or self.cutoff < 1:
            raise ValueError("modes and cutoff must be >= 1")

    @property
    def dim_per_mode(self):
        return self.cutoff + 1

    @property
    def dim(self):
        return self.dim_per_mode**self.modes


def overlap_matrix(bras, kets):
    """<bras[i]|kets[j]> for two stacks of amplitude tensors (stacked on axis 0)."""
    return np.conj(bras).reshape(len(bras), -1) @ np.reshape(kets, (len(kets), -1)).T


def _norms(t, axes):
    """Norms of t over ``axes``, kept as size-one axes; a zero state raises."""
    norm = np.linalg.norm(t, axis=axes, keepdims=True)
    if norm.min() < 1e-300:
        raise ValueError("cannot normalize a zero state")
    return norm


def normalize(t, axes=None):
    """t divided by its norm over ``axes`` (all axes when None, else an axis or two).

    The norms are kept as size-one axes, so a stack of states normalizes
    state by state; a zero state raises.
    """
    return t * (1.0 / _norms(t, axes))


def infidelity(a, b, axes=None):
    """1 - |<a|b>| of the normalized states, as min_p ||a - e^{ip} b||^2 / 2.

    Both arguments are normalized over ``axes`` (see ``normalize``) and the
    global phase is aligned before the difference is taken, so the value
    does not cancel: states an angle eps apart give eps^2 / 2 even where
    1 - |<a|b>| rounds to 0.  The normalized copies are never formed: the
    one difference a / |a| - e^{ip} b / |b| is scaled from the raw states.
    Returns a float, or one per state of a stack.
    """
    overlap = np.sum(b.conj() * a, axis=axes, keepdims=True)  # <b|a> of the raw states
    size = np.abs(overlap)
    phase = np.divide(overlap, size, out=np.ones_like(overlap), where=size > 0)
    diff = a * (1.0 / _norms(a, axes)) - b * (phase / _norms(b, axes))
    return np.sum(np.abs(diff) ** 2, axis=axes) / 2


class StarvedTailError(ValueError):
    """A cutoff that truncates more than ``tail_tol`` of a coherent state's Poisson mass."""


def coherent_amplitudes(alpha, cutoff, tail_tol=TAIL_TOL):
    """Truncated coherent amplitudes, shape alpha.shape + (d,), each tail audited."""
    alpha = np.asarray(alpha)[..., None]
    if not np.all(np.isfinite(alpha)):
        raise ValueError("coherent amplitude must be finite")
    n = np.arange(cutoff + 1)
    logfact = np.cumsum(np.log(np.maximum(n, 1)))
    mag = np.abs(alpha)
    with np.errstate(divide="ignore", invalid="ignore"):
        logmag = np.where(n == 0, 0.0, n * np.log(mag)) - logfact / 2 - mag**2 / 2
    amps = np.exp(logmag + 1j * n * np.angle(alpha))
    bad = ~(1.0 - np.sum(np.abs(amps) ** 2, axis=-1) <= tail_tol)
    if np.any(bad):
        raise StarvedTailError(f"cutoff too small for |alpha| = {np.max(mag[..., 0][bad]):.4g}")
    return amps


def coherent_state(alpha, cutoff=DEFAULT_CUTOFF, tail_tol=TAIL_TOL):
    """Single-mode coherent state |alpha>, renormalized after truncation."""
    return normalize(coherent_amplitudes(alpha, cutoff, tail_tol))


def coherent_product(alphas, cutoff=DEFAULT_CUTOFF, tail_tol=TAIL_TOL):
    """Multimode coherent product state |alpha_1, ..., alpha_k>."""
    factors = coherent_amplitudes(alphas, cutoff, tail_tol)
    return normalize(reduce(np.multiply.outer, factors))


def cat_state(alpha, parity, cutoff=DEFAULT_CUTOFF):
    """Normalized |alpha> + (-1)^parity |-alpha>, single mode.

    The parity-0 cat is supported on even photon numbers only, the parity-1
    cat on odd numbers only.
    """
    if parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    if alpha == 0 and parity == 1:
        raise ValueError("odd cat state is undefined at alpha = 0")
    plus, minus = coherent_amplitudes([alpha, -alpha], cutoff)
    return normalize(plus + (-1.0) ** parity * minus)


def _monomial_structure(u, tol=1e-12):
    """(perm, phases) when u is a generalized permutation matrix, else None.

    perm[k] is the row carrying column k's single unit-modulus entry and
    phases[k] that entry.
    """
    rows = np.arange(u.shape[0])
    perm = np.argmax(np.abs(u), axis=0)  # the row of each column's largest entry
    phases = u[perm, rows]
    rest = np.linalg.norm(np.where(rows[:, None] == perm, 0.0, u), axis=0)
    if np.any(np.abs(np.abs(phases) - 1.0) > tol) or np.any(rest > tol):
        return None
    if len(set(perm.tolist())) != len(rows):
        return None
    return perm, phases


def _monomial_unitary(perm, phases, config):
    """Exact second quantization of a mode permutation with phases.

    pi(U)|n_1..n_m> = prod_k phases_k^{n_k} |n with mode k sent to perm[k]>;
    number-preserving per mode, so truncation introduces no error at all.
    """
    n = np.arange(config.dim_per_mode)
    phase = reduce(np.multiply.outer, [p**n for p in phases])
    phase.flags.writeable = False
    m = config.modes  # mode axes are the last m; input axis k goes to perm[k]
    return lambda t: np.moveaxis(phase * t, range(-m, 0), [p - m for p in perm])


def _sector_unitary(h, config):
    """exp(i sum_jk h_jk a_j^dag a_k) on two truncated modes, all sectors at once.

    The Hamiltonian conserves N = n_1 + n_2, so it never couples two
    sectors.  Sector N holds |k, N - k> for max(0, N - cutoff) <= k <=
    min(N, cutoff); there it is tridiagonal, with diagonal h_00 k +
    h_11 (N - k) and <k+1|H|k> = h_01 sqrt((k + 1)(N - k)).  Row r of the
    packed d x d layout holds sector r (k = 0..r), then the corner sector
    cutoff + 1 + r (k = r + 1..cutoff): element (r, k) is t[k, (r - k) mod d].
    Each row is one d x d matrix (its coupling at k = r vanishes), made real
    by the gauge |k> -> e^{ik arg h_01}|k> and exponentiated in one batched
    eigh; a mask to each row's two blocks keeps roundoff from coupling sectors.
    """
    d = config.dim_per_mode
    k = np.arange(d)
    r = k[:, None]
    first = k <= r  # packed element (r, k) lies in sector r, not cutoff + 1 + r
    total = np.where(first, r, r + d)
    ham = np.zeros((d, d, d))
    ham[:, k, k] = (h[0, 0] * k + h[1, 1] * (total - k)).real
    ham[:, k[1:], k[:-1]] = abs(h[0, 1]) * np.sqrt((k[:-1] + 1) * (total[:, :-1] - k[:-1]))
    ham[:, k[:-1], k[1:]] = ham[:, k[1:], k[:-1]]
    vals, vecs = np.linalg.eigh(ham)
    # (U_r)^T = conj(D) e^{iS_r} D for the real rows S_r and D = diag(e^{ik arg h_01})
    u_t = np.empty((d, d, d), dtype=complex)
    np.matmul(vecs * np.cos(vals)[:, None, :], vecs.swapaxes(1, 2), out=u_t.real)
    np.matmul(vecs * np.sin(vals)[:, None, :], vecs.swapaxes(1, 2), out=u_t.imag)
    u_t *= np.exp(1j * np.angle(h[0, 1]) * (k - k[:, None]))
    u_t[first[:, :, None] != first[:, None, :]] = 0.0  # the two sectors stay uncoupled
    u_t.flags.writeable = False
    gather = k * d + (r - k) % d  # flat (k, (r - k) mod d) for packed (r, k)
    scatter = (r + k) % d * d + r  # flat packed ((j + m) mod d, j) for tensor (j, m)

    def act(t):
        packed = np.reshape(t, (-1, d * d))[:, gather].swapaxes(0, 1)  # (r, batch, k)
        out = (packed @ u_t).swapaxes(0, 1).reshape(-1, d * d)
        return out[:, scatter].reshape(np.shape(t))

    return act


def passive_gaussian_unitary(u, config):
    """Second quantization of a U(m) mode rotation: pi(U)|alpha> = |U alpha>.

    Returns pi(U) as a function on amplitude tensors (see the module
    docstring).  Generalized permutation matrices are lifted exactly on any
    number of modes.  Any other unitary must act on two modes; it is built
    by exponentiating the quadratic Hamiltonian sum_jk h_jk a_j^dag a_k one
    total-number sector at a time.  That route is exact on sectors that fit
    under the per-mode cutoff; the corner sectors N > cutoff carry a small
    truncation error and depend on h itself, not only on U.  Such a U is
    normal with distinct eigenvalues w, so the QR of its eigenvectors is an
    orthonormal eigenbasis Q, and h = Q diag(angle(w)) Q^dag: the principal
    logarithm, with angle(w) in [-pi, pi] as the sign of the computed
    imaginary part of w decides (an eigenvalue -1 - 1e-17i gives -pi).

    U is validated on every call; the lift is memoized on the exact bytes
    of the complex-cast U and ``config``, keeping the 32 latest lifts (a
    sector lift holds d^3 complex numbers, 0.28 MB at cutoff 25) read-only.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (config.modes, config.modes):
        raise ValueError("matrix dimension does not match mode count")
    if np.linalg.norm(u.conj().T @ u - np.eye(config.modes)) > 1e-10:
        raise ValueError("mode transformation must be unitary")
    return _lift(u.tobytes(), config)


@lru_cache(maxsize=32)
def _lift(u_bytes, config):
    """pi(U) for the unitary U whose complex128 bytes (C order) are ``u_bytes``."""
    u = np.frombuffer(u_bytes, dtype=complex).reshape(config.modes, config.modes)
    monomial = _monomial_structure(u)
    if monomial is not None:
        return _monomial_unitary(*monomial, config)
    if config.modes != 2:
        raise ValueError("a non-monomial mode transformation needs exactly two modes")
    vals, vecs = np.linalg.eig(u)
    q, _ = np.linalg.qr(vecs)
    return _sector_unitary((q * np.angle(vals)) @ q.conj().T, config)


def number_diagonal_operator(phases, config):
    """Diagonal unitary multiplying |n_1, ..., n_modes> by phases[n_1, ..., n_modes].

    ``phases`` broadcasts to ``(d,) * modes``, so a 1-d profile acts on the
    last mode; every entry must be unimodular.
    """
    values = np.broadcast_to(phases, (config.dim_per_mode,) * config.modes)
    if np.max(np.abs(np.abs(values) - 1.0)) > 1e-12:
        raise ValueError("diagonal entries must be unimodular")
    return lambda t: values * t


def annihilation_operator(mode, config, power=1):
    """a^power of one mode, as a function on amplitude tensors.

    out[n] = sqrt((n + power)! / n!) t[n + power], written by one
    slice-and-multiply into a zeroed output, so the top ``power`` levels of
    the mode are exactly zero.  The coefficients are the square roots of
    exact integer products, so power 1 multiplies by sqrt(1..d-1) and
    power k agrees with k single steps to rounding.
    """
    if not 0 <= mode < config.modes:
        raise ValueError("invalid mode index")
    if not isinstance(power, numbers.Integral) or power < 1:
        raise ValueError("power must be an integer >= 1")
    keep = max(config.dim_per_mode - power, 0)
    product = np.prod(np.arange(1.0, keep + 1)[:, None] + np.arange(power), axis=1)
    after = (slice(None),) * (config.modes - 1 - mode)  # the axes of the later modes
    root = np.sqrt(product).reshape((-1,) + (1,) * len(after))  # along the mode's axis
    low = (Ellipsis, slice(0, keep)) + after
    high = (Ellipsis, slice(power, None)) + after

    def act(t):
        t = np.asarray(t)
        out = np.zeros(t.shape, dtype=np.result_type(root, t))
        np.multiply(root, t[high], out=out[low])
        return out

    return act


class SingularGramError(ValueError):
    """A Gram matrix whose smallest eigenvalue lies at or below its floor."""

    def __init__(self, condition_number):
        super().__init__("Gram matrix numerically singular")
        self.condition_number = condition_number


def _hermitian_eigh(a):
    """eigh (w ascending) of (A + A^H) / 2 for a matrix or stack A, Hermitian to 1e-10."""
    a = np.asarray(a, dtype=complex)
    ah = a.conj().swapaxes(-1, -2)
    if np.max(np.linalg.norm(a - ah, axis=(-2, -1))) > 1e-10:
        raise ValueError("matrix is not Hermitian")
    return np.linalg.eigh((a + ah) / 2)


def _condition_number(w):
    """max |w| / min |w| of one eigenvalue spectrum: the 2-norm condition number."""
    w = np.abs(w)
    return float(w.max() / w.min()) if w.min() > 0 else float("inf")


class MatrixRoots(NamedTuple):
    inv_sqrt: np.ndarray
    rank: int  # eigenvalues kept by the inverse square root
    gain: float  # ||A^(-1/2)||_2, from the smallest kept eigenvalue


def hermitian_inv_sqrt(a, floor=1e-12, pseudo=False):
    """Inverse square root of a Hermitian PSD matrix by one eigendecomposition.

    Eigenvalues below ``floor`` times the largest one raise
    ``SingularGramError`` unless ``pseudo`` is set, in which case they are
    dropped (pseudo-inverse) — used for rank-deficient Gram matrices of
    nearly coincident states.  Returns A^(-1/2), how many eigenvalues were
    kept and ||A^(-1/2)||_2.
    """
    w, v = _hermitian_eigh(a)  # w ascending, so the kept ones are a suffix
    first = len(w) - int(np.count_nonzero(w > floor * w[-1]))  # smallest kept one
    if not w[-1] > 0 or (first and not pseudo):
        raise SingularGramError(_condition_number(w))
    inv_w = np.zeros_like(w)
    inv_w[first:] = 1.0 / np.sqrt(w[first:])
    inv_sqrt = (v * inv_w) @ v.conj().T
    return MatrixRoots(inv_sqrt, rank=len(w) - first, gain=float(inv_w[first]))
