"""Truncated two-mode Fock-space numerics.

A state is its amplitude array: a plain complex (d, d) tensor with one axis
per mode, d = cutoff + 1.  Operators are plain functions on such tensors:
they map an array whose last two axes are the modes to an array of the same
shape, and any leading axes are a batch, so a stack of states is mapped in
one call.  No operator is stored as a matrix over the full space; the
general (non-monomial) passive unitary holds its total-photon sectors packed
two to a row of one (d, d, d) stack.  The lift and the ladder operators are
memoized (see ``passive_gaussian_unitary`` and ``annihilation_operator``).
Every constructor that builds a physical state from coherent amplitudes
audits the truncated Poisson tail so that silent truncation errors cannot
creep into downstream fidelity computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .groups import _integer_at_least, memoized

DEFAULT_CUTOFF = 25
TAIL_TOL = 1e-12
# Results kept by the passive-unitary lift and the ladder-operator memos.
LIFT_MEMO_SIZE = 32
LADDER_MEMO_SIZE = 32
# Packed rows per block of the sector lift.  A block's real work arrays (its
# Hamiltonians, eigenvectors and cos/sin products) take about 12 / d of the
# (d, d, d) complex stack they fill, and eight matrices per eigh and matmul
# call keep the build as fast as one call over all d rows.
_LIFT_BLOCK_ROWS = 8


@dataclass(frozen=True)
class FockConfig:
    """Per-mode photon-number cutoff of the two-mode space."""

    cutoff: int

    def __post_init__(self):
        if not _integer_at_least(self.cutoff, 1):
            raise ValueError("cutoff must be an integer >= 1")

    @property
    def dim_per_mode(self):
        return self.cutoff + 1


def overlap_matrix(bras, kets):
    """<bras[i]|kets[j]> for two stacks of amplitude tensors (stacked on axis 0)."""
    return np.conj(bras).reshape(len(bras), -1) @ np.reshape(kets, (len(kets), -1)).T


def normalize(t, axes=None):
    """t divided by its norm over ``axes`` (all axes when None, else an axis or two).

    The norms are kept as size-one axes, so a stack of states normalizes
    state by state; a zero state raises.
    """
    norm = np.linalg.norm(t, axis=axes, keepdims=True)
    if norm.min() < 1e-300:
        raise ValueError("cannot normalize a zero state")
    return t * (1.0 / norm)


def infidelity(a, b):
    """1 - |<a|b>| of the normalized states, as min_p ||a - e^{ip} b||^2 / 2.

    Both states are normalized (see ``normalize``) and the global phase of
    <b|a> is aligned before the difference is taken, so the value does not
    cancel: states an angle eps apart give eps^2 / 2 even where 1 - |<a|b>|
    rounds to 0.  Orthogonal states keep the phase 1, so they give 1.
    """
    a, b = normalize(a), normalize(b)
    overlap = np.vdot(b, a)
    size = abs(overlap)
    diff = a - (overlap / size if size else 1.0) * b
    return float(np.vdot(diff, diff).real / 2)


class StarvedTailError(ValueError):
    """A cutoff that truncates more than ``TAIL_TOL`` of a coherent state's Poisson mass."""


def _log_factorials(d):
    """log(n!) for n = 0, ..., d - 1."""
    return np.cumsum(np.log(np.maximum(np.arange(d), 1)))


def coherent_amplitudes(alpha, cutoff):
    """Truncated coherent amplitudes, shape alpha.shape + (d,), each tail audited."""
    if not _integer_at_least(cutoff, 1):
        raise ValueError("cutoff must be an integer >= 1")
    alpha = np.asarray(alpha)[..., None]
    if not np.all(np.isfinite(alpha)):
        raise ValueError("coherent amplitude must be finite")
    n = np.arange(cutoff + 1)
    logfact = _log_factorials(cutoff + 1)
    mag = np.abs(alpha)
    with np.errstate(divide="ignore", invalid="ignore"):
        logmag = np.where(n == 0, 0.0, n * np.log(mag)) - logfact / 2 - mag**2 / 2
    amps = np.exp(logmag + 1j * n * np.angle(alpha))
    bad = ~(1.0 - np.sum(np.abs(amps) ** 2, axis=-1) <= TAIL_TOL)
    if np.any(bad):
        raise StarvedTailError(f"cutoff too small for |alpha| = {np.max(mag[..., 0][bad]):.4g}")
    return amps


def coherent_state(alpha, cutoff=DEFAULT_CUTOFF):
    """Single-mode coherent state |alpha>, renormalized after truncation."""
    return normalize(coherent_amplitudes(alpha, cutoff))


def coherent_product(alphas, cutoff=DEFAULT_CUTOFF):
    """Two-mode coherent product state |alpha_1, alpha_2>, a (d, d) tensor."""
    if np.shape(alphas) != (2,):
        raise ValueError("coherent_product takes exactly two amplitudes")
    return normalize(np.multiply.outer(*coherent_amplitudes(alphas, cutoff)))


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


def _monomial_structure(u):
    """(perm, phases) when the unitary u is a generalized permutation matrix, else None.

    perm[k] is the row carrying column k's single unit-modulus entry and
    phases[k] that entry; since u is unitary, no two columns share a row.
    """
    rows = np.arange(u.shape[0])
    perm = np.argmax(np.abs(u), axis=0)  # the row of each column's largest entry
    phases = u[perm, rows]
    rest = np.linalg.norm(np.where(rows[:, None] == perm, 0.0, u), axis=0)
    if np.any(np.abs(np.abs(phases) - 1.0) > 1e-12) or np.any(rest > 1e-12):
        return None
    return perm, phases


def _monomial_unitary(perm, phases, config):
    """Exact second quantization of a mode permutation with phases.

    pi(U)|n_1, n_2> = phases[0]^n_1 phases[1]^n_2 |n_1, n_2>, the mode axes
    then swapped if perm swaps the modes: no truncation error at all.
    """
    n = np.arange(config.dim_per_mode)
    phase = np.multiply.outer(phases[0] ** n, phases[1] ** n)
    phase.flags.writeable = False
    swap = perm[0] == 1
    return lambda t: (phase * t).swapaxes(-2, -1) if swap else phase * t


def _sector_unitary(h, config):
    """exp(i sum_jk h_jk a_j^dag a_k) on two truncated modes, all sectors at once.

    The Hamiltonian conserves N = n_1 + n_2, so it never couples two
    sectors.  Sector N holds |k, N - k> for max(0, N - cutoff) <= k <=
    min(N, cutoff); there it is tridiagonal, with diagonal h_00 k +
    h_11 (N - k) and <k+1|H|k> = h_01 sqrt((k + 1)(N - k)).  Row r of the
    packed d x d layout holds sector r (k = 0..r), then the corner sector
    cutoff + 1 + r (k = r + 1..cutoff): element (r, k) is t[k, (r - k) mod d].
    Each row is one d x d matrix (its coupling at k = r vanishes), made real
    by the gauge |k> -> e^{ik arg h_01}|k> and exponentiated by eigh; a mask
    to each row's two blocks keeps roundoff from coupling sectors.  Rows are
    built ``_LIFT_BLOCK_ROWS`` at a time into the returned stack, with the
    bytes of one batch (batched eigh and matmul act matrix by matrix).  The
    d eigh calls on d x d matrices cost O(d^4): 2.7 ms at cutoff 25, 28.5 ms
    at 60 and 104 ms at 90 on one BLAS thread.
    """
    d = config.dim_per_mode
    k = np.arange(d)
    r = k[:, None]
    first = k <= r  # packed element (r, k) lies in sector r, not cutoff + 1 + r
    total = np.where(first, r, r + d)
    gauge = np.exp(1j * np.angle(h[0, 1]) * (k - k[:, None]))
    # (U_r)^T = conj(D) e^{iS_r} D for the real rows S_r and D = diag(e^{ik arg h_01})
    u_t = np.empty((d, d, d), dtype=complex)
    for start in range(0, d, _LIFT_BLOCK_ROWS):
        rows = slice(start, start + _LIFT_BLOCK_ROWS)
        n = total[rows]
        ham = np.zeros((len(n), d, d))
        ham[:, k, k] = (h[0, 0] * k + h[1, 1] * (n - k)).real
        ham[:, k[1:], k[:-1]] = abs(h[0, 1]) * np.sqrt((k[:-1] + 1) * (n[:, :-1] - k[:-1]))
        ham[:, k[:-1], k[1:]] = ham[:, k[1:], k[:-1]]
        vals, vecs = np.linalg.eigh(ham)
        block = u_t[rows]
        np.matmul(vecs * np.cos(vals)[:, None, :], vecs.swapaxes(1, 2), out=block.real)
        np.matmul(vecs * np.sin(vals)[:, None, :], vecs.swapaxes(1, 2), out=block.imag)
        block *= gauge
        block[first[rows, :, None] != first[rows, None, :]] = 0.0  # the two sectors stay uncoupled
    u_t.flags.writeable = False
    gather = k * d + (r - k) % d  # flat (k, (r - k) mod d) for packed (r, k)
    scatter = (r + k) % d * d + r  # flat packed ((j + m) mod d, j) for tensor (j, m)
    gather.flags.writeable = scatter.flags.writeable = False

    def act(t):
        packed = np.reshape(t, (-1, d * d))[:, gather].swapaxes(0, 1)  # (r, batch, k)
        out = (packed @ u_t).swapaxes(0, 1).reshape(-1, d * d)
        return out[:, scatter].reshape(np.shape(t))

    return act


def passive_gaussian_unitary(u, config):
    """Second quantization of a U(2) mode rotation: pi(U)|alpha> = |U alpha>.

    Returns pi(U) as a function on amplitude tensors (see the module
    docstring).  Generalized permutation matrices are lifted exactly.  Any
    other unitary is built by exponentiating the quadratic Hamiltonian
    sum_jk h_jk a_j^dag a_k one total-number sector at a time.  That route is
    exact on sectors that fit under the per-mode cutoff; the corner sectors
    N > cutoff carry a small truncation error and depend on h itself, not
    only on U.  Such a U is normal with distinct eigenvalues w, so the QR of
    its eigenvectors is an orthonormal eigenbasis Q, and
    h = Q diag(angle(w)) Q^dag: the principal logarithm, with angle(w) in
    [-pi, pi] as the sign of the computed imaginary part of w decides (an
    eigenvalue -1 - 1e-17i gives -pi).

    The lift is memoized on the exact bytes of the complex-cast U and
    ``config``, keeping the ``LIFT_MEMO_SIZE`` latest lifts read-only: a
    sector lift holds d^3 complex numbers (0.28 MB at cutoff 25), so the
    memo holds at most ``LIFT_MEMO_SIZE`` x 16 d^3 bytes, 9 MB at cutoff
    25.  The shape of U is checked on every call, ahead of the memo, since
    arrays of two shapes can share their bytes; its unitarity is checked on
    a memo miss, and a U that fails it (NaN entries included) is never
    memoized, so it raises again on every call.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError("matrix dimension must be 2 x 2")
    return _lift(u.tobytes(), config)


@memoized(LIFT_MEMO_SIZE)
def _lift(u_bytes, config):
    """pi(U) for the unitary U whose complex128 bytes (C order) are ``u_bytes``."""
    u = np.frombuffer(u_bytes, dtype=complex).reshape(2, 2)
    if not np.linalg.norm(u.conj().T @ u - np.eye(2)) <= 1e-10:
        raise ValueError("mode transformation must be unitary")
    monomial = _monomial_structure(u)
    if monomial is not None:
        return _monomial_unitary(*monomial, config)
    vals, vecs = np.linalg.eig(u)
    q, _ = np.linalg.qr(vecs)
    return _sector_unitary((q * np.angle(vals)) @ q.conj().T, config)


def number_diagonal_operator(phases, config):
    """Diagonal unitary multiplying |n_1, n_2> by phases[n_1, n_2].

    ``phases`` broadcasts to (d, d), so a 1-d profile acts on the second
    mode; every entry must be unimodular (a NaN entry is not).  The
    operator holds a read-only view of ``phases``.
    """
    values = np.broadcast_to(phases, (config.dim_per_mode,) * 2)
    if not np.max(np.abs(np.abs(values) - 1.0)) <= 1e-12:
        raise ValueError("diagonal entries must be unimodular")
    return lambda t: values * t


@memoized(LADDER_MEMO_SIZE)
def annihilation_operator(mode, config, power=1):
    """a^power of mode 0 or 1, as a function on amplitude tensors.

    out[n] = sqrt((n + power)! / n!) t[n + power], written by one
    slice-and-multiply into a zeroed output, so the top ``power`` levels of
    the mode are exactly zero.  The coefficients are the square roots of
    exact integer products, so power 1 multiplies by sqrt(1..d-1) and
    power k agrees with k single steps to rounding.  Memoized on the
    arguments and their types, so ``power=2.0`` is its own key and raises
    however often ``power=2`` was built; the ``LADDER_MEMO_SIZE`` latest
    operators are kept, their coefficients read-only.
    """
    if not _integer_at_least(mode, 0) or mode > 1:
        raise ValueError("invalid mode index")
    if not _integer_at_least(power, 1):
        raise ValueError("power must be an integer >= 1")
    keep = max(config.dim_per_mode - power, 0)
    product = np.prod(np.arange(1.0, keep + 1)[:, None] + np.arange(power), axis=1)
    after = (slice(None),) * (1 - mode)  # the second mode's axis, for mode 0
    root = np.sqrt(product).reshape((-1,) + (1,) * len(after))  # along the mode's axis
    root.flags.writeable = False
    low = (Ellipsis, slice(0, keep)) + after
    high = (Ellipsis, slice(power, None)) + after

    def act(t):
        t = np.asarray(t)
        out = np.zeros(t.shape, dtype=np.result_type(root, t))
        np.multiply(root, t[high], out=out[low])
        return out

    return act


GRAM_FLOOR = 1e-12  # hermitian_inv_sqrt's default floor, relative to the largest eigenvalue


class SingularGramError(ValueError):
    """A Gram matrix whose smallest eigenvalue lies at or below its floor."""

    def __init__(self, condition_number):
        super().__init__("Gram matrix numerically singular")
        self.condition_number = condition_number


def _hermitian_eigh(a):
    """eigh (w ascending) of (A + A^H) / 2 for a matrix or stack A, Hermitian to 1e-10.

    Each matrix's Frobenius defect ||A - A^H|| is held to 1e-10 on its own.
    A NaN or inf entry fails that test (its defect is NaN or inf), so a
    non-finite matrix raises instead of reaching eigh.
    """
    a = np.asarray(a, dtype=complex)
    ah = a.conj().swapaxes(-1, -2)
    # inf - inf on the diagonal is NaN, and a defect past 1e154 squares to inf
    with np.errstate(invalid="ignore", over="ignore"):
        hermitian = np.linalg.norm(a - ah, axis=(-2, -1)) <= 1e-10
    if not np.all(hermitian):
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


def hermitian_inv_sqrt(a, floor=GRAM_FLOOR, pseudo=False):
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
