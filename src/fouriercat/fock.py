"""Truncated two-mode Fock-space numerics.

A state is its amplitude array: a plain complex (d, d) tensor with one axis
per mode, d = cutoff + 1.  Operators are plain functions on such tensors:
they map an array whose last two axes are the modes to an array of the same
shape, and any leading axes are a batch, so a stack of states is mapped in
one call.  No operator is stored as a matrix over the full space.  Passive
unitaries are lifted here only when they are monomial (mode permutations
with phases), which the truncation leaves exact; a state built from coherent
points is moved by any U(2) rotation through its points instead
(pi(U)|alpha> = |U alpha>, see ``gates``).  The monomial lift and the ladder
operators are memoized (see ``passive_gaussian_unitary`` and
``annihilation_operator``).
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


def unit_coherent_factors(points, cutoff):
    """Audited per-mode factors of the products |p_1, p_2>, each normalized after truncation."""
    factors = coherent_amplitudes(points, cutoff)
    factors /= np.linalg.norm(factors, axis=-1, keepdims=True)
    return factors


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


def _mode_matrix(u):
    """u as a complex 2 x 2 array; any other shape raises."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError("matrix dimension must be 2 x 2")
    return u


def _check_unitary(u):
    """u itself; raise unless the 2 x 2 matrix u is unitary to 1e-10 (a NaN entry is not)."""
    if not np.linalg.norm(u.conj().T @ u - np.eye(2)) <= 1e-10:
        raise ValueError("mode transformation must be unitary")
    return u


def passive_gaussian_unitary(u, config):
    """Second quantization of a monomial U(2) mode rotation: pi(U)|alpha> = |U alpha>.

    Returns pi(U) as a function on amplitude tensors (see the module
    docstring).  U must be a generalized permutation matrix, which is lifted
    exactly.  Any other unitary mixes in the sectors N > cutoff that the
    truncation cuts, so it raises ``ValueError``; the gates that apply such
    a U move coherent points instead (see ``gates``).

    The lift is memoized on the exact bytes of the complex-cast U and
    ``config``, keeping the ``LIFT_MEMO_SIZE`` latest lifts read-only (each
    holds one (d, d) phase table).  The shape of U is checked on every call,
    ahead of the memo, since arrays of two shapes can share their bytes; its
    unitarity is checked on a memo miss, and a U that fails it (NaN entries
    included) is never memoized, so it raises again on every call.
    """
    return _lift(_mode_matrix(u).tobytes(), config)


@memoized(LIFT_MEMO_SIZE)
def _lift(u_bytes, config):
    """pi(U) for the unitary U whose complex128 bytes (C order) are ``u_bytes``."""
    u = np.frombuffer(u_bytes, dtype=complex).reshape(2, 2)
    monomial = _monomial_structure(_check_unitary(u))
    if monomial is None:
        raise ValueError("only a monomial mode transformation is lifted exactly")
    return _monomial_unitary(*monomial, config)


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
