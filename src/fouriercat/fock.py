"""Truncated two-mode Fock-space numerics.

A state is its amplitude array: a plain complex (d, d) tensor with one axis
per mode, d = cutoff + 1.  Operators are plain functions on such tensors:
they map an array whose last two axes are the modes to an array of the same
shape, and any leading axes are a batch, so a stack of states is mapped in
one call.  An operator takes no dimension: it reads d from the last axis of
the tensor it acts on, so one operator serves every cutoff.  The only
operators are the ladder powers a_i^k, which the checks that are about
photon numbers apply.  No operator is stored as a matrix over the full
space, and no gate is applied to a state: ``gates`` reduces each gate on a
code state's coherent points instead.  An operator's arguments are validated
when it is built; the ladder coefficients it applies are memoized per d
(see ``annihilation_operator``).  A sum of coherent products
sum_t w_t f_t0 (x) f_t1 is its weights and its (n, 2, d) per-mode factors:
``coherent_sum`` forms its (d, d) tensors, ``product_gram`` the overlaps of
two such families mode by mode.
Every constructor that builds a physical state from coherent amplitudes
audits the truncated Poisson tail so that silent truncation errors cannot
creep into downstream fidelity computations.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .groups import _integer_at_least, memoized

DEFAULT_CUTOFF = 25
TAIL_TOL = 1e-12
# Tables kept by the ladder-coefficient memo.
LADDER_MEMO_SIZE = 32


def overlap_matrix(bras, kets):
    """<bras[i]|kets[j]> for two stacks of amplitude tensors (stacked on axis 0)."""
    return np.conj(bras).reshape(len(bras), -1) @ np.reshape(kets, (len(kets), -1)).T


def normalize(t, axes=None):
    """t divided by its norm over ``axes`` (all axes when None, else an axis or two).

    The norms are kept as size-one axes, so a stack of states normalizes
    state by state, and an empty stack comes back unchanged; a zero state
    raises (an empty one too), and so does a NaN or inf entry (its norm is
    NaN or inf).
    """
    # conj(inf) * inf is NaN on the axis path, and a norm past 1e154 squares to inf
    with np.errstate(invalid="ignore", over="ignore"):
        norm = np.linalg.norm(t, axis=axes, keepdims=True)
    if norm.size and not (norm.min() >= 1e-300 and norm.max() < np.inf):  # a NaN fails the first test
        raise ValueError("cannot normalize a zero state or a non-finite one")
    return t / norm


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
    """Coherent states |alpha>, shape alpha.shape + (d,), each audited and normalized on its own."""
    return normalize(coherent_amplitudes(alpha, cutoff), axes=-1)


def coherent_product(alphas, cutoff=DEFAULT_CUTOFF):
    """Two-mode coherent product state |alpha_1, alpha_2>, a (d, d) tensor."""
    if np.shape(alphas) != (2,):
        raise ValueError("coherent_product takes exactly two amplitudes")
    return normalize(np.multiply.outer(*coherent_amplitudes(alphas, cutoff)))


def coherent_sum(weights, factors):
    """The (d, d) tensors sum_t weights[i, t] f_t0 (x) f_t1 of the (n, 2, d) ``factors``.

    Row i of the weights gives F_0^T diag(weights[i]) F_1, one GEMM for all rows.
    """
    return (factors[:, 0].T * weights[:, None, :]) @ factors[:, 1]


def product_gram(bras, kets):
    """<bras[q]|kets[r]> of coherent products from their (n, 2, d) factors, prod_m F_m^H F_m."""
    per_mode = np.conj(bras).swapaxes(0, 1) @ np.transpose(kets, (1, 2, 0))  # (mode, q, r)
    return per_mode[0] * per_mode[1]


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


def annihilation_operator(mode, power=1):
    """a^power of mode 0 or 1, as a function on amplitude tensors.

    out[n] = sqrt((n + power)! / n!) t[n + power], written by one
    slice-and-multiply into a zeroed output, so the top ``power`` levels of
    the mode are exactly zero.  The mode and the power are checked when the
    operator is built, and they must be integers (``power=2.0`` raises);
    the coefficients come from ``_ladder_roots`` at the state's d.
    """
    if not _integer_at_least(mode, 0) or mode > 1:
        raise ValueError("invalid mode index")
    if not _integer_at_least(power, 1):
        raise ValueError("power must be an integer >= 1")
    power = int(power)

    def act(t):
        t = np.asarray(t)
        root = _ladder_roots(t.shape[-1], power)[mode]  # along the mode's axis
        out = np.zeros(t.shape, dtype=np.result_type(root, t))
        if mode:
            np.multiply(root, t[..., power:], out=out[..., : len(root)])
        else:
            np.multiply(root, t[..., power:, :], out=out[..., : len(root), :])
        return out

    return act


@memoized(LADDER_MEMO_SIZE)
def _ladder_roots(d, power):
    """The read-only coefficients sqrt((n + power)! / n!), n < d - power, of a^power.

    They are the square roots of exact integer products, so power 1 gives
    sqrt(1..d-1) and power k agrees with k single steps to rounding.
    Returned as a column for mode 0 and a row for mode 1, two views of one array.
    """
    keep = max(d - power, 0)
    product = np.prod(np.arange(1.0, keep + 1)[:, None] + np.arange(power), axis=1)
    root = np.sqrt(product)
    root.flags.writeable = False
    return root[:, None], root


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
