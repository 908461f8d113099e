"""Finite matrix subgroups of U(2) and their Fourier analysis.

A group's elements are one ordered (|G|, 2, 2) array of unitaries,
``matrices``, with precomputed Cayley and inverse tables; ``elements`` lists
them as namespaces with ``matrix`` and ``index``.  Element equality is
decided at a fixed Frobenius tolerance, and the ordering produced by the
breadth-first closure is deterministic, so element indices are stable
across runs.  Every Fourier decision of the package is made here: the
Fourier transform carries its (irrep, l, m) row labels, and
``logical_rows`` picks the four rows of the 2-dimensional irrep that label
the two-mode code's basis.  For the cyclic group Z_N the transform is the
DFT w^{kl}/sqrt(N); the single-mode cat qudit is built from its closed form,
which the tests check against this route.

The construction layer is built once per process.  ``pauli_group()`` and
``quaternion_group()`` each return one shared instance; ``irrep_table`` is
memoized on the group object and ``build_fourier_transform`` on the group
and irrep tuple objects, each keeping its ``GROUP_MEMO_SIZE`` latest
results.  None of this depends on the Fock cutoff: D8 and Q8 with their
tables retain 18 kB in all, and a full memo of order-64 cyclic groups 3.2 MB.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache, wraps
from types import SimpleNamespace

import numpy as np

# Tolerance at which two 2x2 unitaries are considered the same element.
MATCH_TOL = 1e-9

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
PHASE_S = np.array([[1.0, 0.0], [0.0, 1.0j]], dtype=complex)
PHASE_T = np.array([[1.0, 0.0], [0.0, np.exp(1j * np.pi / 4)]], dtype=complex)


# Results kept by the irrep-table and Fourier-transform memos.
GROUP_MEMO_SIZE = 16


def memoized(maxsize):
    """Memoize a builder on its arguments, keeping the ``maxsize`` latest results.

    A memo stays only where its hits save at least 1% of a warm benchmark
    round (about 5 ms), by its own builds or by the hits it keeps up in an
    identity-keyed memo downstream; being reused is not enough.  Nine
    builders qualify (the README gives what each saves): ``pauli_group``,
    ``quaternion_group``, ``irrep_table``, ``build_fourier_transform``,
    ``encoding._constellation`` and ``code_basis``, ``fock._ladder_roots``
    (keyed on d), ``channels._loss_tables`` and ``cli.build_parser``.

    The result is a plain function (so tracers that wrap module functions
    still see each call) whose ``__wrapped__`` is the uncached builder.
    Arguments are keyed by hash and equality, which is identity for the
    groups, irreps, constellations and Fourier transforms of this package,
    and by type, so ``2`` and ``2.0`` are two keys and a builder that
    accepts one and rejects the other validates each on its own.  Every
    array a memoized result holds is read-only, so a hit never returns
    changed contents, and a call that raises is not memoized, so its
    validation runs again on every call.
    """

    def decorate(build):
        cached = lru_cache(maxsize=maxsize, typed=True)(build)

        @wraps(build)
        def memo(*args, **kwargs):
            return cached(*args, **kwargs)

        memo.cache_info, memo.cache_clear = cached.cache_info, cached.cache_clear
        return memo

    return decorate


def _integer_at_least(n, low):
    """The one size check: an integer n >= low (numpy integers too), but not a bool."""
    # a plain int skips the slower ABC test: operators are checked on every build
    integral = type(n) is int or (isinstance(n, numbers.Integral) and not isinstance(n, bool))
    return integral and n >= low


# The message of every refusal by ``_positive_amplitude``.
AMPLITUDE_RULE = "alpha must be positive, with a finite 2 alpha^2"


def _positive_amplitude(alpha):
    """The one amplitude rule: alpha > 0 (not NaN) with a finite 2 alpha^2, so alpha < 9.48e153."""
    return alpha > 0 and math.isfinite(2.0 * float(alpha) * float(alpha))


def _is_unitary(u):
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        return False
    return np.linalg.norm(u.conj().T @ u - np.eye(2)) <= 1e-12


@dataclass(eq=False)
class FiniteMatrixGroup:
    """An ordered finite subgroup of U(2) with multiplication tables (read-only)."""

    matrices: np.ndarray  # (|G|, 2, 2), in element order
    cayley: np.ndarray
    inverse: np.ndarray
    identity_index = 0  # generate_group puts the identity first

    @property
    def order(self):
        return len(self.matrices)

    @property
    def elements(self):
        return [SimpleNamespace(matrix=m, index=i) for i, m in enumerate(self.matrices)]

    def find(self, u):
        """Index of the element matching ``u`` to ``MATCH_TOL``, or -1."""
        hits = np.flatnonzero(np.linalg.norm(self.matrices - u, axis=(1, 2)) <= MATCH_TOL)
        return int(hits[0]) if hits.size else -1

    def is_abelian(self):
        return np.array_equal(self.cayley, self.cayley.T)


@dataclass(eq=False)
class Irrep:
    """An irreducible representation, one matrix per group element."""

    label: str
    dim: int
    matrices: np.ndarray  # shape (|G|, dim, dim)


@dataclass(eq=False)
class GroupFourierTransform:
    """The |G| x |G| Fourier unitary with its (irrep, l, m) row labels."""

    matrix: np.ndarray
    row_index: tuple  # (label, l, m) of each row
    irreps: tuple  # as build_fourier_transform orders them

    @property
    def logical_rows(self):
        """Rows (lambda, l, m) of the 2-dimensional irrep lambda, (l, m) at index 2 l + m."""
        for irrep in self.irreps:
            if irrep.dim > 1:
                return [self.row_index.index((irrep.label, l, m)) for l in (0, 1) for m in (0, 1)]
        raise ValueError("group has no irrep of dimension > 1")


def generate_group(generators, max_order=64):
    """Close a set of 2x2 unitaries into a finite group by breadth-first search.

    The identity always gets index 0; new elements are appended in the order
    they are first reached, which makes the labeling reproducible.  Each level
    is one batched matmul; a product is new if its first match within
    ``MATCH_TOL``, known or from this level, is itself.

    Raises:
        ValueError: if a generator is not unitary, or the closure exceeds
            ``max_order`` ("group too large or not finite").
    """
    gens = [np.asarray(g, dtype=complex) for g in generators]
    if not all(_is_unitary(g) for g in gens):
        raise ValueError("generator is not unitary")
    if not _integer_at_least(max_order, 1):
        raise ValueError("max_order must be an integer >= 1")

    gens = np.reshape(gens, (-1, 2, 2))
    mats = np.eye(2, dtype=complex)[None]
    frontier = mats
    while len(frontier) and len(gens):
        prods = (frontier[:, None] @ gens).reshape(-1, 2, 2)
        pool = np.concatenate([mats, prods])
        match = np.linalg.norm(prods[:, None] - pool, axis=(2, 3)) <= MATCH_TOL
        frontier = prods[np.argmax(match, axis=1) == len(mats) + np.arange(len(prods))]
        if len(mats) + len(frontier) > max_order:
            raise ValueError("group too large or not finite")
        mats = np.concatenate([mats, frontier])

    n = len(mats)
    cayley = np.empty((n, n), dtype=int)
    rows = max(1, 64 // n)  # at most max(|G|, 64) |G| 2x2 differences at once
    for i in range(0, n, rows):
        prods = mats[i : i + rows, None] @ mats  # rows i.. of the product table
        match = np.linalg.norm(prods[:, :, None] - mats, axis=(3, 4)) <= MATCH_TOL
        if not np.all(match.any(axis=2)):
            raise ValueError("group too large or not finite")
        cayley[i : i + rows] = np.argmax(match, axis=2)  # the first matching element
    inverse = np.argmax(cayley == 0, axis=1)
    for table in (mats, cayley, inverse):
        table.flags.writeable = False
    return FiniteMatrixGroup(matrices=mats, cayley=cayley, inverse=inverse)


@memoized(1)
def pauli_group():
    """The real Pauli group <X, Z> of order 8: one shared instance per process."""
    return generate_group([PAULI_X, PAULI_Z])


@memoized(1)
def quaternion_group():
    """The quaternion group Q8 = <iX, iZ>: one shared instance per process."""
    return generate_group([1j * PAULI_X, 1j * PAULI_Z])


def cyclic_group(n):
    """Z_N realized as diag(1, w^k) with w = exp(2 pi i / N)."""
    if not _integer_at_least(n, 1):
        raise ValueError("N must be an integer >= 1")
    w = np.exp(2j * np.pi / n)
    return generate_group([np.diag([1.0, w]).astype(complex)], max_order=n)


def _element_order(group, i):
    k, count = i, 1
    while k != group.identity_index:
        k = group.cayley[k, i]
        count += 1
    return count


def _pauli_like_exponents(m):
    """Exponents (a, b) with m[g] = phase * X^a Z^b for every g, shape (|G|, 2), or None."""
    a = np.abs(m[:, 0, 1]) > 0.5  # off-diagonal: involves X
    p = np.where(a, m[:, 0, 1], m[:, 0, 0])  # the two entries that carry the phase
    q = np.where(a, m[:, 1, 0], m[:, 1, 1])
    same, flipped = np.abs(p - q) <= 1e-6, np.abs(p + q) <= 1e-6
    stray = np.where(a, np.maximum(np.abs(m[:, 0, 0]), np.abs(m[:, 1, 1])), 0.0)
    if not np.all((same | flipped) & (stray <= 1e-6)):
        return None
    return np.stack([a, ~same], axis=1).astype(int)


@memoized(GROUP_MEMO_SIZE)
def irrep_table(group):
    """The complete tuple of irreps for a supported group.

    Supported: the order-8 Pauli-like groups D8 = <X,Z> and Q8 = <iX,iZ>
    (four characters plus the 2-dimensional defining representation) and
    cyclic groups Z_N (N characters).  The tables are validated against the
    homomorphism, unitarity and irreducibility invariants before being
    returned.  Memoized on the group object; the matrices are read-only.
    """
    n = group.order
    irreps = []
    if group.is_abelian():
        # Find a generator of the full cyclic group.
        gen = next((i for i in range(n) if _element_order(group, i) == n), None)
        if gen is None:
            raise ValueError("irrep table not available")
        power = np.zeros(n, dtype=int)
        k = group.identity_index
        for p in range(n):
            power[k] = p
            k = group.cayley[k, gen]
        w = np.exp(2j * np.pi / n)
        for k in range(n):
            mats = (w ** (k * power))[:, None, None]
            irreps.append(Irrep(label=f"chi{k}", dim=1, matrices=mats))
    elif n == 8:
        exps = _pauli_like_exponents(group.matrices)
        if exps is None:
            raise ValueError("irrep table not available")
        signs = (-1.0 + 0j) ** (exps @ [[0, 0, 1, 1], [0, 1, 0, 1]])  # column 2s + t: chi_st
        for k, label in enumerate(("chi00", "chi01", "chi10", "chi11")):
            irreps.append(Irrep(label=label, dim=1, matrices=signs[:, k, None, None]))
        irreps.append(Irrep(label="lambda", dim=2, matrices=group.matrices))
    else:
        raise ValueError("irrep table not available")

    for r in irreps:  # one at a time: all N characters of Z_N in one stack take O(N^3)
        _validate_irrep(group, r)
    if sum(r.dim**2 for r in irreps) != n:
        raise ValueError("irrep table not available")
    for r in irreps:
        r.matrices.flags.writeable = False
    return tuple(irreps)


def _validate_irrep(group, irrep):
    """Raise unless ``irrep.matrices``, (|G|, dim, dim) or a stack of such, are irreps."""
    mats = irrep.matrices
    gram = mats.conj().swapaxes(-1, -2) @ mats
    unitarity = np.linalg.norm(gram - np.eye(irrep.dim), axis=(-2, -1))
    products = mats[..., :, None, :, :] @ mats[..., None, :, :, :]  # rho(g) rho(h)
    homomorphism = np.linalg.norm(products - mats[..., group.cayley, :, :], axis=(-2, -1))
    char_sum = np.sum(np.abs(np.trace(mats, axis1=-2, axis2=-1)) ** 2, axis=-1)
    char_sum_bad = np.any(np.abs(char_sum - group.order) > 1e-8)
    if max(unitarity.max(), homomorphism.max()) > 1e-10 or char_sum_bad:
        raise ValueError("irrep table not available")


@memoized(GROUP_MEMO_SIZE)
def build_fourier_transform(group, irreps):
    """The group Fourier transform F_G over the given irrep tuple.

    Rows are ordered with the one-dimensional irreps first (in table order),
    then the higher-dimensional ones, with (l, m) row-major inside each
    irrep.  Entry convention: F[(rho,l,m), g] = sqrt(d_rho/|G|) rho(g)[l,m],
    which makes F unitary by Schur orthogonality.  Memoized on the group
    and the irrep tuple (hashable, as ``irrep_table`` returns it); the
    matrix is read-only.
    """
    n = group.order
    if sum(r.dim**2 for r in irreps) != n:
        raise ValueError("incomplete irrep set: dimension mismatch")
    ordered = tuple(r for r in irreps if r.dim == 1) + tuple(r for r in irreps if r.dim > 1)
    # the rows of irrep r are the columns of its (|G|, dim^2) table, (l, m) row-major
    matrix = np.concatenate([(np.sqrt(r.dim / n) * r.matrices).reshape(n, -1).T for r in ordered])
    matrix.flags.writeable = False
    row_index = tuple((r.label, l, m) for r in ordered for l in range(r.dim) for m in range(r.dim))
    return GroupFourierTransform(matrix=matrix, row_index=row_index, irreps=ordered)


def verify_block_diagonalization(fourier, group):
    """Max residual of the simultaneous block-diagonalization identities.

    For every g, F L(g) F^dag must equal the direct sum of rho(g) x I and
    F R(g) F^dag the direct sum of I x conj(rho(g)).  The conjugate on the
    right-hand blocks is forced by the inverse in the right action; for
    groups whose irrep matrices are real (such as <X, Z>) it is invisible.
    Column h of L(g) is |gh> and of R(g) is |h g^-1>, so F L(g) is F with its
    columns picked by the Cayley table, and all g are checked in one product.
    """
    f = fourier.matrix
    n = len(f)
    want = np.zeros((2, n, n, n), dtype=complex)  # (side, g) stack of the direct sums
    k = 0
    for irrep in fourier.irreps:
        rho, eye, m = irrep.matrices, np.eye(irrep.dim), irrep.dim**2
        # kron(rho(g), I) and kron(I, conj(rho(g))) for every g at once
        left = np.einsum("gab,cd->gacbd", rho, eye)
        right = np.einsum("ab,gcd->gacbd", eye, rho.conj())
        want[:, :, k : k + m, k : k + m] = np.reshape([left, right], (2, n, m, m))
        k += m
    images = np.stack([group.cayley, group.cayley[:, group.inverse].T])  # (side, g, h)
    got = f[:, images].transpose(1, 2, 0, 3) @ f.conj().T
    return float(np.max(np.linalg.norm(got - want, axis=(2, 3))))
