"""Logical gate and measurement verification on the code subspace.

Each physical operation is reduced to its 4x4 action on the encoded basis
(ordered (0,0), (0,1), (1,0), (1,1), i.e. logical index first), together
with the leakage out of the target code subspace.

A code state is a sum of coherent products, sum_h C[i, h] |p_h>, and a
passive gate maps it to another such sum, pi(U)|p> = |U p>, so no U is
lifted.  There is one route, in three cases.  A group element g permutes the
constellation, pi(g)|p_h> = |p_gh>, so its images reuse the constellation's
factors in Cayley-table order.  Any other U moves the points, whose factors
are then built (``_coherent_images``).  The swap pi(X) exchanges the two
mode axes.  The self-Kerr phase splits each point in two,
i^{n^2} = ((1 + i) + (1 - i)(-1)^n) / 2 (Yurke and Stoler, PRL 57, 13
(1986)).

The gate tables (phase profiles, the closed-form Z_L Y_M eigenstates) are
rebuilt on each call: each costs tens of microseconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import encoding
from .fock import (
    _log_factorials,
    annihilation_operator,
    coherent_state,
    infidelity,
    normalize,
    number_diagonal_operator,
    overlap_matrix,
)
from .groups import HADAMARD, PAULI_Z

IDENTITY2 = np.eye(2, dtype=complex)


@dataclass
class LogicalAction:
    """4x4 logical matrix of a physical operator, with leakage diagnostics."""

    matrix: np.ndarray
    leakage: float


@dataclass
class ZenoGate:
    """Code-space restriction of the quadratic Zeno drive a1^2 + a1^dag2."""

    theta: float
    projected_hamiltonian: np.ndarray

    def logical_unitary(self, alpha):
        """exp(i theta H_proj / (2 alpha^2)) on the code basis, by eigh of H_proj."""
        vals, vecs = np.linalg.eigh(self.projected_hamiltonian)
        return (vecs * np.exp(1j * self.theta * vals / (2 * alpha**2))) @ vecs.conj().T


# Cells of the photon-number-mod-4 outcome table for each Z_L Y_M eigenstate.
TABLE_CELLS = {
    "0-i": {(1, 0), (3, 2)},
    "0+i": {(1, 2), (3, 0)},
    "1-i": {(0, 1), (2, 3)},
    "1+i": {(0, 3), (2, 1)},
}


def phase_aligned_distance(measured, target):
    """min over global phases p of ||measured - e^{ip} target||."""
    overlap = np.trace(target.conj().T @ measured)
    phase = overlap / abs(overlap) if abs(overlap) >= 1e-12 else 1.0
    return float(np.linalg.norm(measured - phase * target))


def logical_action(physical_op, code):
    """Reduce a physical operator to its matrix on the encoded basis.

    matrix[(l',m'), (l,m)] = <l',m'| op |l,m>; the leakage is the largest
    norm of any image component outside the code subspace.
    """
    return _logical_reduction(physical_op(code.amplitudes), code)


def _logical_reduction(images, code):
    """``logical_action`` of an operator, from its images of the four basis states."""
    basis = code.amplitudes
    mat = overlap_matrix(basis, images)
    residual = images - (mat.T @ basis.reshape(4, -1)).reshape(images.shape)
    leak = float(np.max(np.linalg.norm(residual, axis=(-2, -1))))
    return LogicalAction(matrix=mat, leakage=leak)


def group_covariance(code):
    """Largest leakage of pi(g) E out of the code space, over the group elements g.

    The residual of g is the Frobenius norm of pi(g) applied to all four
    basis states minus its projection back onto the code.  pi(g) permutes
    the constellation, pi(g)|p_h> = |p_gh>, so the images of g are the code's
    expansion over its own factors taken in the order of row g of the Cayley
    table.  One g is imaged, projected and reduced to its squared residual
    at a time, so no more than one g's (4, d^2) images are held, and the
    largest square is kept.
    """
    basis = code.amplitudes.reshape(4, -1)
    constellation = code.constellation
    worst = 0.0
    for row in constellation.group.cayley:
        image = _coherent_images(code.coefficients, constellation.factors[row]).reshape(basis.shape)
        image -= (image @ basis.conj().T) @ basis  # minus sum_k <basis_k|pi(g) basis_i> basis_k
        squares = image.reshape(-1).view(float)  # the squared norm, no temporary
        worst = np.maximum(worst, np.einsum("k,k->", squares, squares))  # NaN propagates
    return float(np.sqrt(worst))


def self_kerr_s_gate():
    """The self-Kerr diagonal i^{n2^2} on the second mode, at the state's cutoff."""
    return lambda t: number_diagonal_operator(1j ** (np.arange(np.shape(t)[-1]) ** 2 % 4))(t)


def s_gate_check(code):
    """Logical action of the self-Kerr i^{n2^2}; should equal S (x) I."""
    return logical_action(self_kerr_s_gate(), code)


def cz_gate_check(code):
    """16x16 logical matrix of the cross-Kerr (-1)^{n2 n4} on two code copies.

    The operator is diagonal, so its matrix elements on products of two-mode
    states factor through per-mode density profiles; no 4-mode operator is
    ever materialized.
    """
    d = code.amplitudes.shape[-1]
    odd = np.arange(d) % 2
    parity = 1.0 - 2.0 * np.outer(odd, odd)  # (-1)^(n2 n4), exactly +-1
    # C[i', i, n2] = sum_n1 conj(b_i'[n1,n2]) b_i[n1,n2], rows (i', i)
    c = np.einsum("iab,jab->ijb", code.amplitudes.conj(), code.amplitudes).reshape(16, d)
    # (i1', i1, i2', i2) -> row (i1', i2'), column (i1, i2)
    pairs = ((c @ parity) @ c.T).reshape(4, 4, 4, 4)
    return pairs.transpose(0, 2, 1, 3).reshape(16, 16)


def cz_target():
    """diag((-1)^{l1 l2}) over the basis (l1, m1, l2, m2), row-major."""
    logical = np.arange(4) // 2  # l of basis state 2 l + m
    return np.diag((-1.0 + 0j) ** np.outer(logical, logical).ravel())


def _coherent_images(weights, factors):
    """The (d, d) images sum_t weights[i, t] |p_t>, one per row of weights.

    Each |p_t> is factors[t, 0] (x) factors[t, 1], as the code's own
    constellation states are, so image i is F_1^T diag(weights[i]) F_2.
    """
    return (factors[:, 0].T * weights[:, None, :]) @ factors[:, 1]


def _kerr_split(weights, points):
    """The terms of i^{n2^2} sum_t w_t |p_t>: each point and its mode-2 negation.

    Exact on truncated factors too: the factor of -b is (-1)^n that of b.
    """
    weights = np.concatenate([weights * (0.5 + 0.5j), weights * (0.5 - 0.5j)], axis=-1)
    return weights, np.concatenate([points, points * np.array([1.0, -1.0])])


def _mode_unitary(u):
    """u as a complex 2 x 2 array; raise unless it is one, unitary to 1e-10 (a NaN entry is not)."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError("matrix dimension must be 2 x 2")
    if not np.linalg.norm(u.conj().T @ u - np.eye(2)) <= 1e-10:
        raise ValueError("mode transformation must be unitary")
    return u


def _encoded_residual(code, target, u):
    """Max infidelity of pi(U) E(|l>|m>) vs E_target(U|l> (x) U|m>), pi(U) moving the points."""
    constellation = code.constellation
    factors = coherent_state(constellation.points @ u.T, constellation.cutoff)
    images = _coherent_images(code.coefficients, factors)
    # column (l, m) of U (x) U holds the coefficients u[l', l] u[m', m]
    amps = target.amplitudes
    rhs = (np.kron(u, u).T @ amps.reshape(4, -1)).reshape(amps.shape)
    return float(np.max([infidelity(a, b) for a, b in zip(images, rhs)]))


def deformation_residual(code, u):
    """Max infidelity of pi(U) E(|l>|m>) vs E_U(U|l> (x) U|m>)."""
    u = _mode_unitary(u)  # ahead of the deformed code
    deformed = encoding.deform_constellation(code.constellation, u)
    target = encoding.code_basis(deformed, code.fourier)
    return _encoded_residual(code, target, u)


def double_deformation_residual(code, u):
    """Max infidelity of pi(U)^2 E(|l>|m>) vs E(U^2|l> (x) U^2|m>)."""
    u = _mode_unitary(u)
    return _encoded_residual(code, code, u @ u)


def composite_hadamard_check(code):
    """Logical action of i^{n2^2} pi(H) i^{n2^2} pi(H) i^{n2^2}: Hadamard on L only."""
    return _logical_reduction(_composite_hadamard_images(code), code)


def _composite_hadamard_images(code):
    """i^{n2^2} pi(H) i^{n2^2} pi(H) i^{n2^2} on the four code states.

    The first two self-Kerr gates split the |G| points into 4 |G| terms; the
    last one acts as the diagonal on their images.
    """
    weights, points = code.coefficients, code.constellation.points
    for _ in range(2):
        weights, points = _kerr_split(weights, points)
        points = points @ HADAMARD.T
    factors = coherent_state(points, code.constellation.cutoff)
    return self_kerr_s_gate()(_coherent_images(weights, factors))


def zeno_projected_hamiltonian(code, theta=0.0):
    """Code-space matrix of a1^2 + a1^dag2 plus the a1^2 eigen-relation residual.

    Returns (ZenoGate, residual vs 2 alpha^2 Z (x) Z, max a1^2 eigen residual).
    """
    a1 = annihilation_operator(0)
    images = a1(a1(code.amplitudes))
    # <t|a1^2|s> plus <t|a1^dag2|s> = conj <s|a1^2|t>
    lower = overlap_matrix(code.amplitudes, images)
    mat = lower + lower.conj().T
    alpha = code.alpha
    target = 2 * alpha**2 * np.kron(PAULI_Z, PAULI_Z)
    residual = float(np.linalg.norm(mat - target))
    signs = np.array([1.0, -1.0, -1.0, 1.0])  # a1^2 |l, m> = (-1)^(l+m) alpha^2 |l, m>
    eigen = images - alpha**2 * signs[:, None, None] * code.amplitudes
    eig_res = float(np.max(np.linalg.norm(eigen, axis=(-2, -1))))
    return ZenoGate(theta=theta, projected_hamiltonian=mat), residual, eig_res


def snap_gate_check(code):
    """Logical actions of the mode-2 SNAP phases exp(i pi/2 (n^2 mod 4)) and exp(i pi/4 (n^4 mod 8))."""
    n = np.arange(code.amplitudes.shape[-1])
    s_op = number_diagonal_operator(np.exp(1j * np.pi / 2 * (n**2 % 4)))
    t_op = number_diagonal_operator(np.exp(1j * np.pi / 4 * (n**4 % 8)))
    return logical_action(s_op, code), logical_action(t_op, code)


# The Z_L Y_M eigenstates (|l, 0> + y |l, 1>) / sqrt(2), in this order
ZY_LABELS = ("0+i", "0-i", "1+i", "1-i")


def zy_eigenstates(code):
    """The four Z_L Y_M eigenstates as one normalized (4, d, d) stack, in ``ZY_LABELS`` order."""
    amps = code.amplitudes
    stack = amps[[0, 0, 2, 2]] + np.array([1j, -1j, 1j, -1j])[:, None, None] * amps[[1, 1, 3, 3]]
    return normalize(stack, axes=(-2, -1))


def _mod4_masses(prob):
    """(..., 4, 4) masses on the (n1 mod 4, n2 mod 4) residues of a (..., d, d) stack."""
    d = prob.shape[-1]
    q = -(-d // 4)
    padded = np.zeros(prob.shape[:-2] + (4 * q, 4 * q))
    padded[..., :d, :d] = prob  # zero-padded, so each residue gets its own axis
    return padded.reshape(prob.shape[:-2] + (q, 4, q, 4)).sum(axis=(-4, -2))


def outcome_distribution(amplitudes):
    """Probability of each of the 16 (n1 mod 4, n2 mod 4) outcomes for a (d, d) state.

    Every residue pair is reported, including those outside ``TABLE_CELLS``.
    """
    masses = _mod4_masses(np.abs(amplitudes) ** 2)
    return {(r1, r2): float(masses[r1, r2]) for r1 in range(4) for r2 in range(4)}


def y_readout(r1, r2):
    """Y_M label inferred from a mod-4 outcome, robust to one photon loss.

    The total residue s = n1 + n2 mod 4 separates the eigenvalues: odd s is
    the codeword sector, even s means a single loss occurred, and in both
    sectors s in {0, 1} reads -i while s in {2, 3} reads +i.
    """
    return "-i" if (r1 + r2) % 4 < 2 else "+i"


# per eigenstate in ZY_LABELS order, (r1, r2) masks of the cells outside
# its table cells and of the cells y_readout does not give its Y_M label
_OUTSIDE = np.array([
    [[(r1, r2) not in TABLE_CELLS[label] for r2 in range(4)] for r1 in range(4)]
    for label in ZY_LABELS
])
_WRONG = np.array([
    [[y_readout(r1, r2) != label[1:] for r2 in range(4)] for r1 in range(4)]
    for label in ZY_LABELS
])


def mod4_verification(code):
    """Outcome-mass report for each eigenstate, before and after one loss.

    For each Z_L Y_M eigenstate returns (mass outside its table cells,
    mass on wrong-Y_M cells after a_1, same after a_2).
    """
    stack = zy_eigenstates(code)
    prob = np.empty((3,) + stack.shape)  # before, after a_1, after a_2
    np.abs(stack, out=prob[0])
    for out, mode in zip(prob[1:], (0, 1)):
        np.abs(annihilation_operator(mode)(stack), out=out)
    prob **= 2
    masses = _mod4_masses(prob)  # (before/a_1/a_2, state, r1, r2)
    masses[1:] /= masses[1:].sum(axis=(-2, -1), keepdims=True)  # the lost states, normalized
    outside = (masses[0] * _OUTSIDE).sum(axis=(-2, -1))
    wrong = (masses[1:] * _WRONG).sum(axis=(-2, -1))
    return {
        label: (out, lost1, lost2)
        for label, out, lost1, lost2 in zip(ZY_LABELS, outside.tolist(), *wrong.tolist())
    }


def zy_expansion_residual(code):
    """Max deviation of the eigenstate Fock amplitudes from the closed form.

    The predicted amplitudes are ((-1)^q -/+ (-1)^p) f_{p,q} on |2p+1>|2q>
    (mode order swapped for l = 1), with f_{p,q} Poisson-like; one overall
    complex constant per state is fitted.
    """
    pred = _zy_prediction(code.alpha, code.amplitudes.shape[-1])
    actual = zy_eigenstates(code)
    scale = np.einsum("sab,sab->s", pred, actual) / np.einsum("sab,sab->s", pred, pred)
    return float(np.max(np.abs(actual - scale[:, None, None] * pred)))


def _zy_prediction(alpha, d):
    """The real (4, d, d) closed-form eigenstates, in ``ZY_LABELS`` order."""
    odd = 2 * np.arange(d // 2) + 1  # 2p + 1 < d
    even = 2 * np.arange((d + 1) // 2)  # 2q < d
    logfact = _log_factorials(d)
    f = np.exp(
        np.add.outer(odd, even) * np.log(alpha)
        - alpha**2
        - 0.5 * np.add.outer(logfact[odd], logfact[even])
    )
    sign = np.array([-1.0, 1.0, -1.0, 1.0])[:, None, None]  # -1 for the +i states
    coeff = ((-1.0) ** (even // 2) + sign * (-1.0) ** (odd // 2)[:, None]) * f  # [state, p, q]
    pred = np.zeros((4, d, d))
    pred[:2, odd[:, None], even] = coeff[:2]  # l = 0 on |2p+1>|2q>
    pred[2:, even[:, None], odd] = coeff[2:].swapaxes(1, 2)  # l = 1, modes swapped
    return pred
