"""Logical gate and measurement verification on the code subspace.

Each physical operation is reduced to its 4x4 action on the encoded basis
(ordered (0,0), (0,1), (1,0), (1,1), i.e. logical index first), together
with the leakage out of the target code subspace.

A code state is a sum of coherent products, sum_h C[i, h] |p_h>, and each
gate here maps it to another such sum, which ``logical_action`` reduces in
coefficient space, forming no (d, d) image.  A passive U moves the points,
pi(U)|p> = |U p> (a group element permutes them), and a mode-2 phase that
depends only on the parity of n2 splits each point in two.  The checks
about photon numbers (mod-4 readout, Z_L Y_M expansion, Zeno a_1^2) stay on
the Fock states; the closed-form Z_L Y_M eigenstates are rebuilt per call.
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
    overlap_matrix,
    product_gram,
)
from .groups import HADAMARD, PAULI_Z

IDENTITY2 = np.eye(2, dtype=complex)


@dataclass
class LogicalAction:
    """matrix[..., j, i] = <j| op |i>; squares[..., i] = ||op|i> outside the code||^2."""

    matrix: np.ndarray
    squares: np.ndarray

    @property
    def leakage(self):
        """The largest norm of any image component outside the code space."""
        return float(np.sqrt(np.max(self.squares)))


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


def logical_action(code, weights, points):
    """``LogicalAction`` on ``code`` of the images sum_t weights[..., i, t] |points[t]> of its states.

    An image point within the constellation's degeneracy tolerance of an
    orbit point merges into its weight (one GEMM against the boolean hit
    matrix); the others are appended with their audited factors.  With Gamma
    their Gram matrix, matrix = C^* Gamma W^T and each square is R^H Gamma R
    for the residual weights R = W - matrix^T C, so it does not cancel.
    """
    constellation, coeff = code.constellation, code.coefficients
    orbit = constellation.points
    tol = encoding.DEGENERACY_TOL * max(1.0, float(np.linalg.norm(constellation.alpha_vec)))
    gap = np.abs(points[:, None] - orbit)  # (t, k, mode)
    hits = np.hypot(gap[..., 0], gap[..., 1]) <= tol
    away = ~hits.any(axis=1)
    factors = constellation.factors
    if away.any():  # coherent_state of no points costs as much as the rest of the reduction
        factors = np.concatenate([factors, coherent_state(points[away], constellation.cutoff)])
    merged = np.concatenate([weights @ hits, weights[..., away]], axis=-1)
    gram = product_gram(factors, factors)
    matrix = coeff.conj() @ gram[: len(orbit)] @ merged.swapaxes(-1, -2)
    merged[..., : len(orbit)] -= matrix.swapaxes(-1, -2) @ coeff  # now the residual weights
    squares = np.einsum("...ik,kl,...il->...i", merged.conj(), gram, merged).real
    # a roundoff square may dip below 0; a NaN propagates through maximum
    return LogicalAction(matrix=matrix, squares=np.maximum(squares, 0.0))


def group_covariance(code):
    """Largest leakage of pi(g) E out of the code space, over the group elements g.

    The leakage of g is the Frobenius norm over all four basis states of the
    residual.  pi(g^-1) has the images C_g = C[:, cayley[g]] on the
    constellation's own points (g^-1 runs over the group as g does).
    """
    moved = code.coefficients[:, code.constellation.group.cayley].swapaxes(0, 1)  # (g, i, k): C_g
    squares = logical_action(code, moved, code.constellation.points).squares.sum(axis=-1)
    return float(np.sqrt(np.max(squares)))


def _parity_split(weights, points, odd):
    """The terms of a mode-2 phase, 1 on even n2 and ``odd`` on odd n2, on sum_t w_t |p_t>.

    The phase is ((1 + odd) + (1 - odd)(-1)^n2) / 2, and (-1)^n2 |b_1, b_2> =
    |b_1, -b_2> (exact on truncated factors too); the self-Kerr i^{n^2} has
    odd = i (Yurke and Stoler, PRL 57, 13 (1986)).
    """
    weights = np.concatenate([weights * ((1 + odd) / 2), weights * ((1 - odd) / 2)], axis=-1)
    return weights, np.concatenate([points, points * np.array([1.0, -1.0])])


def s_gate_check(code):
    """Logical action of the self-Kerr i^{n2^2}; should equal S (x) I."""
    return logical_action(code, *_parity_split(code.coefficients, code.constellation.points, 1j))


def snap_gate_check(code):
    """Logical actions of the mode-2 SNAP phases exp(i pi/2 (n^2 mod 4)) and exp(i pi/4 (n^4 mod 8)).

    n^2 mod 4 and n^4 mod 8 are both n mod 2, so the first is the
    self-Kerr's i^{n^2} and the second is e^{i pi/4} on odd n only.
    """
    t_terms = _parity_split(code.coefficients, code.constellation.points, np.exp(1j * np.pi / 4))
    return s_gate_check(code), logical_action(code, *t_terms)


def cz_gate_check(code):
    """16x16 logical matrix of the cross-Kerr (-1)^{n2 n4} on two code copies.

    (-1)^{n2 n4} = (1 + P_2 + P_4 - P_2 P_4) / 2 for the two copies' mode-2
    parities, so with P the logical matrix of (-1)^{n2} it is
    (I (x) I + P (x) I + I (x) P - P (x) P) / 2 = I - 2 O (x) O, O = (I - P) / 2;
    rows (l1, m1, l2, m2), row-major.
    """
    parity = logical_action(code, *_parity_split(code.coefficients, code.constellation.points, -1))
    odd = (np.eye(4) - parity.matrix) / 2
    return np.eye(16) - 2 * np.kron(odd, odd)


def cz_target():
    """diag((-1)^{l1 l2}) over the basis (l1, m1, l2, m2), row-major."""
    logical = np.arange(4) // 2  # l of basis state 2 l + m
    return np.diag((-1.0 + 0j) ** np.outer(logical, logical).ravel())


def _mode_unitary(u):
    """u as a complex 2 x 2 array; raise unless it is one, unitary to 1e-10 (a NaN entry is not)."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError("matrix dimension must be 2 x 2")
    if not np.linalg.norm(u.conj().T @ u - np.eye(2)) <= 1e-10:
        raise ValueError("mode transformation must be unitary")
    return u


def _encoded_residual(code, target, u):
    """Max infidelity of pi(U) E(|l>|m>) vs E_target(U|l> (x) U|m>), pi(U) moving the points.

    Both are 5-vectors on the target code: an image's logical coordinates
    and residual norm, and column (l, m) of U (x) U with no residual.
    """
    action = logical_action(target, code.coefficients, code.constellation.points @ u.T)
    images = np.vstack([action.matrix, np.sqrt(action.squares)])
    rhs = np.vstack([np.kron(u, u), np.zeros(4)])
    return float(max(infidelity(a, b) for a, b in zip(images.T, rhs.T)))


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
    return logical_action(code, *_composite_hadamard_terms(code))


def _composite_hadamard_terms(code):
    """(weights, points) of the 8 |G| terms of i^{n2^2} pi(H) i^{n2^2} pi(H) i^{n2^2} on the code."""
    weights, points = _parity_split(code.coefficients, code.constellation.points, 1j)
    for _ in range(2):
        weights, points = _parity_split(weights, points @ HADAMARD.T, 1j)
    return weights, points


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
