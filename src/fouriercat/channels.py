"""Pure-loss channel diagnostics and the Petz entanglement fidelity.

Two routes compute the QEC matrix of the code under loss: an analytic
contraction of closed-form Gram matrices (exact, truncation-free, one
eigendecomposition per sweep point) and a brute-force Fock-space simulation
of the beamsplitter dilation (the cross-validation oracle).  The oracle
takes the beamsplitter's images of |n, 0> in closed form (exact: those
sectors lie under the cutoff) and projects each mode's reflected part onto
single-mode coherent states, so it costs O(d^3) in the per-mode dimension d.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import encoding
from .fock import (
    SingularGramError,
    _condition_number,
    _hermitian_eigh,
    annihilation_operator,
    coherent_amplitudes,
    hermitian_inv_sqrt,
)
from .groups import HADAMARD


@dataclass
class QecMatrix:
    """16x16 matrix <k,0|C_p^dag C_q|l,0> over logical x environment labels."""

    entries: np.ndarray
    d: int = 2
    extras: dict = field(default_factory=dict)


def lambda_matrix(group, phi=np.pi / 2):
    """Gram matrix of the C^2 family {g (1, e^{i phi}) / sqrt 2}, computed exactly."""
    v = np.array([1.0, np.exp(1j * phi)]) / np.sqrt(2.0)
    vecs = group.matrices() @ v
    return vecs.conj() @ vecs.T


def loss_gram_matrices(lam, alpha, gamma):
    """(Gamma, Gamma_t, Gamma_r) for the constellation (alpha, alpha e^{i phi}).

    All three are entrywise exponentials of the 2-vector Gram matrix; at
    gamma = 0, Gamma_t reduces to Gamma and Gamma_r to the all-ones matrix.
    """
    if not 0.0 < alpha < np.inf:
        raise ValueError("alpha must be positive and finite")
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1)")
    base = lam - 1.0
    gram = np.exp(2 * alpha**2 * base)
    gram_t = np.exp(2 * (1.0 - gamma) * alpha**2 * base)
    gram_r = np.exp(2 * gamma * alpha**2 * base)
    return gram, gram_t, gram_r


def qec_matrix_analytic(group, fourier, alpha, gamma, floor=1e-12, phi=np.pi / 2):
    """QEC matrix from the closed-form Gram contraction.

    M[kp, lq] = sum_{g,h} [F G^-1/2]_{k0,g} [G^-1/2 F^dag]_{h,l0}
                [G_r^1/2]_{gp} [G_r^1/2]_{qh} [G_t]_{gh}.
    As G_r^1/2 is Hermitian, M = U G_t U^dag, U[kp, g] = [F G^-1/2]_{k0,g} [G_r^1/2]_{gp}.
    Both roots come from one eigendecomposition of the Hermitian pair (G, G_r).
    G's eigenvalues w must exceed ``floor`` times the largest, else
    ``SingularGramError`` raises; either carries G's condition number
    max |w| / min |w|, as ``extras["condition_number"]`` or on the error.
    """
    lam = lambda_matrix(group, phi)
    gram, gram_t, gram_r = loss_gram_matrices(lam, alpha, gamma)
    w, v = _hermitian_eigh(np.stack([gram, gram_r]))  # w ascending
    cond = _condition_number(w[0])
    if not w[0, 0] > floor * w[0, -1]:
        raise SingularGramError(cond)
    scale = np.stack([1.0 / np.sqrt(w[0]), np.sqrt(np.maximum(w[1], 0.0))])
    inv_sqrt, sr = (v * scale[:, None, :]) @ v.conj().swapaxes(-1, -2)
    label = fourier.defining_label
    rows = [fourier.row(label, k, 0) for k in (0, 1)]
    a = (fourier.matrix @ inv_sqrt)[rows]  # a[k, g]
    u = (a[:, None, :] * sr.T).reshape(2 * group.order, group.order)
    entries = u @ gram_t @ u.conj().T
    entries = (entries + entries.conj().T) / 2
    return QecMatrix(entries=entries, extras={"condition_number": cond})


def petz_entanglement_fidelity(qec):
    """Entanglement fidelity of the Petz recovery: ||tr_L M^1/2||_hs^2 / d^2.

    The partial trace is over the logical index.  Eigenvalues of M that are
    negative beyond tolerance raise; those at or below 1e-13 times the
    largest are roundoff in M's null space and are set to zero, since their
    square roots (~1e-8 for a 1e-16 eigenvalue) would enter the fidelity.
    """
    m = qec.entries
    mh = m.conj().T
    if np.linalg.norm(m - mh) > 1e-8:
        raise ValueError("QEC matrix is not Hermitian")
    w, v = np.linalg.eigh((m + mh) / 2)  # w ascending
    wmax = float(w[-1])
    if wmax > 0 and w[0] < -1e-8 * wmax:
        raise ValueError("QEC matrix is not positive semidefinite")
    w = np.where(w > 1e-13 * max(wmax, 0.0), w, 0.0)
    sqrt_m = (v * np.sqrt(w)) @ v.conj().T
    d = qec.d
    n_env = m.shape[0] // d
    blocks = sqrt_m.reshape(d, n_env, d, n_env)
    reduced = np.einsum("kpkq->pq", blocks)
    fid = float(np.sum(np.abs(reduced) ** 2)) / d**2
    return min(fid, 1.0) if fid <= 1.0 + 1e-9 else fid


def _loss_amplitudes(d, gamma):
    """Loss beamsplitter images b[P, a] = <P, a - P|BS|a, 0>, and a - P.

    b[P, a] = sqrt(binom(a, P)) t^P r^(a - P) for BS = pi([[t, -r], [r, t]]),
    t = sqrt(1 - gamma), r = sqrt(gamma): P of the a photons are transmitted
    and a - P reflected.  Below the diagonal (a < P) b is zero and a - P is
    clamped to 0.
    """
    t, r = np.sqrt(1.0 - gamma), np.sqrt(gamma)
    n = np.arange(d)
    reflected = np.maximum(n[None, :] - n[:, None], 0)  # a - P, clamped to 0
    logfact = np.cumsum(np.log(np.maximum(n, 1)))  # log(n!)
    binom = np.exp((logfact[None, :] - logfact[:, None] - logfact[reflected]) / 2)
    return np.triu(binom * t ** n[:, None] * r**reflected), reflected


def qec_matrix_fock(code, gamma, env_floor=1e-15):
    """Brute-force QEC matrix: beamsplitter dilation plus constellation basis.

    Each mode is mixed with a vacuum ancilla at transmissivity sqrt(1-gamma);
    the two reflected modes are projected onto the orthonormalized family
    of reflected constellation states.

    The beamsplitter conserves the total photon number, so it maps |a, 0>
    into sector a alone: sum_P B[P, a - P] |P, a - P> with the closed form
    B[P, C] = sqrt(binom(P + C, P)) t^P r^C (see ``_loss_amplitudes``).
    The inputs |a, 0>, a <= cutoff, lie in sectors that the per-mode cutoff
    does not truncate, so B is exact and no sector is exponentiated; the
    corner sectors N > cutoff never receive amplitude.  Each reflected state
    is a product e_q1 (x) e_q2 of normalized single-mode coherent states, so
    projecting both mixed modes onto it factorizes per mode:
    <e_q1, e_q2|(BS (x) BS)|psi, 0, 0> = Y_q1 psi Y_q2^T with
    Y_qm[P, a] = conj(e_qm[a - P]) B[P, a - P] for a >= P: one GEMM of all
    basis states against every Y_q2, then per state a |G|-batched one.  The
    orthonormalizing mix over q comes last.  Near gamma = 0 the reflected
    family is rank-deficient, so that mix is a pseudo-inverse with a relative
    eigenvalue floor.  Dropping an eigenvalue lambda loses entries of order
    sqrt(lambda), keeping it amplifies roundoff by 1 / sqrt(lambda), so the
    floor sits a few machine epsilons above zero.  Of the Kraus images' Gram
    matrix only the logical pair's block (M) and the 4 x 4 blocks summed over
    environment labels (completeness) are formed.  ``extras`` holds the Kraus
    images (basis state, environment label, n1, n2), their completeness on
    the code subspace, how many environment eigenvalues the pseudo-inverse
    kept (``env_rank``, of the group order) and its roundoff gain
    ||G^-1/2||_2 (``env_gain``).
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1)")
    config = code.config
    d = config.dim_per_mode
    n = code.constellation.group.order
    b_shift, shift = _loss_amplitudes(d, gamma)

    # Per-mode reflected constellation states e[q, m] and their Gram matrix.
    env = coherent_amplitudes(code.constellation.points * np.sqrt(gamma), config.cutoff)
    env /= np.linalg.norm(env, axis=-1, keepdims=True)
    env_gram = np.prod(np.einsum("qma,rma->mqr", env.conj(), env), axis=0)
    roots = hermitian_inv_sqrt(env_gram, floor=env_floor, pseudo=True)

    y1, y2 = (np.take(e, shift, axis=-1) * b_shift for e in env.conj().transpose(1, 0, 2))
    right = code.amplitudes.reshape(4 * d, d) @ y2.reshape(n * d, d).T  # [(i, a), (q, c)]
    # Per state i, buf holds raw[q] = Y_q1 psi_i Y_q2^T, and the images sum_q conj(inv_sqrt[q, r])
    # raw[q] overwrite i's rows of right: a working set this small keeps BLAS in cache.
    kraus, buf = right.reshape(4, n, d * d), np.empty((n, d * d), dtype=complex)
    for i in range(4):
        np.matmul(y1, right.reshape(4, d, n, d)[i].swapaxes(0, 1), out=buf.reshape(n, d, d))
        np.matmul(roots.inv_sqrt.conj().T, buf, out=kraus[i])
    completeness = np.empty((4, 4), dtype=complex)
    m = np.empty((2, 2, n, n), dtype=complex)  # m[k, l, p, q] on the |k, 0> logical pair
    for i in range(4):
        bra = np.conj(kraus[i], out=buf)
        completeness[i] = bra.reshape(-1) @ kraus.reshape(4, -1).T
        if i % 2 == 0:  # basis state 2k + 0
            m[i // 2] = bra @ kraus[0::2].swapaxes(-1, -2)
    completeness_residual = float(np.linalg.norm(completeness - np.eye(4)))
    m = m.transpose(0, 2, 1, 3).reshape(2 * n, 2 * n)
    m = (m + m.conj().T) / 2
    return QecMatrix(
        entries=m,
        extras={
            "completeness_residual": completeness_residual,
            "kraus_images": kraus.reshape(4, n, d, d),
            "env_rank": roots.rank,
            "env_gain": roots.gain,
        },
    )


def kl_first_order_check(code, psi_m):
    """Max pairwise overlap of the six first-order Knill-Laflamme states.

    psi_m = (c, s) fixes the multiplicity-register state; the six states are
    the two logical states and their images under a_1 and a_2, normalized.
    """
    c, s = psi_m
    logical = c * code.amplitudes[0::2] + s * code.amplitudes[1::2]  # l = 0, 1
    lost = [annihilation_operator(mode, code.config)(logical) for mode in (0, 1)]
    states = np.concatenate([logical] + lost).reshape(6, -1)
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    overlaps = np.abs(states.conj() @ states.T)
    return float(np.max(overlaps[np.triu_indices(6, 1)]))


def lindblad_kernel_check(code, deformed=False):
    """Kernel residuals of the stabilizing Lindblad operators on the code.

    Returns (per-operator max residual dict, odd-parity projector residual).
    Residuals are normalized by alpha^4 (alpha^2 for the quadratic operator).
    With ``deformed`` set, the beamsplitter-deformed code and the primed
    operators (signs of the alpha^4 offsets flipped) are used instead.
    """
    alpha = code.alpha
    if deformed:
        constellation = encoding.deform_constellation(code.constellation, HADAMARD)
        basis = encoding.code_basis(constellation, code.fourier)
        sign = -1.0
    else:
        basis = code
        sign = 1.0

    config, amps = basis.config, basis.amplitudes
    a2sq_op = annihilation_operator(1, config, 2)
    a1sq, a2sq = annihilation_operator(0, config, 2)(amps), a2sq_op(amps)
    shift = sign * alpha**4 * amps
    images = {  # name: (L on each basis state, normalization)
        "L1": (annihilation_operator(0, config, 4)(amps) - shift, alpha**4),
        "L2": (annihilation_operator(1, config, 4)(amps) - shift, alpha**4),
        "L12": (a2sq_op(a1sq) + shift, alpha**4),
    }
    if not deformed:
        images["L0"] = (a1sq + a2sq, alpha**2)
    residuals = {
        name: float(np.max(np.linalg.norm(img, axis=(-2, -1)))) / scale
        for name, (img, scale) in images.items()
    }
    d = basis.config.dim_per_mode
    odd = np.add.outer(np.arange(d), np.arange(d)) % 2 == 1
    parity_residual = float(np.max(np.linalg.norm(amps[:, ~odd], axis=-1)))
    return residuals, parity_residual


@dataclass
class SweepRecord:
    value: float
    infidelity: float
    condition_number: float
    flags: list = field(default_factory=list)


def _sweep(group, fourier, points, phi):
    """One record per (value, alpha, gamma) point; a numerically singular Gram
    matrix flags its point ill-conditioned, with NaN infidelity."""
    records = []
    for value, alpha, gamma in points:
        try:
            qec = qec_matrix_analytic(group, fourier, alpha, gamma, phi=phi)
        except SingularGramError as exc:
            records.append(SweepRecord(value, np.nan, exc.condition_number, ["ill-conditioned"]))
        else:
            fid = petz_entanglement_fidelity(qec)
            records.append(SweepRecord(value, 1.0 - fid, qec.extras["condition_number"]))
    return records


def sweep_alpha(group, fourier, gamma, alpha_grid, phi=np.pi / 2):
    """Petz infidelity across an alpha grid at fixed loss."""
    return _sweep(group, fourier, [(float(a), float(a), gamma) for a in alpha_grid], phi)


def sweep_gamma(group, fourier, alpha, gamma_grid, phi=np.pi / 2):
    """Petz infidelity across a loss grid at fixed alpha."""
    return _sweep(group, fourier, [(float(g), alpha, float(g)) for g in gamma_grid], phi)


def loglog_slope(records, lo, hi):
    """Least-squares slope of log(infidelity) vs log(parameter) on [lo, hi]."""
    xs, ys = [], []
    for rec in records:
        if lo <= rec.value <= hi and np.isfinite(rec.infidelity) and rec.infidelity > 0:
            xs.append(np.log(rec.value))
            ys.append(np.log(rec.infidelity))
    if len(xs) < 2:
        raise ValueError("not enough valid points for a slope fit")
    return float(np.polyfit(xs, ys, 1)[0])


def argmin_record(records):
    finite = [r for r in records if np.isfinite(r.infidelity)]
    if not finite:
        raise ValueError("no valid sweep points")
    return min(finite, key=lambda r: r.infidelity)
