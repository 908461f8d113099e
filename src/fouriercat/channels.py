"""Pure-loss channel diagnostics and the Petz entanglement fidelity.

Two routes compute the QEC matrix of the code under loss: an analytic
contraction of closed-form Gram matrices (exact, truncation-free, one
eigendecomposition per sweep point) and a brute-force Fock-space simulation
of the beamsplitter dilation (the cross-validation oracle).  The oracle
takes the beamsplitter's images of |n, 0> in closed form (exact: those
sectors lie under the cutoff) and projects each mode's reflected part onto
single-mode coherent states.  It contracts the code's per-mode coherent
factors, never a (d, d) state, so it costs O(|G|^2 d^2) in the per-mode
dimension d and the group order |G|.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import encoding
from .fock import (
    GRAM_FLOOR,
    SingularGramError,
    _condition_number,
    _hermitian_eigh,
    _log_factorials,
    annihilation_operator,
    hermitian_inv_sqrt,
    normalize,
    product_gram,
)
from .groups import AMPLITUDE_RULE, HADAMARD, _positive_amplitude, memoized

# Loss tables kept by qec_matrix_fock, two (d, d) arrays per cutoff (11 kB at cutoff 25).
LOSS_MEMO_SIZE = 8
ENV_FLOOR = 1e-15  # relative eigenvalue floor of qec_matrix_fock's pseudo-inverse


@dataclass
class QecMatrix:
    """16x16 matrix <k,0|C_p^dag C_q|l,0> over logical x environment labels."""

    entries: np.ndarray
    extras: dict = field(default_factory=dict)


def lambda_matrix(group, phi=np.pi / 2):
    """Gram matrix of the C^2 family {g (1, e^{i phi}) / sqrt 2}, computed exactly."""
    v = np.array([1.0, np.exp(1j * phi)]) / np.sqrt(2.0)
    vecs = group.matrices @ v
    return vecs.conj() @ vecs.T


def _loss_gram_matrices(lam, alpha, gamma):
    """(Gamma, Gamma_t, Gamma_r) for the constellation (alpha, alpha e^{i phi}).

    All three are entrywise exponentials of the 2-vector Gram matrix; at
    gamma = 0, Gamma_t reduces to Gamma and Gamma_r to the all-ones matrix.
    """
    if not _positive_amplitude(alpha):
        raise ValueError(AMPLITUDE_RULE)
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1)")
    base = lam - 1.0
    # near the amplitude rule's edge 2 alpha^2 (lam - 1) passes -1.8e308: exp(-inf) = 0 is exact
    with np.errstate(over="ignore"):
        gram = np.exp(2 * alpha**2 * base)
        gram_t = np.exp(2 * (1.0 - gamma) * alpha**2 * base)
        gram_r = np.exp(2 * gamma * alpha**2 * base)
    return gram, gram_t, gram_r


def qec_matrix_analytic(group, fourier, alpha, gamma, phi=np.pi / 2):
    """QEC matrix from the closed-form Gram contraction.

    M[kp, lq] = sum_{g,h} [F G^-1/2]_{k0,g} [G^-1/2 F^dag]_{h,l0}
                [G_r^1/2]_{gp} [G_r^1/2]_{qh} [G_t]_{gh}.
    As G_r^1/2 is Hermitian, M = U G_t U^dag, U[kp, g] = [F G^-1/2]_{k0,g} [G_r^1/2]_{gp}.
    Both roots come from one eigendecomposition of the Hermitian pair (G, G_r).
    G's eigenvalues w must exceed ``fock.GRAM_FLOOR`` times the largest,
    the floor of code construction, else ``SingularGramError`` raises; either
    carries G's condition number max |w| / min |w|, as
    ``extras["condition_number"]`` or on the error.  A non-finite phi makes
    G non-finite, which fails its Hermiticity test with ``ValueError``.
    M is returned as (M + M^H) / 2.
    """
    lam = lambda_matrix(group, phi)
    gram, gram_t, gram_r = _loss_gram_matrices(lam, alpha, gamma)
    w, v = _hermitian_eigh(np.stack([gram, gram_r]))  # w ascending
    cond = _condition_number(w[0])
    if not w[0, 0] > GRAM_FLOOR * w[0, -1]:
        raise SingularGramError(cond)
    scale = np.stack([1.0 / np.sqrt(w[0]), np.sqrt(np.maximum(w[1], 0.0))])
    inv_sqrt, sr = (v * scale[:, None, :]) @ v.conj().swapaxes(-1, -2)
    a = (fourier.matrix @ inv_sqrt)[fourier.logical_rows[0::2]]  # a[k, g], rows (k, 0)
    u = (a[:, None, :] * sr.T).reshape(2 * group.order, group.order)
    entries = u @ gram_t @ u.conj().T
    entries = (entries + entries.conj().T) / 2
    return QecMatrix(entries, extras={"condition_number": cond})


def petz_entanglement_fidelity(qec):
    """Entanglement fidelity of the Petz recovery: ||tr_L M^1/2||_hs^2 / 4.

    The partial trace is over the logical qubit, M's leading index.  M is
    decomposed by ``fock._hermitian_eigh``, so a non-Hermitian or
    non-finite M raises ``ValueError``.  Eigenvalues of M that are negative
    beyond tolerance raise; those at or below 1e-13 times the largest are
    roundoff in M's null space and are set to zero, since their square roots
    (~1e-8 for a 1e-16 eigenvalue) would enter the fidelity.
    """
    m = qec.entries
    w, v = _hermitian_eigh(m)  # w ascending
    wmax = float(w[-1])
    if wmax > 0 and w[0] < -1e-8 * wmax:
        raise ValueError("QEC matrix is not positive semidefinite")
    w = np.where(w > 1e-13 * max(wmax, 0.0), w, 0.0)
    sqrt_m = (v * np.sqrt(w)) @ v.conj().T
    n_env = m.shape[0] // 2
    reduced = np.einsum("kpkq->pq", sqrt_m.reshape(2, n_env, 2, n_env))
    fid = float(np.sum(np.abs(reduced) ** 2)) / 4
    return min(fid, 1.0) if fid <= 1.0 + 1e-9 else fid


def _loss_amplitudes(d, gamma):
    """Loss beamsplitter images b[P, a] = <P, a - P|BS|a, 0>, and a - P.

    b[P, a] = sqrt(binom(a, P)) t^P r^(a - P) for BS = pi([[t, -r], [r, t]]),
    t = sqrt(1 - gamma), r = sqrt(gamma): P of the a photons are transmitted
    and a - P reflected.  Below the diagonal (a < P) b is zero and a - P is
    clamped to 0.  The gamma-free tables come from ``_loss_tables``.
    """
    t, r = np.sqrt(1.0 - gamma), np.sqrt(gamma)
    binom, reflected = _loss_tables(d)
    return binom * t ** np.arange(d)[:, None] * r**reflected, reflected


@memoized(LOSS_MEMO_SIZE)
def _loss_tables(d):
    """The read-only (d, d) tables sqrt(binom(a, P)) (zero for a < P) and a - P (clamped to 0)."""
    n = np.arange(d)
    reflected = np.maximum(n[None, :] - n[:, None], 0)  # a - P, clamped to 0
    logfact = _log_factorials(d)
    binom = np.triu(np.exp((logfact[None, :] - logfact[:, None] - logfact[reflected]) / 2))
    binom.flags.writeable = reflected.flags.writeable = False
    return binom, reflected


def qec_matrix_fock(code, gamma):
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
    is a product e_q1 (x) e_q2 of normalized single-mode coherent states:
    the constellation's audited factors f_g scaled by r^n and renormalized,
    so no second tail audit is needed.  Projecting both mixed modes onto it
    factorizes per mode, <e_q1, e_q2|(BS (x) BS)|psi, 0, 0> = Y_q1 psi Y_q2^T
    with Y_qm[P, a] = conj(e_qm[a - P]) B[P, a - P] for a >= P.  A basis
    state is psi_i = sum_g C[i, g] f_g1 (x) f_g2 (``CodeBasis.coefficients``),
    so with the transmitted factors T_m[q] = Y_qm F_m^T, one GEMM per mode,
    its raw images are T_1[q] diag(C_i) T_2[q]^T: O(|G|^2 d^2) in all, where
    the dense states would cost O(|G| d^3).  The orthonormalizing mix over q
    comes last.  Near gamma = 0 the reflected family is rank-deficient, so
    that mix is a pseudo-inverse with the relative eigenvalue floor
    ``ENV_FLOOR``.  Dropping an eigenvalue lambda loses entries of order
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
    factors = code.constellation.factors  # (g, mode, a)
    d = factors.shape[-1]
    n = len(factors)
    b_shift, shift = _loss_amplitudes(d, gamma)

    # Per-mode reflected constellation states e[q, m] and their Gram matrix.
    env = normalize(factors * np.sqrt(gamma) ** np.arange(d), axes=-1)
    roots = hermitian_inv_sqrt(product_gram(env, env), floor=ENV_FLOOR, pseudo=True)

    # The transmitted factors t_m[q, P, g] = (Y_qm f_gm)[P], each Y_qm gathered into
    # buf ("clip" only spares take a temporary: every shift is in range).
    buf, transmitted = np.empty((n, d, d), dtype=complex), []
    for j in (0, 1):
        y = np.take(env[:, j].conj(), shift, axis=-1, out=buf, mode="clip")
        y *= b_shift
        transmitted.append((y.reshape(n * d, d) @ factors[:, j].T).reshape(n, d, n))
    t1, t2 = transmitted[0], transmitted[1].transpose(0, 2, 1).copy()
    # Per state i, buf then holds raw[q] = T_1[q] diag(C_i) T_2[q]^T, and the
    # images sum_q conj(inv_sqrt[q, r]) raw[q] go straight into i's rows of kraus.
    kraus, buf, scaled = np.empty((4, n, d * d), dtype=complex), buf.reshape(n, d * d), t1.copy()
    for i, c in enumerate(code.coefficients):
        np.matmul(np.multiply(t1, c, out=scaled), t2, out=buf.reshape(n, d, d))
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
    if not (np.isfinite(c) and np.isfinite(s)):
        raise ValueError("multiplicity state must be finite and nonzero")
    logical = c * code.amplitudes[0::2] + s * code.amplitudes[1::2]  # l = 0, 1
    lost = [annihilation_operator(mode)(logical) for mode in (0, 1)]
    states = np.concatenate([logical] + lost).reshape(6, -1)
    norms = np.linalg.norm(states, axis=1, keepdims=True)
    if not norms.min() > 0:
        raise ValueError("multiplicity state must be finite and nonzero")
    states /= norms
    overlaps = np.abs(states.conj() @ states.T)
    return float(np.max(overlaps[np.triu_indices(6, 1)]))


def lindblad_kernel_check(code, deformed=False):
    """Kernel residuals of the stabilizing Lindblad operators on the code.

    Returns (per-operator max residual dict, odd-parity projector residual).
    Residuals are normalized by alpha^4 (alpha^2 for the quadratic operator).
    With ``deformed`` set, the beamsplitter-deformed code and the primed
    operators (signs of the alpha^4 offsets flipped) are used instead.  The
    parity residual is the largest amplitude norm on even total photon number.
    """
    alpha = code.alpha
    if deformed:
        constellation = encoding.deform_constellation(code.constellation, HADAMARD)
        basis = encoding.code_basis(constellation, code.fourier)
        sign = -1.0
    else:
        basis = code
        sign = 1.0

    amps = basis.amplitudes
    a2sq_op = annihilation_operator(1, 2)
    a1sq = annihilation_operator(0, 2)(amps)
    shift = sign * alpha**4 * amps

    def residual(image, scale):
        """Largest norm of L on a basis state, over its normalization."""
        return float(np.max(np.linalg.norm(image, axis=(-2, -1)))) / scale

    residuals = {  # each operator's images are reduced as soon as they are formed
        "L1": residual(annihilation_operator(0, 4)(amps) - shift, alpha**4),
        "L2": residual(annihilation_operator(1, 4)(amps) - shift, alpha**4),
        "L12": residual(a2sq_op(a1sq) + shift, alpha**4),
    }
    if not deformed:
        residuals["L0"] = residual(a1sq + a2sq_op(amps), alpha**2)
    k = np.arange(amps.shape[-1]) % 2
    even = k[:, None] == k  # n1 + n2 even
    parity_residual = float(np.max(np.linalg.norm(amps[:, even], axis=-1)))
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
