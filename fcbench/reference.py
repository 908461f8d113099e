"""Independent reference for the Fourier cat code, in plain numpy.

Nothing here imports fouriercat.  Every quantity is rebuilt from its
definition, so a benchmark operation can check a fouriercat output against a
computation that shares no code with it:

- the groups d8 = <X, Z> and q8 = <iX, iZ>, closed by breadth-first search;
- the encoded basis |l, m> = sum_g conj(F[(lambda, l, m), g]) |g~>, where
  |g~> is the Loewdin-orthonormalized orbit {|g alpha>} and
  F[(lambda, l, m), g] = sqrt(2/|G|) g[l, m] (the defining irrep is the
  group itself);
- at alpha = sqrt(pi/2), phi = pi/2 the same basis as products of even and
  odd single-mode cat states;
- the Petz entanglement infidelity after pure loss, at any phi, from the
  Petz Kraus operators R_a = P K_a^dag N(P)^(-1/2) written in orthonormal
  coordinates of the system and environment spans of the coherent orbit;
- the first-order Knill-Laflamme overlap 4 e^{-2a^2} / (1 - e^{-2a^2})^2;
- the logical targets S (x) I, T (x) I, X (x) I, H (x) I, CZ and
  exp(i theta Z (x) Z);
- the photon-number mod-4 outcome table;
- the Lindblad kernel residuals, with ladder operators applied as axis
  shifts on (d, d) tensors.

States are (d, d) tensors indexed (n1, n2) with d = cutoff + 1.
"""

from __future__ import annotations

import math

import numpy as np

ALPHA_STAR = math.sqrt(math.pi / 2)
PHI_STAR = math.pi / 2

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
I2 = np.eye(2, dtype=complex)
H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
S = np.diag([1.0, 1.0j])
T = np.diag([1.0, np.exp(1j * math.pi / 4)])

# Logical basis order of a two-mode code: index 2 l + m.
LM = [(0, 0), (0, 1), (1, 0), (1, 1)]

GENERATORS = {"d8": (X, Z), "q8": (1j * X, 1j * Z)}


def group_elements(name):
    """The elements of d8 or q8 as a (8, 2, 2) array, in closure order."""
    elements = [I2]
    frontier = [I2]
    while frontier:
        found = []
        for g in frontier:
            for gen in GENERATORS[name]:
                prod = g @ gen
                if all(np.abs(prod - e).max() > 1e-9 for e in elements):
                    elements.append(prod)
                    found.append(prod)
        frontier = found
    return np.array(elements)


# ---------------------------------------------------------------------------
# Coherent states and Gram matrices


def _log_factorial(d):
    return np.array([math.lgamma(n + 1.0) for n in range(d)])


def coherent(beta, d):
    """Truncated coherent amplitudes e^{-|b|^2/2} b^n / sqrt(n!), n < d."""
    n = np.arange(d)
    if beta == 0:
        return (n == 0).astype(complex)
    logmag = -abs(beta) ** 2 / 2 + n * math.log(abs(beta)) - _log_factorial(d) / 2
    return np.exp(logmag) * np.exp(1j * n * np.angle(beta))


def cat(beta, parity, d):
    """Normalized |b> + (-1)^parity |-b>: even or odd photon numbers only."""
    v = coherent(beta, d) + (-1.0) ** parity * coherent(-beta, d)
    return v / np.linalg.norm(v)


def coherent_gram(points):
    """<p_g|p_h> for two-mode coherent states at the rows of ``points``.

    ``points`` has shape (..., n, 2); the overlap of coherent products is
    exp(sum_modes conj(a) b - |a|^2/2 - |b|^2/2), with no truncation.
    """
    sq = np.sum(np.abs(points) ** 2, axis=-1)
    cross = np.einsum("...gk,...hk->...gh", points.conj(), points)
    return np.exp(cross - 0.5 * (sq[..., :, None] + sq[..., None, :]))


def _eigh_fn(a, fn):
    """f(A) for stacked Hermitian A through eigh; fn acts on eigenvalues."""
    w, v = np.linalg.eigh((a + np.conj(np.swapaxes(a, -1, -2))) / 2)
    return (v * fn(w)[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))


def psd_sqrt(a):
    return _eigh_fn(a, lambda w: np.sqrt(np.clip(w, 0.0, None)))


def inv_sqrt(a, rel_floor=1e-12):
    """Pseudo-inverse square root: eigenvalues below rel_floor * max dropped."""

    def fn(w):
        wmax = np.max(w, axis=-1, keepdims=True)
        keep = w > rel_floor * wmax
        return np.where(keep, 1.0 / np.sqrt(np.where(keep, w, 1.0)), 0.0)

    return _eigh_fn(a, fn)


# ---------------------------------------------------------------------------
# Encoded basis


def encoding_coefficients(elements, points):
    """c[..., h, 2l+m]: |l, m> = sum_h c[..., h, 2l+m] |h alpha>, unit norm.

    ``points`` has shape (..., n, 2).  Loewdin: |g~> = sum_h |h alpha>
    [G^{-1/2}]_{h g}; then |l, m> = sum_g conj(F[(lambda, l, m), g]) |g~>.
    """
    n = len(elements)
    gram = coherent_gram(points)
    fourier_rows = np.array([math.sqrt(2.0 / n) * elements[:, l, m] for (l, m) in LM])
    coeff = inv_sqrt(gram) @ fourier_rows.conj().T  # (..., n, 4)
    norms = np.sqrt(np.real(np.einsum("...hk,...hg,...gk->...k", coeff.conj(), gram, coeff)))
    return coeff / norms[..., None, :]


def encoded_basis(name, alpha_vec, cutoff):
    """The four encoded states on the orbit of ``alpha_vec``, as (d, d) tensors."""
    d = cutoff + 1
    elements = group_elements(name)
    points = elements @ np.asarray(alpha_vec, dtype=complex)
    coeff = encoding_coefficients(elements, points)
    products = np.array([np.outer(coherent(p[0], d), coherent(p[1], d)) for p in points])
    states = np.einsum("hk,hab->kab", coeff, products)
    return states / np.linalg.norm(states.reshape(4, -1), axis=1)[:, None, None]


def cat_product_basis(cutoff, alpha=ALPHA_STAR):
    """The d8 basis at alpha = sqrt(pi/2), phi = pi/2, as cat products.

    |0, 0> ~ odd(a) even(ia), |0, 1> ~ odd(ia) even(a),
    |1, 0> ~ even(ia) odd(a), |1, 1> ~ even(a) odd(ia), each up to a phase.
    Logical l is the mode that carries the odd cat.
    """
    d = cutoff + 1
    a, ia = alpha, 1j * alpha
    return np.array(
        [
            np.outer(cat(a, 1, d), cat(ia, 0, d)),
            np.outer(cat(ia, 1, d), cat(a, 0, d)),
            np.outer(cat(ia, 0, d), cat(a, 1, d)),
            np.outer(cat(a, 0, d), cat(ia, 1, d)),
        ]
    )


def phase_free_infidelity(a, b):
    """1 - |<a|b>| for unit vectors of any shape."""
    return 1.0 - abs(np.vdot(a.reshape(-1), b.reshape(-1)))


# ---------------------------------------------------------------------------
# Pure loss and the Petz recovery


def petz_infidelity(name, alphas, gammas, phis):
    """Petz entanglement infidelity of the logical pair {|0,0>, |1,0>}.

    Vectorized over points: ``alphas``, ``gammas`` and ``phis`` broadcast to
    one shape P.  For each point the beamsplitter dilation sends
    |g alpha> to |t g alpha>_S |r g alpha>_E.  With S_t = G_t^{1/2} and
    S_r = G_r^{1/2}, the vectors |t g alpha> and |r g alpha> have
    orthonormal coordinates S_t[:, g] and S_r[:, g], so the Kraus images are
    K_j |k> = sum_g c[g, k] S_r[j, g] S_t[:, g].  The Petz map has Kraus
    operators R_a = P K_a^dag N(P)^{-1/2}, and the entanglement fidelity of
    R o N on the maximally entangled state is
    (1/4) sum_{a,b} |sum_k <k|K_a^dag N(P)^{-1/2} K_b|k>|^2.
    """
    alphas, gammas, phis = np.broadcast_arrays(
        np.asarray(alphas, float), np.asarray(gammas, float), np.asarray(phis, float)
    )
    shape = alphas.shape
    alphas, gammas, phis = alphas.ravel(), gammas.ravel(), phis.ravel()
    elements = group_elements(name)
    vec = np.stack([alphas, alphas * np.exp(1j * phis)], axis=-1)  # (P, 2)
    points = np.einsum("gij,pj->pgi", elements, vec)  # (P, n, 2)
    coeff = encoding_coefficients(elements, points)[:, :, [0, 2]]  # (P, n, 2)
    t = np.sqrt(1.0 - gammas)[:, None, None]
    r = np.sqrt(gammas)[:, None, None]
    s_t = psd_sqrt(coherent_gram(t * points))  # (P, i, g)
    s_r = psd_sqrt(coherent_gram(r * points))  # (P, j, g)
    kraus = np.einsum("pgk,pjg,pig->pkij", coeff, s_r, s_t)  # K_j|k> in coords i
    n_p = np.einsum("pkij,pkIj->piI", kraus, kraus.conj())
    root = inv_sqrt(n_p)
    amp = np.einsum("pkia,piI,pkIb->pab", kraus.conj(), root, kraus)
    fid = np.sum(np.abs(amp) ** 2, axis=(1, 2)) / 4.0
    return (1.0 - fid).reshape(shape)


def gram_condition(name, alphas, phi=PHI_STAR):
    """Condition number of the orbit Gram matrix at each alpha."""
    elements = group_elements(name)
    alphas = np.asarray(alphas, float).ravel()
    vec = np.stack([alphas, alphas * np.exp(1j * phi)], axis=-1)
    w = np.linalg.eigvalsh(coherent_gram(np.einsum("gij,pj->pgi", elements, vec)))
    return w[:, -1] / w[:, 0]


def loglog_slope(xs, ys, lo=1e-3, hi=1e-2):
    """Least-squares slope of log y against log x over lo <= x <= hi."""
    xs, ys = np.asarray(xs), np.asarray(ys)
    keep = (xs >= lo) & (xs <= hi) & np.isfinite(ys) & (ys > 0)
    if np.count_nonzero(keep) < 2:
        return None
    return float(np.polyfit(np.log(xs[keep]), np.log(ys[keep]), 1)[0])


def kraus_completeness(kraus_images):
    """|| sum_p <i|K_p^dag K_p|j> - I || from images of shape (4, n, ...)."""
    flat = kraus_images.reshape(kraus_images.shape[0], kraus_images.shape[1], -1)
    gram = np.einsum("ipx,jpx->ij", flat.conj(), flat)
    return float(np.linalg.norm(gram - np.eye(flat.shape[0])))


# ---------------------------------------------------------------------------
# Logical structure


def kl_overlap(alpha):
    """The first-order Knill-Laflamme overlap left at alpha = sqrt(pi/2)."""
    e = math.exp(-2.0 * alpha**2)
    return 4.0 * e / (1.0 - e) ** 2


def logical_targets():
    """4x4 targets on the (l, m) basis; the gate acts on l only."""
    return {
        "X": np.kron(X, I2),
        "S": np.kron(S, I2),
        "T": np.kron(T, I2),
        "H": np.kron(H, I2),
    }


def cz_target():
    """16x16 CZ on two code copies: (-1)^{l1 l2}, identity on m1, m2."""
    diag = [(-1.0) ** (l1 * l2) for (l1, _) in LM for (l2, _) in LM]
    return np.diag(diag).astype(complex)


def zz_rotation(theta):
    """exp(i theta Z (x) Z) on the (l, m) basis."""
    return np.diag(np.exp(1j * theta * np.array([1.0, -1.0, -1.0, 1.0])))


def phase_aligned_distance(measured, target):
    """min over global phases p of ||measured - e^{ip} target||."""
    overlap = np.trace(target.conj().T @ measured)
    phase = overlap / abs(overlap) if abs(overlap) > 1e-12 else 1.0
    return float(np.linalg.norm(measured - phase * target))


def zy_eigenstates(basis):
    """Z_L Y_M eigenstates (|l,0> +/- i|l,1>)/sqrt 2, keyed '0+i', ..."""
    out = {}
    for l in (0, 1):
        for sign, tag in ((1.0j, "+i"), (-1.0j, "-i")):
            v = (basis[2 * l] + sign * basis[2 * l + 1]) / math.sqrt(2.0)
            out[f"{l}{tag}"] = v / np.linalg.norm(v)
    return out


def mod4_distribution(state):
    """Probability of each (n1 mod 4, n2 mod 4) cell for a (d, d) tensor."""
    d = state.shape[0]
    prob = np.abs(state) ** 2
    r = np.arange(d) % 4
    return {
        (a, b): float(prob[np.ix_(r == a, r == b)].sum()) for a in range(4) for b in range(4)
    }


def y_readout(r1, r2):
    """Y_M from a mod-4 outcome: s = n1 + n2 mod 4 in {0, 1} reads -i."""
    return "-i" if (r1 + r2) % 4 < 2 else "+i"


def mod4_table(basis, floor=1e-12):
    """Cells occupied by each Z_L Y_M eigenstate, and the worst stray masses.

    Returns (table, worst) where table maps label -> set of cells with
    probability above ``floor`` and worst is the largest probability of a
    wrong Y_M readout after one photon loss on either mode.
    """
    table = {}
    worst = 0.0
    for label, state in zy_eigenstates(basis).items():
        dist = mod4_distribution(state)
        table[label] = {cell for cell, p in dist.items() if p > floor}
        for axis in (0, 1):
            lost = lower(state, axis)
            lost = lost / np.linalg.norm(lost)
            wrong = sum(
                p for cell, p in mod4_distribution(lost).items() if y_readout(*cell) != label[1:]
            )
            worst = max(worst, wrong)
    return table, worst


# ---------------------------------------------------------------------------
# Ladder operators as axis shifts


def lower(state, axis, times=1):
    """a^times on one mode of a (d, d) tensor: out[n] = sqrt(n+1) t[n+1]."""
    out = np.asarray(state)
    d = out.shape[axis]
    root = np.sqrt(np.arange(1, d, dtype=float))
    for _ in range(times):
        src = np.moveaxis(out, axis, 0)
        shifted = np.zeros_like(src)
        shifted[:-1] = root.reshape((-1,) + (1,) * (src.ndim - 1)) * src[1:]
        out = np.moveaxis(shifted, 0, axis)
    return out


def lindblad_residuals(basis, alpha, deformed):
    """Max residual of each stabilizing Lindblad operator over the basis.

    L1 = a1^4 - s a^4, L2 = a2^4 - s a^4, L12 = a1^2 a2^2 + s a^4 with
    s = +1 (plain) or -1 (deformed), each normalized by alpha^4; the plain
    code also has L0 = a1^2 + a2^2, normalized by alpha^2.  The second
    value is the largest norm outside the odd total photon number sector.
    """
    sign = -1.0 if deformed else 1.0
    a4 = alpha**4
    scales = {"L1": a4, "L2": a4, "L12": a4}
    if not deformed:
        scales["L0"] = alpha**2
    res = dict.fromkeys(scales, 0.0)
    parity = 0.0
    d = basis.shape[1]
    even_total = (np.add.outer(np.arange(d), np.arange(d)) % 2) == 0
    for s in basis:
        a1sq, a2sq = lower(s, 0, 2), lower(s, 1, 2)
        terms = {
            "L1": lower(a1sq, 0, 2) - sign * a4 * s,
            "L2": lower(a2sq, 1, 2) - sign * a4 * s,
            "L12": lower(a1sq, 1, 2) + sign * a4 * s,
        }
        if not deformed:
            terms["L0"] = a1sq + a2sq
        for name, v in terms.items():
            res[name] = max(res[name], float(np.linalg.norm(v)) / scales[name])
        parity = max(parity, float(np.linalg.norm(s[even_total])))
    return res, parity
