"""Lifts of two-mode passive unitaries to Fock space: a test oracle.

The library lifts no passive unitary: its gates permute or move the code
states' coherent points instead.  The tests check those routes against the
lifts here.  A monomial U (a mode permutation with phases) is lifted
exactly by ``monomial_unitary``; any other U by the sector lift.
pi(U) = exp(i sum_jk h_jk a_j^dag a_k) conserves the total photon number
N = n_1 + n_2, so it is built one sector at a time.  Sectors N <= cutoff lie
wholly under the per-mode cutoff and are exact; the corner sectors
N > cutoff are truncated, so there the lift depends on h, not only on U.
``exact_image`` pads states to twice their cutoff, where every sector of the
original box is whole, so it applies a composition of such lifts exactly.
Like the library's operators, these read d from the state they act on.
"""

from functools import lru_cache, partial

import numpy as np

from fouriercat.groups import HADAMARD


def monomial_structure(u):
    """(swap, phases) when the 2 x 2 unitary u is a generalized permutation matrix, else None.

    Each column's largest entry (the first on a tie) must have unit modulus
    and the other one vanish, to 1e-12; swap is whether column 0's lies in
    row 1, and phases are the two unit entries, column by column.
    """
    (a, b), (c, e) = np.asarray(u, dtype=complex)
    swap = abs(c) > abs(a)
    p0, p1, r0, r1 = (c, b, a, e) if swap else (a, e, c, b)
    if max(abs(abs(p0) - 1.0), abs(abs(p1) - 1.0), abs(r0), abs(r1)) <= 1e-12:
        return swap, (p0, p1)
    return None


def monomial_unitary(u):
    """pi(U) of a monomial U, exact under any cutoff; any other U raises.

    pi(U)|n_1, n_2> = phases[0]^n_1 phases[1]^n_2 |n_1, n_2>, the mode axes
    then swapped if U swaps the modes.  The phase table is built for the d
    of each state it is applied to.
    """
    monomial = monomial_structure(u)
    if monomial is None:
        raise ValueError("only a monomial mode transformation is lifted exactly")
    swap, phases = monomial

    def act(t):
        n = np.arange(np.shape(t)[-1])
        phase = np.multiply.outer(phases[0] ** n, phases[1] ** n)
        return (phase * t).swapaxes(-2, -1) if swap else phase * t

    return act


def mode_hamiltonian(u):
    """h = -i log U on the principal branch.

    A non-monomial U is normal with distinct eigenvalues w, so the QR of its
    eigenvectors is an orthonormal eigenbasis Q, and h = Q diag(angle(w))
    Q^dag, with angle(w) in [-pi, pi] as the sign of the computed imaginary
    part of w decides (an eigenvalue -1 - 1e-17i gives -pi).
    """
    vals, vecs = np.linalg.eig(u)
    q, _ = np.linalg.qr(vecs)
    return (q * np.angle(vals)) @ q.conj().T


def sector_unitary(h, d):
    """exp(i sum_jk h_jk a_j^dag a_k) on two truncated modes of dimension d, all sectors at once.

    Sector N holds |k, N - k> for max(0, N - cutoff) <= k <= min(N, cutoff);
    there the Hamiltonian is tridiagonal, with diagonal h_00 k + h_11 (N - k)
    and <k+1|H|k> = h_01 sqrt((k + 1)(N - k)).  Row r of the packed d x d
    layout holds sector r (k = 0..r), then the corner sector cutoff + 1 + r
    (k = r + 1..cutoff): element (r, k) is t[k, (r - k) mod d].  Each row is
    one d x d matrix (its coupling at k = r vanishes), made real by the gauge
    |k> -> e^{ik arg h_01}|k> and exponentiated by eigh; a mask to each row's
    two blocks keeps roundoff from coupling sectors.  One batched eigh over
    the (d, d, d) stack of rows costs O(d^4).
    """
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
    gather = k * d + (r - k) % d  # flat (k, (r - k) mod d) for packed (r, k)
    scatter = (r + k) % d * d + r  # flat packed ((j + m) mod d, j) for tensor (j, m)

    def act(t):
        packed = np.reshape(t, (-1, d * d))[:, gather].swapaxes(0, 1)  # (r, batch, k)
        out = (packed @ u_t).swapaxes(0, 1).reshape(-1, d * d)
        return out[:, scatter].reshape(np.shape(t))

    return act


def passive_unitary(u):
    """pi(U) for any 2 x 2 unitary: the exact ``monomial_unitary`` if U is monomial, else the sector lift.

    The sector lift is built for the d of the state it is applied to and
    kept for the next state of that d.
    """
    u = np.asarray(u, dtype=complex)
    if monomial_structure(u) is not None:
        return monomial_unitary(u)
    lift = lru_cache(maxsize=1)(partial(sector_unitary, mode_hamiltonian(u)))
    return lambda t: lift(np.shape(t)[-1])(t)


def composite_hadamard_operator(t):
    """i^{n2^2} pi(H) i^{n2^2} pi(H) i^{n2^2} applied to t, pi(H) by the sector lift."""
    s_phase = 1j ** (np.arange(np.shape(t)[-1]) ** 2 % 4)
    pi_h = passive_unitary(HADAMARD)
    return s_phase * pi_h(s_phase * pi_h(s_phase * t))


def exact_image(operator, states):
    """``operator`` applied to ``states`` zero-padded to twice their cutoff.

    The operators here conserve the total photon number, and every sector
    N <= 2c of a cutoff-c state lies whole under the cutoff 2c, so the image
    is exact; it is returned in the 2c box.
    """
    d = np.shape(states)[-1]
    padded = np.zeros(np.shape(states)[:-2] + (2 * d - 1, 2 * d - 1), dtype=complex)
    padded[..., :d, :d] = states
    return operator(padded)
