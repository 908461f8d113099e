from functools import reduce

import numpy as np
import pytest
from scipy.linalg import expm, logm

from fouriercat import fock
from fouriercat.fock import (
    FockConfig,
    SingularGramError,
    StarvedTailError,
    annihilation_operator,
    cat_state,
    coherent_amplitudes,
    coherent_product,
    coherent_state,
    hermitian_inv_sqrt,
    infidelity,
    normalize,
    number_diagonal_operator,
    passive_gaussian_unitary,
)
from fouriercat.groups import HADAMARD

from conftest import traced

ALPHA_STAR = np.sqrt(np.pi / 2)


def random_state(cfg, seed):
    rng = np.random.default_rng(seed)
    dim = cfg.dim_per_mode**cfg.modes
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return (amps / np.linalg.norm(amps)).reshape((cfg.dim_per_mode,) * cfg.modes)


def destroy(cutoff):
    return np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), 1)


def dense_mode_op(single, mode, cfg):
    """Dense reference: a single-mode matrix on one mode of a small space."""
    eye = np.eye(cfg.dim_per_mode)
    return reduce(np.kron, [single if k == mode else eye for k in range(cfg.modes)])


def test_coherent_state_normalized():
    for alpha in (0.0, 0.7, 1.3 + 0.4j):
        state = coherent_state(alpha, 30)
        assert abs(np.linalg.norm(state) - 1.0) < 1e-12


def test_coherent_overlap_formula():
    a, b = 0.9, 0.5 + 0.8j
    got = np.vdot(coherent_state(a, 40), coherent_state(b, 40))
    want = np.exp(-abs(a) ** 2 / 2 - abs(b) ** 2 / 2 + np.conj(a) * b)
    assert abs(got - want) < 1e-12


def test_cutoff_too_small_raises():
    with pytest.raises(StarvedTailError, match="cutoff too small"):
        coherent_amplitudes(4.0, 10)


def test_batched_coherent_amplitudes_match_scalar_calls():
    alphas = np.array([[0.0, 0.7], [1.3 + 0.4j, -0.2j], [1e-200, -2.1]])
    batch = coherent_amplitudes(alphas, 30)
    assert coherent_amplitudes(0.7, 30).shape == (31,)
    assert batch.shape == (3, 2, 31)
    loop = np.array([[coherent_amplitudes(a, 30) for a in row] for row in alphas])
    assert np.max(np.abs(batch - loop)) < 1e-15
    # each state's tail is audited on its own: one starved member raises
    with pytest.raises(ValueError, match="cutoff too small for \\|alpha\\| = 4"):
        coherent_amplitudes([0.5, 4.0, -3.0], 10)


@pytest.mark.parametrize(
    "bad", [np.nan, np.inf, complex(0.3, np.nan)], ids=["nan", "inf", "nan-imag"]
)
def test_coherent_amplitudes_reject_non_finite(bad):
    # a NaN tail mass compares false against any tolerance, so it must not
    # reach the audit
    with pytest.raises(ValueError, match="finite"):
        coherent_amplitudes(bad, 20)
    with pytest.raises(ValueError, match="finite"):
        coherent_amplitudes([0.5, bad, 1.0], 20)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: FockConfig(2, 25.5), "integers >= 1"),
        (lambda: FockConfig(2, 25.0), "integers >= 1"),
        (lambda: FockConfig(2, True), "integers >= 1"),
        (lambda: FockConfig(True, 5), "integers >= 1"),
        (lambda: coherent_amplitudes(0.5, 10.0), "cutoff must be an integer"),
        (lambda: coherent_state(0.5, -1), "cutoff must be an integer"),
        (lambda: coherent_product([0.5, 0.2j], 12.5), "cutoff must be an integer"),
        (lambda: cat_state(1.0, 0, True), "cutoff must be an integer"),
        (lambda: annihilation_operator(True, FockConfig(3, 4)), "mode index"),
    ],
    ids=["config-cutoff-half", "config-cutoff-float", "config-cutoff-bool", "config-modes-bool",
         "amplitudes-float", "state-negative", "product-half", "cat-bool", "ladder-mode-bool"],
)
def test_sizes_and_indices_must_be_integers(build, message):
    # a float cutoff sized arange one level past it, and a bool counted as 0 or 1
    with pytest.raises(ValueError, match=message):
        build()


def test_numpy_integer_sizes_stay_valid():
    cfg = FockConfig(np.int64(2), np.int32(12))
    assert cfg.dim_per_mode == 13
    assert coherent_amplitudes(0.5, np.int64(12)).shape == (13,)
    lowered = annihilation_operator(np.int64(1), cfg, np.int64(2))(np.ones((13, 13)))
    assert lowered[0, 0] == np.sqrt(2)


def test_coherent_is_destroy_eigenstate():
    cfg = FockConfig(1, 40)
    alpha = 1.1
    state = coherent_state(alpha, 40)
    image = annihilation_operator(0, cfg)(state)
    assert infidelity(normalize(image), state) < 1e-12
    assert abs(np.linalg.norm(image) - abs(alpha)) < 1e-10


def test_cat_state_parity_support():
    for parity in (0, 1):
        amps = cat_state(ALPHA_STAR, parity, 25)
        n = np.arange(26)
        assert np.max(np.abs(amps[n % 2 != parity])) < 1e-15
        assert abs(np.linalg.norm(amps) - 1.0) < 1e-12


def test_cat_overlaps_at_special_alpha():
    # even cats at alpha and i*alpha are exactly orthogonal when
    # cos(alpha^2) = 0; odd cats then overlap maximally instead
    even_a = cat_state(ALPHA_STAR, 0, 25)
    even_i = cat_state(1j * ALPHA_STAR, 0, 25)
    odd_a = cat_state(ALPHA_STAR, 1, 25)
    odd_i = cat_state(1j * ALPHA_STAR, 1, 25)
    assert abs(np.vdot(even_a, even_i)) < 1e-12
    a2 = ALPHA_STAR**2
    want = 4 * np.exp(-a2) * np.sin(a2) / (2 * (1 - np.exp(-2 * a2)))
    assert abs(abs(np.vdot(odd_a, odd_i)) - want) < 1e-12
    # mixed parities never overlap
    assert abs(np.vdot(even_a, odd_i)) < 1e-14


def test_passive_unitary_moves_coherent_states():
    cfg = FockConfig(2, 25)
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    vec = np.array([0.8, 0.3j])
    op = passive_gaussian_unitary(h, cfg)
    got = op(coherent_product(vec, 25))
    want = coherent_product(h @ vec, 25)
    assert infidelity(got, want) < 1e-10


def test_monomial_unitary_is_exact_swap():
    cfg = FockConfig(2, 5)
    swap = passive_gaussian_unitary(np.array([[0.0, 1.0], [1.0, 0.0]]), cfg)
    amps = np.zeros((6, 6), dtype=complex)
    amps[4, 1] = 1.0
    got = swap(amps)
    assert abs(got[1, 4] - 1.0) < 1e-15


def test_monomial_unitary_phases():
    cfg = FockConfig(2, 7)
    op = passive_gaussian_unitary(np.diag([1.0, -1.0]), cfg)
    state = random_state(cfg, 1)
    want = dense_mode_op(np.diag((-1.0) ** np.arange(8)), 1, cfg) @ state.ravel()
    assert np.linalg.norm(op(state).ravel() - want) < 1e-15
    # a phased swap: |n1, n2> -> i^n1 |n2, n1>
    phased_swap = passive_gaussian_unitary(np.array([[0.0, 1.0], [1j, 0.0]]), cfg)
    got = phased_swap(state)
    want = (1j ** np.arange(8))[None, :] * state.T
    assert np.linalg.norm(got - want) < 1e-15


def dense_passive_unitary(u, cfg):
    """expm(i sum_jk h_jk a_j^dag a_k) from kron-built truncated ladder matrices."""
    a = [dense_mode_op(destroy(cfg.cutoff), k, cfg) for k in (0, 1)]
    h = -1j * logm(u)
    ham = sum(h[j, k] * a[j].conj().T @ a[k] for j in (0, 1) for k in (0, 1))
    return expm(1j * ham)


LOSS_T, LOSS_R = np.sqrt(0.99), np.sqrt(0.01)
# gamma = 1e-20: r = 1e-10 sits just above the monomial tolerance, and the
# eigenvalues 1 +- 1e-10 i nearly coincide
TINY_T, TINY_R = np.sqrt(1.0 - 1e-20), 1e-10
# Hermitian, eigenvalues +-1; np.linalg.eig returns the -1 with a negative
# imaginary part of order 1e-17, so its angle rounds to exactly -pi, the
# edge of the principal branch
BRANCH_EDGE = np.array(
    [
        [-np.sqrt(3) / 2, 0.5 * np.exp(-0.25j * np.pi)],
        [0.5 * np.exp(0.25j * np.pi), np.sqrt(3) / 2],
    ]
)
# an SU(2) rotation times a global phase, so the two diagonal phases differ
COMPLEX_U2 = np.exp(0.2j) * np.array(
    [
        [np.exp(0.3j) * np.cos(0.7), -np.exp(-0.4j) * np.sin(0.7)],
        [np.exp(0.4j) * np.sin(0.7), np.exp(-0.3j) * np.cos(0.7)],
    ]
)


@pytest.mark.parametrize(
    "u",
    [
        pytest.param(HADAMARD, id="hadamard"),
        pytest.param(np.array([[LOSS_T, -LOSS_R], [LOSS_R, LOSS_T]]), id="loss-gamma0.01"),
        pytest.param(COMPLEX_U2, id="complex-u2"),
        pytest.param(np.array([[TINY_T, -TINY_R], [TINY_R, TINY_T]]), id="loss-gamma1e-20"),
        pytest.param(BRANCH_EDGE, id="branch-edge"),
    ],
)
def test_sector_unitary_matches_dense_reference(u):
    # a random state fills every sector, the corners N > cutoff included;
    # cutoffs 1-3 are the edge cases of the packed rows (one or two sectors
    # of length 1 and 0)
    for cutoff in (1, 2, 3, 7):
        cfg = FockConfig(2, cutoff)
        state = random_state(cfg, 5)
        got = passive_gaussian_unitary(u, cfg)(state).ravel()
        want = dense_passive_unitary(u, cfg) @ state.ravel()
        assert np.linalg.norm(got - want) < 1e-12


def test_sector_unitary_keeps_a_corner_sector_exactly():
    # all amplitude in N = cutoff + 2, which shares its packed row with N = 1
    cfg = FockConfig(2, 7)
    n = np.add.outer(np.arange(8), np.arange(8))
    rng = np.random.default_rng(11)
    amps = np.where(n == cfg.cutoff + 2, rng.normal(size=(8, 8)) + 1j, 0.0)
    got = passive_gaussian_unitary(COMPLEX_U2, cfg)(amps)
    assert np.count_nonzero(got[n != cfg.cutoff + 2]) == 0
    assert abs(np.linalg.norm(got) - np.linalg.norm(amps)) < 1e-13
    want = dense_passive_unitary(COMPLEX_U2, cfg) @ amps.ravel()
    assert np.linalg.norm(got.ravel() - want) < 1e-12


@pytest.mark.parametrize("lead", [(), (3,), (2, 3)], ids=["single", "stack", "grid"])
def test_sector_unitary_maps_any_leading_batch(lead):
    cfg = FockConfig(2, 5)
    rng = np.random.default_rng(12)
    shape = lead + (6, 6)
    batch = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    got = passive_gaussian_unitary(HADAMARD, cfg)(batch)
    assert got.shape == shape
    dense = dense_passive_unitary(HADAMARD, cfg)
    want = (batch.reshape(-1, 36) @ dense.T).reshape(shape)
    assert np.max(np.abs(got - want)) < 1e-12


def mode_hamiltonian(u):
    """h = -i log U on the principal branch, formed as ``passive_gaussian_unitary`` forms it."""
    vals, vecs = np.linalg.eig(u)
    q, _ = np.linalg.qr(vecs)
    return (q * np.angle(vals)) @ q.conj().T


def sector_unitary_batched_reference(h, config):
    """The one-batch sector lift that ``fock._sector_unitary`` replaced.

    All d packed rows are built in one (d, d, d) Hamiltonian, eigenvector and
    cos/sin stack beside the lift, exponentiated by one batched eigh.
    """
    d = config.dim_per_mode
    k = np.arange(d)
    r = k[:, None]
    first = k <= r
    total = np.where(first, r, r + d)
    ham = np.zeros((d, d, d))
    ham[:, k, k] = (h[0, 0] * k + h[1, 1] * (total - k)).real
    ham[:, k[1:], k[:-1]] = abs(h[0, 1]) * np.sqrt((k[:-1] + 1) * (total[:, :-1] - k[:-1]))
    ham[:, k[:-1], k[1:]] = ham[:, k[1:], k[:-1]]
    vals, vecs = np.linalg.eigh(ham)
    u_t = np.empty((d, d, d), dtype=complex)
    np.matmul(vecs * np.cos(vals)[:, None, :], vecs.swapaxes(1, 2), out=u_t.real)
    np.matmul(vecs * np.sin(vals)[:, None, :], vecs.swapaxes(1, 2), out=u_t.imag)
    u_t *= np.exp(1j * np.angle(h[0, 1]) * (k - k[:, None]))
    u_t[first[:, :, None] != first[:, None, :]] = 0.0
    gather = k * d + (r - k) % d
    scatter = (r + k) % d * d + r

    def act(t):
        packed = np.reshape(t, (-1, d * d))[:, gather].swapaxes(0, 1)
        out = (packed @ u_t).swapaxes(0, 1).reshape(-1, d * d)
        return out[:, scatter].reshape(np.shape(t))

    return act


@pytest.mark.parametrize(
    "u",
    [
        pytest.param(HADAMARD, id="hadamard"),
        pytest.param(np.array([[LOSS_T, -LOSS_R], [LOSS_R, LOSS_T]]), id="loss-gamma0.01"),
        pytest.param(COMPLEX_U2, id="complex-u2"),
    ],
)
def test_blocked_sector_lift_matches_one_batch_byte_for_byte(u):
    # batched eigh and matmul act matrix by matrix, so building the rows in
    # blocks changes no byte; d = 41 leaves a partial last block
    h = mode_hamiltonian(np.asarray(u, dtype=complex))
    rng = np.random.default_rng(15)
    for cutoff in (7, 25, 40):
        cfg = FockConfig(2, cutoff)
        d = cfg.dim_per_mode
        batch = rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d))
        got = fock._sector_unitary(h, cfg)(batch)
        assert got.tobytes() == sector_unitary_batched_reference(h, cfg)(batch).tobytes()


def test_sector_lift_holds_no_work_stack_of_its_size():
    # one (d, d, d) work stack beside the lift would put the peak above 2x
    # what the lift keeps; the blocked build peaks at 1.22x at cutoff 60
    cfg = FockConfig(2, 60)
    h = mode_hamiltonian(HADAMARD.astype(complex))
    kept = []
    peak, retained = traced(lambda: kept.append(fock._sector_unitary(h, cfg)))
    assert retained >= 16 * cfg.dim_per_mode**3
    assert peak < 1.3 * retained, f"traced peak {peak / retained:.2f}x the lift"


def test_non_monomial_unitary_needs_two_modes():
    u = np.eye(3, dtype=complex)
    u[:2, :2] = HADAMARD
    for _ in range(2):  # the memo caches no failed lift
        with pytest.raises(ValueError, match="two modes"):
            passive_gaussian_unitary(u, FockConfig(3, 3))
    # a monomial one is still lifted on any mode count
    passive_gaussian_unitary(np.roll(np.eye(3), 1, axis=0), FockConfig(3, 3))


def test_passive_unitary_rejects_nonunitary():
    # a NaN entry gives a NaN norm, which must fail the check, not pass it
    for u in ([[1.0, 0.0], [0.0, 2.0]], [[np.nan, 0.0], [0.0, 1.0]], [[0.0, np.nan], [1.0, 0.0]]):
        for _ in range(2):  # a U that fails validation is never memoized
            with pytest.raises(ValueError, match="unitary"):
                passive_gaussian_unitary(np.array(u), FockConfig(2, 5))


def test_passive_lift_is_memoized(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    rng = np.random.default_rng(8)
    cfg = FockConfig(2, 6)
    batch = rng.normal(size=(3, 7, 7)) + 1j * rng.normal(size=(3, 7, 7))
    for u, solves in ((COMPLEX_U2, [(7, 7, 7)]), (np.array([[0.0, 1.0], [1j, 0.0]]), [])):
        fock._lift.cache_clear()
        passive_gaussian_unitary(u, cfg)(batch)
        assert calls == solves  # d = 7 packed rows fit one block: one batched eigh
        warm = passive_gaussian_unitary(u, cfg)(batch)
        assert calls == solves  # the second lift runs no eigh
        assert fock._lift.cache_info().hits == 1
        fock._lift.cache_clear()
        cold = passive_gaussian_unitary(u, cfg)(batch)
        assert np.array_equal(cold, warm)
        calls.clear()


def test_passive_lift_memo_misses_on_any_key_change():
    cfg = FockConfig(2, 7)
    state = random_state(cfg, 9)
    nudged = HADAMARD.astype(complex)
    nudged[0, 1] = np.nextafter(nudged[0, 1].real, 1.0)  # one ulp
    fock._lift.cache_clear()
    passive_gaussian_unitary(HADAMARD, cfg)
    for u, c in ((nudged, cfg), (HADAMARD, FockConfig(2, 6))):
        misses = fock._lift.cache_info().misses
        vec = state[: c.dim_per_mode, : c.dim_per_mode].ravel()
        got = passive_gaussian_unitary(u, c)(vec.reshape((c.dim_per_mode,) * 2)).ravel()
        assert fock._lift.cache_info().misses == misses + 1
        assert np.linalg.norm(got - dense_passive_unitary(u, c) @ vec) < 1e-12
    # the same diagonal phases on a third mode
    cfg3 = FockConfig(3, 7)
    passive_gaussian_unitary(np.diag([1j, -1.0]), cfg)
    misses = fock._lift.cache_info().misses
    got = passive_gaussian_unitary(np.diag([1j, -1.0, 1.0]), cfg3)(np.ones((8, 8, 8)))
    assert fock._lift.cache_info().misses == misses + 1
    n = np.arange(8)
    assert np.array_equal(got, np.multiply.outer(np.multiply.outer(1j**n, (-1.0) ** n), n**0))


def test_passive_lift_memo_stays_bounded():
    cfg = FockConfig(2, 3)
    maxsize = fock._lift.cache_info().maxsize
    for theta in np.linspace(0.1, 1.4, maxsize + 5):
        c, s = np.cos(theta), np.sin(theta)
        passive_gaussian_unitary(np.array([[c, -s], [s, c]]), cfg)
    assert fock._lift.cache_info().currsize <= maxsize


def test_number_diagonal_operator_unimodular_check():
    cfg = FockConfig(2, 5)
    n = np.arange(6)
    op = number_diagonal_operator((-1.0) ** np.outer(n, n), cfg)
    dense = np.diag(((-1.0) ** np.outer(n, n)).ravel())
    state = random_state(cfg, 2)
    image = op(state)
    assert np.linalg.norm(image.ravel() - dense @ state.ravel()) < 1e-15
    assert abs(np.linalg.norm(image) - 1.0) < 1e-14
    assert np.linalg.norm(op(image) - state) < 1e-15
    with pytest.raises(ValueError):
        number_diagonal_operator((n + 1.0)[:, None], cfg)
    for bad in (np.full(6, np.nan), np.where(n == 3, np.nan, 1.0)):
        with pytest.raises(ValueError, match="unimodular"):
            number_diagonal_operator(bad, cfg)


def test_mode_operators_commute_across_modes():
    cfg = FockConfig(2, 6)
    state = random_state(cfg, 3)
    a = destroy(cfg.cutoff)
    a1_dense, a2_dense = dense_mode_op(a, 0, cfg), dense_mode_op(a, 1, cfg)
    a1, a2 = annihilation_operator(0, cfg), annihilation_operator(1, cfg)
    a1a2 = a1(a2(state)).ravel()
    a2a1 = a2(a1(state)).ravel()
    assert np.linalg.norm(a1a2 - a2a1) < 1e-14
    assert np.linalg.norm(a1a2 - a1_dense @ a2_dense @ state.ravel()) < 1e-14
    # a_1 commutes with a mode-2 phase e^{i n2}
    phase2 = number_diagonal_operator(np.exp(1j * np.arange(cfg.dim_per_mode)), cfg)
    lhs = a1(phase2(state))
    rhs = phase2(a1(state))
    assert np.linalg.norm(lhs - rhs) < 1e-14


def test_hermitian_inv_sqrt_round_trip():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    gram = m @ m.conj().T + np.eye(6)
    roots = hermitian_inv_sqrt(gram)
    assert np.linalg.norm(roots.inv_sqrt @ gram @ roots.inv_sqrt - np.eye(6)) < 1e-10


def test_hermitian_inv_sqrt_singular():
    singular = np.diag([1.0, 1e-18]).astype(complex)
    with pytest.raises(SingularGramError, match="singular") as info:
        hermitian_inv_sqrt(singular)
    assert abs(info.value.condition_number - 1e18) <= 1e-15 * 1e18
    # pseudo mode floors the null direction instead of raising
    roots = hermitian_inv_sqrt(singular, pseudo=True)
    assert np.isfinite(roots.inv_sqrt).all()


@pytest.mark.parametrize(
    "defects, raises",
    [((0.0, 2e-10), True), ((0.0, 5e-11), False), ((8e-11, 8e-11), False), ((0.0, 1e200), True)],
    ids=["second-2e-10", "second-5e-11", "both-8e-11", "second-1e200"],
)
def test_hermitian_gate_tolerance_is_per_matrix(defects, raises):
    # ||A - A^H||_F of each matrix is held to 1e-10 on its own: two matrices off
    # by 8e-11 pass, though the defect of the whole stack is 1.1e-10; a defect
    # whose square overflows fails the check instead of warning
    rng = np.random.default_rng(5)
    m = rng.normal(size=(2, 8, 8)) + 1j * rng.normal(size=(2, 8, 8))
    a = m + m.conj().swapaxes(-1, -2)  # exactly Hermitian
    a[:, 0, 1] += np.array(defects) / np.sqrt(2)  # Frobenius defect = defects
    if raises:
        with pytest.raises(ValueError, match="not Hermitian"):
            fock._hermitian_eigh(a)
        return
    w, v = fock._hermitian_eigh(a)
    want_w, want_v = np.linalg.eigh((a + a.conj().swapaxes(-1, -2)) / 2)
    assert np.array_equal(w, want_w) and np.array_equal(v, want_v)


@pytest.mark.parametrize("dropped", [0, 2])
def test_hermitian_inv_sqrt_gain_is_the_spectral_norm(dropped):
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    w = np.array([1e-20] * dropped + list(np.logspace(-6, 0, 6 - dropped)))
    roots = hermitian_inv_sqrt((q * w) @ q.conj().T, floor=1e-15, pseudo=True)
    assert roots.rank == 6 - dropped
    want = np.linalg.norm(roots.inv_sqrt, 2)
    assert abs(roots.gain - want) <= 1e-12 * want


def test_operator_composition_and_dagger():
    cfg = FockConfig(2, 7)
    state = random_state(cfg, 4)
    # <psi|a^dag a|psi> = ||a psi||^2 is the mean photon number of the mode
    n = np.arange(8.0)
    for mode, counts in ((0, n[:, None]), (1, n[None, :])):
        mean = np.sum(counts * np.abs(state) ** 2)
        image = annihilation_operator(mode, cfg)(state)
        assert abs(np.linalg.norm(image) ** 2 - mean) < 1e-14
    # composition applies the right factor first, as the dense product does;
    # the two factors do not commute
    kerr = number_diagonal_operator(1j ** (np.arange(8) ** 2 % 4), cfg)
    u = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0)
    mix = passive_gaussian_unitary(u, cfg)
    kerr_dense = dense_mode_op(np.diag(1j ** (np.arange(8) ** 2 % 4)), 1, cfg)
    mix_dense = dense_passive_unitary(u, cfg)
    got = kerr(mix(state)).ravel()
    assert np.linalg.norm(got - kerr_dense @ mix_dense @ state.ravel()) < 1e-12
    assert np.linalg.norm(got - mix_dense @ kerr_dense @ state.ravel()) > 1e-2


def test_operators_map_a_batch_as_each_member():
    rng = np.random.default_rng(6)
    cfg2, cfg3 = FockConfig(2, 5), FockConfig(3, 3)
    n = np.arange(6)
    cyclic = np.array([[0.0, 0.0, 1j], [-1.0, 0.0, 0.0], [0.0, np.exp(0.3j), 0.0]])
    cases = [  # (operator, config, exact)
        (passive_gaussian_unitary(cyclic, cfg3), cfg3, True),
        (number_diagonal_operator(np.exp(0.7j * np.outer(n, n**2)), cfg2), cfg2, True),
        (passive_gaussian_unitary(COMPLEX_U2, cfg2), cfg2, False),
        (annihilation_operator(0, cfg2), cfg2, True),
        (annihilation_operator(1, cfg2), cfg2, True),
        (annihilation_operator(1, cfg3), cfg3, True),
    ]
    for op, cfg, exact in cases:
        shape = (4,) + (cfg.dim_per_mode,) * cfg.modes
        batch = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        got = op(batch)
        want = np.array([op(member) for member in batch])
        assert got.shape == shape
        if exact:
            assert np.array_equal(got, want)
        else:  # one matmul per sector block; BLAS may sum in another order
            assert np.max(np.abs(got - want)) < 1e-14 * np.max(np.abs(batch))
    with pytest.raises(ValueError, match="mode index"):
        annihilation_operator(2, cfg2)


def roll_lower(t, mode, cfg):
    """One step of a on ``mode`` by a cyclic shift, as the operator once did it."""
    d = cfg.dim_per_mode
    root = np.append(np.sqrt(np.arange(1, d)), 0.0).reshape((-1,) + (1,) * (cfg.modes - 1 - mode))
    return root * np.roll(t, -1, axis=mode - cfg.modes)


@pytest.mark.parametrize("cutoff", [1, 2, 3, 7])
@pytest.mark.parametrize("modes", [1, 2])
def test_ladder_step_is_bit_identical_to_the_roll(modes, cutoff):
    rng = np.random.default_rng(10 * modes + cutoff)
    cfg = FockConfig(modes, cutoff)
    shape = (3, 2) + (cfg.dim_per_mode,) * modes
    batch = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for mode in range(modes):
        got = annihilation_operator(mode, cfg)(batch)
        want = roll_lower(batch, mode, cfg)
        assert got.dtype == want.dtype and got.shape == want.shape
        # equal everywhere and the same bits below the top level, where the
        # roll multiplies a wrapped amplitude by 0 and its zero may carry a sign
        assert np.array_equal(got, want)
        below = np.moveaxis(got, mode - modes, 0)[:-1]
        assert below.tobytes() == np.moveaxis(want, mode - modes, 0)[:-1].tobytes()


@pytest.mark.parametrize("power", [2, 4])
@pytest.mark.parametrize("cfg", [FockConfig(1, 7), FockConfig(2, 7), FockConfig(2, 3), FockConfig(3, 5)],
                         ids=lambda c: f"{c.modes}x{c.cutoff}")
def test_ladder_power_is_the_composed_steps(cfg, power):
    rng = np.random.default_rng(power)
    shape = (2,) + (cfg.dim_per_mode,) * cfg.modes
    batch = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for mode in range(cfg.modes):
        step = annihilation_operator(mode, cfg)
        got = annihilation_operator(mode, cfg, power)(batch)
        want = reduce(lambda t, _: step(t), range(power), batch)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        top = np.moveaxis(got, mode - cfg.modes, 0)[max(cfg.dim_per_mode - power, 0):]
        assert top.size and not np.any(top)


def test_ladder_power_must_be_a_positive_integer():
    cfg = FockConfig(2, 4)
    for power in (0, -1, 1.0, 2.5, "2", None, True):
        with pytest.raises(ValueError, match="power"):
            annihilation_operator(0, cfg, power)
    # a power past the cutoff annihilates every state
    assert not np.any(annihilation_operator(1, cfg, 6)(np.ones((5, 5))))


def test_infidelity_does_not_cancel():
    # 1 - |<a|b>| rounds to 0 here; the phase-aligned distance keeps eps^2 / 2
    eps = 1e-9
    got = infidelity(np.array([np.cos(eps), np.sin(eps)]), np.array([1.0, 0.0]))
    assert got == pytest.approx(eps**2 / 2, rel=1e-6)
    state = random_state(FockConfig(2, 6), 7)
    assert 0.0 <= infidelity(state, np.exp(0.3j) * state) <= 1e-30
    # orthogonal states are a full unit apart, whatever their norms
    assert infidelity(np.eye(3)[0], 2j * np.eye(3)[1]) == 1.0


def test_normalize_and_infidelity_reject_a_zero_state():
    zero = np.zeros((3, 3), dtype=complex)
    with pytest.raises(ValueError, match="cannot normalize a zero state"):
        normalize(zero)
    with pytest.raises(ValueError, match="cannot normalize a zero state"):
        infidelity(np.eye(3), zero)
