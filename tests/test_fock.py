from functools import reduce

import numpy as np
import pytest
from scipy.linalg import expm, logm

from fouriercat import fock
from fouriercat.fock import (
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
)
from fouriercat.gates import deformation_residual, double_deformation_residual
from fouriercat.groups import HADAMARD, PAULI_X, cyclic_group, generate_group

from sector_lift import monomial_unitary, passive_unitary

ALPHA_STAR = np.sqrt(np.pi / 2)


def random_state(d, seed):
    """A random normalized (d, d) state."""
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
    return (amps / np.linalg.norm(amps)).reshape(d, d)


def destroy(cutoff):
    return np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), 1)


def dense_mode_op(single, mode):
    """Dense reference: a single-mode (d, d) matrix on one mode of the d^2 space."""
    eye = np.eye(len(single))
    return np.kron(single, eye) if mode == 0 else np.kron(eye, single)


def test_coherent_state_normalized():
    for alpha in (0.0, 0.7, 1.3 + 0.4j):
        state = coherent_state(alpha, 30)
        assert abs(np.linalg.norm(state) - 1.0) < 1e-12


def test_batched_coherent_states_are_each_normalized():
    # one builder for scalars and stacks: each state is normalized on its own axis
    alphas = np.array([[0.0, 0.7], [1.3 + 0.4j, -1.5j]])
    batch = coherent_state(alphas, 30)
    assert batch.shape == (2, 2, 31)
    for index in np.ndindex(alphas.shape):
        assert np.array_equal(batch[index], coherent_state(alphas[index], 30))
    assert np.max(np.abs(np.linalg.norm(batch, axis=-1) - 1.0)) < 1e-15


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
        (lambda: coherent_amplitudes(0.5, 10.0), "cutoff must be an integer"),
        (lambda: coherent_state(0.5, -1), "cutoff must be an integer"),
        (lambda: coherent_product([0.5, 0.2j], 12.5), "cutoff must be an integer"),
        (lambda: cat_state(1.0, 0, True), "cutoff must be an integer"),
        (lambda: annihilation_operator(True), "mode index"),
        (lambda: cyclic_group(0), "N must be an integer >= 1"),
        (lambda: cyclic_group(-3), "N must be an integer >= 1"),
        (lambda: cyclic_group(2.5), "N must be an integer >= 1"),
        (lambda: cyclic_group(True), "N must be an integer >= 1"),
        (lambda: generate_group([PAULI_X], max_order=2.5), "max_order must be an integer >= 1"),
        (lambda: generate_group([PAULI_X], max_order=64.0), "max_order must be an integer >= 1"),
    ],
    ids=["amplitudes-float", "state-negative", "product-half", "cat-bool", "ladder-mode-bool",
         "cyclic-zero", "cyclic-negative", "cyclic-float", "cyclic-bool", "max-order-half",
         "max-order-float"],
)
def test_sizes_and_indices_must_be_integers(build, message):
    # one rule, groups._integer_at_least, for every size: a float cutoff sized
    # arange one level past it, a bool counted as 0 or 1, and Z_0 divided by zero
    with pytest.raises(ValueError, match=message):
        build()


def test_numpy_integer_sizes_stay_valid():
    assert coherent_amplitudes(0.5, np.int32(12)).shape == (13,)
    assert coherent_amplitudes(0.5, np.int64(12)).shape == (13,)
    lowered = annihilation_operator(np.int64(1), np.int64(2))(np.ones((13, 13)))
    assert lowered[0, 0] == np.sqrt(2)
    assert cyclic_group(np.int64(4)).order == 4


def test_two_mode_contracts():
    # the old forms that passed a dimension fail loudly instead of reading it
    with pytest.raises(ValueError, match="power"):
        annihilation_operator(0, object())
    for alphas in ([0.5], [0.5, 0.2j, 1.0], 0.5):
        with pytest.raises(ValueError, match="exactly two amplitudes"):
            coherent_product(alphas, 10)


def test_coherent_is_destroy_eigenstate():
    alphas = (1.1, 0.4j)
    state = coherent_product(alphas, 40)
    for mode, alpha in enumerate(alphas):
        image = annihilation_operator(mode)(state)
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
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    vec = np.array([0.8, 0.3j])
    op = passive_unitary(h)
    got = op(coherent_product(vec, 25))
    want = coherent_product(h @ vec, 25)
    assert infidelity(got, want) < 1e-10


def test_monomial_unitary_is_exact_swap():
    swap = monomial_unitary(np.array([[0.0, 1.0], [1.0, 0.0]]))
    amps = np.zeros((6, 6), dtype=complex)
    amps[4, 1] = 1.0
    got = swap(amps)
    assert abs(got[1, 4] - 1.0) < 1e-15


def test_monomial_unitary_phases():
    op = monomial_unitary(np.diag([1.0, -1.0]))
    state = random_state(8, 1)
    want = dense_mode_op(np.diag((-1.0) ** np.arange(8)), 1) @ state.ravel()
    assert np.linalg.norm(op(state).ravel() - want) < 1e-15
    # a phased swap: |n1, n2> -> i^n1 |n2, n1>
    phased_swap = monomial_unitary(np.array([[0.0, 1.0], [1j, 0.0]]))
    got = phased_swap(state)
    want = (1j ** np.arange(8))[None, :] * state.T
    assert np.linalg.norm(got - want) < 1e-15


def dense_passive_unitary(u, d):
    """expm(i sum_jk h_jk a_j^dag a_k) from kron-built truncated ladder matrices."""
    a = [dense_mode_op(destroy(d - 1), k) for k in (0, 1)]
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
    op = passive_unitary(u)
    for d in (2, 3, 4, 8):
        state = random_state(d, 5)
        got = op(state).ravel()
        want = dense_passive_unitary(u, d) @ state.ravel()
        assert np.linalg.norm(got - want) < 1e-12


def test_sector_unitary_keeps_a_corner_sector_exactly():
    # all amplitude in N = cutoff + 2, which shares its packed row with N = 1
    cutoff = 7
    n = np.add.outer(np.arange(8), np.arange(8))
    rng = np.random.default_rng(11)
    amps = np.where(n == cutoff + 2, rng.normal(size=(8, 8)) + 1j, 0.0)
    got = passive_unitary(COMPLEX_U2)(amps)
    assert np.count_nonzero(got[n != cutoff + 2]) == 0
    assert abs(np.linalg.norm(got) - np.linalg.norm(amps)) < 1e-13
    want = dense_passive_unitary(COMPLEX_U2, 8) @ amps.ravel()
    assert np.linalg.norm(got.ravel() - want) < 1e-12


@pytest.mark.parametrize("lead", [(), (3,), (2, 3)], ids=["single", "stack", "grid"])
def test_sector_unitary_maps_any_leading_batch(lead):
    rng = np.random.default_rng(12)
    shape = lead + (6, 6)
    batch = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    got = passive_unitary(HADAMARD)(batch)
    assert got.shape == shape
    dense = dense_passive_unitary(HADAMARD, 6)
    want = (batch.reshape(-1, 36) @ dense.T).reshape(shape)
    assert np.max(np.abs(got - want)) < 1e-12


def test_non_monomial_unitary_needs_two_modes(star_code):
    u = np.eye(3, dtype=complex)
    u[:2, :2] = HADAMARD
    # the gates apply pi(U) through two-mode coherent points, so a 3 x 3
    # unitary, monomial or not, is refused on every call
    for unitary in (u, np.roll(np.eye(3), 1, axis=0)):
        for check in (deformation_residual, double_deformation_residual):
            for _ in range(2):
                with pytest.raises(ValueError, match="2 x 2"):
                    check(star_code, unitary)


def test_passive_unitary_rejects_nonunitary(star_code):
    # a NaN entry gives a NaN norm, which must fail the check, not pass it
    for u in ([[1.0, 0.0], [0.0, 2.0]], [[np.nan, 0.0], [0.0, 1.0]], [[0.0, np.nan], [1.0, 0.0]]):
        for check in (deformation_residual, double_deformation_residual):
            for _ in range(2):
                with pytest.raises(ValueError, match="mode transformation must be unitary"):
                    check(star_code, np.array(u))


@pytest.mark.parametrize(
    "u", [HADAMARD, COMPLEX_U2, np.array([[LOSS_T, -LOSS_R], [LOSS_R, LOSS_T]])],
    ids=["hadamard", "complex-u2", "loss-gamma0.01"],
)
def test_non_monomial_unitary_is_refused(u, monkeypatch):
    # the exact lift of a non-monomial U would mix each sector across the
    # cutoff, so the oracle's monomial lift refuses it, running no LAPACK
    # solver; passive_unitary gives such a U to the sector lift instead
    for name in ("eig", "eigh", "qr"):
        monkeypatch.setattr(np.linalg, name, None)
    with pytest.raises(ValueError, match="only a monomial mode transformation"):
        monomial_unitary(u)


def test_mode_operators_commute_across_modes():
    state = random_state(7, 3)
    a = destroy(6)
    a1_dense, a2_dense = dense_mode_op(a, 0), dense_mode_op(a, 1)
    a1, a2 = annihilation_operator(0), annihilation_operator(1)
    a1a2 = a1(a2(state)).ravel()
    a2a1 = a2(a1(state)).ravel()
    assert np.linalg.norm(a1a2 - a2a1) < 1e-14
    assert np.linalg.norm(a1a2 - a1_dense @ a2_dense @ state.ravel()) < 1e-14
    # a_1 commutes with a mode-2 phase e^{i n2}
    phase2 = np.exp(1j * np.arange(7))
    lhs = a1(phase2 * state)
    rhs = phase2 * a1(state)
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
    state = random_state(8, 4)
    # <psi|a^dag a|psi> = ||a psi||^2 is the mean photon number of the mode
    n = np.arange(8.0)
    for mode, counts in ((0, n[:, None]), (1, n[None, :])):
        mean = np.sum(counts * np.abs(state) ** 2)
        image = annihilation_operator(mode)(state)
        assert abs(np.linalg.norm(image) ** 2 - mean) < 1e-14
    # composition applies the right factor first, as the dense product does;
    # the two factors do not commute
    kerr_phase = 1j ** (np.arange(8) ** 2 % 4)
    u = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0)
    mix = passive_unitary(u)
    kerr_dense = dense_mode_op(np.diag(1j ** (np.arange(8) ** 2 % 4)), 1)
    mix_dense = dense_passive_unitary(u, 8)
    got = (kerr_phase * mix(state)).ravel()
    assert np.linalg.norm(got - kerr_dense @ mix_dense @ state.ravel()) < 1e-12
    assert np.linalg.norm(got - mix_dense @ kerr_dense @ state.ravel()) > 1e-2


def test_operators_map_a_batch_as_each_member():
    rng = np.random.default_rng(6)
    phased_swap = np.array([[0.0, 1j], [np.exp(0.3j), 0.0]])
    cases = [  # (operator, exact)
        (monomial_unitary(phased_swap), True),
        (passive_unitary(COMPLEX_U2), False),
        (annihilation_operator(0), True),
        (annihilation_operator(1), True),
    ]
    shape = (4, 6, 6)
    for op, exact in cases:
        batch = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        got = op(batch)
        want = np.array([op(member) for member in batch])
        assert got.shape == shape
        if exact:
            assert np.array_equal(got, want)
        else:  # one matmul per sector block; BLAS may sum in another order
            assert np.max(np.abs(got - want)) < 1e-14 * np.max(np.abs(batch))
    with pytest.raises(ValueError, match="mode index"):
        annihilation_operator(2)


def dense_monomial(u, d):
    """pi(U) of a monomial U as a (d^2, d^2) matrix: each |n_1, n_2> to its permuted, phased image."""
    swap = abs(u[1, 0]) > abs(u[0, 0])
    p0, p1 = (u[1, 0], u[0, 1]) if swap else (u[0, 0], u[1, 1])
    dense = np.zeros((d * d, d * d), dtype=complex)
    for n1, n2 in np.ndindex(d, d):
        row = n2 * d + n1 if swap else n1 * d + n2
        dense[row, n1 * d + n2] = p0**n1 * p1**n2
    return dense


PHASED_SWAP = np.array([[0.0, 1j], [np.exp(0.3j), 0.0]])
PHASE = np.diag([np.exp(-0.8j), 1j])
# (operator, its dense reference at dimension d)
ANY_DIMENSION = {
    "a1": (annihilation_operator(0), lambda d: dense_mode_op(destroy(d - 1), 0)),
    "a2": (annihilation_operator(1), lambda d: dense_mode_op(destroy(d - 1), 1)),
    "a1^2": (annihilation_operator(0, 2), lambda d: dense_mode_op(destroy(d - 1) @ destroy(d - 1), 0)),
    "a2^3": (annihilation_operator(1, 3),
             lambda d: dense_mode_op(np.linalg.matrix_power(destroy(d - 1), 3), 1)),
    "phased-swap": (monomial_unitary(PHASED_SWAP), lambda d: dense_monomial(PHASED_SWAP, d)),
    "phase": (monomial_unitary(PHASE), lambda d: dense_monomial(PHASE, d)),
}


@pytest.mark.parametrize("op, dense", ANY_DIMENSION.values(), ids=ANY_DIMENSION.keys())
def test_one_operator_serves_any_dimension(op, dense):
    # each operator is built once, at import, and reads d from the state it acts on
    rng = np.random.default_rng(31)
    for d in (4, 9, 4):
        batch = rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d))
        want = (batch.reshape(3, -1) @ dense(d).T).reshape(batch.shape)
        got = op(batch)
        assert got.shape == batch.shape
        assert np.max(np.abs(got - want)) < 1e-13
        assert np.array_equal(op(batch[1]), got[1])


def test_table_memos_stay_bounded_over_many_dimensions():
    # twice as many dimensions as the ladder memo keeps leave it within its bound
    for d in range(2, 2 + 2 * fock.LADDER_MEMO_SIZE):
        for op, _ in ANY_DIMENSION.values():
            op(np.ones((d, d)))
    assert fock._ladder_roots.cache_info().currsize == fock.LADDER_MEMO_SIZE


def roll_lower(t, mode):
    """One step of a on ``mode`` by a cyclic shift, as the operator once did it."""
    d = np.shape(t)[-1]
    root = np.append(np.sqrt(np.arange(1, d)), 0.0).reshape((-1,) + (1,) * (1 - mode))
    return root * np.roll(t, -1, axis=mode - 2)


@pytest.mark.parametrize("cutoff", [1, 2, 3, 7])
@pytest.mark.parametrize("mode", [0, 1], ids=["mode0", "mode1"])
def test_ladder_step_is_bit_identical_to_the_roll(mode, cutoff):
    rng = np.random.default_rng(20 + cutoff)
    shape = (3, 2) + (cutoff + 1,) * 2
    batch = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    got = annihilation_operator(mode)(batch)
    want = roll_lower(batch, mode)
    assert got.dtype == want.dtype and got.shape == want.shape
    # equal everywhere and the same bits below the top level, where the
    # roll multiplies a wrapped amplitude by 0 and its zero may carry a sign
    assert np.array_equal(got, want)
    below = np.moveaxis(got, mode - 2, 0)[:-1]
    assert below.tobytes() == np.moveaxis(want, mode - 2, 0)[:-1].tobytes()


@pytest.mark.parametrize("power", [2, 4])
@pytest.mark.parametrize("cutoff", [7, 3], ids=lambda c: f"2x{c}")
@pytest.mark.parametrize("mode", [0, 1], ids=["mode0", "mode1"])
def test_ladder_power_is_the_composed_steps(mode, cutoff, power):
    rng = np.random.default_rng(power)
    shape = (2,) + (cutoff + 1,) * 2
    batch = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    step = annihilation_operator(mode)
    got = annihilation_operator(mode, power)(batch)
    want = reduce(lambda t, _: step(t), range(power), batch)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    top = np.moveaxis(got, mode - 2, 0)[max(cutoff + 1 - power, 0):]
    assert top.size and not np.any(top)


def test_ladder_power_must_be_a_positive_integer():
    for power in (0, -1, 1.0, 2.5, "2", None, True):
        with pytest.raises(ValueError, match="power"):
            annihilation_operator(0, power)
    # a power past the cutoff annihilates every state
    assert not np.any(annihilation_operator(1, 6)(np.ones((5, 5))))


def test_infidelity_does_not_cancel():
    # 1 - |<a|b>| rounds to 0 here; the phase-aligned distance keeps eps^2 / 2
    eps = 1e-9
    got = infidelity(np.array([np.cos(eps), np.sin(eps)]), np.array([1.0, 0.0]))
    assert got == pytest.approx(eps**2 / 2, rel=1e-6)
    state = random_state(7, 7)
    assert 0.0 <= infidelity(state, np.exp(0.3j) * state) <= 1e-30
    # orthogonal states are a full unit apart, whatever their norms
    assert infidelity(np.eye(3)[0], 2j * np.eye(3)[1]) == 1.0


def test_normalize_and_infidelity_reject_a_zero_state():
    # a NaN norm once passed the zero test, and an inf one divided to NaN with a warning
    message = "cannot normalize a zero state or a non-finite one"
    for bad in (
        np.zeros((3, 3), dtype=complex),
        np.array([np.nan, 1.0]),
        np.array([np.inf, 1.0]),
        np.array([1.0, 1.0j, complex(0.0, np.nan)]),
        np.array([1.0, complex(np.inf, 0.0)]),  # the axis path's conj(x) * x made a NaN warning
        np.empty(0, dtype=complex),  # an empty state is a zero state
    ):
        with pytest.raises(ValueError, match=message):
            normalize(bad)
        with pytest.raises(ValueError, match=message):  # the bad state second in a stack
            normalize(np.stack([np.ones_like(bad), bad]), axes=-1 if bad.ndim == 1 else (-2, -1))
        with pytest.raises(ValueError, match=message):
            infidelity(np.ones(bad.shape), bad)


def test_normalize_returns_an_empty_stack_unchanged():
    # a stack of no states has no norm to test: numpy's min of an empty array raised
    for stack, axes in ((np.empty((0, 5), dtype=complex), -1), (np.empty((0, 4, 4)), (-2, -1))):
        assert normalize(stack, axes=axes).shape == stack.shape
    assert coherent_state(np.empty((0, 2)), 10).shape == (0, 2, 11)
