import re
import time

import numpy as np
import pytest

import fouriercat as fc
from fouriercat import encoding
from fouriercat.encoding import (
    CODE_MEMO_SIZE,
    DegenerateConstellationError,
    _min_distance,
    analytic_gram,
    deform_constellation,
)
from fouriercat.fock import (
    StarvedTailError,
    cat_state,
    coherent_product,
    infidelity,
)
from fouriercat.groups import AMPLITUDE_RULE, HADAMARD, PAULI_X

from conftest import traced
from sector_lift import monomial_unitary

ALPHA_STAR = np.sqrt(np.pi / 2)


def _product_cat(first, second, cutoff):
    a = cat_state(first[1], first[0], cutoff)
    b = cat_state(second[1], second[0], cutoff)
    return np.outer(a, b)


def test_basis_orthonormality_special_alpha(star_code):
    basis = np.array([s.amplitudes.ravel() for s in star_code.basis_states])
    assert np.linalg.norm(basis.conj() @ basis.T - np.eye(4)) < 1e-12


def test_basis_orthonormality_generic_alpha(d8, d8_fourier):
    code = fc.code_basis(fc.make_constellation(d8, 1.0, np.pi / 2), d8_fourier)
    basis = np.array([s.amplitudes.ravel() for s in code.basis_states])
    assert np.linalg.norm(basis.conj() @ basis.T - np.eye(4)) < 1e-12


def test_product_cat_form_special_alpha(star_code):
    a = ALPHA_STAR
    targets = {
        (0, 0): ((1, a), (0, 1j * a)),
        (0, 1): ((1, 1j * a), (0, a)),
        (1, 0): ((0, 1j * a), (1, a)),
        (1, 1): ((0, a), (1, 1j * a)),
    }
    cutoff = star_code.constellation.cutoff
    for (l, m), (first, second) in targets.items():
        got = star_code.amplitudes[2 * l + m]
        want = _product_cat(first, second, cutoff)
        assert infidelity(got, want) < 1e-12
        # the chosen conventions reproduce the product form with no phase
        assert np.linalg.norm(got - want) < 1e-9


def test_group_covariance(star_code, d8):
    basis = np.array([s.amplitudes.ravel() for s in star_code.basis_states])
    for i in range(d8.order):
        op = monomial_unitary(d8.matrices[i])
        images = np.array([op(s.amplitudes).ravel() for s in star_code.basis_states])
        overlaps = images.conj() @ basis.T
        leak = np.linalg.norm(images - overlaps.conj() @ basis)
        assert leak < 1e-9
        assert np.linalg.norm(overlaps @ overlaps.conj().T - np.eye(4)) < 1e-9


def test_gram_matches_analytic(star_constellation, d8):
    fock_gram = fc.gram_matrix(star_constellation)
    exact = analytic_gram(d8, star_constellation.alpha_vec)
    assert np.linalg.norm(fock_gram - exact) < 1e-12


def test_gram_identity_minus_x_entry(star_constellation, d8):
    # <alpha, i alpha | X | alpha, i alpha> = e^{-2 alpha^2} * e^{... } = e^{-pi}
    gram = fc.gram_matrix(star_constellation)
    i_x = d8.find(PAULI_X)
    entry = gram[d8.identity_index, i_x]
    assert abs(entry - np.exp(-np.pi)) < 1e-12


def test_gram_fourier_scalar_block_only_at_special_alpha(
    star_constellation, d8, d8_fourier
):
    off_star, dev_star = fc.gram_fourier_spectrum(
        fc.gram_matrix(star_constellation), d8_fourier
    )
    assert off_star < 1e-12
    assert dev_star < 1e-12
    generic = fc.make_constellation(d8, 1.0, np.pi / 2)
    off_gen, dev_gen = fc.gram_fourier_spectrum(
        fc.gram_matrix(generic), d8_fourier
    )
    assert off_gen > 0.1
    assert dev_gen > 0.01


def bare_fourier_state(constellation, fourier, l, m):
    """sum_g conj(F[(lambda, l, m), g]) |g alpha>: the bare inverse-QFT superposition,
    neither Gram-orthonormalized nor normalized."""
    row = fourier.matrix[fourier.logical_rows[2 * l + m]]
    return np.tensordot(row.conj(), constellation.amplitudes, axes=1)


def test_covariant_encode_matches_at_special_alpha(
    star_constellation, d8_fourier, star_code
):
    # at alpha* the Fourier transform diagonalizes the Gram matrix with one
    # scalar block, so orthonormalizing changes no encoded state
    for l in (0, 1):
        for m in (0, 1):
            got = bare_fourier_state(star_constellation, d8_fourier, l, m)
            assert infidelity(got, star_code.amplitudes[2 * l + m]) < 1e-10


def test_covariant_encode_differs_at_generic_alpha(d8, d8_fourier):
    constellation = fc.make_constellation(d8, 1.0, np.pi / 2)
    code = fc.code_basis(constellation, d8_fourier)
    got = bare_fourier_state(constellation, d8_fourier, 0, 0)
    assert infidelity(got, code.amplitudes[0]) > 1e-6


def test_min_euclidean_distance(star_constellation, d8):
    assert abs(_min_distance(star_constellation.points) - 2 * ALPHA_STAR) < 1e-12
    # phi = pi/2 maximizes the minimum distance
    tilted = fc.make_constellation(d8, ALPHA_STAR, np.pi / 4)
    assert _min_distance(tilted.points) < 2 * ALPHA_STAR - 1e-3


def test_degenerate_constellation_raises(d8):
    with pytest.raises(DegenerateConstellationError, match="degenerate"):
        fc.make_constellation(d8, 1.0, 0.0)
    with pytest.raises(ValueError, match="positive"):
        fc.make_constellation(d8, -1.0, np.pi / 2)


@pytest.mark.parametrize("name", ["d8", "q8"])
def test_constellation_amplitudes_match_coherent_products(name):
    group = fc.pauli_group() if name == "d8" else fc.quaternion_group()
    constellation = fc.make_constellation(group, 1.3, 1.0, cutoff=30)
    want = np.array([coherent_product(p, 30) for p in constellation.points])
    assert constellation.amplitudes.shape == want.shape == (8, 31, 31)
    assert np.max(np.abs(constellation.amplitudes - want)) < 1e-15


def test_deform_constellation_points(star_constellation):
    deformed = deform_constellation(star_constellation, PAULI_X)
    want = PAULI_X @ star_constellation.alpha_vec
    assert np.linalg.norm(deformed.alpha_vec - want) < 1e-12


@pytest.mark.parametrize("n,d", [(2, 2), (4, 2), (8, 4)])
@pytest.mark.parametrize("alpha", [0.8, 1.25])
def test_cat_qudit_orthonormal(n, d, alpha):
    code = fc.cat_qudit(n, d, alpha)
    mat = code.codewords
    gram = mat.conj() @ mat.T
    assert np.linalg.norm(gram - np.eye(d)) < 1e-10
    # each codeword is the normalized sum of its w^{-kpM}-weighted coherent states
    w = np.exp(2j * np.pi / n)
    rotated = [fc.coherent_state(w**p * alpha, 25) for p in range(n)]
    for k in range(d):
        vec = sum(w ** (-k * p * (n // d)) * rotated[p] for p in range(n))
        assert np.max(np.abs(mat[k] - vec / np.linalg.norm(vec))) < 1e-14


@pytest.mark.parametrize("n", [2, 4, 8])
@pytest.mark.parametrize("alpha", [0.8, 1.25])
def test_cyclic_gram_diagonalized_by_dft(n, alpha):
    group = fc.cyclic_group(n)
    gram = analytic_gram(group, [0.0, alpha])
    f = fc.build_fourier_transform(group, fc.irrep_table(group)).matrix
    delta = fc.cat_qudit(n, 1, alpha).delta
    assert np.linalg.norm(f @ np.diag(delta) @ f.conj().T - gram) < 1e-10


def test_cat_qudit_scales_to_large_n():
    # closed form, no group closure: N = 256 stays in milliseconds and megabytes,
    # where the Z_N group route's Cayley table and character check take O(N^3) time
    n, alpha = 256, 13.75
    fc.cat_qudit(8, 2, 1.25)  # imports and first-call setup outside the window
    runs = []

    def build():
        start = time.perf_counter()
        code = fc.cat_qudit(n, 2, alpha)
        runs.append((time.perf_counter() - start, code))

    peak, _ = traced(build)
    [(elapsed, code)] = runs
    assert elapsed < 1.0 and peak < 32e6
    mat = code.codewords
    assert np.linalg.norm(mat.conj() @ mat.T - np.eye(2)) < 1e-10
    # delta_k = sum_l w^{kl} e^{alpha^2 (w^l - 1)} summed directly, exponents mod N
    w = np.exp(2j * np.pi / n)
    k = np.arange(n)
    want = w ** (np.outer(k, k) % n) @ np.exp(alpha**2 * (w**k - 1))
    assert np.max(np.abs(code.delta - want)) < 1e-12 * np.max(np.abs(want))


def test_cat_qudit_rejects_bad_divisor():
    with pytest.raises(ValueError, match="divide"):
        fc.cat_qudit(4, 3, 1.0)


@pytest.mark.parametrize(
    "n, d, alpha, message",
    [
        (0, 1, 1.0, "positive integers"),
        (-4, 2, 1.0, "positive integers"),
        (4.0, 2, 1.0, "positive integers"),
        (4, 0, 1.0, "positive integers"),
        (True, 1, 1.0, "positive integers"),
        (4, True, 1.0, "positive integers"),
        (4, 2, np.inf, "alpha must be positive"),
        (4, 2, np.nan, "alpha must be positive"),
        (4, 2, 1e200, "alpha must be positive"),
        (4, 2, np.float64(1e200), "alpha must be positive"),
        # alpha^2 is finite here, but alpha^2 (w^l - 1) overflowed with a RuntimeWarning
        (4, 2, 1e154, "alpha must be positive"),
        (4, 2, 9.6e153, "alpha must be positive"),
    ],
    ids=["n-zero", "n-negative", "n-float", "d-zero", "n-bool", "d-bool", "alpha-inf", "alpha-nan",
         "alpha-square-overflows", "numpy-alpha-square-overflows", "alpha-1e154", "alpha-9.6e153"],
)
def test_cat_qudit_rejects_bad_input_plainly(n, d, alpha, message):
    with pytest.raises(ValueError, match=message):
        fc.cat_qudit(n, d, alpha)


@pytest.mark.parametrize(
    "alpha, phi, cutoff, message",
    [
        (np.inf, np.pi / 2, 25, AMPLITUDE_RULE),
        (np.nan, np.pi / 2, 25, AMPLITUDE_RULE),
        (1.0, np.inf, 25, "phi must be finite"),
        (1e200, np.pi / 2, 25, AMPLITUDE_RULE),
        (1.2, np.pi / 2, 25.5, "cutoff must be an integer"),
        (1.2, np.pi / 2, 25.0, "cutoff must be an integer"),
        (1.2, np.pi / 2, True, "cutoff must be an integer"),
    ],
    ids=["alpha-inf", "alpha-nan", "phi-inf", "alpha-square-overflows", "cutoff-half",
         "cutoff-float", "cutoff-bool"],
)
def test_make_constellation_rejects_bad_input_plainly(d8, alpha, phi, cutoff, message):
    # raised before any arithmetic, so no RuntimeWarning comes first
    with pytest.raises(ValueError, match=re.escape(message)):
        fc.make_constellation(d8, alpha, phi, cutoff)


def test_deformed_alpha_vector_needs_a_finite_square(star_constellation):
    with pytest.raises(ValueError, match=re.escape(AMPLITUDE_RULE)):
        deform_constellation(star_constellation, 1e200 * np.eye(2))


@pytest.mark.parametrize(
    "build,count,shape",
    [
        (lambda code: fc.coherent_state(0.8 - 0.3j, 25), 1, (26,)),
        (lambda code: fc.coherent_product([0.8, 0.5j], 25), 1, (26, 26)),
        (lambda code: fc.cat_state(ALPHA_STAR, 1, 25), 1, (26,)),
        (lambda code: fc.cat_qudit(8, 4, 1.25, cutoff=25).codewords, 4, (4, 26)),
        (lambda code: fc.zy_eigenstates(code), 4, (4, 26, 26)),
    ],
    ids=["coherent_state", "coherent_product", "cat_state", "cat_qudit", "zy_eigenstates"],
)
def test_state_constructors_return_normalized_arrays(build, count, shape, star_code):
    states = build(star_code)
    assert type(states) is np.ndarray and states.shape == shape
    norms = np.linalg.norm(states.reshape(count, -1), axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-14


def test_benchmark_records_mirror_the_arrays(star_code, d8):
    # fcbench reads these records' attributes, so they stay as long as it does
    assert np.array_equal([s.amplitudes for s in star_code.basis_states], star_code.amplitudes)
    assert np.array_equal([e.matrix for e in d8.elements], d8.matrices)


def code_arrays(code):
    """Every array a code basis and its constellation hold."""
    constellation = code.constellation
    return [code.amplitudes, code.coefficients, constellation.amplitudes,
            constellation.factors, constellation.alpha_vec]


@pytest.mark.parametrize("cutoff", [10, 25])
@pytest.mark.parametrize("phi", [np.pi / 2, 1.0], ids=["phi-pi/2", "phi1.0"])
@pytest.mark.parametrize("name", ["d8", "q8"])
def test_amplitudes_are_the_coefficient_expansion_over_factor_products(name, phi, cutoff):
    # the Fock loss oracle contracts coefficients and per-mode factors, never the
    # amplitudes, so it cross-checks the code only while both describe one state
    group = fc.pauli_group() if name == "d8" else fc.quaternion_group()
    fourier = fc.build_fourier_transform(group, fc.irrep_table(group))
    alpha = 0.6 if cutoff == 10 else ALPHA_STAR  # within the tail audit at cutoff 10
    code = fc.code_basis(fc.make_constellation(group, alpha, phi, cutoff), fourier)
    f = code.constellation.factors
    assert f.shape == (group.order, 2, cutoff + 1)
    assert code.coefficients.shape == (4, group.order)
    assert np.max(np.abs(np.linalg.norm(f, axis=-1) - 1.0)) < 1e-15
    expansion = np.einsum("ig,ga,gb->iab", code.coefficients, f[:, 0], f[:, 1])
    assert np.max(np.abs(code.amplitudes - expansion)) < 1e-15
    # <g alpha|h alpha> = prod_m <f_gm|f_hm>: what lets a constellation keep only
    # its factors, and what the oracle's environment Gram is built on
    per_mode = np.einsum("qma,rma->mqr", f.conj(), f)
    gram = fc.gram_matrix(code.constellation)
    assert np.max(np.abs(gram - per_mode[0] * per_mode[1])) < 1e-14


def test_code_memos_share_one_read_only_build(d8, d8_fourier):
    constellation = fc.make_constellation(d8, 1.3, 1.0, cutoff=20)
    code = fc.code_basis(constellation, d8_fourier)
    assert fc.make_constellation(d8, 1.3, 1.0, cutoff=20) is constellation
    assert encoding._constellation(d8, constellation.alpha_vec.tobytes(), 20) is constellation
    assert fc.code_basis(constellation, d8_fourier) is code
    deformed = deform_constellation(constellation, HADAMARD)
    assert deform_constellation(constellation, HADAMARD) is deformed
    assert fc.code_basis(deformed, d8_fourier) is fc.code_basis(deformed, d8_fourier)
    for array in code_arrays(code) + code_arrays(fc.code_basis(deformed, d8_fourier)):
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 0


@pytest.mark.parametrize("cutoff", [20, 25])
@pytest.mark.parametrize("phi", [np.pi / 2, 1.0])
@pytest.mark.parametrize("alpha", [ALPHA_STAR, 1.3])
@pytest.mark.parametrize("name", ["d8", "q8"])
def test_code_memos_match_an_uncached_build(name, alpha, phi, cutoff):
    maker = fc.pauli_group if name == "d8" else fc.quaternion_group
    group = maker()
    fourier = fc.build_fourier_transform(group, fc.irrep_table(group))
    code = fc.code_basis(fc.make_constellation(group, alpha, phi, cutoff), fourier)
    deformed = fc.code_basis(deform_constellation(code.constellation, HADAMARD), fourier)
    # the whole chain again, every step through its uncached builder
    fresh_group = maker.__wrapped__()
    fresh_fourier = fc.build_fourier_transform.__wrapped__(
        fresh_group, fc.irrep_table.__wrapped__(fresh_group)
    )
    vec = np.array([alpha, alpha * np.exp(1j * phi)])
    for got, vec in ((code, vec), (deformed, HADAMARD @ vec)):
        constellation = encoding._constellation.__wrapped__(fresh_group, vec.tobytes(), cutoff)
        want = fc.code_basis.__wrapped__(constellation, fresh_fourier)
        assert want is not got and want.constellation.cutoff == got.constellation.cutoff
        for a, b in zip(code_arrays(got), code_arrays(want), strict=True):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "args, message",
    [
        ((1.0, 0.0, 25), "degenerate"),  # X fixes (alpha, alpha)
        ((ALPHA_STAR, np.pi / 2, 5), "cutoff too small"),
    ],
)
def test_failing_constructions_raise_on_every_call(d8, args, message):
    sizes = encoding._constellation.cache_info().currsize
    for _ in range(2):
        with pytest.raises((DegenerateConstellationError, StarvedTailError), match=message):
            fc.make_constellation(d8, *args)
    assert encoding._constellation.cache_info().currsize == sizes
    with pytest.raises(ValueError, match="two entries"):
        deform_constellation(fc.make_constellation(d8, 1.2, 1.0), np.ones((3, 2)))


def test_code_memo_retention_is_bounded(d8, d8_fourier):
    # per code at cutoff 60: a (4, 61, 61) basis and its constellation's (8, 2, 61)
    # factors; the constellation's (8, 61, 61) states are formed on read, not kept
    per_code = 4 * 61**2 * 16 + 8 * 2 * 61 * 16
    encoding._constellation.cache_clear()
    fc.code_basis.cache_clear()

    def fill():
        for k in range(3 * CODE_MEMO_SIZE):
            fc.code_basis(fc.make_constellation(d8, 1.0 + 0.01 * k, np.pi / 2, 60), d8_fourier)

    _, retained = traced(fill)
    assert fc.code_basis.cache_info().currsize == CODE_MEMO_SIZE
    assert encoding._constellation.cache_info().currsize == CODE_MEMO_SIZE
    # 8 codes and their constellations, under 2.5 MB; with each constellation's
    # (8, 61, 61) states kept as well, both memos held 5.9 MB
    assert CODE_MEMO_SIZE * per_code <= retained < 2.5e6, f"retained {retained / 1e6:.2f} MB"
