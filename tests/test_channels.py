import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fouriercat as fc
from fouriercat.channels import (
    _loss_amplitudes,
    argmin_record,
    loglog_slope,
    loss_gram_matrices,
)
from fouriercat.encoding import deform_constellation
from fouriercat.fock import (
    FockConfig,
    annihilation_operator,
    coherent_product,
    SingularGramError,
    hermitian_inv_sqrt,
    passive_gaussian_unitary,
)
from fouriercat.groups import HADAMARD

ALPHA_STAR = np.sqrt(np.pi / 2)

# overlap of the odd single-mode cats at alpha and i*alpha, squared; this is
# the one pair of first-order loss states the special alpha cannot separate
ODD_CAT_PAIR_OVERLAP = 0.18882258521873307


def test_lambda_matrix_structure(d8):
    lam = fc.lambda_matrix(d8)
    assert lam.shape == (8, 8)
    assert np.linalg.norm(lam - lam.conj().T) < 1e-14
    assert np.allclose(np.diag(lam), 1.0)


def test_loss_gram_limits(d8):
    lam = fc.lambda_matrix(d8)
    gram, gram_t, gram_r = loss_gram_matrices(lam, ALPHA_STAR, 0.0)
    assert np.linalg.norm(gram - gram_t) < 1e-14
    # nothing is reflected at gamma = 0, so the environment Gram is flat
    assert np.linalg.norm(gram_r - np.ones((8, 8))) < 1e-14


def test_lossless_fidelity_is_one(d8, d8_fourier):
    for alpha in (1.0, ALPHA_STAR):
        qec = fc.qec_matrix_analytic(d8, d8_fourier, alpha, 0.0)
        assert abs(fc.petz_entanglement_fidelity(qec) - 1.0) < 1e-12


CROSSCHECK_POINTS = [
    pytest.param("d8", alpha, gamma, np.pi / 2, id=f"{gamma}-{alpha}")
    for gamma in (0.005, 0.05)
    for alpha in (1.0, ALPHA_STAR, 1.5)
] + [pytest.param(name, 1.25, 0.01, 1.0, id=f"{name}-phi1.0") for name in ("d8", "q8")]


def check_analytic_matches_fock(name, alpha, gamma, phi):
    group = fc.pauli_group() if name == "d8" else fc.quaternion_group()
    fourier = fc.build_fourier_transform(group, fc.irrep_table(group))
    code = fc.code_basis(fc.make_constellation(group, alpha, phi), fourier)
    analytic = fc.qec_matrix_analytic(group, fourier, alpha, gamma, phi=phi)
    fock = fc.qec_matrix_fock(code, gamma)
    assert np.max(np.abs(analytic.entries - fock.entries)) < 1e-8
    f_a = fc.petz_entanglement_fidelity(analytic)
    f_f = fc.petz_entanglement_fidelity(fock)
    assert abs(f_a - f_f) < 1e-9
    assert fock.extras["completeness_residual"] < 1e-8


@pytest.mark.parametrize("name, alpha, gamma, phi", CROSSCHECK_POINTS)
def test_analytic_matches_fock(name, alpha, gamma, phi):
    check_analytic_matches_fock(name, alpha, gamma, phi)


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(
    name=st.sampled_from(["d8", "q8"]),
    alpha=st.floats(1.0, 1.6),
    gamma=st.floats(np.log10(1e-3), np.log10(5e-2)).map(lambda x: 10.0**x),
    phi=st.floats(0.5, np.pi - 0.5),
)
def test_analytic_matches_fock_property(name, alpha, gamma, phi):
    # the pinned cases of test_analytic_matches_fock, anywhere in the box
    check_analytic_matches_fock(name, alpha, gamma, phi)


def reference_kraus_images(code, gamma, env_floor=1e-13):
    """Kraus images by the direct d^5 route: one beamsplitter application per
    input photon number, then four-index contractions with the two-mode
    environment basis.  Returns the images and the pseudo-inverse's gain
    ||G^-1/2|| on the environment Gram matrix G."""
    config = code.config
    d = config.dim_per_mode
    n = code.constellation.group.order
    pair = FockConfig(2, config.cutoff)
    t, r = np.sqrt(1.0 - gamma), np.sqrt(gamma)
    bs = passive_gaussian_unitary(np.array([[t, -r], [r, t]]), pair)
    inputs = np.zeros((d, d, d), dtype=complex)  # inputs[n] = |n>|0>
    inputs[np.arange(d), np.arange(d), 0] = 1.0
    b = np.stack([bs(vac) for vac in inputs], axis=-1)
    env_amps = np.array(
        [
            coherent_product(p, config.cutoff).ravel()
            for p in code.constellation.points * r
        ]
    )
    env_gram = env_amps.conj() @ env_amps.T
    env_inv_sqrt = hermitian_inv_sqrt(
        (env_gram + env_gram.conj().T) / 2, floor=env_floor, pseudo=True
    ).inv_sqrt
    env_tensors = (env_inv_sqrt.T @ env_amps).reshape(n, d, d)
    images = []
    for state in code.basis_states:
        s1 = np.einsum("PCa,ab->PbC", b, state.amplitudes)  # (n1', n2, m1')
        s2 = np.einsum("QDb,Pbc->PQcD", b, s1)  # (n1', n2', m1', m2')
        images.append(np.einsum("pcd,PQcd->pPQ", env_tensors.conj(), s2))
    return np.array(images), np.linalg.norm(env_inv_sqrt, 2)


@pytest.mark.parametrize("gamma", [1e-3, 1e-2, 5e-2])
@pytest.mark.parametrize("phi", [np.pi / 2, 1.0], ids=["phi-pi/2", "phi1.0"])
@pytest.mark.parametrize("name", ["d8", "q8"])
def test_kraus_images_match_direct_reference(name, phi, gamma):
    group = fc.pauli_group() if name == "d8" else fc.quaternion_group()
    fourier = fc.build_fourier_transform(group, fc.irrep_table(group))
    # cutoff 10 holds coherent amplitude 0.6 within the 1e-12 tail audit
    code = fc.code_basis(fc.make_constellation(group, 0.6, phi, cutoff=10), fourier)
    # both routes at one floor, which keeps 7 of 8 environment states at
    # gamma = 1e-3; the library's lower default keeps 8 and is cross-checked
    # against the analytic route in test_analytic_matches_fock_property
    images = fc.qec_matrix_fock(code, gamma, env_floor=1e-13).extras["kraus_images"]
    reference, gain = reference_kraus_images(code, gamma)
    assert images.shape == reference.shape == (4, 8, 11, 11)
    # The orthonormalizing pseudo-inverse multiplies roundoff by its gain,
    # about 7e4 at gamma = 1e-3 where the reflected states nearly coincide;
    # both routes agree to 1e-12 beyond that amplified machine precision.
    assert np.max(np.abs(images - reference)) < 1e-12 + 1e-14 * gain


@pytest.mark.parametrize("gamma", [1e-3, 1e-2, 5e-2])
@pytest.mark.parametrize("phi", [np.pi / 2, 1.0], ids=["phi-pi/2", "phi1.0"])
@pytest.mark.parametrize("name", ["d8", "q8"])
def test_env_gain_matches_direct_reference(name, phi, gamma):
    group = fc.pauli_group() if name == "d8" else fc.quaternion_group()
    fourier = fc.build_fourier_transform(group, fc.irrep_table(group))
    code = fc.code_basis(fc.make_constellation(group, 0.6, phi, cutoff=10), fourier)
    gain = fc.qec_matrix_fock(code, gamma, env_floor=1e-13).extras["env_gain"]
    _, reference = reference_kraus_images(code, gamma)
    assert abs(gain - reference) < 1e-4 * reference


@pytest.mark.parametrize("gamma", [0.0, 1e-20, 1e-3, 0.3, 0.999])
@pytest.mark.parametrize("cutoff", [7, 25])
def test_closed_form_loss_amplitudes_match_sector_lift(cutoff, gamma):
    # the lifted beamsplitter applied to sum_n |n, 0>, gathered as B[P, a - P]
    d = cutoff + 1
    t, r = np.sqrt(1.0 - gamma), np.sqrt(gamma)
    bs = passive_gaussian_unitary(np.array([[t, -r], [r, t]]), FockConfig(2, cutoff))
    inputs = np.zeros((d, d), dtype=complex)
    inputs[:, 0] = 1.0
    lifted = bs(inputs)
    b, reflected = _loss_amplitudes(d, gamma)
    p, a = np.indices((d, d))
    assert np.array_equal(reflected, np.where(a >= p, a - p, 0))
    want = np.where(a >= p, lifted[p, reflected], 0.0)
    assert np.max(np.abs(b - want)) < 1e-13


@pytest.mark.parametrize("name", ["d8", "q8"])
def test_fock_route_needs_no_sector_lift(name, monkeypatch):
    def no_lift(*args):
        raise AssertionError("qec_matrix_fock lifted a beamsplitter")

    monkeypatch.setattr(fc.fock, "_sector_unitary", no_lift)
    group = fc.pauli_group() if name == "d8" else fc.quaternion_group()
    fourier = fc.build_fourier_transform(group, fc.irrep_table(group))
    code = fc.code_basis(fc.make_constellation(group, 1.25, 1.0), fourier)
    qec = fc.qec_matrix_fock(code, 0.01)
    assert qec.extras["completeness_residual"] < 1e-8


@pytest.mark.parametrize("gamma", [-0.1, 1.0, 1.5, np.nan])
def test_both_qec_routes_reject_gamma_outside_unit_interval(star_code, d8, d8_fourier, gamma):
    with pytest.raises(ValueError, match=r"gamma must lie in \[0, 1\)"):
        fc.qec_matrix_fock(star_code, gamma)
    with pytest.raises(ValueError, match=r"gamma must lie in \[0, 1\)"):
        fc.qec_matrix_analytic(d8, d8_fourier, ALPHA_STAR, gamma)


def test_env_rank_counts_kept_environment_states(star_code):
    assert fc.qec_matrix_fock(star_code, 1e-2).extras["env_rank"] == 8
    # at gamma = 1e-10 the reflected constellation collapses towards vacuum
    collapsed = fc.qec_matrix_fock(star_code, 1e-10)
    assert collapsed.extras["env_rank"] < 8


@pytest.mark.parametrize("bump", [1e-16, 1e-15, 1e-14])
def test_petz_fidelity_ignores_null_space_roundoff(d8, d8_fourier, bump):
    qec = fc.qec_matrix_analytic(d8, d8_fourier, ALPHA_STAR, 0.01)
    w, v = np.linalg.eigh(qec.entries)
    null = v[:, w < 1e-12 * w.max()]
    assert null.shape[1] == 8  # rank 8 of 16
    bumped = fc.QecMatrix(entries=qec.entries + bump * null @ null.conj().T)
    shift = fc.petz_entanglement_fidelity(bumped) - fc.petz_entanglement_fidelity(qec)
    assert abs(shift) < 1e-12


def test_fidelity_frozen_value(d8, d8_fourier):
    # cross-validated against an explicit Petz-map Kraus computation
    qec = fc.qec_matrix_analytic(d8, d8_fourier, ALPHA_STAR, 0.01)
    assert abs(fc.petz_entanglement_fidelity(qec) - 0.999310705932) < 1e-9


def test_kl_overlaps(star_code):
    # every pair separates except a_1 on one logical state against a_2 on
    # the other, which is pinned at the odd-cat overlap squared
    for psi in ([1.0, 0.0], [0.0, 1.0], [1 / np.sqrt(2), 1 / np.sqrt(2)]):
        worst = fc.kl_first_order_check(star_code, np.array(psi))
        assert abs(worst - ODD_CAT_PAIR_OVERLAP) < 1e-9


def test_kl_violated_at_generic_alpha(d8, d8_fourier):
    code = fc.code_basis(fc.make_constellation(d8, 1.0, np.pi / 2), d8_fourier)
    worst = fc.kl_first_order_check(code, np.array([1.0, 1.0]) / np.sqrt(2))
    assert worst > 0.5


def test_kl_violated_for_complex_psi(star_code):
    worst = fc.kl_first_order_check(
        star_code, np.array([1.0, 1.0j]) / np.sqrt(2)
    )
    assert worst > 1e-3


def test_lindblad_kernels(star_code):
    kernels, parity = fc.lindblad_kernel_check(star_code)
    assert set(kernels) == {"L1", "L2", "L12", "L0"}
    assert max(kernels.values()) < 1e-8
    assert parity < 1e-12


def test_lindblad_kernels_deformed(star_code):
    kernels, parity = fc.lindblad_kernel_check(star_code, deformed=True)
    assert max(kernels.values()) < 1e-8
    assert parity < 1e-12


def test_sweep_alpha_argmin(d8, d8_fourier):
    grid = np.arange(0.9, 1.601, 0.025)
    records = fc.sweep_alpha(d8, d8_fourier, 0.01, grid)
    assert len(records) == len(grid)
    best = argmin_record(records)
    assert 1.20 <= best.value <= 1.30
    # infidelity climbs toward the small-alpha end
    assert records[0].infidelity > 2 * best.infidelity


def test_sweep_flags_ill_conditioned_point(d8, d8_fourier):
    # at alpha = 0.02 the eight constellation states nearly coincide
    records = fc.sweep_alpha(d8, d8_fourier, 0.01, [0.02, 1.25])
    bad, good = records
    assert bad.flags == ["ill-conditioned"]
    assert np.isnan(bad.infidelity)
    assert bad.condition_number > 1e12
    assert good.flags == [] and np.isfinite(good.infidelity)
    assert argmin_record(records) is good


def test_sweep_gamma_slope(d8, d8_fourier):
    grid = np.logspace(-3, -1, 20)
    records = fc.sweep_gamma(d8, d8_fourier, ALPHA_STAR, grid)
    vals = [r.infidelity for r in records]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    slope = loglog_slope(records, 1e-3, 1e-2)
    # the unseparated odd-cat pair leaves a linear loss term, so the fitted
    # small-gamma slope sits between first and second order
    assert 1.3 < slope < 1.6


def test_loglog_slope_needs_points(d8, d8_fourier):
    records = fc.sweep_gamma(d8, d8_fourier, ALPHA_STAR, np.array([0.05]))
    with pytest.raises(ValueError, match="not enough"):
        loglog_slope(records, 1e-3, 1e-2)


def test_qec_matrix_hermitian(d8, d8_fourier):
    qec = fc.qec_matrix_analytic(d8, d8_fourier, ALPHA_STAR, 0.02)
    m = qec.entries
    assert np.linalg.norm(m - m.conj().T) < 1e-12
    w = np.linalg.eigvalsh(m)
    assert w.min() > -1e-10


def make_group(name):
    group = fc.pauli_group() if name == "d8" else fc.quaternion_group()
    return group, fc.build_fourier_transform(group, fc.irrep_table(group))


def hermitian_sqrt_reference(a):
    """A^1/2 of a Hermitian PSD matrix, negative roundoff eigenvalues clipped."""
    ah = a.conj().T
    w, v = np.linalg.eigh((a + ah) / 2)
    return (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T


def qec_matrix_analytic_einsum_reference(group, fourier, alpha, gamma, phi):
    """The five-operand einsum that ``qec_matrix_analytic`` replaced."""
    lam = fc.lambda_matrix(group, phi)
    gram, gram_t, gram_r = loss_gram_matrices(lam, alpha, gamma)
    inv_sqrt = hermitian_inv_sqrt(gram).inv_sqrt
    sr = hermitian_sqrt_reference(gram_r)
    label = fourier.defining_label
    a = (fourier.matrix @ inv_sqrt)[[fourier.row(label, k, 0) for k in (0, 1)]]
    m = np.einsum("kg,lh,gp,qh,gh->kplq", a, a.conj(), sr, sr, gram_t, optimize=True)
    m = m.reshape(2 * group.order, 2 * group.order)
    return (m + m.conj().T) / 2


def qec_matrix_analytic_two_root_reference(group, fourier, alpha, gamma, phi):
    """``qec_matrix_analytic`` as it was: one eigendecomposition per root."""
    lam = fc.lambda_matrix(group, phi)
    gram, gram_t, gram_r = loss_gram_matrices(lam, alpha, gamma)
    inv_sqrt = hermitian_inv_sqrt(gram).inv_sqrt
    sr = hermitian_sqrt_reference(gram_r)
    label = fourier.defining_label
    a = (fourier.matrix @ inv_sqrt)[[fourier.row(label, k, 0) for k in (0, 1)]]
    u = (a[:, None, :] * sr.T).reshape(2 * group.order, group.order)
    m = u @ gram_t @ u.conj().T
    return fc.QecMatrix(entries=(m + m.conj().T) / 2)


def sweep_loop_reference(group, fourier, points, phi, floor=1e-12):
    """The per-point sweep that ``_sweep`` replaced: Gamma's condition number
    by SVD, its floor test by eigvalsh, then the two-root QEC matrix."""
    records = []
    for value, alpha, gamma in points:
        gram = loss_gram_matrices(fc.lambda_matrix(group, phi), alpha, gamma)[0]
        cond = float(np.linalg.cond(gram))
        w = np.linalg.eigvalsh(gram)
        if float(np.min(w)) <= floor * float(np.max(w)):
            records.append((value, np.nan, cond, ["ill-conditioned"]))
            continue
        qec = qec_matrix_analytic_two_root_reference(group, fourier, alpha, gamma, phi)
        records.append((value, 1.0 - fc.petz_entanglement_fidelity(qec), cond, []))
    return records


@pytest.mark.parametrize("gamma", [0.0, 1e-3, 0.3])
@pytest.mark.parametrize("phi", [np.pi / 2, 1.0], ids=["phi-pi/2", "phi1.0"])
@pytest.mark.parametrize("name", ["d8", "q8"])
def test_analytic_matches_einsum_reference(name, phi, gamma):
    group, fourier = make_group(name)
    for alpha in (1.25, ALPHA_STAR):
        got = fc.qec_matrix_analytic(group, fourier, alpha, gamma, phi=phi).entries
        want = qec_matrix_analytic_einsum_reference(group, fourier, alpha, gamma, phi)
        assert np.max(np.abs(got - want)) < 1e-14


@pytest.mark.parametrize("gamma", [0.0, 1e-3, 0.3])
@pytest.mark.parametrize("phi", [np.pi / 2, 1.0], ids=["phi-pi/2", "phi1.0"])
@pytest.mark.parametrize("name", ["d8", "q8"])
def test_analytic_is_bit_identical_to_two_root_reference(name, phi, gamma):
    # one eigh of the stacked pair (Gamma, Gamma_r) decomposes each matrix as
    # a separate eigh does, so not one entry moves
    group, fourier = make_group(name)
    for alpha in (1.0, ALPHA_STAR, 1.5):
        got = fc.qec_matrix_analytic(group, fourier, alpha, gamma, phi=phi)
        want = qec_matrix_analytic_two_root_reference(group, fourier, alpha, gamma, phi)
        assert np.array_equal(got.entries, want.entries)
        gram = loss_gram_matrices(fc.lambda_matrix(group, phi), alpha, gamma)[0]
        cond = np.linalg.cond(gram)
        assert abs(got.extras["condition_number"] - cond) <= 1e-12 * cond


def check_sweep_matches_loop_reference(records, want):
    eps = np.finfo(float).eps
    assert [r.value for r in records] == [w[0] for w in want]
    assert np.array_equal([r.infidelity for r in records], [w[1] for w in want], equal_nan=True)
    assert [r.flags for r in records] == [w[3] for w in want]
    for rec, (_, _, cond, _) in zip(records, want):
        # 1e-12 where Gamma is well conditioned; SVD and eigh each resolve
        # its smallest eigenvalue only to eps * ||Gamma||, so that relative
        # error grows as eps * cond towards the ill-conditioned end
        assert abs(rec.condition_number - cond) <= (1e-12 + 8 * eps * cond) * cond


@pytest.mark.parametrize("phi", [np.pi / 2, 1.0], ids=["phi-pi/2", "phi1.0"])
@pytest.mark.parametrize("name", ["d8", "q8"])
def test_sweeps_match_loop_reference(name, phi):
    group, fourier = make_group(name)
    # Gamma is singular to the 1e-12 floor at 0.002 and, except for q8 at
    # phi = 1, at 0.02; from 0.3 on it is well conditioned
    alphas = [0.002, 0.02, 0.1, 0.3, 1.0, 1.25, ALPHA_STAR, 1.5]
    records = fc.sweep_alpha(group, fourier, 0.01, alphas, phi=phi)
    want = sweep_loop_reference(group, fourier, [(a, a, 0.01) for a in alphas], phi)
    assert want[0][3] == ["ill-conditioned"] and not any(w[3] for w in want[2:])
    check_sweep_matches_loop_reference(records, want)
    gammas = [0.0, 1e-3, 1e-2, 0.1, 0.3]
    for alpha in (0.002, ALPHA_STAR):  # every point flagged at 0.002
        records = fc.sweep_gamma(group, fourier, alpha, gammas, phi=phi)
        want = sweep_loop_reference(group, fourier, [(g, alpha, g) for g in gammas], phi)
        check_sweep_matches_loop_reference(records, want)


@pytest.mark.parametrize("name", ["d8", "q8"])
def test_analytic_point_decomposes_each_matrix_once(name, monkeypatch):
    # one eigh of the pair (Gamma, Gamma_r) and one of M per point; no SVD
    # condition number and no second spectrum of Gamma
    def forbidden(*args, **kwargs):
        raise AssertionError("a second decomposition of Gamma")

    shapes = []

    def eigh(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return numpy_eigh(a, *args, **kwargs)

    numpy_eigh = np.linalg.eigh
    for attr in ("cond", "svd", "eigvalsh"):
        monkeypatch.setattr(np.linalg, attr, forbidden)
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    group, fourier = make_group(name)
    n = group.order
    records = fc.sweep_alpha(group, fourier, 0.01, [0.02, 1.0, 1.25])
    assert [bool(r.flags) for r in records] == [True, False, False]
    assert shapes == [(2, n, n)] + [(2, n, n), (2 * n, 2 * n)] * 2
    shapes.clear()
    records = fc.sweep_gamma(group, fourier, ALPHA_STAR, [0.0, 0.01])
    assert all(np.isfinite(r.infidelity) for r in records)
    assert shapes == [(2, n, n), (2 * n, 2 * n)] * 2
    shapes.clear()
    qec = fc.qec_matrix_analytic(group, fourier, ALPHA_STAR, 0.01)
    assert shapes == [(2, n, n)] and qec.extras["condition_number"] > 1


def test_singular_gram_error_carries_the_condition_number(d8, d8_fourier):
    with pytest.raises(SingularGramError, match="Gram matrix numerically singular") as info:
        fc.qec_matrix_analytic(d8, d8_fourier, 0.02, 0.01)
    assert isinstance(info.value, ValueError)
    (record,) = fc.sweep_alpha(d8, d8_fourier, 0.01, [0.02])
    assert info.value.condition_number == record.condition_number > 1e12


@pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_analytic_route_rejects_non_finite_alpha(d8, d8_fourier, alpha):
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        fc.qec_matrix_analytic(d8, d8_fourier, alpha, 0.01)
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        fc.sweep_alpha(d8, d8_fourier, 0.01, [alpha, 1.2])
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        fc.sweep_gamma(d8, d8_fourier, alpha, [0.01])


@pytest.mark.parametrize("gamma", [1e-3, 1e-2, 0.3])
@pytest.mark.parametrize("name", ["d8", "q8"])
def test_fock_blocks_match_full_gram_of_kraus_images(name, gamma):
    group, fourier = make_group(name)
    code = fc.code_basis(fc.make_constellation(group, 1.25, 1.0), fourier)
    qec = fc.qec_matrix_fock(code, gamma)
    images = qec.extras["kraus_images"]
    n, d = group.order, code.config.dim_per_mode
    assert images.shape == (4, n, d, d)
    flat = images.reshape(4 * n, d * d)
    gram = (flat.conj() @ flat.T).reshape(4, n, 4, n)
    completeness = np.einsum("ipjp->ij", gram)
    residual = np.linalg.norm(completeness - np.eye(4))
    assert abs(qec.extras["completeness_residual"] - residual) < 1e-14
    m = gram[np.ix_([0, 2], range(n), [0, 2], range(n))].reshape(2 * n, 2 * n)
    assert np.max(np.abs(qec.entries - (m + m.conj().T) / 2)) < 1e-14


@pytest.mark.parametrize("gamma", [1e-10, 1e-3, 1e-2, 0.3])
def test_env_gain_is_the_spectral_norm_of_the_pseudo_inverse(star_code, gamma, monkeypatch):
    seen = []

    def spy(*args, **kwargs):
        seen.append(hermitian_inv_sqrt(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(fc.channels, "hermitian_inv_sqrt", spy)
    gain = fc.qec_matrix_fock(star_code, gamma).extras["env_gain"]
    (roots,) = seen
    want = np.linalg.norm(roots.inv_sqrt, 2)
    assert abs(gain - want) <= 1e-12 * want


@pytest.mark.parametrize("name", ["d8", "q8"])
def test_loss_routes_search_no_einsum_path_and_run_no_svd(name, monkeypatch):
    # einsum(optimize=True) plans its contraction in Python on every call and
    # norm(x, 2) runs an SVD; neither belongs in a loss-crossval point
    def forbidden(*args, **kwargs):
        raise AssertionError("per-call overhead crept back into a loss route")

    monkeypatch.setattr(np, "einsum_path", forbidden)
    monkeypatch.setattr(np.linalg, "svd", forbidden)
    monkeypatch.setitem(np.einsum.__wrapped__.__globals__, "einsum_path", forbidden)
    monkeypatch.setitem(np.linalg.norm.__wrapped__.__globals__, "svd", forbidden)
    group, fourier = make_group(name)
    code = fc.code_basis(fc.make_constellation(group, 1.25, 1.0), fourier)
    analytic = fc.qec_matrix_analytic(group, fourier, 1.25, 0.01, phi=1.0)
    fock = fc.qec_matrix_fock(code, 0.01)
    f_a = fc.petz_entanglement_fidelity(analytic)
    assert abs(f_a - fc.petz_entanglement_fidelity(fock)) < 1e-9
    with pytest.raises(AssertionError, match="crept back"):
        np.linalg.norm(np.eye(2), 2)  # the guard is live


def lindblad_kernel_loop_reference(code, deformed=False):
    """The per-state residual norms that ``lindblad_kernel_check`` replaced.

    Every power of a is applied as single steps (a^4 as four), against the
    fused powers the check applies.
    """
    alpha = code.alpha
    if deformed:
        basis = fc.code_basis(deform_constellation(code.constellation, HADAMARD), code.fourier)
        sign = -1.0
    else:
        basis, sign = code, 1.0
    a1, a2 = (annihilation_operator(mode, basis.config) for mode in (0, 1))
    amps = basis.amplitudes
    a1sq, a2sq = a1(a1(amps)), a2(a2(amps))
    shift = sign * alpha**4 * amps
    images = {
        "L1": (a1(a1(a1sq)) - shift, alpha**4),
        "L2": (a2(a2(a2sq)) - shift, alpha**4),
        "L12": (a2(a2(a1sq)) + shift, alpha**4),
    }
    if not deformed:
        images["L0"] = (a1sq + a2sq, alpha**2)
    residuals = {
        name: max(float(np.linalg.norm(r)) for r in img) / scale
        for name, (img, scale) in images.items()
    }
    d = basis.config.dim_per_mode
    odd = np.add.outer(np.arange(d), np.arange(d)) % 2 == 1
    parity = max(float(np.linalg.norm(a[~odd])) for a in basis.amplitudes)
    return residuals, parity


@pytest.mark.parametrize("deformed", [False, True])
@pytest.mark.parametrize("cutoff", [20, 25])
@pytest.mark.parametrize("phi", [np.pi / 2, 1.0])
@pytest.mark.parametrize("alpha", [ALPHA_STAR, 1.3])
@pytest.mark.parametrize("name", ["d8", "q8"])
def test_lindblad_kernels_match_loop_reference(name, alpha, phi, cutoff, deformed):
    group, fourier = make_group(name)
    code = fc.code_basis(fc.make_constellation(group, alpha, phi, cutoff), fourier)
    got, parity = fc.lindblad_kernel_check(code, deformed=deformed)
    want, want_parity = lindblad_kernel_loop_reference(code, deformed)
    assert list(got) == list(want)
    for key, value in want.items():
        assert abs(got[key] - value) <= 1e-15 * max(1.0, value)
    assert abs(parity - want_parity) <= 1e-15
