from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import expm

import fouriercat as fc
from fouriercat.encoding import CodeBasis, deform_constellation
from fouriercat.fock import (
    annihilation_operator,
    coherent_state,
    coherent_sum,
    hermitian_inv_sqrt,
    infidelity,
    normalize,
    number_diagonal_operator,
    overlap_matrix,
)
from fouriercat.gates import (
    IDENTITY2,
    TABLE_CELLS,
    _mod4_masses,
    composite_hadamard_check,
    deformation_residual,
    double_deformation_residual,
    group_covariance,
    outcome_distribution,
    snap_gate_check,
    zy_expansion_residual,
)
from fouriercat.groups import HADAMARD, PAULI_X, PAULI_Z, PHASE_S, PHASE_T

from conftest import traced
from sector_lift import composite_hadamard_operator, exact_image, monomial_unitary, passive_unitary

ALPHA_STAR = np.sqrt(np.pi / 2)


def test_swap_is_logical_x(star_code):
    op = monomial_unitary(PAULI_X.real)
    action = fc.logical_action(op, star_code)
    dist = fc.phase_aligned_distance(action.matrix, np.kron(PAULI_X, IDENTITY2))
    assert dist < 1e-12
    assert action.leakage < 1e-12


def test_mode2_parity_is_logical_z(star_code):
    op = number_diagonal_operator((-1.0) ** np.arange(star_code.amplitudes.shape[-1]))
    action = fc.logical_action(op, star_code)
    dist = fc.phase_aligned_distance(action.matrix, np.kron(PAULI_Z, IDENTITY2))
    assert dist < 1e-12
    assert action.leakage < 1e-12


def test_self_kerr_is_logical_s(star_code):
    action = fc.s_gate_check(star_code)
    dist = fc.phase_aligned_distance(action.matrix, np.kron(PHASE_S, IDENTITY2))
    assert dist < 1e-12
    assert action.leakage < 1e-12


def test_snap_gates(star_code):
    s_action, t_action = snap_gate_check(star_code)
    dist_s = fc.phase_aligned_distance(s_action.matrix, np.kron(PHASE_S, IDENTITY2))
    dist_t = fc.phase_aligned_distance(t_action.matrix, np.kron(PHASE_T, IDENTITY2))
    assert dist_s < 1e-12
    assert dist_t < 1e-12
    assert t_action.leakage < 1e-12


def test_snap_t_phase_profile():
    # e^{i pi n^4 / 4} is 1 for even n and e^{i pi/4} for odd n
    n = np.arange(30)
    phases = np.exp(1j * np.pi / 4 * (n.astype(object) ** 4 % 8).astype(float))
    want = np.where(n % 2 == 0, 1.0, np.exp(1j * np.pi / 4))
    assert np.linalg.norm(phases - want) < 1e-12


def test_self_kerr_and_snap_s_agree(star_code):
    a = fc.s_gate_check(star_code).matrix
    b = snap_gate_check(star_code)[0].matrix
    dist = fc.phase_aligned_distance(a, b)
    assert dist < 1e-12


def test_cz_gate(star_code):
    got = fc.cz_gate_check(star_code)
    assert np.linalg.norm(got - fc.cz_target()) < 1e-12


def test_cz_contraction_matches_entrywise_sum(d8, d8_fourier):
    # entry by entry: sum_{n2,n4} C[i1',i1,n2] (-1)^(n2 n4) C[i2',i2,n4]
    code = fc.code_basis(fc.make_constellation(d8, 1.0, np.pi / 2), d8_fourier)
    tensors = np.array([s.amplitudes for s in code.basis_states])
    c = np.einsum("iab,jab->ijb", tensors.conj(), tensors)
    n = np.arange(code.amplitudes.shape[-1])
    parity = (-1.0) ** np.outer(n, n)
    want = np.zeros((16, 16), dtype=complex)
    for i1p in range(4):
        for i1 in range(4):
            for i2p in range(4):
                for i2 in range(4):
                    want[i1p * 4 + i2p, i1 * 4 + i2] = c[i1p, i1] @ parity @ c[i2p, i2]
    assert np.max(np.abs(fc.cz_gate_check(code) - want)) < 1e-14


def test_parity_tables_are_exact_at_every_cutoff():
    # the cross-Kerr table and the even-parity mask are built inline from
    # n % 2; on random states both checks must return, bit for bit, what
    # (-1)^(n2 n4) and the mask of even n1 + n2 give
    rng = np.random.default_rng(7)
    for d in range(2, 62):
        amps = rng.normal(size=(4, d, d)) + 1j * rng.normal(size=(4, d, d))
        code = SimpleNamespace(alpha=1.0, amplitudes=amps)
        n = np.arange(d)
        c = np.einsum("iab,jab->ijb", amps.conj(), amps).reshape(16, d)
        pairs = ((c @ ((-1.0) ** np.outer(n, n))) @ c.T).reshape(4, 4, 4, 4)
        assert np.array_equal(fc.cz_gate_check(code), pairs.transpose(0, 2, 1, 3).reshape(16, 16))
        _, parity = fc.lindblad_kernel_check(code)
        even = np.add.outer(n, n) % 2 == 0
        assert parity == float(np.max(np.linalg.norm(amps[:, even], axis=-1)))


@pytest.mark.parametrize("alpha", [1.0, ALPHA_STAR, 1.5])
@pytest.mark.parametrize(
    "u", [HADAMARD, PAULI_X, PAULI_Z, PAULI_X @ PAULI_Z], ids=["H", "X", "Z", "XZ"]
)
def test_deformation_identity(d8, d8_fourier, alpha, u):
    code = fc.code_basis(fc.make_constellation(d8, alpha, np.pi / 2), d8_fourier)
    assert deformation_residual(code, u) < 1e-10


def test_deformation_checks_u_before_the_deformed_code(d8, d8_fourier):
    # 2 I would deform to |alpha| = 2.5, which the cutoff starves
    code = fc.code_basis(fc.make_constellation(d8, 1.25, np.pi / 2, 20), d8_fourier)
    with pytest.raises(ValueError, match="mode transformation must be unitary"):
        deformation_residual(code, 2 * np.eye(2))


def test_double_deformation_returns(star_code):
    assert double_deformation_residual(star_code, HADAMARD) < 1e-10


def test_shshs_identity():
    # the exact 2x2 identity S H S H S = e^{i pi/4} H behind the composite Hadamard
    lhs = PHASE_S @ HADAMARD @ PHASE_S @ HADAMARD @ PHASE_S
    assert np.linalg.norm(lhs - np.exp(1j * np.pi / 4) * HADAMARD) < 1e-14


def test_composite_hadamard(star_code):
    action = composite_hadamard_check(star_code)
    dist = fc.phase_aligned_distance(action.matrix, np.kron(HADAMARD, IDENTITY2))
    assert dist < 1e-7
    assert action.leakage < 1e-7


def test_zeno_hamiltonian(star_code):
    gate, residual, eig_residual = fc.zeno_projected_hamiltonian(star_code)
    assert residual < 1e-12
    assert eig_residual < 1e-8
    u = gate.__class__(
        theta=np.pi / 4, projected_hamiltonian=gate.projected_hamiltonian
    ).logical_unitary(star_code.alpha)
    want = np.diag(np.exp(1j * np.pi / 4 * np.array([1.0, -1.0, -1.0, 1.0])))
    assert np.linalg.norm(u - want) < 1e-10


def test_zeno_needs_special_alpha(d8, d8_fourier):
    code = fc.code_basis(fc.make_constellation(d8, 1.0, np.pi / 2), d8_fourier)
    _, residual, _ = fc.zeno_projected_hamiltonian(code)
    assert residual > 1e-3


@pytest.mark.parametrize(
    "name, phi", [("d8", 1.0), ("q8", np.pi / 2)], ids=["d8-phi1.0", "q8-phi-pi/2"]
)
def test_zeno_unitary_matches_expm(name, phi):
    # at alpha 1.0 these codes have a non-diagonal projected Hamiltonian (for
    # d8 at phi = pi/2 it stays diagonal, only its scale is off)
    group = fc.pauli_group() if name == "d8" else fc.quaternion_group()
    fourier = fc.build_fourier_transform(group, fc.irrep_table(group))
    alpha, theta = 1.0, 0.7
    code = fc.code_basis(fc.make_constellation(group, alpha, phi), fourier)
    gate, _, _ = fc.zeno_projected_hamiltonian(code, theta=theta)
    ham = gate.projected_hamiltonian
    assert np.linalg.norm(ham - np.diag(np.diag(ham))) > 0.5
    want = expm(1j * theta * ham / (2 * alpha**2))
    assert np.linalg.norm(gate.logical_unitary(alpha) - want) < 1e-12


def test_zy_eigenstate_cells(star_code):
    for label, state in zip(fc.ZY_LABELS, fc.zy_eigenstates(star_code)):
        dist = outcome_distribution(state)
        outside = sum(
            p for cell, p in dist.items() if cell not in TABLE_CELLS[label]
        )
        assert outside < 1e-12


def test_y_readout_covers_all_outcomes():
    for r1 in range(4):
        for r2 in range(4):
            assert fc.y_readout(r1, r2) in ("+i", "-i")
    # codeword cells decode to their own label
    for label, cells in TABLE_CELLS.items():
        for cell in cells:
            assert fc.y_readout(*cell) == label[1:]


def test_readout_survives_single_loss(star_code):
    for label, state in zip(fc.ZY_LABELS, fc.zy_eigenstates(star_code)):
        for mode in (0, 1):
            lower = annihilation_operator(mode)
            lost = normalize(lower(state))
            dist = outcome_distribution(lost)
            wrong = sum(
                p for cell, p in dist.items() if fc.y_readout(*cell) != label[1:]
            )
            assert wrong < 1e-12


@pytest.mark.parametrize("cutoff", [7, 8, 9, 10], ids=lambda c: f"d-mod-4-{(c + 1) % 4}")
def test_mod4_masses_match_strided_sums(cutoff):
    d = cutoff + 1
    prob = np.random.default_rng(cutoff).random((2, 3, d, d))
    got = _mod4_masses(prob)
    assert got.shape == (2, 3, 4, 4)
    for r1 in range(4):
        for r2 in range(4):
            want = prob[..., r1::4, r2::4].sum(axis=(-2, -1))
            assert np.max(np.abs(got[..., r1, r2] - want)) < 1e-14


def zy_eigenstates_loop_reference(code):
    """The Z_L Y_M eigenstates one at a time, each normalized on its own."""
    out = {}
    for l in (0, 1):
        for sign, tag in ((1.0j, "+i"), (-1.0j, "-i")):
            amps = (code.amplitudes[2 * l] + sign * code.amplitudes[2 * l + 1]) / np.sqrt(2.0)
            out[f"{l}{tag}"] = normalize(amps)
    return out


def mod4_verification_loop_reference(code):
    """The per-eigenstate outcome-mass loop that ``mod4_verification`` replaced."""
    report = {}
    for label, state in zy_eigenstates_loop_reference(code).items():
        masses = [_mod4_masses(np.abs(state) ** 2)]
        for mode in (0, 1):
            lost = np.abs(annihilation_operator(mode)(state)) ** 2
            masses.append(_mod4_masses(lost) / lost.sum())
        outside = sum(masses[0][c] for c in np.ndindex(4, 4) if c not in TABLE_CELLS[label])
        wrong = [sum(m[c] for c in np.ndindex(4, 4) if fc.y_readout(*c) != label[1:]) for m in masses[1:]]
        report[label] = (float(outside), float(wrong[0]), float(wrong[1]))
    return report


def zy_expansion_loop_reference(code):
    """The scalar double loop ``zy_expansion_residual`` replaced."""
    alpha = code.alpha
    d = code.amplitudes.shape[-1]
    logfact = np.cumsum(np.concatenate([[0.0], np.log(np.arange(1.0, d))]))
    worst = 0.0
    for label, state in zy_eigenstates_loop_reference(code).items():
        sign = -1.0 if label.endswith("+i") else 1.0
        pred = np.zeros((d, d), dtype=complex)
        for p in range((d - 1) // 2 + 1):
            for q in range(d // 2 + (d % 2)):
                if 2 * p + 1 >= d or 2 * q >= d:
                    continue
                f = np.exp(
                    (2 * p + 2 * q + 1) * np.log(alpha)
                    - alpha**2
                    - 0.5 * (logfact[2 * p + 1] + logfact[2 * q])
                )
                coeff = ((-1.0) ** q + sign * (-1.0) ** p) * f
                if label[0] == "0":
                    pred[2 * p + 1, 2 * q] = coeff
                else:
                    pred[2 * q, 2 * p + 1] = coeff
        scale = np.vdot(pred, state) / np.vdot(pred, pred)
        worst = max(worst, float(np.max(np.abs(state - scale * pred))))
    return worst


def test_zy_expansion_closed_form(star_code, d8, d8_fourier):
    assert zy_expansion_residual(star_code) < 1e-9
    # odd and even d, at and away from the special point
    generic = fc.code_basis(fc.make_constellation(d8, 1.1, 1.0, cutoff=20), d8_fourier)
    for code in (star_code, generic):
        assert abs(zy_expansion_residual(code) - zy_expansion_loop_reference(code)) < 1e-15


def test_cutoff_60_checks_stay_small(d8, d8_fourier):
    # dim = 61^2 = 3721, where one dense operator would take 221 MB
    kept = []

    def checks():
        code = fc.code_basis(
            fc.make_constellation(d8, ALPHA_STAR, np.pi / 2, cutoff=60), d8_fourier
        )
        group_covariance(code)
        fc.s_gate_check(code)
        snap_gate_check(code)
        fc.cz_gate_check(code)
        fc.zeno_projected_hamiltonian(code)
        fc.lindblad_kernel_check(code)
        fc.lindblad_kernel_check(code, deformed=True)
        fc.mod4_verification(code)
        composite_hadamard_check(code)
        deformation_residual(code, HADAMARD)
        swap = fc.logical_action(monomial_unitary(PAULI_X.real), code)
        kept.extend([code, swap, fc.qec_matrix_fock(code, 0.01)])

    peak, _ = traced(checks)
    code, swap, loss = kept
    assert peak < 20e6, f"traced peak {peak / 1e6:.1f} MB"
    # the loss oracle alone: its (4, 8, 61, 61) Kraus images (1.9 MB) and one
    # (8, 61, 61) work buffer (0.48 MB); a dense (4, 8, 61, 61) temporary would pass 4 MB
    oracle_peak, _ = traced(lambda: fc.qec_matrix_fock(code, 0.01))
    assert oracle_peak < 3e6, f"qec_matrix_fock traced peak {oracle_peak / 1e6:.2f} MB"
    # the checks hold one operator's images at a time, not a stack of them:
    # all |G| images stacked put group_covariance at 10x the basis (its
    # coefficient-space route forms none), and every Lindblad image held at
    # once put lindblad_kernel_check at 9x
    basis_bytes = code.amplitudes.nbytes
    for check, bound in ((group_covariance, 4), (fc.lindblad_kernel_check, 7)):
        check_peak, _ = traced(lambda: check(code))
        assert check_peak < bound * basis_bytes, f"{check.__name__} {check_peak / basis_bytes:.2f}x"
    dist = fc.phase_aligned_distance(swap.matrix, np.kron(PAULI_X, IDENTITY2))
    assert dist < 1e-12
    analytic = fc.qec_matrix_analytic(d8, d8_fourier, ALPHA_STAR, 0.01)
    assert np.max(np.abs(loss.entries - analytic.entries)) < 1e-10


@pytest.mark.parametrize("phi", [np.pi / 2, 1.0])
@pytest.mark.parametrize("name", ["d8", "q8"])
def test_the_group_permutes_its_constellation(name, phi):
    # pi(g)|p_h> = |p_gh>, which group_covariance rests on: the points of row
    # g of the Cayley table are the points moved by g, exactly (a zero may
    # differ in sign), since every entry of a D8 or Q8 element is 0, +-1 or +-i
    group = fc.pauli_group() if name == "d8" else fc.quaternion_group()
    constellation = fc.make_constellation(group, ALPHA_STAR, phi, 25)
    points = constellation.points
    for g, row in zip(group.matrices, group.cayley):
        moved = points @ g.T
        assert np.array_equal(points[row], moved)
        want = coherent_state(moved, constellation.cutoff)
        assert np.max(np.abs(constellation.factors[row] - want)) <= 1e-15


def group_covariance_stacked_reference(code):
    """The one-stack covariance of the exact monomial lift of each g.

    The images of every g are stacked in one (|G|, 4, d^2) buffer, projected
    in place and reduced by one einsum over the stacked rows.
    """
    basis = code.amplitudes.reshape(4, -1)
    group = code.constellation.group
    images = np.empty((group.order,) + basis.shape, dtype=complex)
    for out, g in zip(images, group.matrices):
        out[:] = monomial_unitary(g)(code.amplitudes).reshape(basis.shape)
    for image, overlaps in zip(images, images @ basis.conj().T):
        image -= overlaps @ basis
    squares = images.reshape(group.order, -1).view(float)
    return float(np.sqrt(np.max(np.einsum("gk,gk->g", squares, squares))))


@pytest.mark.parametrize("cutoff", [20, 25, 31, 35])
@pytest.mark.parametrize("phi", [np.pi / 2, 1.0])
@pytest.mark.parametrize("name", ["d8", "q8"])
def test_group_covariance_matches_stacked_reference(name, phi, cutoff):
    group = fc.pauli_group() if name == "d8" else fc.quaternion_group()
    fourier = fc.build_fourier_transform(group, fc.irrep_table(group))
    code = fc.code_basis(fc.make_constellation(group, ALPHA_STAR, phi, cutoff), fourier)
    # at the code itself both are roundoff: the coefficient-space route and the
    # Fock-space reference round differently, so only their size is compared
    assert max(group_covariance(code), group_covariance_stacked_reference(code)) < 1e-14


def group_covariance_loop_reference(code):
    """The per-element covariance loop of the exact monomial lift of each g."""
    basis = code.amplitudes
    worst = 0.0
    for g in code.constellation.group.matrices:
        images = monomial_unitary(g)(basis)
        inside = np.tensordot(overlap_matrix(basis, images).T, basis, axes=1)
        worst = max(worst, float(np.linalg.norm(images - inside)))
    return worst


def leaky_code(code):
    """``code`` with basis states 0 and 1 tilted into 1-d irreps: orthonormal, not covariant.

    Row i of the first two becomes 0.6 of itself plus 0.8 of the
    Gram-orthonormalized state of the i-th 1-d irrep row of the Fourier
    transform.  Those states are orthogonal to each other and to all four
    code states, so the set stays orthonormal while the group moves both
    rows out of its span by O(1).
    """
    constellation, fourier = code.constellation, code.fourier
    labels = {irrep.label for irrep in fourier.irreps if irrep.dim == 1}
    rows = [i for i, (label, _, _) in enumerate(fourier.row_index) if label in labels][:2]
    inv_sqrt = hermitian_inv_sqrt(fc.gram_matrix(constellation)).inv_sqrt
    coeff = code.coefficients.copy()
    for i, row in enumerate(rows):
        coeff[i] = 0.6 * coeff[i] + 0.8 * inv_sqrt @ fourier.matrix[row].conj()
    return CodeBasis(constellation, fourier, coherent_sum(coeff, constellation.factors), coeff)


def largest_state_leakage(code):
    """max over g and i of one basis state's residual: what a Frobenius norm over i must exceed."""
    basis = code.amplitudes
    worst = 0.0
    for g in code.constellation.group.matrices:
        images = monomial_unitary(g)(basis)
        inside = np.tensordot(overlap_matrix(basis, images).T, basis, axes=1)
        worst = max(worst, float(np.max(np.linalg.norm(images - inside, axis=(1, 2)))))
    return worst


@pytest.mark.parametrize("alpha, phi, cutoff", [(ALPHA_STAR, np.pi / 2, 25), (1.3, 1.0, 20)])
@pytest.mark.parametrize("name", ["d8", "q8"])
def test_group_covariance_matches_the_fock_references_where_the_code_leaks(name, alpha, phi, cutoff):
    group = fc.pauli_group() if name == "d8" else fc.quaternion_group()
    fourier = fc.build_fourier_transform(group, fc.irrep_table(group))
    code = leaky_code(fc.code_basis(fc.make_constellation(group, alpha, phi, cutoff), fourier))
    assert np.linalg.norm(overlap_matrix(code.amplitudes, code.amplitudes) - np.eye(4)) < 1e-13
    got = group_covariance(code)
    # two states leak under the worst g, so the norm over all four states
    # stands clear of the largest single state's
    assert got > 1.1 * largest_state_leakage(code)
    for reference in (group_covariance_stacked_reference, group_covariance_loop_reference):
        want = reference(code)
        assert abs(got - want) <= 1e-12 * want, (reference.__name__, got, want)


def test_cli_cap_code_basis_and_covariance_stay_near_the_basis(d8, d8_fourier):
    # at cutoff 255 the (4, d, d) basis is 4.2 MB: a code_basis miss forms no
    # (|G|, d, d) stack of constellation states, and group_covariance no image
    constellation = fc.make_constellation(d8, ALPHA_STAR, np.pi / 2, 255)
    code = fc.code_basis.__wrapped__(constellation, d8_fourier)
    basis_bytes = code.amplitudes.nbytes
    build_peak, _ = traced(lambda: fc.code_basis.__wrapped__(constellation, d8_fourier))
    assert build_peak <= 2.5 * basis_bytes, f"code_basis {build_peak / basis_bytes:.2f}x"
    covariance_peak, _ = traced(lambda: group_covariance(code))
    assert covariance_peak <= 0.1 * basis_bytes, f"group_covariance {covariance_peak / basis_bytes:.3f}x"


def leakage_loop_reference(op, code):
    """The per-state residual norms that ``logical_action`` replaced."""
    images = op(code.amplitudes)
    residual = images - np.tensordot(overlap_matrix(code.amplitudes, images).T, code.amplitudes, axes=1)
    return max(float(np.linalg.norm(r)) for r in residual)


def encoded_residual_loop_reference(op, code, target, u):
    """The per-state infidelities that ``gates._encoded_residual`` replaced."""
    rhs = np.tensordot(np.kron(u, u).T, target.amplitudes, axes=1)
    return max(infidelity(a, b) for a, b in zip(op(code.amplitudes), rhs))


def zeno_eigen_loop_reference(code):
    """The per-state a1^2 eigen residuals that ``zeno_projected_hamiltonian`` replaced."""
    a1 = annihilation_operator(0)
    signs = np.array([1.0, -1.0, -1.0, 1.0])
    eigen = a1(a1(code.amplitudes)) - code.alpha**2 * signs[:, None, None] * code.amplitudes
    return max(float(np.linalg.norm(r)) for r in eigen)


def exact_box_image(operator, states):
    """``sector_lift.exact_image`` of ``states``, cut back to their own cutoff."""
    d = np.shape(states)[-1]
    return exact_image(operator, states)[..., :d, :d]


def exact_pi_h(states):
    """pi(H) applied exactly to cutoff-c states, in their box."""
    return exact_box_image(passive_unitary(HADAMARD), states)


def pi_h_twice(pi_h):
    return lambda t: pi_h(pi_h(t))


def agree(got, want):
    """Equal to 1e-15, relative for values above one."""
    return abs(got - want) <= 1e-15 * max(1.0, abs(want))


@pytest.mark.parametrize("cutoff", [20, 25])
@pytest.mark.parametrize("phi", [np.pi / 2, 1.0])
@pytest.mark.parametrize("alpha", [ALPHA_STAR, 1.3])
@pytest.mark.parametrize("name", ["d8", "q8"])
def test_stacked_residuals_match_loop_references(name, alpha, phi, cutoff):
    group = fc.pauli_group() if name == "d8" else fc.quaternion_group()
    fourier = fc.build_fourier_transform(group, fc.irrep_table(group))
    code = fc.code_basis(fc.make_constellation(group, alpha, phi, cutoff), fourier)
    assert max(group_covariance(code), group_covariance_loop_reference(code)) < 1e-14
    s_op = fc.gates.self_kerr_s_gate()
    assert agree(fc.s_gate_check(code).leakage, leakage_loop_reference(s_op, code))
    # the composite Hadamard's images match the exact lift (see
    # test_composite_hadamard_images_match_the_exact_lift), and the leakage
    # is their residual reduced state by state
    images = fc.gates._composite_hadamard_images(code)
    exact = exact_box_image(composite_hadamard_operator, code.amplitudes)
    assert np.max(np.abs(images - exact)) < 1e-14
    h_leak = leakage_loop_reference(lambda t: images, code)
    assert agree(composite_hadamard_check(code).leakage, h_leak)
    assert agree(fc.zeno_projected_hamiltonian(code)[2], zeno_eigen_loop_reference(code))
    deformed = fc.code_basis(deform_constellation(code.constellation, HADAMARD), fourier)
    want = encoded_residual_loop_reference(exact_pi_h, code, deformed, HADAMARD)
    assert agree(deformation_residual(code, HADAMARD), want)
    twice = exact_box_image(pi_h_twice(passive_unitary(HADAMARD)), code.amplitudes)
    want = encoded_residual_loop_reference(lambda t: twice, code, code, HADAMARD @ HADAMARD)
    assert agree(double_deformation_residual(code, HADAMARD), want)
    states, want = fc.zy_eigenstates(code), zy_eigenstates_loop_reference(code)
    assert fc.ZY_LABELS == tuple(want)
    assert all(np.max(np.abs(state - want[k])) <= 1e-15 for k, state in zip(fc.ZY_LABELS, states))
    report, want = fc.mod4_verification(code), mod4_verification_loop_reference(code)
    assert list(report) == list(want)
    assert all(agree(got, ref) for k in want for got, ref in zip(report[k], want[k], strict=True))
    assert agree(zy_expansion_residual(code), zy_expansion_loop_reference(code))


@pytest.mark.parametrize(
    "alpha, cutoff", [(ALPHA_STAR, 25), (1.3, 20), (2.0, 25)], ids=["alpha*", "1.3", "2.0"]
)
@pytest.mark.parametrize("phi", [np.pi / 2, 1.0], ids=["phi-pi/2", "phi1.0"])
@pytest.mark.parametrize("name", ["d8", "q8"])
def test_composite_hadamard_images_match_the_exact_lift(name, phi, alpha, cutoff):
    # the lift at cutoff 2c on the zero-padded code states is exact: the
    # operator conserves N, and every sector N <= 2c lies under that cutoff;
    # the lift at cutoff c truncates the corner sectors N > c instead
    group = fc.pauli_group() if name == "d8" else fc.quaternion_group()
    fourier = fc.build_fourier_transform(group, fc.irrep_table(group))
    code = fc.code_basis(fc.make_constellation(group, alpha, phi, cutoff), fourier)
    d = code.amplitudes.shape[-1]
    exact = exact_image(composite_hadamard_operator, code.amplitudes)
    images = fc.gates._composite_hadamard_images(code)
    assert np.max(np.abs(images - exact[..., :d, :d])) < 1e-14
    assert np.linalg.norm(exact[..., d:, :]) + np.linalg.norm(exact[..., :d, d:]) < 1e-14
    truncated = composite_hadamard_operator(code.amplitudes)
    assert np.max(np.abs(truncated - exact[..., :d, :d])) > 1e-9
