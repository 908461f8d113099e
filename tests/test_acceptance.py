"""Acceptance suite: one test per release criterion, one printed line each.

Verdict lines are also echoed in a terminal summary section (see conftest)
so they survive pytest output capture.
"""

import numpy as np

import fouriercat as fc
from fouriercat.channels import argmin_record, loglog_slope
from fouriercat.fock import annihilation_operator, infidelity, normalize
from fouriercat.gates import (
    IDENTITY2,
    TABLE_CELLS,
    composite_hadamard_check,
    deformation_residual,
    outcome_distribution,
    snap_gate_check,
)
from fouriercat.groups import HADAMARD, PAULI_X, PAULI_Z, PHASE_T
from fouriercat.encoding import analytic_gram

ALPHA_STAR = np.sqrt(np.pi / 2)


def _verdict(report, num, ok, detail):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} ({detail})"
    report.append(line)
    print(line)
    assert ok, line


def _product_cat(first, second, cutoff):
    from fouriercat.fock import cat_state

    a = cat_state(first[1], first[0], cutoff)
    b = cat_state(second[1], second[0], cutoff)
    return np.outer(a, b)


def test_criterion_1_fourier_transform(acceptance_report):
    worst = 0.0
    for group in (fc.pauli_group(), fc.cyclic_group(8)):
        irreps = fc.irrep_table(group)
        fourier = fc.build_fourier_transform(group, irreps)
        f = fourier.matrix
        worst = max(
            worst,
            float(np.linalg.norm(f @ f.conj().T - np.eye(group.order))),
            fc.verify_block_diagonalization(fourier, group),
        )
    _verdict(acceptance_report, 1, worst <= 1e-12, f"unitarity/block residual {worst:.2e} <= 1e-12")


def test_criterion_2_encoding_identities(acceptance_report, star_code, d8):
    a = ALPHA_STAR
    targets = {
        (0, 0): ((1, a), (0, 1j * a)),
        (0, 1): ((1, 1j * a), (0, a)),
        (1, 0): ((0, 1j * a), (1, a)),
        (1, 1): ((0, a), (1, 1j * a)),
    }
    worst_prod = max(
        infidelity(
            star_code.amplitudes[2 * l + m],
            _product_cat(first, second, star_code.constellation.cutoff),
        )
        for (l, m), (first, second) in targets.items()
    )
    basis = np.array([s.amplitudes.ravel() for s in star_code.basis_states])
    gram_dev = float(np.linalg.norm(basis.conj() @ basis.T - np.eye(4)))
    from sector_lift import monomial_unitary

    cov = 0.0
    for i in range(d8.order):
        op = monomial_unitary(d8.matrices[i])
        images = np.array([op(s.amplitudes).ravel() for s in star_code.basis_states])
        overlaps = images.conj() @ basis.T
        cov = max(cov, float(np.linalg.norm(images - overlaps.conj() @ basis)))
    ok = worst_prod <= 1e-9 and gram_dev <= 1e-10 and cov <= 1e-9
    _verdict(acceptance_report, 2,
        ok,
        f"product-cat infid {worst_prod:.2e}, gram {gram_dev:.2e}, "
        f"covariance {cov:.2e}",
    )


def test_criterion_3_deformation_lemma(acceptance_report, d8, d8_fourier):
    worst = 0.0
    for alpha in (1.0, ALPHA_STAR, 1.5):
        code = fc.code_basis(
            fc.make_constellation(d8, alpha, np.pi / 2), d8_fourier
        )
        for u in (HADAMARD, PAULI_X, PAULI_Z, PAULI_X @ PAULI_Z):
            worst = max(worst, deformation_residual(code, u))
    _verdict(acceptance_report, 3, worst <= 1e-8, f"max deformation residual {worst:.2e} <= 1e-8")


def test_criterion_4_gate_suite(acceptance_report, star_code):
    from fouriercat.gates import phase_aligned_distance

    kerr = fc.s_gate_check(star_code).matrix
    snap_s, snap_t = snap_gate_check(star_code)
    s_agree = phase_aligned_distance(kerr, snap_s.matrix)
    cz_dev = float(np.linalg.norm(fc.cz_gate_check(star_code) - fc.cz_target()))
    had = composite_hadamard_check(star_code)
    had_dist = phase_aligned_distance(had.matrix, np.kron(HADAMARD, IDENTITY2))
    _, zeno_res, _ = fc.zeno_projected_hamiltonian(star_code)
    t_dist = phase_aligned_distance(snap_t.matrix, np.kron(PHASE_T, IDENTITY2))
    n = np.arange(2 * star_code.constellation.cutoff)
    profile = np.exp(1j * np.pi / 4 * ((n**4) % 8).astype(float))
    profile_dev = float(
        np.linalg.norm(profile - np.where(n % 2 == 0, 1.0, np.exp(1j * np.pi / 4)))
    )
    ok = (
        s_agree <= 1e-8
        and cz_dev <= 1e-8
        and had_dist <= 1e-7
        and had.leakage <= 1e-7
        and zeno_res <= 1e-8
        and t_dist <= 1e-8
        and profile_dev == 0.0
    )
    _verdict(acceptance_report, 4,
        ok,
        f"S agree {s_agree:.2e}, CZ {cz_dev:.2e}, H {had_dist:.2e} "
        f"leak {had.leakage:.2e}, Zeno {zeno_res:.2e}, T {t_dist:.2e}",
    )


def test_criterion_5_measurement(acceptance_report, star_code):
    worst_outside = 0.0
    worst_flip = 0.0
    for label, state in zip(fc.ZY_LABELS, fc.zy_eigenstates(star_code)):
        dist = outcome_distribution(state)
        worst_outside = max(
            worst_outside,
            sum(p for cell, p in dist.items() if cell not in TABLE_CELLS[label]),
        )
        for mode in (0, 1):
            lower = annihilation_operator(mode)
            lost = normalize(lower(state))
            dist_l = outcome_distribution(lost)
            worst_flip = max(
                worst_flip,
                sum(
                    p
                    for cell, p in dist_l.items()
                    if fc.y_readout(*cell) != label[1:]
                ),
            )
    ok = worst_outside <= 1e-8 and worst_flip <= 1e-8
    _verdict(acceptance_report, 5, ok, f"off-cell mass {worst_outside:.2e}, post-loss flip {worst_flip:.2e}"
    )


def test_criterion_6_error_correction_structure(acceptance_report, star_code):
    worst_kl = max(
        fc.kl_first_order_check(star_code, np.array(psi))
        for psi in ([1.0, 0.0], [0.0, 1.0], [1 / np.sqrt(2), 1 / np.sqrt(2)])
    )
    kernels, parity = fc.lindblad_kernel_check(star_code)
    kernels_def, parity_def = fc.lindblad_kernel_check(star_code, deformed=True)
    worst_kernel = max(max(kernels.values()), max(kernels_def.values()))
    worst_parity = max(parity, parity_def)
    ok = worst_kl <= 1e-9 and worst_kernel <= 1e-8 and worst_parity <= 1e-12
    _verdict(acceptance_report, 6,
        ok,
        f"KL {worst_kl:.2e} (<=1e-9 required), kernels {worst_kernel:.2e}, "
        f"parity {worst_parity:.2e}",
    )


def test_criterion_7_petz_cross_validation(acceptance_report, d8, d8_fourier):
    worst_entry = 0.0
    worst_fid = 0.0
    worst_complete = 0.0
    for alpha in (1.0, 1.2533, 1.5):
        code = fc.code_basis(
            fc.make_constellation(d8, alpha, np.pi / 2), d8_fourier
        )
        for gamma in (0.005, 0.01, 0.05):
            analytic = fc.qec_matrix_analytic(d8, d8_fourier, alpha, gamma)
            fock = fc.qec_matrix_fock(code, gamma)
            worst_entry = max(
                worst_entry, float(np.max(np.abs(analytic.entries - fock.entries)))
            )
            worst_fid = max(
                worst_fid,
                abs(
                    fc.petz_entanglement_fidelity(analytic)
                    - fc.petz_entanglement_fidelity(fock)
                ),
            )
            worst_complete = max(
                worst_complete, fock.extras["completeness_residual"]
            )
    lossless = abs(
        fc.petz_entanglement_fidelity(
            fc.qec_matrix_analytic(d8, d8_fourier, ALPHA_STAR, 0.0)
        )
        - 1.0
    )
    ok = (
        worst_entry <= 1e-6
        and worst_fid <= 1e-8
        and worst_complete <= 1e-8
        and lossless <= 1e-12
    )
    _verdict(acceptance_report, 7,
        ok,
        f"entry {worst_entry:.2e}, fidelity {worst_fid:.2e}, "
        f"completeness {worst_complete:.2e}, lossless {lossless:.2e}",
    )


def test_criterion_8_alpha_sweep(acceptance_report, d8, d8_fourier):
    grid = np.linspace(0.9, 1.6, 71)
    records = fc.sweep_alpha(d8, d8_fourier, 0.01, grid)
    best = argmin_record(records)
    rises = records[0].infidelity > 2 * best.infidelity
    ok = 1.20 <= best.value <= 1.30 and rises
    _verdict(acceptance_report, 8,
        ok,
        f"argmin alpha {best.value:.3f} in [1.20, 1.30], "
        f"edge/min ratio {records[0].infidelity / best.infidelity:.1f}",
    )


def test_criterion_9_gamma_scaling(acceptance_report, d8, d8_fourier):
    grid = np.logspace(-3, -1, 20)
    records = fc.sweep_gamma(d8, d8_fourier, ALPHA_STAR, grid)
    vals = [r.infidelity for r in records]
    monotone = all(a < b for a, b in zip(vals, vals[1:]))
    slope = loglog_slope(records, 1e-3, 1e-2)
    ok = 1.8 <= slope <= 2.2 and monotone
    _verdict(acceptance_report, 9,
        ok,
        f"log-log slope {slope:.3f} (required in [1.8, 2.2]), "
        f"monotone {monotone}",
    )


def test_criterion_10_cat_qudits(acceptance_report):
    worst = 0.0
    for (n, d) in ((2, 2), (4, 2), (8, 4)):
        for alpha in (0.8, 1.25):
            code = fc.cat_qudit(n, d, alpha)
            mat = code.codewords
            worst = max(
                worst, float(np.linalg.norm(mat.conj() @ mat.T - np.eye(d)))
            )
            group = fc.cyclic_group(n)
            f = fc.build_fourier_transform(group, fc.irrep_table(group)).matrix
            delta = fc.cat_qudit(n, 1, alpha).delta
            gram = analytic_gram(group, [0.0, alpha])
            worst = max(
                worst, float(np.linalg.norm(f @ np.diag(delta) @ f.conj().T - gram))
            )
    _verdict(acceptance_report, 10, worst <= 1e-10, f"max codeword/Gram residual {worst:.2e} <= 1e-10")
