"""Tests of the benchmark's numpy reference.  None of them imports fouriercat.

Run from the root of the checkout:  python3 -m pytest -q fcbench
"""

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference as ref  # noqa: E402

A = ref.ALPHA_STAR
STAR = np.array([A, 1j * A])


@pytest.mark.parametrize("name", ["d8", "q8"])
def test_groups_are_closed_order_8(name):
    g = ref.group_elements(name)
    assert g.shape == (8, 2, 2)
    for a in g:
        assert np.allclose(a.conj().T @ a, np.eye(2))
        for b in g:
            assert np.min(np.abs(g - a @ b).max(axis=(1, 2))) < 1e-12


@pytest.mark.parametrize("name,alpha,phi", [("d8", A, math.pi / 2), ("d8", 1.1, 0.7), ("q8", 1.4, 1.0)])
def test_encoded_basis_is_orthonormal(name, alpha, phi):
    basis = ref.encoded_basis(name, [alpha, alpha * np.exp(1j * phi)], 30).reshape(4, -1)
    assert np.allclose(basis.conj() @ basis.T, np.eye(4), atol=1e-12)


def test_cat_products_match_the_fourier_encoding_at_the_special_point():
    encoded = ref.encoded_basis("d8", STAR, 30)
    cats = ref.cat_product_basis(30)
    for e, c in zip(encoded, cats):
        assert ref.phase_free_infidelity(e, c) < 1e-13


def test_cat_products_and_petz_formula_agree_at_zero_loss():
    # At gamma = 0 the Petz formula sees the code through its coefficients on
    # the coherent orbit; those coefficients must reproduce the cat products
    # (Fock overlaps) and give fidelity 1.
    elements = ref.group_elements("d8")
    points = elements @ STAR
    coeff = ref.encoding_coefficients(elements, points)
    gram = ref.coherent_gram(points)
    assert np.allclose(coeff.conj().T @ gram @ coeff, np.eye(4), atol=1e-12)
    cats = ref.cat_product_basis(40).reshape(4, -1)
    coherent = np.array([np.outer(ref.coherent(p[0], 41), ref.coherent(p[1], 41)).ravel() for p in points])
    states = coeff.T @ coherent
    for s, c in zip(states, cats):
        assert abs(abs(np.vdot(c, s)) - 1.0) < 1e-12
    assert abs(ref.petz_infidelity("d8", A, 0.0, math.pi / 2)) < 1e-12


@pytest.mark.parametrize("name", ["d8", "q8"])
def test_petz_fidelity_properties(name):
    gammas = np.logspace(-6, -0.5, 40)
    for phi in (math.pi / 2, 1.0):
        for alpha in (1.0, 1.25, 1.6):
            infid = ref.petz_infidelity(name, alpha, gammas, phi)
            assert np.all((infid >= -1e-12) & (infid <= 1.0))
            assert np.all(np.diff(infid) >= -1e-15)  # non-decreasing in gamma
            assert infid[0] < 1e-4  # F -> 1 as gamma -> 0
            assert abs(ref.petz_infidelity(name, alpha, 0.0, phi)) < 1e-12


def test_petz_depends_on_phi():
    # The Fock route gives these at alpha = 1.25, gamma = 0.01, phi = 1.0.
    assert ref.petz_infidelity("d8", 1.25, 0.01, 1.0) == pytest.approx(7.49e-4, rel=1e-3)
    assert ref.petz_infidelity("q8", 1.25, 0.01, 1.0) == pytest.approx(7.79e-4, rel=1e-3)
    assert ref.petz_infidelity("d8", 1.25, 0.01, math.pi / 2) == pytest.approx(6.92e-4, rel=1e-3)


def test_kl_overlap_from_cat_states_matches_closed_form():
    encoded = ref.encoded_basis("d8", STAR, 40)
    for t in (0.0, 0.4, 1.3, 2.9):  # real multiplicity states
        c, s = math.cos(t), math.sin(t)
        logical = [c * encoded[2 * l] + s * encoded[2 * l + 1] for l in (0, 1)]
        states = logical + [ref.lower(v, axis) for axis in (0, 1) for v in logical]
        states = [v / np.linalg.norm(v) for v in states]
        worst = max(abs(np.vdot(states[i], states[j])) for i in range(6) for j in range(i + 1, 6))
        assert worst == pytest.approx(ref.kl_overlap(A), abs=1e-12)
    assert ref.kl_overlap(A) == pytest.approx(0.18882258521873, abs=1e-12)


def test_lower_is_the_annihilation_operator():
    d = 12
    a = np.diag(np.sqrt(np.arange(1, d)), 1)
    t = np.random.default_rng(0).standard_normal((d, d))
    assert np.allclose(ref.lower(t, 0), a @ t)
    assert np.allclose(ref.lower(t, 1), t @ a.T)
    assert np.allclose(ref.lower(t, 0, 2), a @ a @ t)


def test_lindblad_residuals_vanish_with_the_cutoff():
    for deformed in (False, True):
        vec = ref.H @ STAR if deformed else STAR
        res25, parity = ref.lindblad_residuals(ref.encoded_basis("d8", vec, 25), A, deformed)
        res40, _ = ref.lindblad_residuals(ref.encoded_basis("d8", vec, 40), A, deformed)
        assert max(res25.values()) < 1e-8 and parity < 1e-12
        assert max(res40.values()) < 1e-13
        assert ("L0" in res25) != deformed


def test_mod4_table():
    table, stray = ref.mod4_table(ref.encoded_basis("d8", STAR, 30))
    assert table == {
        "0-i": {(1, 0), (3, 2)}, "0+i": {(1, 2), (3, 0)},
        "1-i": {(0, 1), (2, 3)}, "1+i": {(0, 3), (2, 1)},
    }
    assert stray < 1e-20


def test_logical_targets():
    t = ref.logical_targets()
    for u in list(t.values()) + [ref.cz_target(), ref.zz_rotation(0.7)]:
        assert np.allclose(u.conj().T @ u, np.eye(len(u)))
    shshs = ref.S @ ref.H @ ref.S @ ref.H @ ref.S
    assert np.allclose(shshs, np.exp(1j * math.pi / 4) * ref.H)
    assert ref.phase_aligned_distance(1j * t["H"], t["H"]) < 1e-12
    assert np.allclose(ref.zz_rotation(math.pi / 4), np.diag(np.exp(1j * math.pi / 4 * np.array([1, -1, -1, 1]))))
    assert np.allclose(np.diag(ref.cz_target())[[0, 10, 15]], [1, -1, -1])


def test_loglog_slope():
    xs = np.logspace(-3, -1, 30)
    assert ref.loglog_slope(xs, 3 * xs**2) == pytest.approx(2.0)
    assert ref.loglog_slope(np.logspace(-1.7, -1, 5), np.ones(5)) is None
