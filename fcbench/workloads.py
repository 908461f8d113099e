"""The benchmark's workloads: seeded plans, rounds of operations and checks.

A workload is a closed loop with one client.  ``build`` draws the plan from
the seed once and returns one round: a fixed list of operations that run one
after another.  Every round of a run repeats the same list, so the share of
failed operations is the same in every run.

An operation is a timed call into fouriercat (``Op.call``) and an untimed
check of its output (``Op.check``) against ``reference`` or against a
property the method must have.  A failed operation is reported under the
name of a known fault in ``FAULTS``; any other failure is unexplained.
"""

from __future__ import annotations

import contextlib
import csv
import inspect
import io
import json
import math
import os
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref

WORKLOADS = ("gate-suite", "loss-sweeps", "loss-crossval")

FAULTS = {
    "D1": "channels.lambda_matrix hard-codes |+i>, so the analytic route "
    "ignores phi",
    "D2": "verify --group zN ends in an uncaught ValueError ('group has no "
    "irrep of dimension > 1') where exit code 2 is documented",
    "slope-window": "sweep-gamma ends in an uncaught ValueError from "
    "loglog_slope when fewer than two grid points fall in [1e-3, 1e-2]",
}

# Exceptions that identify a fault by type and message.
ERROR_SIGNATURES = {
    "D2": (ValueError, "group has no irrep of dimension > 1"),
    "slope-window": (ValueError, "not enough valid points for a slope fit"),
}

# Agreement of an infidelity with the reference: |x - r| <= ABS + REL * r.
INFID_ABS, INFID_REL = 1e-9, 1e-6


class Failed(Exception):
    """A check failed; ``fault`` names a known fault, or is None."""

    def __init__(self, detail, fault=None):
        super().__init__(detail)
        self.fault = fault


def classify_error(exc):
    """The fault whose signature matches a raised exception, or None."""
    for fault, (kind, message) in ERROR_SIGNATURES.items():
        if isinstance(exc, kind) and message in str(exc):
            return fault
    return None


@dataclass
class Op:
    name: str
    call: Callable  # call(ctx) -> output; the only timed part
    check: Callable  # check(output, ctx) -> None, raises Failed


@dataclass
class Sizes:
    """Work per round.  Quick sizes are for self-checks only."""

    gate_cutoff: int  # gate-suite; the gate tolerances need 25 at alpha*
    loss_cutoff: int  # loss-crossval
    alpha_points: int  # per library sweep_alpha / sweep_gamma call
    cli_points: int  # per CLI sweep
    crossval_points: int  # seeded (alpha, gamma) points per group


FULL = Sizes(gate_cutoff=25, loss_cutoff=25, alpha_points=500, cli_points=250, crossval_points=2)
QUICK = Sizes(gate_cutoff=25, loss_cutoff=20, alpha_points=12, cli_points=8, crossval_points=1)


def build(workload, seed, fc, scratch, quick=False):
    """The round of ``workload`` for ``seed``: a list of ``Op``."""
    rng = np.random.default_rng(seed)
    sizes = QUICK if quick else FULL
    builders = {
        "gate-suite": _gate_suite,
        "loss-sweeps": _loss_sweeps,
        "loss-crossval": _loss_crossval,
    }
    return builders[workload](rng, fc, scratch, sizes)


# ---------------------------------------------------------------------------
# Shared helpers


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    output_bytes: int


def cli_call(fc, argv, out_path=None):
    """Run ``fouriercat.cli.main(argv)`` in-process, capturing its output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fc.cli.main(list(argv))
    nbytes = len(out.getvalue().encode())
    if out_path and os.path.exists(out_path):
        nbytes += os.path.getsize(out_path)
    return CliResult(code, out.getvalue(), err.getvalue(), nbytes)


def expect(cond, detail, fault=None):
    if not cond:
        raise Failed(detail, fault)


def expect_close(value, want, tol, what):
    err = float(np.max(np.abs(np.asarray(value) - np.asarray(want))))
    expect(err <= tol, f"{what}: off by {err:.3e} (tol {tol:.1e})")


def _infid_ok(values, want):
    values, want = np.asarray(values, float), np.asarray(want, float)
    return bool(np.all(np.abs(values - want) <= INFID_ABS + INFID_REL * np.abs(want)))


def check_infidelities(values, name, alphas, gammas, phi):
    """Compare with the reference at ``phi``; name D1 when phi was ignored."""
    values = np.asarray(values, float)
    expect(np.all(np.isfinite(values)), "non-finite infidelity")
    expect(np.all((values >= -1e-12) & (values <= 1.0)), "fidelity outside [0, 1]")
    if _infid_ok(values, ref.petz_infidelity(name, alphas, gammas, phi)):
        return
    ignored = phi != ref.PHI_STAR and _infid_ok(
        values, ref.petz_infidelity(name, alphas, gammas, ref.PHI_STAR)
    )
    raise Failed(
        f"{name} infidelity disagrees with the reference at phi={phi:.4g}"
        + ("; it equals the phi=pi/2 value" if ignored else ""),
        "D1" if ignored else None,
    )


def build_groups(fc):
    out = {}
    for name, make in (("d8", fc.pauli_group), ("q8", fc.quaternion_group)):
        group = make()
        out[name] = (group, fc.build_fourier_transform(group, fc.irrep_table(group)))
    return out


def check_groups(groups, ctx):
    for name, (group, fourier) in groups.items():
        mats = np.array([e.matrix for e in group.elements])
        want = ref.group_elements(name)
        expect(len(mats) == len(want), f"{name} has order {len(mats)}")
        dist = np.abs(mats[:, None] - want[None]).max(axis=(2, 3))
        expect(np.all(dist.min(axis=1) < 1e-12), f"{name} element not in the group")
        f = fourier.matrix
        expect_close(f @ f.conj().T, np.eye(len(mats)), 1e-12, f"{name} Fourier unitarity")
    ctx["groups"] = groups


def groups_op(fc):
    return Op("groups d8 q8", lambda ctx: build_groups(fc), check_groups)


# ---------------------------------------------------------------------------
# gate-suite


GATE_DEMO_TARGETS = {
    "beamsplitter swap (logical X)": "X",
    "self-Kerr i^(n2^2) (logical S)": "S",
    "SNAP quadratic phase (logical S)": "S",
    "SNAP quartic phase (logical T)": "T",
    "composite Hadamard": "H",
}
VERIFY_CHECKS = {
    "fourier_unitarity", "block_diagonalization", "basis_orthonormality",
    "group_covariance", "gram_fourier_scalar_block", "self_kerr_s_gate",
    "cz_gate", "composite_hadamard", "lindblad_kernels", "parity_stabilizer",
    "mod4_readout", "lossless_fidelity",
}
_VERIFY_LINE = re.compile(r"^\s*\[(pass|FAIL)\] (\w+): (\S+) \(tol (\S+)\)$")
_COMPLEX = re.compile(r"([-+]?\d+\.\d*(?:e[-+]?\d+)?)\s*([-+])\s*(\d+\.\d*(?:e[-+]?\d+)?)j")
# gates-demo prints each logical matrix rounded to three decimals.
PRINTED_TOL = 2e-3


def _gate_suite(rng, fc, scratch, sizes):
    cutoff = sizes.gate_cutoff
    alpha = ref.ALPHA_STAR
    theta = float(rng.uniform(0.1, 1.5))
    # The closed-form KL overlap holds for real multiplicity states.
    t = float(rng.uniform(0.0, math.pi))
    psi_m = np.array([math.cos(t), math.sin(t)])
    basis = ref.encoded_basis("d8", [alpha, 1j * alpha], cutoff)
    deformed = ref.encoded_basis("d8", ref.H @ np.array([alpha, 1j * alpha]), cutoff)
    cats = ref.cat_product_basis(cutoff)
    ccut = ["--cutoff", str(cutoff)]

    def make_code(ctx):
        group = fc.pauli_group()
        fourier = fc.build_fourier_transform(group, fc.irrep_table(group))
        return fc.code_basis(fc.make_constellation(group, alpha, math.pi / 2, cutoff), fourier)

    def check_code(code, ctx):
        states = np.array([s.amplitudes for s in code.basis_states]).reshape(basis.shape)
        expect_close(states, basis, 1e-12, "encoded basis")
        worst = max(ref.phase_free_infidelity(c, s) for c, s in zip(cats, states))
        expect(worst <= 1e-12, f"basis is not the cat products: {worst:.3e}")
        ctx["code"] = code

    def check_small(tol, what):
        def check(value, ctx):
            expect(0.0 <= value <= tol, f"{what} = {value:.3e} > {tol:.0e}")

        return check

    def check_lindblad(states, is_deformed):
        want, want_parity = ref.lindblad_residuals(states, alpha, is_deformed)

        def check(out, ctx):
            got, parity = out
            expect(set(got) == set(want), f"Lindblad operators {sorted(got)}")
            for key, value in want.items():
                expect(abs(got[key] - value) <= 1e-13 + 1e-6 * value,
                       f"{key} residual {got[key]:.6e}, reference {value:.6e}")
            expect(parity <= 1e-12 and want_parity <= 1e-12, f"parity {parity:.3e}")

        return check

    def check_kl(value, ctx):
        expect(abs(value - ref.kl_overlap(alpha)) <= 1e-10,
               f"KL overlap {value:.12f}, reference {ref.kl_overlap(alpha):.12f}")

    # a1^2 |l, m> = (-1)^(l+m) alpha^2 |l, m>, up to truncation at the cutoff.
    zeno_eig = max(
        float(np.linalg.norm(ref.lower(s, 0, 2) - (-1.0) ** (l + m) * alpha**2 * s))
        for s, (l, m) in zip(basis, ref.LM)
    )

    def zeno(ctx):
        gate, residual, eig = fc.gates.zeno_projected_hamiltonian(ctx["code"], theta=theta)
        return gate.logical_unitary(ctx["code"].alpha), residual, eig

    def check_zeno(out, ctx):
        unitary, residual, eig = out
        expect_close(unitary, ref.zz_rotation(theta), 1e-8, "Zeno exp(i theta ZZ)")
        expect(residual <= 1e-8, f"Zeno projected Hamiltonian residual {residual:.2e}")
        expect(abs(eig - zeno_eig) <= 1e-12 + 1e-6 * zeno_eig,
               f"a1^2 eigen residual {eig:.6e}, reference {zeno_eig:.6e}")

    table, stray = ref.mod4_table(basis)

    def check_mod4(report, ctx):
        lib_table = {k: set(v) for k, v in fc.gates.TABLE_CELLS.items()}
        expect(lib_table == table, f"mod-4 table {lib_table} != {table}")
        worst = max(max(v) for v in report.values())
        expect(set(report) == set(table) and worst <= 1e-12 and stray <= 1e-12,
               f"mod-4 stray mass {worst:.3e}")

    def check_verify(res, ctx):
        expect(res.code == 0, f"verify exit code {res.code}: {res.stdout[-200:]}")
        seen = {}
        for line in res.stdout.splitlines():
            m = _VERIFY_LINE.match(line)
            if m:
                status, name, value, tol = m.groups()
                expect(status == "pass" and float(value) <= float(tol), f"verify {line.strip()}")
                seen[name] = float(value)
        expect(set(seen) == VERIFY_CHECKS, f"verify checks {sorted(seen)}")
        kernels = max(ref.lindblad_residuals(basis, alpha, False)[0].values())
        expect(abs(seen["lindblad_kernels"] - kernels) <= 1e-3 * kernels,
               f"verify lindblad_kernels {seen['lindblad_kernels']:.3e}, reference {kernels:.3e}")
        expect(res.stdout.rstrip().endswith("all checks passed"), "verify did not pass")

    def check_gates_demo(res, ctx):
        expect(res.code == 0, f"gates-demo exit code {res.code}")
        lines = res.stdout.splitlines()
        targets = ref.logical_targets()
        seen = set()
        for i, line in enumerate(lines):
            m = re.match(r"^\[(pass|FAIL)\] (.+?): distance (\S+?),?( leakage (\S+))?$", line)
            if not m:
                continue
            status, name, dist = m.group(1), m.group(2), float(m.group(3))
            expect(status == "pass", f"gates-demo {line}")
            seen.add(name)
            if name in GATE_DEMO_TARGETS:
                vals = _COMPLEX.findall(" ".join(lines[i + 1 : i + 5]))
                expect(len(vals) == 16, f"gates-demo matrix for {name}")
                mat = np.array([float(a) + (1 if s == "+" else -1) * 1j * float(b)
                                for a, s, b in vals]).reshape(4, 4)
                gap = ref.phase_aligned_distance(mat, targets[GATE_DEMO_TARGETS[name]])
                expect(gap <= PRINTED_TOL, f"{name}: printed matrix off by {gap:.2e}")
            else:
                expect(dist <= 1e-8, f"gates-demo {line}")
        expect(len(seen) == 7, f"gates-demo reported {sorted(seen)}")

    def check_exit_2(res, ctx):
        expect(res.code == 2, f"verify --group z4 exit code {res.code}")

    return [
        Op("code_basis d8", make_code, check_code),
        Op("deformation_residual H",
           lambda ctx: fc.gates.deformation_residual(ctx["code"], ref.H),
           check_small(1e-8, "deformation residual")),
        Op("double_deformation_residual H",
           lambda ctx: fc.gates.double_deformation_residual(ctx["code"], ref.H),
           check_small(1e-8, "double deformation residual")),
        Op("lindblad_kernel_check",
           lambda ctx: fc.channels.lindblad_kernel_check(ctx["code"]),
           check_lindblad(basis, False)),
        Op("lindblad_kernel_check deformed",
           lambda ctx: fc.channels.lindblad_kernel_check(ctx["code"], deformed=True),
           check_lindblad(deformed, True)),
        Op("zy_expansion_residual",
           lambda ctx: fc.gates.zy_expansion_residual(ctx["code"]),
           check_small(1e-10, "ZY expansion residual")),
        Op("kl_first_order_check",
           lambda ctx: fc.channels.kl_first_order_check(ctx["code"], psi_m), check_kl),
        Op("zeno_projected_hamiltonian", zeno, check_zeno),
        Op("cz_gate_check", lambda ctx: fc.gates.cz_gate_check(ctx["code"]),
           lambda mat, ctx: expect_close(mat, ref.cz_target(), 1e-8, "CZ")),
        Op("mod4_verification", lambda ctx: fc.gates.mod4_verification(ctx["code"]),
           check_mod4),
        Op("cli verify", lambda ctx: cli_call(fc, ["verify"] + ccut), check_verify),
        Op("cli gates-demo", lambda ctx: cli_call(fc, ["gates-demo"] + ccut), check_gates_demo),
        Op("cli verify --group z4",
           lambda ctx: cli_call(fc, ["verify", "--group", "z4"] + ccut), check_exit_2),
    ]


# ---------------------------------------------------------------------------
# loss-sweeps


def _read_output(path, fmt):
    """Records and summary of a sweep written as CSV or JSON."""
    with open(path, encoding="utf-8") as fh:
        if fmt == "json":
            payload = json.load(fh)
            return payload["records"], payload["summary"], payload["config"]
        rows = list(csv.DictReader(fh))
    return rows, None, None


def _loss_sweeps(rng, fc, scratch, sizes):
    n_lib, n_cli = sizes.alpha_points, sizes.cli_points
    ops = [groups_op(fc)]

    # Library sweeps over dense seeded grids, at phi = pi/2 (the library
    # sweeps take no phi).
    for name in ("d8", "q8"):
        gamma = float(np.exp(rng.uniform(math.log(3e-3), math.log(3e-2))))
        alphas = np.sort(rng.uniform(0.9, 1.6, n_lib))
        ops.append(_library_sweep(fc, name, "alpha", alphas, gamma))
        alpha = float(rng.uniform(1.1, 1.5))
        gammas = np.concatenate([[0.0], np.sort(np.exp(rng.uniform(math.log(1e-3), math.log(1e-1), n_lib - 1)))])
        ops.append(_library_sweep(fc, name, "gamma", gammas, alpha))

    def out(fmt):
        return os.path.join(scratch, f"op{len(ops)}.{fmt}")

    # CLI sweeps at phi = pi/2, seeded grids, CSV and JSON.
    for name, kind, fmt in (("d8", "alpha", "csv"), ("q8", "gamma", "json"),
                            ("q8", "alpha", "json"), ("d8", "gamma", "csv")):
        if kind == "alpha":
            start = round(float(rng.uniform(0.9, 1.0)), 4)
            stop = start + 0.6
            spec = f"{start}:{stop}:{0.6 / (n_cli - 1)!r}"
            fixed = ["--gamma", repr(float(np.exp(rng.uniform(math.log(3e-3), math.log(3e-2)))))]
        else:
            spec = f"{rng.uniform(1e-3, 2e-3):.6g}:{rng.uniform(0.05, 0.1):.6g}:{n_cli}"
            fixed = ["--alpha", repr(float(rng.uniform(1.1, 1.5)))]
        ops.append(_cli_sweep(fc, out(fmt), name, kind, fmt, spec, fixed, ref.PHI_STAR))

    # Fixed inputs away from phi = pi/2: they fail under D1 while it stands.
    ops.append(_cli_sweep(fc, out("csv"), "d8", "alpha", "csv", "1.2:1.3:0.05",
                          ["--gamma", "0.01"], 1.0))
    ops.append(_cli_sweep(fc, out("json"), "q8", "gamma", "json", "1e-3:1e-1:5",
                          ["--alpha", "1.25"], 1.0))
    # Fixed grid with no point in the slope window [1e-3, 1e-2]: a slope
    # of None or a configuration error (exit code 2) would both be right.
    ops.append(_cli_sweep(fc, out("csv"), "d8", "gamma", "csv", "2e-2:1e-1:5", [],
                          ref.PHI_STAR, exit_2_ok=True))
    return ops


def _library_sweep(fc, name, kind, grid, fixed):
    """sweep_alpha (fixed = gamma) or sweep_gamma (fixed = alpha)."""

    def call(ctx):
        group, fourier = ctx["groups"][name]
        if kind == "alpha":
            return fc.channels.sweep_alpha(group, fourier, fixed, grid)
        return fc.channels.sweep_gamma(group, fourier, fixed, grid)

    def check(records, ctx):
        values = np.array([r.value for r in records])
        expect(len(records) == len(grid) and np.array_equal(values, grid), "sweep grid changed")
        expect(all(not r.flags for r in records), "flagged sweep point")
        infid = np.array([r.infidelity for r in records])
        alphas, gammas = (grid, fixed) if kind == "alpha" else (fixed, grid)
        check_infidelities(infid, name, alphas, gammas, ref.PHI_STAR)
        cond = np.array([r.condition_number for r in records])
        want = ref.gram_condition(name, np.broadcast_to(alphas, grid.shape))
        expect(np.all(np.abs(cond - want) <= 1e-6 * want), "Gram condition number")
        if kind == "gamma":
            expect(np.all(np.diff(infid) >= -1e-15), "infidelity decreases with gamma")
            expect(abs(infid[0]) <= 1e-12, "F != 1 at gamma = 0")

    return Op(f"sweep_{kind} {name}", call, check)


def _cli_sweep(fc, path, name, kind, fmt, spec, fixed, phi, exit_2_ok=False):
    """``fouriercat sweep-<kind>`` writing ``path``; ``fixed`` sets the other axis."""
    extra = fixed + (["--phi", repr(phi)] if phi != ref.PHI_STAR else [])
    argv = [f"sweep-{kind}", "--group", name, "--grid", spec, "--format", fmt, "--out", path] + extra
    fixed_value = float(fixed[1]) if fixed else ref.ALPHA_STAR

    def check(res, ctx):
        if res.code == 2 and exit_2_ok:
            return
        expect(res.code == 0, f"exit code {res.code}: {res.stderr.strip()[-200:]}")
        records, summary, config = _read_output(path, fmt)
        os.remove(path)
        grid = np.array([float(r[kind]) for r in records])
        infid = np.array([float(r["infidelity"]) for r in records])
        expect(len(grid) >= 1, "no records")
        alphas, gammas = (grid, fixed_value) if kind == "alpha" else (fixed_value, grid)
        check_infidelities(infid, name, alphas, gammas, phi)
        if kind == "alpha":
            best = int(np.argmin(infid))
            expect(f"argmin alpha = {float(grid[best])!r}" in res.stdout, "argmin report")
            expect(summary is None or summary["argmin_alpha"] == grid[best], "argmin summary")
            want = ref.petz_infidelity(name, grid, fixed_value, phi)
            expect(_infid_ok(infid[best], want.min()), "argmin is not the minimum")
        if summary is not None and kind == "gamma":
            want = ref.loglog_slope(gammas, ref.petz_infidelity(name, alphas, gammas, phi))
            got = summary["loglog_slope"]
            expect(want is None if got is None else abs(got - want) <= 1e-6,
                   f"slope {got}, reference {want}")
            expect(summary["monotone"] is True, "sweep-gamma not monotone")
        if config is not None:
            expect(config["group"] == name and abs(config["phi"] - phi) <= 1e-15, "config echo")

    label = " ".join([f"cli sweep-{kind} {name} {fmt} --grid {spec}"] + extra)
    return Op(label, lambda ctx: cli_call(fc, argv, path), check)


# ---------------------------------------------------------------------------
# loss-crossval


def _loss_crossval(rng, fc, scratch, sizes):
    cutoff = sizes.loss_cutoff
    ops = [groups_op(fc)]
    points = []
    for name in ("d8", "q8"):
        for _ in range(sizes.crossval_points):
            alpha = float(rng.uniform(1.0, 1.6))
            gamma = float(np.exp(rng.uniform(math.log(1e-3), math.log(5e-2))))
            points.append((name, alpha, gamma, ref.PHI_STAR))
    # Fixed input away from phi = pi/2: the analytic half fails under D1.
    points.append(("d8", 1.25, 0.01, 1.0))
    for name, alpha, gamma, phi in points:
        ops.append(_fock_point(fc, name, alpha, gamma, phi, cutoff))
        ops.append(_analytic_point(fc, name, alpha, gamma, phi))
    return ops


def _fock_point(fc, name, alpha, gamma, phi, cutoff):
    def call(ctx):
        group, fourier = ctx["groups"][name]
        code = fc.code_basis(fc.make_constellation(group, alpha, phi, cutoff), fourier)
        qec = fc.qec_matrix_fock(code, gamma)
        return qec, fc.petz_entanglement_fidelity(qec)

    def check(out, ctx):
        qec, fid = out
        check_infidelities(1.0 - fid, name, alpha, gamma, phi)
        own = ref.kraus_completeness(qec.extras["kraus_images"])
        expect(own <= 1e-8 and qec.extras["completeness_residual"] <= 1e-8,
               f"Kraus completeness {own:.2e}")

    return Op(f"qec_matrix_fock {name} a={alpha:.4f} g={gamma:.3e} phi={phi:.4f}", call, check)


def _analytic_point(fc, name, alpha, gamma, phi):
    # qec_matrix_analytic takes no phi while D1 stands; pass it once it does.
    takes_phi = "phi" in inspect.signature(fc.qec_matrix_analytic).parameters
    kwargs = {"phi": phi} if takes_phi else {}

    def call(ctx):
        group, fourier = ctx["groups"][name]
        qec = fc.qec_matrix_analytic(group, fourier, alpha, gamma, **kwargs)
        return fc.petz_entanglement_fidelity(qec)

    def check(fid, ctx):
        check_infidelities(1.0 - fid, name, alpha, gamma, phi)

    return Op(f"qec_matrix_analytic {name} a={alpha:.4f} g={gamma:.3e} phi={phi:.4f}", call, check)
