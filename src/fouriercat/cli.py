"""Command-line front end: verification suites, sweeps and gate reports.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .channels import (
    argmin_record,
    lindblad_kernel_check,
    loglog_slope,
    petz_entanglement_fidelity,
    qec_matrix_analytic,
    sweep_alpha,
    sweep_gamma,
)
from .encoding import (
    DegenerateConstellationError,
    code_basis,
    gram_fourier_spectrum,
    gram_matrix,
    make_constellation,
)
from .fock import (
    SingularGramError,
    StarvedTailError,
    overlap_matrix,
    passive_gaussian_unitary,
)
from .gates import (
    IDENTITY2,
    S2,
    T2,
    X2,
    composite_hadamard_check,
    cz_gate_check,
    cz_target,
    group_covariance,
    logical_action,
    mod4_verification,
    phase_aligned_distance,
    s_gate_check,
    snap_gate_check,
    zeno_projected_hamiltonian,
)
from .groups import (
    HADAMARD,
    build_fourier_transform,
    irrep_table,
    pauli_group,
    quaternion_group,
    verify_block_diagonalization,
)

ALPHA_STAR = math.sqrt(math.pi / 2)
MAX_GRID_POINTS = 10**6

# logical targets on the basis (l, m), acting on L only
_X_TARGET = np.kron(X2, IDENTITY2)
_S_TARGET = np.kron(S2, IDENTITY2)
_T_TARGET = np.kron(T2, IDENTITY2)
_H_TARGET = np.kron(HADAMARD, IDENTITY2)
_CZ_TARGET = cz_target()

DEFAULTS = {
    "group": "d8",
    "alpha": ALPHA_STAR,
    "phi": math.pi / 2,
    "gamma": 0.01,
    "cutoff": 25,
    "format": "csv",
    "out": None,
    "grid": None,
}


class ConfigError(ValueError):
    pass


def resolve_group(name):
    """The code's group; only d8 and q8 have the 2-dimensional irrep it needs."""
    name = str(name).lower()
    if name == "d8":
        return pauli_group()
    if name == "q8":
        return quaternion_group()
    raise ConfigError(f"unknown group {name!r}: expected d8 or q8")


def load_config(args):
    """Merge defaults, an optional JSON config file and CLI flags.

    A config file may set only the options the command declares (its
    parsed namespace holds one attribute per declared option); any other
    key is a configuration error.
    """
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON config: {exc}") from exc
        unknown = set(data) - set(cfg)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        unread = set(data) - set(vars(args))
        if unread:
            raise ConfigError(f"config keys {args.command} does not read: {sorted(unread)}")
        cfg.update(data)
    for key in ("group", "alpha", "phi", "gamma", "cutoff", "format", "out", "grid"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    for key in ("alpha", "phi", "gamma", "cutoff"):
        try:
            val = float(cfg[key])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{key} must be a number, got {cfg[key]!r}") from exc
        if not math.isfinite(val):
            raise ConfigError(f"{key} must be finite")
        cfg[key] = val
    if not cfg["cutoff"].is_integer():
        raise ConfigError("cutoff must be an integer")
    cfg["cutoff"] = int(cfg["cutoff"])
    if cfg["alpha"] <= 0:
        raise ConfigError("alpha must be positive")
    if not 0.0 <= cfg["gamma"] < 1.0:
        raise ConfigError("gamma must lie in [0, 1)")
    if cfg["cutoff"] < 1:
        raise ConfigError("cutoff must be at least 1")
    if cfg["format"] not in ("csv", "json"):
        raise ConfigError("format must be csv or json")
    return cfg


def parse_linear_grid(spec):
    """start:stop:step with both endpoints included (up to rounding)."""
    try:
        start, stop, step = (float(p) for p in spec.split(":"))
    except ValueError as exc:
        raise ConfigError(f"bad grid spec {spec!r}") from exc
    if not all(map(math.isfinite, (start, stop, step))):
        raise ConfigError("grid values must be finite")
    if step <= 0 or stop < start:
        raise ConfigError("grid requires stop >= start and step > 0")
    steps = (stop - start) / step  # inf when step is tiny against the span
    if not steps < MAX_GRID_POINTS:
        raise ConfigError(f"grid has over {MAX_GRID_POINTS} points")
    return np.linspace(start, stop, int(round(steps)) + 1)


def parse_log_grid(spec):
    """start:stop:count, log-spaced, both endpoints included."""
    try:
        parts = spec.split(":")
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"bad grid spec {spec!r}") from exc
    if not all(map(math.isfinite, (start, stop))):
        raise ConfigError("grid values must be finite")
    if start <= 0 or stop < start or count < 1:
        raise ConfigError("log grid requires 0 < start <= stop and count >= 1")
    if count > MAX_GRID_POINTS:
        raise ConfigError(f"grid has over {MAX_GRID_POINTS} points")
    return np.logspace(math.log10(start), math.log10(stop), count)


def format_float(x):
    """Shortest decimal that round-trips to the same float."""
    return repr(float(x))


def write_records(path, fmt, cfg, columns, rows, summary):
    try:
        if fmt == "csv":
            lines = [",".join(columns)]
            for row in rows:
                cells = []
                for value in row:
                    if isinstance(value, float):
                        cells.append(format_float(value))
                    elif isinstance(value, (list, tuple)):
                        cells.append(";".join(str(v) for v in value))
                    else:
                        cells.append(str(value))
                lines.append(",".join(cells))
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write("\n".join(lines) + "\n")
        else:
            records = [dict(zip(columns, row)) for row in rows]
            payload = {
                "config": {k: v for k, v in cfg.items() if k != "out"},
                "records": records,
                "summary": summary,
            }
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                json.dump(payload, fh, indent=2)
                fh.write("\n")
    except OSError as exc:
        raise IOError(f"cannot write {path}: {exc}") from exc


class CheckList:
    def __init__(self):
        self.failures = []

    def record(self, name, value, tol, ok=None):
        passed = (value <= tol) if ok is None else ok
        status = "pass" if passed else "FAIL"
        print(f"  [{status}] {name}: {value:.3e} (tol {tol:.1e})")
        if not passed:
            self.failures.append(name)

    def error(self, name, message):
        print(f"  [FAIL] {name}: {message}")
        self.failures.append(name)


def cmd_verify(cfg):
    group = resolve_group(cfg["group"])
    checks = CheckList()

    irreps = irrep_table(group)
    fourier = build_fourier_transform(group, irreps)
    f = fourier.matrix
    checks.record(
        "fourier_unitarity",
        float(np.linalg.norm(f @ f.conj().T - np.eye(group.order))),
        1e-12,
    )
    checks.record(
        "block_diagonalization",
        verify_block_diagonalization(fourier, group, irreps),
        1e-12,
    )

    code = _build_code(cfg, group, fourier, checks)
    if code is None:
        return _finish_verify(checks)
    basis = code.amplitudes
    checks.record(
        "basis_orthonormality",
        float(np.linalg.norm(overlap_matrix(basis, basis) - np.eye(4))),
        1e-10,
    )

    # the physical action of the group must not leak outside the code subspace
    checks.record("group_covariance", group_covariance(code), 1e-9)

    at_star = abs(cfg["alpha"] - ALPHA_STAR) < 1e-9 and abs(
        cfg["phi"] - math.pi / 2
    ) < 1e-9
    if at_star:
        _, _, _, scalar_dev = gram_fourier_spectrum(
            gram_matrix(code.constellation), fourier
        )
        checks.record("gram_fourier_scalar_block", scalar_dev, 1e-9)

    sa = s_gate_check(code)
    checks.record(
        "self_kerr_s_gate",
        phase_aligned_distance(sa.matrix, _S_TARGET)[0],
        1e-8,
    )
    checks.record(
        "cz_gate",
        float(np.linalg.norm(cz_gate_check(code) - _CZ_TARGET)),
        1e-8,
    )
    ha = composite_hadamard_check(code)
    checks.record(
        "composite_hadamard",
        phase_aligned_distance(ha.matrix, _H_TARGET)[0],
        1e-7,
    )
    if at_star:
        kernels, parity = lindblad_kernel_check(code)
        checks.record("lindblad_kernels", max(kernels.values()), 1e-8)
        checks.record("parity_stabilizer", parity, 1e-12)
        report = mod4_verification(code)
        worst = max(max(v) for v in report.values())
        checks.record("mod4_readout", worst, 1e-8)
        qec = qec_matrix_analytic(group, fourier, cfg["alpha"], 0.0)
        checks.record(
            "lossless_fidelity",
            abs(1.0 - petz_entanglement_fidelity(qec)),
            1e-12,
        )

    return _finish_verify(checks)


def _build_code(cfg, group, fourier, checks):
    """The code of ``cfg``, or None after recording a starved cutoff on ``checks``.

    A degenerate constellation or a numerically singular Gram matrix is a
    configuration error; a cutoff too small for the constellation's
    coherent states is a verification failure, ``constellation_tail_mass``.
    Any other ``ValueError`` propagates.
    """
    try:
        constellation = make_constellation(group, cfg["alpha"], cfg["phi"], cfg["cutoff"])
        return code_basis(constellation, fourier)
    except (DegenerateConstellationError, SingularGramError) as exc:
        raise ConfigError(str(exc)) from exc
    except StarvedTailError as exc:
        checks.error("constellation_tail_mass", str(exc))
        return None


def _finish_verify(checks):
    if checks.failures:
        print(f"FAILED {json.dumps(checks.failures)}")
        return 1
    print("all checks passed")
    return 0


def cmd_sweep_alpha(cfg):
    group = resolve_group(cfg["group"])
    fourier = build_fourier_transform(group, irrep_table(group))
    spec = cfg["grid"] if cfg["grid"] is not None else "0.9:1.6:0.01"
    grid = parse_linear_grid(spec)
    if grid[0] <= 0:
        raise ConfigError("alpha grid must start above 0")
    records = sweep_alpha(group, fourier, cfg["gamma"], grid, phi=cfg["phi"])
    rows = [
        (r.value, r.infidelity, r.condition_number, list(r.flags)) for r in records
    ]
    best = argmin_record(records)
    summary = {"argmin_alpha": best.value, "min_infidelity": best.infidelity}
    out = cfg["out"] or f"sweep_alpha.{cfg['format']}"
    write_records(
        out, cfg["format"], cfg,
        ["alpha", "infidelity", "condition_number", "flags"], rows, summary,
    )
    print(
        f"argmin alpha = {format_float(best.value)} "
        f"(infidelity {format_float(best.infidelity)}); wrote {out}"
    )
    return 0


def cmd_sweep_gamma(cfg):
    group = resolve_group(cfg["group"])
    fourier = build_fourier_transform(group, irrep_table(group))
    spec = cfg["grid"] if cfg["grid"] is not None else "1e-3:1e-1:20"
    grid = parse_log_grid(spec)
    if grid[-1] >= 1.0:
        raise ConfigError("gamma grid must end below 1")
    records = sweep_gamma(group, fourier, cfg["alpha"], grid, phi=cfg["phi"])
    rows = [(r.value, r.infidelity) for r in records]
    try:
        slope = loglog_slope(records, 1e-3, 1e-2)
    except ValueError:  # fewer than two usable points in the window
        slope = None
    vals = [r.infidelity for r in records if np.isfinite(r.infidelity)]
    monotone = all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
    summary = {"loglog_slope": slope, "monotone": monotone}
    out = cfg["out"] or f"sweep_gamma.{cfg['format']}"
    write_records(out, cfg["format"], cfg, ["gamma", "infidelity"], rows, summary)
    if slope is None:
        print(f"no log-log slope: fewer than two points in [1e-3, 1e-2]; wrote {out}")
    else:
        print(f"log-log slope over [1e-3, 1e-2] = {format_float(slope)}; wrote {out}")
    return 0


def _format_parts(values, signed):
    """Fixed-point cells of one real array, aligned as numpy aligns them.

    Each value is rounded to 3 decimals with trailing zeros dropped ("1.",
    "0.5", "-0."); integer parts are right-aligned and fraction parts padded
    to the widest of the array.  Returns (integer part, fraction, padding).
    """
    cells = [(f"{x:+.3f}" if signed else f"{x:.3f}").rstrip("0").split(".") for x in values]
    left = max(len(whole) for whole, _ in cells)
    right = max(len(frac) for _, frac in cells)
    return [(whole.rjust(left), frac, " " * (right - len(frac))) for whole, frac in cells]


def _format_matrix(matrix):
    """``str(matrix)`` as numpy prints it under ``printoptions(precision=3,
    suppress=True, linewidth=120)``.

    Exact for a complex matrix of up to 4 columns whose entries are below
    1e8 in modulus, where numpy would switch to exponents.  The real part is
    signed only when negative, the imaginary part always, with its padding
    after the ``j``; cells are joined by one space.
    """
    rows, cols = matrix.shape
    real = _format_parts(matrix.real.ravel().tolist(), signed=False)
    imag = _format_parts(matrix.imag.ravel().tolist(), signed=True)
    cells = [
        f"{rw}.{rf}{rp}{iw}.{if_}j{ip}"
        for (rw, rf, rp), (iw, if_, ip) in zip(real, imag)
    ]
    lines = [" ".join(cells[r * cols:(r + 1) * cols]) for r in range(rows)]
    return "[[" + "]\n [".join(lines) + "]]"


def cmd_gates_demo(cfg):
    group = resolve_group(cfg["group"])
    fourier = build_fourier_transform(group, irrep_table(group))
    checks = CheckList()
    code = _build_code(cfg, group, fourier, checks)
    if code is None:
        return _finish_verify(checks)
    failures = []

    def report(name, action, target, tol):
        dist, _ = phase_aligned_distance(action.matrix, target)
        ok = dist <= tol and action.leakage <= max(tol, 1e-7)
        status = "pass" if ok else "FAIL"
        print(f"[{status}] {name}: distance {dist:.3e}, leakage {action.leakage:.3e}")
        print(_format_matrix(np.round(action.matrix, 6)))
        if not ok:
            failures.append(name)

    swap = passive_gaussian_unitary(X2, code.config)
    report("beamsplitter swap (logical X)", logical_action(swap, code), _X_TARGET, 1e-9)
    report("self-Kerr i^(n2^2) (logical S)", s_gate_check(code), _S_TARGET, 1e-8)
    snap_s, snap_t = snap_gate_check(code)
    report("SNAP quadratic phase (logical S)", snap_s, _S_TARGET, 1e-8)
    report("SNAP quartic phase (logical T)", snap_t, _T_TARGET, 1e-8)
    report("composite Hadamard", composite_hadamard_check(code), _H_TARGET, 1e-7)

    cz = cz_gate_check(code)
    cz_dist = float(np.linalg.norm(cz - _CZ_TARGET))
    ok = cz_dist <= 1e-8
    print(f"[{'pass' if ok else 'FAIL'}] two-copy CZ: distance {cz_dist:.3e}")
    if not ok:
        failures.append("cz")

    gate, _, _ = zeno_projected_hamiltonian(code, theta=math.pi / 4)
    diag = np.diag(gate.logical_unitary(code.alpha))
    target = np.exp(1j * math.pi / 4 * np.array([1.0, -1.0, -1.0, 1.0]))
    zeno_dist = float(np.linalg.norm(diag - target))
    ok = zeno_dist <= 1e-8
    print(f"[{'pass' if ok else 'FAIL'}] Zeno ZZ rotation (theta=pi/4): "
          f"distance {zeno_dist:.3e}")
    if not ok:
        failures.append("zeno")

    if failures:
        print(f"FAILED {json.dumps(failures)}")
        return 1
    return 0


@functools.cache
def build_parser():
    """The argument parser, built once per process; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="fouriercat",
        description="Two-mode Fourier cat code verification and sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Each subcommand takes only the options its handler reads; others exit 2.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--group", help="d8 or q8")
    shared.add_argument("--phi", type=float)
    shared.add_argument("--config", help="JSON config file; flags override it")
    code = argparse.ArgumentParser(add_help=False, parents=[shared])
    code.add_argument("--alpha", type=float)
    code.add_argument("--cutoff", type=int)
    sweep = argparse.ArgumentParser(add_help=False, parents=[shared])
    sweep.add_argument("--format", choices=("csv", "json"))
    sweep.add_argument("--out")
    sub.add_parser("verify", parents=[code])
    alpha = sub.add_parser("sweep-alpha", parents=[sweep])
    alpha.add_argument("--gamma", type=float)
    alpha.add_argument("--grid", help="start:stop:step, both ends included")
    gamma = sub.add_parser("sweep-gamma", parents=[sweep])
    gamma.add_argument("--alpha", type=float)
    gamma.add_argument("--grid", help="start:stop:count, log-spaced, both ends included")
    sub.add_parser("gates-demo", parents=[code])
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    handlers = {
        "verify": cmd_verify,
        "sweep-alpha": cmd_sweep_alpha,
        "sweep-gamma": cmd_sweep_gamma,
        "gates-demo": cmd_gates_demo,
    }
    try:
        cfg = load_config(args)
        return handlers[args.command](cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except IOError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
