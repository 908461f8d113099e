"""Command-line front end: verification suites, sweeps and gate reports.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 a sweep's output file cannot be written, 4 standard output was closed
before the report was written (a broken pipe).  A sweep with no finite
point exits 0 after writing its records; JSON holds null for NaN and inf.
"""

from __future__ import annotations

import argparse
import json
import math
import os
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
    DEFAULT_CUTOFF,
    SingularGramError,
    StarvedTailError,
    overlap_matrix,
)
from .gates import (
    IDENTITY2,
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
    AMPLITUDE_RULE,
    HADAMARD,
    PAULI_X,
    PHASE_S,
    PHASE_T,
    _positive_amplitude,
    build_fourier_transform,
    irrep_table,
    memoized,
    pauli_group,
    quaternion_group,
    verify_block_diagonalization,
)

ALPHA_STAR = math.sqrt(math.pi / 2)
MAX_GRID_POINTS = 10**6
# A larger cutoff is refused before anything is built.  Every array a command
# allocates is O(d^2) at d = cutoff + 1, and at the cap a fresh `verify`
# process takes 0.19-0.29 s and 57 MB ru_maxrss (6 medians of 5, one BLAS thread,
# 2-vCPU machine; 0.14 s and 39 MB at cutoff 127).
MAX_CUTOFF = 255

# logical targets on the basis (l, m), acting on L only
_X_TARGET = np.kron(PAULI_X, IDENTITY2)
_S_TARGET = np.kron(PHASE_S, IDENTITY2)
_T_TARGET = np.kron(PHASE_T, IDENTITY2)
_H_TARGET = np.kron(HADAMARD, IDENTITY2)
_CZ_TARGET = cz_target()
_ZZ_TARGET = np.diag(np.exp(1j * math.pi / 4 * np.array([1.0, -1.0, -1.0, 1.0])))  # exp(i pi/4 ZZ)

DEFAULTS = {
    "group": "d8",
    "alpha": ALPHA_STAR,
    "phi": math.pi / 2,
    "gamma": 0.01,
    "cutoff": DEFAULT_CUTOFF,
    "format": "csv",
    "out": None,
    "grid": None,
}


class ConfigError(ValueError):
    pass


class OutputError(OSError):
    """A sweep's records could not be written to their file."""


def resolve_group(name):
    """The code's group; only d8 and q8 have the 2-dimensional irrep it needs."""
    name = str(name).lower()
    if name == "d8":
        return pauli_group()
    if name == "q8":
        return quaternion_group()
    raise ConfigError(f"unknown group {name!r}: expected d8 or q8")


def _group_and_fourier(cfg):
    """The group ``cfg`` names and its Fourier transform."""
    group = resolve_group(cfg["group"])
    return group, build_fourier_transform(group, irrep_table(group))


def load_config(args):
    """Merge defaults, an optional JSON config file and CLI flags.

    A config file holds one JSON object, which may set only the options
    the command declares (its parsed namespace holds one attribute per
    declared option); any other key, or a value of the wrong type, is a
    configuration error.  The returned config holds the declared options only.
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
        if not isinstance(data, dict):
            raise ConfigError(f"config file must hold a JSON object, not {data!r}")
        unknown = set(data) - set(cfg)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        unread = set(data) - set(vars(args))
        if unread:
            raise ConfigError(f"config keys {args.command} does not read: {sorted(unread)}")
        cfg.update(data)
    for key in DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    for key in ("out", "grid"):
        if not isinstance(cfg[key], (str, type(None))):
            raise ConfigError(f"{key} must be a string, got {cfg[key]!r}")
    for key in ("alpha", "phi", "gamma", "cutoff"):
        val = cfg[key]
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise ConfigError(f"{key} must be a number, got {val!r}")
        try:
            val = float(val)
        except OverflowError:  # an integer beyond float range, refused below
            val = math.inf
        if key == "alpha" and not _positive_amplitude(val):
            raise ConfigError(AMPLITUDE_RULE)
        if not math.isfinite(val):
            raise ConfigError(f"{key} must be finite")
        cfg[key] = val
    if not cfg["cutoff"].is_integer():
        raise ConfigError("cutoff must be an integer")
    cfg["cutoff"] = int(cfg["cutoff"])
    if not 0.0 <= cfg["gamma"] < 1.0:
        raise ConfigError("gamma must lie in [0, 1)")
    if not 1 <= cfg["cutoff"] <= MAX_CUTOFF:
        raise ConfigError(f"cutoff must lie in [1, {MAX_CUTOFF}]")
    if cfg["format"] not in ("csv", "json"):
        raise ConfigError("format must be csv or json")
    return {key: val for key, val in cfg.items() if key in vars(args)}


def parse_linear_grid(spec):
    """start:stop:step with both endpoints included; the step must divide the span."""
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
    if abs(steps - round(steps)) > 1e-9 * steps:  # rounding, not a remainder
        raise ConfigError(f"grid step {step!r} does not divide stop - start")
    return np.linspace(start, stop, int(round(steps)) + 1)


def parse_log_grid(spec):
    """start:stop:count, log-spaced, both endpoints included, no point twice (so count 1 iff start == stop)."""
    try:
        start, stop, count = spec.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError as exc:
        raise ConfigError(f"bad grid spec {spec!r}") from exc
    if not all(map(math.isfinite, (start, stop))):
        raise ConfigError("grid values must be finite")
    if start <= 0 or stop < start or count < 1:
        raise ConfigError("log grid requires 0 < start <= stop and count >= 1")
    if count > MAX_GRID_POINTS:
        raise ConfigError(f"grid has over {MAX_GRID_POINTS} points")
    grid = np.logspace(math.log10(start), math.log10(stop), count)
    if (count == 1 and stop > start) or np.any(np.diff(grid) <= 0):
        raise ConfigError("log grid points must be distinct, and one point needs start == stop")
    return grid


def format_float(x):
    """Shortest decimal that round-trips to the same float."""
    return repr(float(x))


def _json_value(value):
    """``value``, or None for a NaN or infinite float."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


def write_records(cfg, name, records, summary):
    """Write one (name, infidelity, condition_number, flags) row per sweep record; return the path.

    Both sweeps write this layout, ``name`` being the swept parameter, to
    ``cfg["out"]`` or to sweep_<name>.<format>.
    """
    path, fmt = cfg["out"] or f"sweep_{name}.{cfg['format']}", cfg["format"]
    columns = [name, "infidelity", "condition_number", "flags"]
    rows = [(r.value, r.infidelity, r.condition_number, list(r.flags)) for r in records]
    try:
        if fmt == "csv":
            lines = [",".join(columns)]
            for row in rows:  # floats, and the flags as one list
                cells = [";".join(v) if isinstance(v, list) else format_float(v) for v in row]
                lines.append(",".join(cells))
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write("\n".join(lines) + "\n")
        else:
            payload = {
                "config": {k: v for k, v in cfg.items() if k != "out"},
                "records": [{c: _json_value(v) for c, v in zip(columns, row)} for row in rows],
                "summary": {k: _json_value(v) for k, v in summary.items()},
            }
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                json.dump(payload, fh, indent=2, allow_nan=False)
                fh.write("\n")
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc
    return path


class CheckList:
    """The pass/fail lines of one report, and the keys of its failures."""

    def __init__(self, indent, success=None):
        self.indent = indent
        self.success = success
        self.failures = []

    def check(self, key, passed, line):
        """Print ``line`` as passed or failed; a failure is recorded as ``key``."""
        print(f"{self.indent}[{'pass' if passed else 'FAIL'}] {line}")
        if not passed:
            self.failures.append(key)

    def record(self, name, value, tol):
        self.check(name, value <= tol, f"{name}: {value:.3e} (tol {tol:.1e})")

    def starved(self, error):
        """Fail ``constellation_tail_mass`` with a starved cutoff's error; return the exit code."""
        self.check("constellation_tail_mass", False, f"constellation_tail_mass: {error}")
        return self.finish()

    def finish(self):
        """Print the failure keys, or the success line if any; return the exit code."""
        if self.failures:
            print(f"FAILED {json.dumps(self.failures)}")
            return 1
        if self.success:
            print(self.success)
        return 0


def _cz_distance(code):
    """Distance of the cross-Kerr's two-copy logical matrix to CZ."""
    return float(np.linalg.norm(cz_gate_check(code) - _CZ_TARGET))


def cmd_verify(cfg):
    group, fourier = _group_and_fourier(cfg)
    code = _build_code(cfg, group, fourier)  # a configuration error prints no report
    checks = CheckList("  ", success="all checks passed")

    f = fourier.matrix
    checks.record(
        "fourier_unitarity",
        float(np.linalg.norm(f @ f.conj().T - np.eye(group.order))),
        1e-12,
    )
    checks.record(
        "block_diagonalization",
        verify_block_diagonalization(fourier, group),
        1e-12,
    )

    if isinstance(code, StarvedTailError):
        return checks.starved(code)
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
        _, scalar_dev = gram_fourier_spectrum(
            gram_matrix(code.constellation), fourier
        )
        checks.record("gram_fourier_scalar_block", scalar_dev, 1e-9)

    checks.record(
        "self_kerr_s_gate", phase_aligned_distance(s_gate_check(code).matrix, _S_TARGET), 1e-8
    )
    checks.record("cz_gate", _cz_distance(code), 1e-8)
    checks.record(
        "composite_hadamard",
        phase_aligned_distance(composite_hadamard_check(code).matrix, _H_TARGET),
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

    return checks.finish()


def _build_code(cfg, group, fourier):
    """The code of ``cfg``, or the ``StarvedTailError`` of a cutoff too small for it.

    A degenerate constellation or a numerically singular Gram matrix is a
    configuration error; a cutoff too small for the constellation's
    coherent states is a verification failure, which the caller reports
    (see ``CheckList.starved``).  Any other ``ValueError`` propagates.
    """
    try:
        constellation = make_constellation(group, cfg["alpha"], cfg["phi"], cfg["cutoff"])
        return code_basis(constellation, fourier)
    except (DegenerateConstellationError, SingularGramError) as exc:
        raise ConfigError(str(exc)) from exc
    except StarvedTailError as exc:
        return exc


def cmd_sweep_alpha(cfg):
    group, fourier = _group_and_fourier(cfg)
    spec = cfg["grid"] if cfg["grid"] is not None else "0.9:1.6:0.01"
    grid = parse_linear_grid(spec)
    if not (_positive_amplitude(grid[0]) and _positive_amplitude(grid[-1])):  # grid[0] <= grid[-1]
        raise ConfigError(AMPLITUDE_RULE)
    records = sweep_alpha(group, fourier, cfg["gamma"], grid, phi=cfg["phi"])
    try:
        best = argmin_record(records)
    except ValueError:  # every point is flagged ill-conditioned
        summary = {"argmin_alpha": None, "min_infidelity": None}
        report = "no argmin: every point is ill-conditioned"
    else:
        summary = {"argmin_alpha": best.value, "min_infidelity": best.infidelity}
        report = f"argmin alpha = {format_float(best.value)} "
        report += f"(infidelity {format_float(best.infidelity)})"
    out = write_records(cfg, "alpha", records, summary)
    print(f"{report}; wrote {out}")
    return 0


def cmd_sweep_gamma(cfg):
    group, fourier = _group_and_fourier(cfg)
    spec = cfg["grid"] if cfg["grid"] is not None else "1e-3:1e-1:20"
    grid = parse_log_grid(spec)
    if grid[-1] >= 1.0:
        raise ConfigError("gamma grid must end below 1")
    records = sweep_gamma(group, fourier, cfg["alpha"], grid, phi=cfg["phi"])
    try:
        slope = loglog_slope(records, 1e-3, 1e-2)
    except ValueError:  # fewer than two finite, positive infidelities in the window
        slope = None
    vals = [r.infidelity for r in records if np.isfinite(r.infidelity)]
    monotone = None  # fewer than two finite points have no trend
    if len(vals) > 1:
        monotone = all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
    summary = {"loglog_slope": slope, "monotone": monotone}
    out = write_records(cfg, "gamma", records, summary)
    if slope is None:
        print(f"no log-log slope: fewer than two finite, positive infidelities in [1e-3, 1e-2];"
              f" wrote {out}")
    else:
        print(f"log-log slope over [1e-3, 1e-2] = {format_float(slope)}; wrote {out}")
    return 0


def cmd_gates_demo(cfg):
    group, fourier = _group_and_fourier(cfg)
    code = _build_code(cfg, group, fourier)
    checks = CheckList("")
    if isinstance(code, StarvedTailError):
        return checks.starved(code)

    # pi(X) exchanges the two modes of every coherent point
    swap = logical_action(code, code.coefficients, code.constellation.points @ PAULI_X.T)
    snap_s, snap_t = snap_gate_check(code)
    for name, action, target, tol in (
        ("beamsplitter swap (logical X)", swap, _X_TARGET, 1e-9),
        ("self-Kerr i^(n2^2) (logical S)", s_gate_check(code), _S_TARGET, 1e-8),
        ("SNAP quadratic phase (logical S)", snap_s, _S_TARGET, 1e-8),
        ("SNAP quartic phase (logical T)", snap_t, _T_TARGET, 1e-8),
        ("composite Hadamard", composite_hadamard_check(code), _H_TARGET, 1e-7),
    ):
        dist = phase_aligned_distance(action.matrix, target)
        passed = dist <= tol and action.leakage <= max(tol, 1e-7)
        checks.check(name, passed, f"{name}: distance {dist:.3e}, leakage {action.leakage:.3e}")
        with np.printoptions(precision=3, suppress=True, linewidth=120):
            print(np.round(action.matrix, 6))

    cz_dist = _cz_distance(code)
    checks.check("cz", cz_dist <= 1e-8, f"two-copy CZ: distance {cz_dist:.3e}")

    gate, _, _ = zeno_projected_hamiltonian(code, theta=math.pi / 4)
    zeno_dist = float(np.linalg.norm(gate.logical_unitary(code.alpha) - _ZZ_TARGET))
    checks.check(
        "zeno", zeno_dist <= 1e-8, f"Zeno ZZ rotation (theta=pi/4): distance {zeno_dist:.3e}"
    )
    return checks.finish()


@memoized(1)
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
    alpha.add_argument("--grid", help="start:stop:step, both ends included; the step must divide the span")
    gamma = sub.add_parser("sweep-gamma", parents=[sweep])
    gamma.add_argument("--alpha", type=float)
    gamma.add_argument("--grid", help="start:stop:count, log-spaced, both ends included; count is 1 exactly when start == stop")
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
        code = handlers[args.command](cfg)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OutputError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # Python's SIGPIPE recipe: the reader has gone, so stdout is pointed at
        # devnull and the interpreter's last flush has nowhere to fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 4


if __name__ == "__main__":
    sys.exit(main())
