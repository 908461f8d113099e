import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fouriercat as fc
from fouriercat import cli, gates
from fouriercat.fock import StarvedTailError
from fouriercat.groups import AMPLITUDE_RULE


def run(args):
    return cli.main(args)


def test_verify_default_passes(capsys):
    assert run(["verify"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "[FAIL]" not in out


def test_verify_starved_cutoff_fails(capsys):
    # gates-demo builds its code through the same step as verify
    for command in ("verify", "gates-demo"):
        for cutoff in ("5", "3"):
            assert run([command, "--cutoff", cutoff]) == 1
            out = capsys.readouterr().out
            assert "[FAIL] constellation_tail_mass" in out
            assert 'FAILED ["constellation_tail_mass"]' in out
            if command == "verify":  # after the two checks that need no code
                lines = out.splitlines()
                assert lines[0].startswith("  [pass] fourier_unitarity")
                assert lines[1].startswith("  [pass] block_diagonalization")
                assert lines[2].startswith("  [FAIL] constellation_tail_mass")


def test_cutoff_over_the_cap_is_config_error(capsys):
    # the cap is refused before anything is built
    assert cli.MAX_CUTOFF == 255
    for command in ("verify", "gates-demo"):
        for cutoff in (cli.MAX_CUTOFF + 1, 1_000_000):
            assert run([command, "--cutoff", str(cutoff)]) == 2
            captured = capsys.readouterr()
            assert f"cutoff must lie in [1, {cli.MAX_CUTOFF}]" in captured.err
            assert captured.out == ""


def test_verify_degenerate_phi_is_config_error(capsys):
    for command in ("verify", "gates-demo"):
        assert run([command, "--phi", "0"]) == 2
        captured = capsys.readouterr()
        assert "degenerate" in captured.err and captured.out == ""


@pytest.mark.parametrize("command", ["verify", "gates-demo"])
def test_singular_gram_is_config_error(command, capsys):
    # at alpha 0.001 the eight coherent states nearly coincide
    assert run([command, "--alpha", "0.001"]) == 2
    captured = capsys.readouterr()
    assert "Gram matrix numerically singular" in captured.err and captured.out == ""


@pytest.mark.parametrize("step", ["make_constellation", "code_basis"])
def test_untyped_construction_error_propagates(step, monkeypatch):
    # construction errors are routed by type, not by message: a plain
    # ValueError that merely says "degenerate" is no configuration error
    def fails(*args):
        raise ValueError("degenerate constellation")

    monkeypatch.setattr(cli, step, fails)
    for command in ("verify", "gates-demo"):
        with pytest.raises(ValueError, match="degenerate") as info:
            run([command])
        assert type(info.value) is ValueError


def test_unknown_group_is_config_error():
    assert run(["verify", "--group", "e8"]) == 2


def test_bad_gamma_is_config_error():
    assert run(["sweep-alpha", "--gamma", "1.5"]) == 2


def test_sweep_alpha_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    args = [
        "sweep-alpha",
        "--gamma", "0.01",
        "--grid", "1.1:1.4:0.05",
        "--out", str(out),
    ]
    assert run(args) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "alpha,infidelity,condition_number,flags"
    assert len(lines) == 8
    first = lines[1].split(",")
    assert float(first[0]) == 1.1
    assert 0.0 < float(first[1]) < 1.0
    assert "argmin alpha" in capsys.readouterr().out
    # identical configs produce identical bytes
    out2 = tmp_path / "sweep2.csv"
    run(args[:-1] + [str(out2)])
    assert out.read_bytes() == out2.read_bytes()


def test_sweep_alpha_lossless(tmp_path):
    out = tmp_path / "lossless.csv"
    assert run(
        ["sweep-alpha", "--gamma", "0", "--grid", "1.0:1.3:0.1", "--out", str(out)]
    ) == 0
    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    assert all(float(r.split(",")[1]) <= 1e-12 for r in rows)


def test_sweep_gamma_json(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    assert run(
        [
            "sweep-gamma",
            "--grid", "1e-3:1e-2:6",
            "--format", "json",
            "--out", str(out),
        ]
    ) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert set(payload) == {"config", "records", "summary"}
    assert len(payload["records"]) == 6
    assert set(payload["records"][0]) == {"gamma", "infidelity", "condition_number", "flags"}
    # only the options sweep-gamma declares, less the output path
    assert set(payload["config"]) == {"group", "phi", "alpha", "grid", "format"}
    assert payload["summary"]["monotone"] is True
    assert np.isfinite(payload["summary"]["loglog_slope"])
    assert "log-log slope" in capsys.readouterr().out


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


# (argv, exit code): grids whose every point is ill-conditioned, alphas whose
# square overflows, and an alpha so small that every infidelity is NaN
EXTREME_RUNS = [
    (["sweep-alpha", "--grid", "1e-3:2e-3:1e-3"], 0),
    (["sweep-alpha", "--grid", "1e20:1e20:1"], 0),
    (["sweep-alpha", "--grid", "1e200:1e200:1"], 2),
    (["sweep-gamma", "--alpha", "1e200"], 2),
    (["sweep-gamma", "--alpha", "1e-300"], 0),
    (["verify", "--alpha", "1e200"], 2),
    (["gates-demo", "--alpha", "1e200"], 2),
]


@pytest.mark.parametrize(
    "argv, fmt, code",
    [
        pytest.param(argv, fmt, code, id=" ".join(argv + [fmt or ""]).strip())
        for argv, code in EXTREME_RUNS
        for fmt in (("csv", "json") if argv[0].startswith("sweep-") else (None,))
    ],
)
def test_extreme_inputs_exit_without_a_traceback(argv, fmt, code, tmp_path, capsys):
    # run in-process, where any exception or RuntimeWarning fails the test
    out = tmp_path / f"sweep.{fmt}"
    extra = ["--format", fmt, "--out", str(out)] if fmt else []
    assert run(argv + extra) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert out.exists() == (code == 0 and fmt is not None)
    if code == 0 and fmt == "json":
        payload = json.loads(out.read_text(encoding="utf-8"), parse_constant=reject_constant)
        if argv[0] == "sweep-alpha":
            assert all(r["flags"] == ["ill-conditioned"] for r in payload["records"])
            assert payload["summary"] == {"argmin_alpha": None, "min_infidelity": None}
            assert "no argmin: every point is ill-conditioned" in captured.out
        else:
            assert all(r["infidelity"] is None for r in payload["records"])
            assert payload["summary"] == {"loglog_slope": None, "monotone": None}
    if code == 0 and fmt == "csv":
        assert "nan" in out.read_text(encoding="utf-8")


def refuses(route, alpha):
    """Whether ``route`` refuses ``alpha`` by the amplitude rule.

    Any other outcome, a result or another of the library's errors (an
    accepted but huge alpha may starve the cutoff later), passes the rule; a
    numpy warning is an error here, so no route may overflow on its way.
    """
    try:
        route(alpha)
    except ValueError as exc:
        return str(exc) == AMPLITUDE_RULE
    return False


def load_alpha(alpha):
    """``load_config`` of ``verify --alpha``, the parsed value replaced by ``alpha`` itself."""
    args = cli.build_parser().parse_args(["verify", "--alpha", repr(float(alpha))])
    args.alpha = alpha
    return cli.load_config(args)


def cat_qudit_at_its_default_cutoff(alpha):
    """``cat_qudit`` at its own cutoff rule: an accepted alpha builds, starves or has a null codeword.

    At 9.4e153 the rule asked numpy for about 8.8e307 levels, which ended
    on numpy's array-size error instead of a library one.
    """
    try:
        fc.cat_qudit(4, 2, alpha)
    except StarvedTailError:
        pass
    except ValueError as exc:
        assert str(exc) in (AMPLITUDE_RULE, "codeword numerically null"), exc
        raise


AMPLITUDE_ROUTES = {
    "make_constellation": lambda a: fc.make_constellation(fc.pauli_group(), a, math.pi / 2),
    "qec_matrix_analytic": lambda a: fc.qec_matrix_analytic(
        *cli._group_and_fourier({"group": "d8"}), a, 0.01
    ),
    "cat_qudit": lambda a: fc.cat_qudit(4, 2, a, cutoff=25),
    "cat_qudit default cutoff": cat_qudit_at_its_default_cutoff,
    "load_config": load_alpha,
}


@pytest.mark.parametrize("kind", [float, np.float64])
@pytest.mark.parametrize(
    "alpha, refused",
    [(0.0, True), (-0.0, True), (5e-324, False), (1.0, False), (9.4e153, False),
     (9.6e153, True), (1e200, True), (math.inf, True), (math.nan, True)],
)
def test_every_route_applies_one_amplitude_rule(alpha, refused, kind):
    # alpha > 0 with a finite 2 alpha^2: once four rules with four messages
    got = {name: refuses(route, kind(alpha)) for name, route in AMPLITUDE_ROUTES.items()}
    assert got == dict.fromkeys(AMPLITUDE_ROUTES, refused)


def test_empty_grid_is_config_error():
    assert run(["sweep-gamma", "--grid", ""]) == 2


def test_unwritable_path_is_io_error(tmp_path):
    target = tmp_path / "missing" / "x.csv"
    assert run(["sweep-alpha", "--grid", "1.2:1.3:0.1", "--out", str(target)]) == 3


def test_only_a_failed_sweep_write_exits_3(monkeypatch):
    def fails(cfg):
        raise OSError("not a sweep's output file")

    monkeypatch.setattr(cli, "cmd_verify", fails)
    with pytest.raises(OSError, match="not a sweep"):
        run(["verify"])


def test_closed_stdout_exits_4_without_a_traceback():
    # gates-demo's report fits in the pipe's buffer, so the closed reader shows
    # at main's flush; the interpreter's own flush at exit must then stay silent
    read_end, write_end = os.pipe()
    os.close(read_end)
    script = "import sys; from fouriercat import cli; sys.exit(cli.main(['gates-demo']))"
    try:
        done = subprocess.run([sys.executable, "-c", script], env=fresh_env(), stdout=write_end,
                              stderr=subprocess.PIPE, timeout=300)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (4, b"")


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"gamma": 0.02, "grid": "1.2:1.3:0.1"}))
    out = tmp_path / "out.csv"
    assert run(
        ["sweep-alpha", "--config", str(cfg), "--gamma", "0.03", "--out", str(out)]
    ) == 0
    # flag wins over the file; both appear in a json run for inspection
    out_json = tmp_path / "out.json"
    assert run(
        [
            "sweep-alpha",
            "--config", str(cfg),
            "--gamma", "0.03",
            "--format", "json",
            "--out", str(out_json),
        ]
    ) == 0
    payload = json.loads(out_json.read_text(encoding="utf-8"))
    assert payload["config"]["gamma"] == 0.03
    assert set(payload["config"]) == {"group", "phi", "gamma", "grid", "format"}


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"alpha": 1.2, "mystery": 1}))
    assert run(["verify", "--config", str(cfg)]) == 2


def test_gates_demo(capsys):
    assert run(["gates-demo"]) == 0
    out = capsys.readouterr().out
    assert "[FAIL]" not in out
    assert "composite Hadamard" in out
    assert "Zeno" in out


def test_gates_demo_zeno_check_sees_off_diagonal_errors(monkeypatch, capsys):
    # the target diagonal is kept exactly; only an off-diagonal entry is wrong
    def off_diagonal(gate, alpha):
        u = cli._ZZ_TARGET.copy()
        u[0, 1] = 0.1
        return u

    monkeypatch.setattr(gates.ZenoGate, "logical_unitary", off_diagonal)
    assert run(["gates-demo"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] Zeno ZZ rotation (theta=pi/4): distance 1.000e-01" in out
    assert out.endswith('FAILED ["zeno"]\n')


def out_option(command, path):
    """``--out path`` for the commands that write a file; the others reject it."""
    return ["--out", str(path)] if command.startswith("sweep-") else []


@pytest.mark.parametrize("command", ["verify", "sweep-alpha", "sweep-gamma", "gates-demo"])
def test_gates_demo_rejects_cyclic_group(command, tmp_path, capsys):
    # no cyclic group has the 2-dimensional irrep the code needs
    assert run([command, "--group", "z8"] + out_option(command, tmp_path / "x.csv")) == 2
    captured = capsys.readouterr()
    assert "d8 or q8" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "x.csv").exists()


def test_sweep_gamma_without_slope_window(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    assert run(
        ["sweep-gamma", "--grid", "2e-2:1e-1:5", "--format", "json", "--out", str(out)]
    ) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert len(payload["records"]) == 5
    assert payload["summary"]["loglog_slope"] is None
    assert "no log-log slope" in capsys.readouterr().out


def test_sweep_gamma_with_an_ill_conditioned_slope_window(tmp_path, capsys):
    # 1e-3 and 1e-2 lie in the window, but both points are flagged ill-conditioned
    out = tmp_path / "sweep.json"
    assert run(["sweep-gamma", "--alpha", "0.0001", "--grid", "1e-3:1e-1:3", "--format", "json",
                "--out", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert [r["infidelity"] for r in payload["records"]] == [None, None, None]
    assert all(r["flags"] == ["ill-conditioned"] for r in payload["records"])
    assert payload["summary"]["loglog_slope"] is None
    printed = capsys.readouterr().out
    assert "no log-log slope" in printed
    assert "fewer than two finite, positive infidelities in [1e-3, 1e-2]" in printed


def test_sweeps_honour_phi(tmp_path):
    out = tmp_path / "sweep.json"
    assert run(
        [
            "sweep-gamma",
            "--phi", "1.0",
            "--alpha", "1.25",
            "--grid", "1e-2:1e-2:1",
            "--format", "json",
            "--out", str(out),
        ]
    ) == 0
    got = json.loads(out.read_text(encoding="utf-8"))["records"][0]["infidelity"]
    group = cli.resolve_group("d8")
    fourier = cli.build_fourier_transform(group, cli.irrep_table(group))
    want = cli.sweep_gamma(group, fourier, 1.25, [1e-2], phi=1.0)[0].infidelity
    at_star = cli.sweep_gamma(group, fourier, 1.25, [1e-2])[0].infidelity
    assert got == want
    assert abs(got - at_star) > 1e-5


BIG_INT = "1" + "0" * 400  # a JSON integer beyond float range


@pytest.mark.parametrize(
    "args, config",
    [
        pytest.param(["verify", "--alpha", "nan"], None, id="alpha-nan"),
        pytest.param(["verify", "--alpha", "inf"], None, id="alpha-inf"),
        pytest.param(["verify", "--phi", "nan"], None, id="phi-nan"),
        pytest.param(["sweep-alpha", "--grid", "nan:1:0.1"], None, id="grid-nan"),
        pytest.param(["sweep-alpha", "--grid", "1:inf:0.1"], None, id="grid-inf"),
        pytest.param(["sweep-alpha", "--grid", "0:0.2:0.1"], None, id="alpha-grid-0"),
        pytest.param(["sweep-gamma", "--grid", "1e-3:2:5"], None, id="gamma-grid-2"),
        # point counts that once overflowed int() or exhausted memory
        pytest.param(["sweep-alpha", "--grid", "0.9:1.6:1e-320"], None, id="grid-step-subnormal"),
        pytest.param(["sweep-alpha", "--grid", "0.9:1.6:1e-15"], None, id="grid-step-tiny"),
        pytest.param(["sweep-gamma", "--grid", "1e-3:1e-2:100000000000"], None, id="grid-count-huge"),
        # a step that does not divide the span once swept a different step
        pytest.param(["sweep-alpha", "--grid", "0.9:1.6:0.3"], None, id="grid-step-not-dividing"),
        pytest.param(["sweep-alpha", "--grid", "1.0:1.1:0.04"], None, id="grid-step-half-way"),
        pytest.param(["sweep-alpha", "--grid", "1.2:1.3:0.2"], None, id="grid-step-over-span"),
        pytest.param(["sweep-gamma", "--grid", "1e-3:1e-1:5:junk"], None, id="log-grid-extra-field"),
        # a one-point log grid once dropped its stop value, a repeated one wrote one point thrice
        pytest.param(["sweep-gamma", "--grid", "1e-3:1e-1:1"], None, id="log-grid-one-point-span"),
        pytest.param(["sweep-gamma", "--grid", "1e-1:1e-1:3"], None, id="log-grid-repeated-point"),
        pytest.param(["sweep-gamma"], '{"grid": "1e-3:1e-1:1"}', id="config-log-grid-one-point-span"),
        pytest.param(["sweep-gamma"], '{"grid": "1e-1:1e-1:3"}', id="config-log-grid-repeated-point"),
        pytest.param(["verify"], '{"alpha": "abc"}', id="config-alpha-text"),
        pytest.param(["verify"], '{"alpha": null}', id="config-alpha-null"),
        pytest.param(["verify"], '{"phi": NaN}', id="config-phi-nan"),
        pytest.param(["verify"], '{"cutoff": Infinity}', id="config-cutoff-inf"),
        pytest.param(["verify"], f'{{"cutoff": {BIG_INT}}}', id="config-cutoff-huge"),
        pytest.param(["verify"], '{"cutoff": 7.9}', id="config-cutoff-fraction"),
    ],
)
def test_bad_number_is_config_error(args, config, tmp_path, capsys):
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(config)
        args = args + ["--config", str(path)]
    target = tmp_path / "x.csv"
    assert run(args + out_option(args[0], target)) == 2
    captured = capsys.readouterr()
    assert "configuration error" in captured.err
    assert captured.out == ""
    assert not target.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--format", "json"],
        ["verify", "--out", "x.json"],
        ["verify", "--grid", "1:2:3"],
        ["verify", "--gamma", "0.5"],
        ["gates-demo", "--gamma", "0.9"],
        ["gates-demo", "--out", "x.csv"],
        ["sweep-alpha", "--alpha", "3"],
        ["sweep-gamma", "--gamma", "0.3"],
        ["sweep-alpha", "--cutoff", "30"],
        ["sweep-gamma", "--cutoff", "30"],
    ],
    ids=" ".join,
)
def test_option_the_command_does_not_read_exits_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


# The options each subcommand's handler reads, besides --config.
OPTIONS = {
    "verify": {"group", "alpha", "phi", "cutoff"},
    "sweep-alpha": {"group", "phi", "gamma", "grid", "format", "out"},
    "sweep-gamma": {"group", "alpha", "phi", "grid", "format", "out"},
    "gates-demo": {"group", "alpha", "phi", "cutoff"},
}


@pytest.mark.parametrize("command", ["verify", "sweep-alpha", "sweep-gamma", "gates-demo"])
def test_help_lists_only_the_options_the_command_reads(command, capsys):
    with pytest.raises(SystemExit) as exc:
        run([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"--([a-z]+)", capsys.readouterr().out)) - {"help", "config"}
    assert listed == OPTIONS[command]


class RecordingConfig(dict):
    """A config that records which keys its reader looked up."""

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("command", ["verify", "sweep-alpha", "sweep-gamma", "gates-demo"])
def test_each_command_declares_the_options_its_handler_reads(command, tmp_path, capsys):
    grids = {"sweep-alpha": "1.2:1.3:0.1", "sweep-gamma": "1e-3:1e-2:2"}
    cfg = RecordingConfig(cli.DEFAULTS, grid=grids.get(command), out=str(tmp_path / "x.csv"))
    cfg.read = set()
    handler = getattr(cli, "cmd_" + command.replace("-", "_"))
    assert handler(cfg) == 0
    assert cfg.read == OPTIONS[command]


def fresh_env():
    """The environment of a fresh interpreter with ``src`` first on its path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def run_fresh(script, *args):
    """stdout of ``script`` run with ``args`` in a fresh interpreter with ``src`` on the path."""
    done = subprocess.run(
        [sys.executable, "-c", script, *args], env=fresh_env(), capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_runtime_does_not_import_scipy():
    # a fresh interpreter, so no other test's imports leak into sys.modules
    script = (
        "import sys, contextlib, io\n"
        "from fouriercat import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['verify']), cli.main(['gates-demo'])]\n"
        "print(codes, sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))\n"
    )
    assert run_fresh(script) == "[0, 0] []"


def test_verify_then_gates_demo_lift_only_monomial_unitaries():
    # a fresh interpreter, so no memo has been filled; the gates move coherent
    # points, the group covariance permutes them and the logical swap
    # exchanges the mode axes, so no pi(U) is lifted and LAPACK's general
    # eigensolver and QR (whose pages a process would otherwise load) are
    # never called
    script = (
        "import contextlib, io\n"
        "import numpy as np\n"
        "solves = []\n"
        "for name in ('eig', 'qr'):\n"
        "    setattr(np.linalg, name, lambda *a, name=name, **k: solves.append(name))\n"
        "from fouriercat import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['verify']), cli.main(['gates-demo'])]\n"
        "print(codes, solves)\n"
    )
    assert run_fresh(script) == "[0, 0] []"


def test_verify_memory_grows_like_the_states():
    # every array verify builds is O(d^2), so its traced peak grows as d^2:
    # 2.23 MB at cutoff 60 and 8.54 MB at 120, a ratio of 3.82 against
    # (121/61)^2 = 3.93; a (d, d, d) array would push it towards 7.8
    script = (
        "import contextlib, io, sys\n"
        f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
        "from conftest import traced\n"
        "from fouriercat import cli\n"
        "codes = []\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    peak, _ = traced(lambda: codes.append(cli.main(['verify', '--cutoff', sys.argv[1]])))\n"
        "print(codes[0], peak)\n"
    )
    runs = [run_fresh(script, str(cutoff)).split() for cutoff in (60, 120)]
    assert [code for code, _ in runs] == ["0", "0"]
    peaks = [int(peak) for _, peak in runs]
    assert peaks[1] / peaks[0] < (121 / 61) ** 2.5, f"peaks {peaks[0] / 1e6:.2f}, {peaks[1] / 1e6:.2f} MB"


def test_verify_at_alpha_2_passes_at_the_default_cutoff(capsys):
    # the composite Hadamard moves coherent points, so no corner sector of a
    # truncated lift shows as a gate error
    assert run(["verify", "--alpha", "2.0"]) == 0
    out = capsys.readouterr().out
    value = float(re.search(r"composite_hadamard: (\S+)", out).group(1))
    assert value < 1e-13


def outcome(parse, argv, capsys):
    """(exit code, stdout, stderr) of a parse that ends in SystemExit."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def test_parser_is_built_once_and_keeps_no_state(monkeypatch, capsys):
    seen = []
    monkeypatch.setattr(cli, "cmd_verify", lambda cfg: seen.append(cfg) or 0)
    assert run(["verify", "--cutoff", "20"]) == 0
    assert run(["verify", "--group", "q8"]) == 0
    assert [(c["cutoff"], c["group"]) for c in seen] == [(20, "d8"), (25, "q8")]
    assert cli.build_parser() is cli.build_parser()
    # help and argparse's exit-2 errors read as from a freshly built parser
    fresh = cli.build_parser.__wrapped__()
    for argv in (["--help"], ["verify", "--help"], ["verify", "--cutoff", "x"], ["bogus"]):
        assert outcome(cli.main, argv, capsys) == outcome(fresh.parse_args, argv, capsys)
    assert outcome(cli.main, ["verify", "--cutoff", "x"], capsys)[0] == 2
    monkeypatch.undo()
    assert run(["verify", "--group", "z4"]) == 2


@pytest.mark.parametrize(
    "command, keys",
    [
        ("verify", {"out": "cfgout.json", "format": "json", "gamma": 0.5, "grid": "1:2:3"}),
        ("gates-demo", {"gamma": 0.9}),
        ("sweep-alpha", {"alpha": 3.0}),
        ("sweep-gamma", {"gamma": 0.3}),
        ("sweep-alpha", {"cutoff": 30}),
    ],
    ids=lambda v: v if isinstance(v, str) else ",".join(v),
)
def test_config_key_the_command_does_not_read_exits_2(command, keys, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.json").write_text(json.dumps(keys))
    assert run([command, "--config", "f.json"]) == 2
    captured = capsys.readouterr()
    assert f"config keys {command} does not read: {sorted(keys)}" in captured.err
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.json"]


@pytest.mark.parametrize(
    "command, text",
    [
        pytest.param("verify", "5", id="not-an-object-number"),
        pytest.param("verify", "null", id="not-an-object-null"),
        pytest.param("verify", '["group"]', id="not-an-object-list"),
        pytest.param("sweep-alpha", '{"grid": 5}', id="grid-number"),
        pytest.param("sweep-alpha", '{"grid": "1.2:1.3:0.1", "out": 1}', id="out-number"),
        pytest.param("verify", '{"cutoff": true}', id="cutoff-bool"),
        pytest.param("gates-demo", '{"alpha": "1.2"}', id="alpha-text"),
    ],
)
def test_config_value_of_the_wrong_type_exits_2(command, text, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.json").write_text(text)
    assert run([command, "--config", "f.json"]) == 2
    captured = capsys.readouterr()
    assert "configuration error" in captured.err
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.json"]


@pytest.mark.parametrize("command", ["verify", "sweep-alpha", "sweep-gamma", "gates-demo"])
def test_config_file_may_set_every_option_the_command_reads(command, tmp_path, capsys):
    values = {"group": "d8", "alpha": cli.ALPHA_STAR, "phi": float(np.pi / 2), "cutoff": 25,
              "gamma": 0.01, "format": "json", "out": str(tmp_path / "x.json"),
              "grid": {"sweep-alpha": "1.2:1.3:0.1", "sweep-gamma": "1e-3:1e-2:2"}.get(command)}
    path = tmp_path / "f.json"
    path.write_text(json.dumps({key: values[key] for key in OPTIONS[command]}))
    assert run([command, "--config", str(path)]) == 0
    assert (tmp_path / "x.json").exists() == command.startswith("sweep-")


GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"


def test_default_reports_are_unchanged():
    # the default reports of verify and gates-demo, as the code printed them
    # before any construction was memoized, plus three off-default gates-demo
    # points whose matrices print 0.707 and 0.854 entries and a real part with
    # no negative entry, as numpy's array printer wrote them; each runs in a
    # fresh process, and the roundoff-level residuals depend on the numpy and
    # BLAS build they were recorded with
    env = fresh_env()
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(golden) == 7
    for argv, want in golden.items():
        script = f"import sys; from fouriercat import cli; sys.exit(cli.main({argv.split()!r}))"
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=300)
        assert (done.returncode, done.stdout) == (want["exit_code"], want["stdout"]), argv

