"""The memo contract of the table memos.

A memo hit returns the instance the miss built, every array it holds is
read-only, an input that fails validation is never memoized, and each memo
keeps at most its stated number of entries.  The Fock operators check their
arguments when they are built and take their tables from a memo keyed on
the state's dimension d.
"""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fouriercat as fc
from fouriercat import channels, cli, encoding, fock, gates, groups
from fouriercat.fock import annihilation_operator

D = 10  # the per-mode dimension the tables are built for


def held_arrays(obj):
    """The numpy arrays a table, a tuple of them or a closure holds."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, tuple):
        return [a for item in obj for a in held_arrays(item)]
    cells = getattr(obj, "__closure__", None) or ()
    return [a for cell in cells for a in held_arrays(cell.cell_contents)]


BUILDS = {
    "ladder": lambda: fock._ladder_roots(D, 2),
    "ladder-power-1": lambda: fock._ladder_roots(D, 1),
    "loss-tables": lambda: channels._loss_tables(D),
}


@pytest.mark.parametrize("build", BUILDS.values(), ids=BUILDS.keys())
def test_memo_hits_return_the_same_read_only_instance(build):
    first = build()
    assert build() is first
    arrays = held_arrays(first)
    assert arrays
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 0


def test_ladder_tables_key_on_argument_types():
    # the operator checks its mode and power when it is built, so a float
    # power raises however often the int one was applied, and never reaches
    # the table memo; a numpy integer power shares the int's table
    state = np.ones((D, D))
    fock._ladder_roots.cache_clear()
    annihilation_operator(0, 2)(state)
    annihilation_operator(1, np.int64(2))(state)
    annihilation_operator(0)(state)
    assert fock._ladder_roots.cache_info().currsize == 2
    for _ in range(2):
        with pytest.raises(ValueError, match="power"):
            annihilation_operator(0, 2.0)
        with pytest.raises(ValueError, match="power"):
            annihilation_operator(0, power=2.0)
        with pytest.raises(ValueError, match="mode"):
            annihilation_operator(0.0)
        with pytest.raises(ValueError, match="mode"):
            annihilation_operator(0.0, 2)
    assert fock._ladder_roots.cache_info().currsize == 2
    # the table memo is typed itself: a float dimension is its own key
    assert fock._ladder_roots(D, 2) is not fock._ladder_roots(float(D), 2)


@pytest.mark.parametrize(
    "u",
    [np.array([[1.0, 0.0], [0.0, 2.0]]), np.array([[np.nan, 0.0], [0.0, 1.0]])],
    ids=["non-unitary", "nan"],
)
def test_failed_unitarity_is_never_memoized(u):
    # deformation_residual checks U before it builds the deformed code, so a
    # U that fails never reaches the constellation memo
    group = groups.pauli_group()
    fourier = groups.build_fourier_transform(group, groups.irrep_table(group))
    code = fc.code_basis(fc.make_constellation(group, 1.25, np.pi / 2, 20), fourier)
    info = encoding._constellation.cache_info()
    for _ in range(3):
        with pytest.raises(ValueError, match="unitary"):
            gates.deformation_residual(code, u)
    assert encoding._constellation.cache_info() == info  # not even looked up


# (memo, its bound, the k-th of a run of calls that each add a key)
MEMOS = {
    "ladder": (fock._ladder_roots, fock.LADDER_MEMO_SIZE,
               lambda k: annihilation_operator(k % 2, 1 + k % 3)(np.ones((2 + k, 2 + k)))),
    "loss-tables": (channels._loss_tables, channels.LOSS_MEMO_SIZE,
                    lambda k: channels._loss_tables(2 + k)),
}


@pytest.mark.parametrize("memo, maxsize, call", MEMOS.values(), ids=MEMOS.keys())
def test_each_memo_keeps_at_most_its_maxsize(memo, maxsize, call):
    memo.cache_clear()
    for k in range(maxsize + 3):
        call(k)
    assert memo.cache_info().currsize == maxsize
    assert memo.cache_info().maxsize == maxsize


@pytest.mark.parametrize("module", [groups, fock, encoding, gates, channels, cli],
                         ids=lambda m: m.__name__)
def test_public_callables_stay_plain_functions(module):
    # fcbench's span tracer wraps only the objects inspect.isfunction accepts,
    # so a public builder under a bare lru_cache would drop out of its traces
    for name, obj in vars(module).items():
        if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            assert inspect.isfunction(obj), f"{module.__name__}.{name} is a {type(obj).__name__}"


# the memos of a fresh interpreter, found through the package's module
# namespaces, as an expression that maps each to its cache_info()
MEMO_INFO = (
    "{f'{obj.__module__}.{obj.__qualname__}': obj.cache_info()\n"
    " for name, module in list(sys.modules.items()) if name.startswith('fouriercat')\n"
    " for obj in vars(module).values() if hasattr(obj, 'cache_clear')}"
)
SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(script):
    """stdout of ``script`` in a fresh interpreter that imports this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout)


def test_no_memo_is_filled_at_import():
    # fcbench's setup_s times a fresh import, so a table built at import would
    # hide there; a fresh interpreter keeps other tests' calls out of the memos
    memos = run_fresh(
        "import sys, fouriercat, fouriercat.cli\n"
        f"print(repr({{k: v.currsize for k, v in {MEMO_INFO}.items()}}))\n"
    )
    # every memoized builder of the package is reachable from a module namespace
    decorated = sum(path.read_text().count("@memoized(") for path in SRC.glob("fouriercat/*.py"))
    assert len(memos) == decorated, sorted(memos)
    assert {name: size for name, size in memos.items() if size} == {}


# One round of each measured workload's library and CLI calls: the d8 code at
# cutoff 25 and the gate checks on it, then the Fock and analytic QEC matrices.
WORKLOAD_ROUND = """
import contextlib, io, math, sys
import fouriercat as fc
from fouriercat import channels, cli, gates
from fouriercat.groups import HADAMARD

def one_round():
    d8 = fc.pauli_group()
    fourier = fc.build_fourier_transform(d8, fc.irrep_table(d8))
    code = fc.code_basis(fc.make_constellation(d8, cli.ALPHA_STAR, math.pi / 2, 25), fourier)
    gates.deformation_residual(code, HADAMARD)
    gates.double_deformation_residual(code, HADAMARD)
    channels.lindblad_kernel_check(code)
    channels.lindblad_kernel_check(code, deformed=True)
    gates.zy_expansion_residual(code)
    channels.kl_first_order_check(code, (0.6, 0.8))
    gates.zeno_projected_hamiltonian(code, theta=0.5)
    gates.cz_gate_check(code)
    gates.mod4_verification(code)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify"]) == 0
        assert cli.main(["gates-demo"]) == 0
    for make in (fc.pauli_group, fc.quaternion_group):
        group = make()
        fourier = fc.build_fourier_transform(group, fc.irrep_table(group))
        code = fc.code_basis(fc.make_constellation(group, 1.25, math.pi / 2, 20), fourier)
        fc.qec_matrix_fock(code, 0.01)
        fc.qec_matrix_analytic(group, fourier, 1.25, 0.01)
"""


def test_every_memo_is_reused_by_a_repeated_workload_round():
    # a memo that no repeated round hits costs its bookkeeping and retention
    # for nothing, so each must record a hit on the second of two rounds
    hits = run_fresh(
        WORKLOAD_ROUND
        + "passes = []\n"
        "for _ in range(2):\n"
        "    one_round()\n"
        f"    passes.append({{k: v.hits for k, v in {MEMO_INFO}.items()}})\n"
        "print(repr(passes))\n"
    )
    first, second = hits
    decorated = sum(path.read_text().count("@memoized(") for path in SRC.glob("fouriercat/*.py"))
    assert len(second) == decorated, sorted(second)
    assert [name for name in second if second[name] <= first[name]] == []
