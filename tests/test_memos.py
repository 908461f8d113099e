"""The memo contract of the operator and table memos.

A memo hit returns the instance the miss built, every array it holds is
read-only, an input that fails validation is never memoized, and each memo
keeps at most its stated number of entries.
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
from fouriercat.fock import FockConfig, annihilation_operator, passive_gaussian_unitary
from fouriercat.groups import HADAMARD

CFG = FockConfig(2, 9)


def held_arrays(obj):
    """The numpy arrays an operator (a closure), a tuple of them or an array holds."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, tuple):
        return [a for item in obj for a in held_arrays(item)]
    cells = getattr(obj, "__closure__", None) or ()
    return [a for cell in cells for a in held_arrays(cell.cell_contents)]


def d8_fourier():
    group = fc.pauli_group()
    return fc.build_fourier_transform(group, fc.irrep_table(group))


BUILDS = {
    "ladder": lambda: annihilation_operator(1, CFG, 2),
    "ladder-3-modes": lambda: annihilation_operator(0, FockConfig(3, 4)),
    "sector-lift": lambda: passive_gaussian_unitary(HADAMARD, CFG),
    "monomial-lift": lambda: passive_gaussian_unitary(np.array([[0.0, 1j], [1.0, 0.0]]), CFG),
    "self-kerr": lambda: gates.self_kerr_s_gate(CFG),
    "snap": lambda: gates._snap_gates(CFG),
    "cross-kerr-parity": lambda: gates._cross_kerr_parity(CFG.dim_per_mode),
    "even-parity-mask": lambda: channels._even_total_parity(CFG.dim_per_mode),
    "block-targets": lambda: groups._block_targets(d8_fourier()),
    "zy-prediction": lambda: gates._zy_prediction(1.25, CFG.dim_per_mode),
    "loss-tables": lambda: channels._loss_tables(CFG.dim_per_mode),
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


def test_ladder_memo_keys_on_argument_types():
    state = np.ones((10, 10))
    annihilation_operator(0, CFG, 2)(state)
    annihilation_operator(0, CFG)(state)
    for _ in range(2):
        with pytest.raises(ValueError, match="power"):
            annihilation_operator(0, CFG, 2.0)
        with pytest.raises(ValueError, match="power"):
            annihilation_operator(0, CFG, power=2.0)
        with pytest.raises(ValueError, match="mode"):
            annihilation_operator(0.0, CFG)
        with pytest.raises(ValueError, match="mode"):
            annihilation_operator(0.0, CFG, 2)


@pytest.mark.parametrize(
    "u",
    [np.array([[1.0, 0.0], [0.0, 2.0]]), np.array([[np.nan, 0.0], [0.0, 1.0]])],
    ids=["non-unitary", "nan"],
)
def test_failed_unitarity_is_never_memoized(u):
    passive_gaussian_unitary(HADAMARD, CFG)
    size = fock._lift.cache_info().currsize
    for _ in range(3):
        with pytest.raises(ValueError, match="unitary"):
            passive_gaussian_unitary(u, CFG)
    assert fock._lift.cache_info().currsize == size


def test_memo_hit_skips_the_unitarity_check(monkeypatch):
    calls = []
    norm = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", lambda *a, **k: calls.append(1) or norm(*a, **k))
    fock._lift.cache_clear()
    for u in (HADAMARD, np.array([[0.0, 1.0], [1.0, 0.0]])):
        passive_gaussian_unitary(u, CFG)
        assert calls  # a miss checks U
        calls.clear()
        passive_gaussian_unitary(u, CFG)
        assert not calls  # a hit does not
    # the shape is still checked on a hit: (1, 4) has the bytes of a cached (2, 2)
    with pytest.raises(ValueError, match="dimension"):
        passive_gaussian_unitary(np.array([[0.0, 1.0, 1.0, 0.0]]), CFG)


def fourier_of_cyclic(n):
    group = fc.cyclic_group(n)
    return fc.build_fourier_transform(group, fc.irrep_table(group))


# (memo, its bound, the k-th of a run of distinct calls)
MEMOS = {
    "ladder": (fock.annihilation_operator, fock.LADDER_MEMO_SIZE,
               lambda k: annihilation_operator(k % 2, FockConfig(2, 1 + k // 2))),
    "self-kerr": (gates.self_kerr_s_gate, gates.GATE_MEMO_SIZE,
                  lambda k: gates.self_kerr_s_gate(FockConfig(2, 1 + k))),
    "snap": (gates._snap_gates, gates.GATE_MEMO_SIZE, lambda k: gates._snap_gates(FockConfig(2, 1 + k))),
    "cross-kerr-parity": (gates._cross_kerr_parity, gates.GATE_MEMO_SIZE,
                          lambda k: gates._cross_kerr_parity(2 + k)),
    "even-parity-mask": (channels._even_total_parity, channels.PARITY_MEMO_SIZE,
                         lambda k: channels._even_total_parity(2 + k)),
    "block-targets": (groups._block_targets, groups.BLOCK_TARGET_MEMO_SIZE,
                      lambda k: groups._block_targets(fourier_of_cyclic(2 + k))),
    "zy-prediction": (gates._zy_prediction, gates.GATE_MEMO_SIZE,
                      lambda k: gates._zy_prediction(1.0 + 0.1 * k, 10)),
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


def test_no_memo_is_filled_at_import():
    # fcbench's setup_s times a fresh import, so a table built at import would
    # hide there; a fresh interpreter keeps other tests' calls out of the memos
    script = (
        "import sys, fouriercat, fouriercat.cli\n"
        "print(repr({f'{obj.__module__}.{obj.__qualname__}': obj.cache_info().currsize\n"
        "            for name, module in list(sys.modules.items())\n"
        "            if name.startswith('fouriercat')\n"
        "            for obj in vars(module).values() if hasattr(obj, 'cache_clear')}))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    memos = ast.literal_eval(done.stdout)
    # every memoized builder of the package is reachable from a module namespace
    decorated = sum(path.read_text().count("@memoized(") for path in src.glob("fouriercat/*.py"))
    assert len(memos) == decorated, sorted(memos)
    assert {name: size for name, size in memos.items() if size} == {}
