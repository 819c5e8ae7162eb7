"""The lazy package namespace, and how the CLI starts numpy; what an import does is
checked in a fresh interpreter."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import salza

SRC = str(Path(salza.__file__).resolve().parents[1])
SAMPLE = {
    "alpha": b"the quick brown fox jumps over the lazy dog " * 40,
    "beta": b"the quick brown fox jumps over the lazy dog " * 38 + b"pack my box " * 8,
    "gamma": bytes(range(256)) * 7,
}


def _python(*args, cwd=None, **env):
    """Runs a fresh interpreter that finds this salza, with OPENBLAS_NUM_THREADS
    unset unless given, and returns its stdout."""
    child = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    child["PYTHONPATH"] = SRC
    child.update(env)
    res = subprocess.run([sys.executable, *args], env=child, cwd=cwd, capture_output=True,
                         text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    return res.stdout


def test_import_loads_no_numpy():
    assert _python("-c", "import sys, salza; print('numpy' in sys.modules)") == "False\n"


def test_each_name_is_its_home_modules_object():
    for name in salza.__all__:
        value = getattr(salza, name)
        assert value is getattr(importlib.import_module(value.__module__), name), name


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        salza.no_such_name  # noqa: B018


def test_from_import_gives_a_submodule():
    code = "from salza import index\nprint(type(index).__name__, index.__name__)"
    assert _python("-c", code) == "module salza.index\n"


def test_star_import_binds_all():
    namespace = {}
    exec("from salza import *", namespace)
    assert set(salza.__all__) <= namespace.keys()
    assert all(namespace[name] is getattr(salza, name) for name in salza.__all__)


@pytest.mark.parametrize("start", [{}, {"OPENBLAS_NUM_THREADS": "3"}], ids=["unset", "set"])
def test_cli_import_leaves_environment_as_it_was(start):
    code = ("import os\nbefore = dict(os.environ)\nfrom salza import cli\n"
            "assert dict(os.environ) == before\nprint(os.environ.get('OPENBLAS_NUM_THREADS'))")
    assert _python("-c", code, **start) == f"{start.get('OPENBLAS_NUM_THREADS')}\n"


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_cli_import_starts_no_blas_threads():
    code = ("from salza import cli\n"
            "print([ln for ln in open('/proc/self/status') if ln.startswith('Threads:')][0].split()[1])")
    assert _python("-c", code) == "1\n"


def test_cli_outputs_do_not_depend_on_blas_threads(tmp_path):
    files = []
    for name, blob in SAMPLE.items():
        (tmp_path / name).write_bytes(blob)
        files.append(name)
    outputs = []
    for env in ({}, {"OPENBLAS_NUM_THREADS": "2"}):
        _python("-m", "salza.cli", "nsd", *files, "--out", "d.tsv", cwd=tmp_path, **env)
        _python("-m", "salza.cli", "cluster", "d.tsv", "--out", "t.nwk", cwd=tmp_path, **env)
        outputs.append([(tmp_path / out).read_bytes() for out in ("d.tsv", "t.nwk")])
    assert outputs[0] == outputs[1]
