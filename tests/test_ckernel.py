import ctypes
import importlib
import pkgutil
import shutil
import subprocess
import tomllib
from pathlib import Path

import pytest

import sidewalksim
from sidewalksim import _ckernel

from tests.conftest import needs_c_compiler

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(sidewalksim.__file__).resolve().parent


def package_kernels() -> dict:
    """Every module-level _ckernel.Kernel of the package, by source path."""
    kernels = {}
    for info in pkgutil.iter_modules([str(PACKAGE)]):
        if info.name == "__main__":
            continue  # runs the CLI on import
        module = importlib.import_module(f"sidewalksim.{info.name}")
        for value in vars(module).values():
            if isinstance(value, _ckernel.Kernel):
                kernels.setdefault(Path(value.source), []).append(value)
    return kernels


def test_every_c_source_is_package_data():
    with open(ROOT / "pyproject.toml", "rb") as f:
        data = tomllib.load(f)["tool"]["setuptools"]["package-data"]["sidewalksim"]
    sources = sorted(p.name for p in PACKAGE.glob("*.c"))
    assert sources
    assert sorted(data) == sources


@needs_c_compiler
def test_every_c_source_builds_and_exports_its_kernel():
    kernels = package_kernels()
    for source in sorted(PACKAGE.glob("*.c")):
        assert source in kernels, f"no _ckernel.Kernel loads {source.name}"
        library = ctypes.CDLL(_ckernel.build(str(source)))
        for kernel in kernels[source]:
            assert getattr(library, kernel.symbol)


@needs_c_compiler
def test_every_c_source_compiles_without_warnings():
    compiler = next(filter(None, map(shutil.which, _ckernel.COMPILERS)))
    for source in sorted(PACKAGE.glob("*.c")):
        result = subprocess.run(
            [compiler, *_ckernel.FLAGS, "-Wall", "-Wextra", "-Werror", "-fsyntax-only",
             str(source)], capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, f"{source.name}:\n{result.stderr}"


@needs_c_compiler
@pytest.mark.skipif(shutil.which("nm") is None, reason="no nm on PATH to list exports")
def test_every_built_object_exports_only_the_functions_its_kernels_load():
    kernels = package_kernels()
    for source in sorted(PACKAGE.glob("*.c")):
        listing = subprocess.run(["nm", "-D", "--defined-only", _ckernel.build(str(source))],
                                 capture_output=True, text=True, check=True, timeout=60)
        exported = {fields[2] for fields in map(str.split, listing.stdout.splitlines())
                    if len(fields) == 3 and fields[1] == "T"}
        assert exported == {k.symbol for k in kernels.get(source, [])}, source.name
