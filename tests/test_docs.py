"""Documentation invariants: the repo's contracts about itself."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(repro.__file__).resolve().parents[1])


def _walk_modules():
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        names.append(info.name)
    return names


#: walks repro.* and imports each module into an interpreter holding no
#: other repro module, so every module is imported first at least once;
#: prints one line per module that fails
_IMPORT_EACH_FIRST = """
import importlib, pkgutil, sys
import repro
failed = []
names = ["repro"] + [
    info.name for info in pkgutil.walk_packages(
        repro.__path__, prefix="repro.",
        onerror=lambda name: failed.append(name + ": package walk failed"))]
for name in names:
    for key in [key for key in sys.modules if key.split(".")[0] == "repro"]:
        del sys.modules[key]
    try:
        importlib.import_module(name)
    except Exception as error:
        failed.append(f"{name}: {type(error).__name__}: {error}")
for line in failed:
    print(line)
"""


def _run_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter importing this checkout; stdout."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    return done.stdout


class TestImportLayering:
    """Every import points down the stack: tensor/nn/models -> adapt ->
    robustness -> scenarios -> core -> serve -> cli."""

    def test_every_module_imports_first(self):
        assert _run_python(_IMPORT_EACH_FIRST).splitlines() == []

    @pytest.mark.parametrize("module, forbidden", [
        # the session's closure is what adapt-stream's setup_s measures
        ("repro.adapt.session", ("repro.core", "repro.serve",
                                 "repro.scenarios", "repro.robustness",
                                 "repro.data")),
        ("repro.serve", ("repro.core", "repro.data")),
    ])
    def test_import_closure_stays_below(self, module, forbidden):
        loaded = _run_python(
            f"import sys, {module}; print(*sorted(sys.modules))").split()
        above = [name for name in loaded
                 if name.startswith(tuple(p + "." for p in forbidden))
                 or name in forbidden]
        assert above == [], f"{module} loads {above}"


class TestDocFiles:
    @pytest.mark.parametrize("name", ["README.md", "DESIGN.md",
                                      "EXPERIMENTS.md",
                                      "docs/ARCHITECTURE.md", "docs/API.md"])
    def test_exists_and_substantial(self, name):
        path = ROOT / name
        assert path.exists(), name
        assert len(path.read_text()) > 1500, name

    def test_design_indexes_every_figure(self):
        text = (ROOT / "DESIGN.md").read_text()
        for figure in ["Fig. 2", "Fig. 3", "Fig. 4", "Fig. 5", "Fig. 6",
                       "Fig. 7", "Fig. 8", "Fig. 9", "Fig. 10", "Fig. 11",
                       "Fig. 12", "Table I"]:
            assert figure in text, figure

    def test_experiments_records_known_deviations(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        assert "Known deviations" in text
        assert "| anchor |" in text   # the residual table is embedded

    def test_readme_mentions_all_examples(self):
        text = (ROOT / "README.md").read_text()
        for example in (ROOT / "examples").glob("*.py"):
            assert example.name in text, example.name

    def test_benchmarks_cover_every_paper_artifact(self):
        benches = {p.stem for p in (ROOT / "benchmarks").glob("test_*.py")}
        for artifact in ["test_fig02_accuracy", "test_fig03_ultra96_times",
                         "test_fig04_ultra96_breakdown",
                         "test_fig05_ultra96_tradeoffs",
                         "test_fig06_rpi_times", "test_fig07_rpi_breakdown",
                         "test_fig08_rpi_tradeoffs", "test_fig09_nx_times",
                         "test_fig10_nx_breakdown",
                         "test_fig11_nx_tradeoffs", "test_fig12_overall",
                         "test_table1_mobilenet"]:
            assert artifact in benches, artifact


class TestModuleDocstrings:
    @pytest.mark.parametrize("module_name", _walk_modules())
    def test_every_module_documented(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and len(module.__doc__.strip()) > 20, module_name
