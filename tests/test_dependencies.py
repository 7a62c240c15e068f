"""The package runs on the Python standard library and numpy alone, and
each CLI command loads only the modules it runs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import cohort_fixture_texts
from spikesev.checkpoint import save_checkpoint
from spikesev.cli import main
from spikesev.network import Network
from spikesev.scales import default_registry

SRC = Path(__file__).resolve().parents[1] / "src"
SOURCES = sorted((SRC / "spikesev").glob("*.py"))


def _imported_modules(path: Path) -> list[str]:
    """Top-level names of the absolute imports in one module."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names.extend(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def test_sources_are_found():
    assert len(SOURCES) > 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_stdlib_and_numpy(path):
    foreign = [
        name for name in _imported_modules(path)
        if name not in sys.stdlib_module_names and name != "numpy"
    ]
    assert foreign == [], f"{path.name} imports {foreign}"


def _public_definitions(path: Path) -> list[str]:
    """Names a module's top level defines (def, class, assignment) without
    a leading underscore."""
    names = []
    for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return [name for name in names if not name.startswith("_")]


def _loaded_names(paths: list[Path]) -> set[str]:
    """Every name read in `paths`, bare or as an attribute."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_public_name_is_read_by_the_package_or_the_benchmark():
    """An entry point that only tests call goes; a reference kernel lives in
    the tests as a `_ref_` helper."""
    read = _loaded_names([*SOURCES, *sorted((SRC.parent / "perfbench").glob("*.py"))])
    unread = [f"{path.name}:{name}" for path in SOURCES for name in _public_definitions(path) if name not in read]
    assert unread == []


# Runs one command in a fresh interpreter, then prints the modules it loaded.
_PROBE = """
import sys
from spikesev.cli import main
code = main(sys.argv[1:])
shown = ("numpy", "concurrent.futures", "logging")
print(code, *sorted(m for m in sys.modules if m in shown or m.startswith("spikesev.")))
"""

MODEL_MODULES = {f"spikesev.{m}" for m in ("layers", "network", "training", "checkpoint", "evaluation", "gradcheck")}


@pytest.fixture(scope="module")
def stage_inputs(tmp_path_factory):
    """A cohort, its matrix and the split's train matrix, made in-process."""
    d = tmp_path_factory.mktemp("stages")
    fasta, meta = cohort_fixture_texts()
    (d / "in.fasta").write_text(fasta)
    (d / "meta.tsv").write_text(meta)
    for argv in (
        ["ingest", "--fasta", d / "in.fasta", "--metadata", d / "meta.tsv"],
        ["featurize", "--cohort", d / "cohort.tsv", "--n-model", "600"],
        ["split", "--matrix", d / "features.mat"],
    ):
        assert main([*map(str, argv), "--workdir", str(d)]) == 0
    return d


def _loaded_by(argv: list[str], cwd: Path) -> set[str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True)
    code, *modules = proc.stdout.splitlines()[-1].split()
    assert code == "0", proc.stderr
    return set(modules)


@pytest.mark.parametrize("argv", [
    ["ingest", "--fasta", "in.fasta", "--metadata", "meta.tsv"],
    ["stats", "--cohort", "cohort.tsv"],
], ids=lambda argv: argv[0])
def test_cohort_commands_load_no_numpy(stage_inputs, tmp_path, argv):
    loaded = _loaded_by([*argv, "--workdir", str(tmp_path)], stage_inputs)
    assert "spikesev.ingest" in loaded
    assert "numpy" not in loaded


@pytest.mark.parametrize("argv", [
    ["featurize", "--cohort", "cohort.tsv", "--n-model", "600"],
    ["split", "--matrix", "features.mat"],
    ["balance", "--matrix", "train.mat"],
], ids=lambda argv: argv[0])
def test_data_commands_load_no_model_module(stage_inputs, tmp_path, argv):
    loaded = _loaded_by([*argv, "--workdir", str(tmp_path)], stage_inputs)
    assert "spikesev.dataset" in loaded
    assert loaded & MODEL_MODULES == set()


def test_evaluate_loads_no_thread_pool(stage_inputs, tmp_path):
    """Only a training step's row ranges need `concurrent.futures`, which
    loads `logging`: about 7 ms of start-up for every model command."""
    save_checkpoint(Network(600, seed=3), tmp_path / "m.ckpt", default_registry().content_hash)
    argv = ["evaluate", "--checkpoint", str(tmp_path / "m.ckpt"), "--matrix", "test.mat"]
    loaded = _loaded_by([*argv, "--workdir", str(tmp_path)], stage_inputs)
    assert "spikesev.network" in loaded
    assert loaded & {"concurrent.futures", "logging"} == set()
