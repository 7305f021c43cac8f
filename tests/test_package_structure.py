"""Package layout rules that no behavioural test would notice breaking."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "diamond_entropy"


def _private_imports(path: Path) -> list[str]:
    """`from <package module> import _name` statements in one source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("diamond_entropy"):
            continue
        for alias in node.names:
            dunder = alias.name.startswith("__") and alias.name.endswith("__")
            if alias.name.startswith("_") and not dunder:
                found.append(f"{path.name}:{node.lineno}: from {'.' * node.level}"
                             f"{node.module or ''} import {alias.name}")
    return found


def test_no_module_imports_another_modules_private_name():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5
    found = [line for path in sources for line in _private_imports(path)]
    assert found == []


def test_the_check_sees_relative_and_absolute_private_imports(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text("from . import __version__\n"
                      "from .renyi_functions import eta, _eta_reflected\n"
                      "from diamond_entropy.quadrature import _legendre_rule\n"
                      "from numpy import _core\n")
    assert _private_imports(source) == [
        "sample.py:2: from .renyi_functions import _eta_reflected",
        "sample.py:3: from diamond_entropy.quadrature import _legendre_rule",
    ]


def _calls(path: Path, names) -> list[str]:
    """Calls of any of names, by bare name or as an attribute."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in names:
                found.append(f"{path.name}:{node.lineno}: {name}")
    return found


def _memory_queries(path: Path) -> list[str]:
    """Calls that read a memory limit: physical memory or the cgroup's."""
    return _calls(path, ("physical_memory_bytes", "sysconf", "_cgroup_memory_bytes"))


def test_only_discretization_asks_for_physical_memory():
    # every memory preflight goes through discretization.check_memory, so
    # tests fake the machine's memory in one place
    found = [line for path in sorted(PACKAGE.glob("*.py")) if path.name != "discretization.py"
             for line in _memory_queries(path)]
    assert found == []
    assert _memory_queries(PACKAGE / "discretization.py") != []


def test_the_memory_check_sees_names_and_attributes(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text("import os\n"
                      "from . import discretization\n"
                      "from .discretization import physical_memory_bytes\n"
                      "a = physical_memory_bytes()\n"
                      "b = discretization.physical_memory_bytes()\n"
                      "c = os.sysconf('SC_PAGE_SIZE')\n")
    assert _memory_queries(source) == ["sample.py:4: physical_memory_bytes",
                                       "sample.py:5: physical_memory_bytes",
                                       "sample.py:6: sysconf"]


def _owners(path: Path, matches) -> list[str]:
    """The function around each node for which matches(node) holds; "<module>"
    for a node outside every function."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if matches(child):
                found.append(owner)
            visit(child, owner)

    visit(ast.parse(path.read_text(), filename=str(path)), "<module>")
    return found


def _callers(path: Path, names) -> list[str]:
    """The function around each call of any of names, as _calls finds them."""
    def is_call(node):
        return isinstance(node, ast.Call) and (
            getattr(node.func, "id", None) or getattr(node.func, "attr", None)) in names

    return _owners(path, is_call)


def _namers(path: Path, name: str) -> list[str]:
    """The function around each mention of name: an attribute (sys.name), a
    name or an imported name."""
    def names_it(node):
        return name in (getattr(node, "attr", None), getattr(node, "id", None),
                        getattr(node, "name", None))

    return _owners(path, names_it)


def _stdout_users(path: Path) -> list[str]:
    """The function around each print call and each mention of stdout."""
    return _callers(path, ("print",)) + _namers(path, "stdout")


def _unconverged_sentences(path: Path) -> list[str]:
    """The function around each string literal that says "not converged", a
    docstring (a string standing alone as a statement) aside."""
    alone = set()

    def says_it(node):
        if isinstance(node, ast.Expr):  # visited before the string it holds
            alone.add(id(node.value))
        return (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and "not converged" in node.value and id(node) not in alone)

    return _owners(path, says_it)


def test_only_discretization_sets_blas_threads():
    # the OpenBLAS thread count is process-wide: discretization alone binds
    # the setter, and only _solve, which holds the one thread rule, calls it
    sources = sorted(PACKAGE.glob("*.py"))
    assert [path.name for path in sources if "set_num_threads" in path.read_text()] == [
        "discretization.py"]
    callers = {path.name: _callers(path, ("_SET_BLAS_THREADS",)) for path in sources}
    assert {name: found for name, found in callers.items() if found} == {
        "discretization.py": ["_solve", "_solve"]}


def test_only_the_writer_writes_to_stdout():
    # stdout holds the one document _write encodes, so it stays bit-identical
    # for identical configuration (argparse's --help and --version aside)
    users = {path.name: _stdout_users(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in users.items() if found} == {"cli.py": ["_write"]}


def test_the_stdout_check_sees_print_and_every_spelling_of_stdout(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text("import sys\n"
                      "from sys import stdout\n"
                      "def show():\n"
                      "    print('x')\n"
                      "def emit():\n"
                      "    sys.stdout.write('x')\n"
                      "    stdout.flush()\n"
                      "    sys.stderr.write('x')\n")
    assert _stdout_users(source) == ["show", "<module>", "emit", "emit"]


def test_only_the_cli_names_stderr():
    # the library reports through its return values and exceptions; the cli
    # alone decides which of them become stderr lines
    users = {path.name: _namers(path, "stderr") for path in sorted(PACKAGE.glob("*.py"))}
    assert [name for name, found in users.items() if found] == ["cli.py"]


def test_only_the_ladder_says_why_a_result_is_unconverged():
    # EntropyResult.reason carries the sentence, and entropy and sweep print
    # it as it is, so the two commands name an unconverged point alike
    found = {path.name: _unconverged_sentences(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: owners for name, owners in found.items() if owners} == {
        "entropy_pipeline.py": ["entanglement_entropy"]}


def test_the_stderr_and_sentence_checks_see_every_spelling(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text("import sys\n"
                      "from sys import stderr\n"
                      "def warn(cap):\n"
                      "    \"\"\"Warn when not converged.\"\"\"\n"
                      "    sys.stderr.write(f'warning: not converged at {cap}')\n"
                      "    stderr.flush()\n"
                      "def why():\n"
                      "    return 'not converged at the cap'\n")
    assert _namers(source, "stderr") == ["<module>", "warn", "warn"]
    assert _unconverged_sentences(source) == ["warn", "why"]


def test_only_check_memory_reads_the_memory_limits():
    # every memory refusal comes from check_memory, so each one names its
    # limit the same way and no second refusal path can name another value
    assert _callers(PACKAGE / "discretization.py",
                    ("physical_memory_bytes", "_cgroup_memory_bytes")) == ["check_memory"] * 2


def test_only_zeroed_buffer_maps_and_advises_memory():
    # the spectrum buffer's page policy (base pages, which pages become
    # resident) lives in one function, so changing it touches only that one
    callers = {path.name: _callers(path, ("mmap", "madvise"))
               for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in callers.items() if found} == {
        "discretization.py": ["_zeroed_buffer", "_zeroed_buffer"]}


def test_only_cross_block_nodes_lays_panel_nodes():
    # outside quadrature, panel nodes are laid only for the cross block, from
    # its CrossBlockLayout, so its memory check and its assembly read one layout
    callers = {path.name: _callers(path, ("panel_nodes",))
               for path in sorted(PACKAGE.glob("*.py")) if path.name != "quadrature.py"}
    assert {name: found for name, found in callers.items() if found} == {
        "asymptotics.py": ["cross_block_nodes", "cross_block_nodes"]}


def test_one_quadrature_takes_every_eta_integral():
    # the bulk term, the slope constant and the floor bound are one checked
    # panel sum, so their panels, cut and convergence check cannot drift apart
    assert _callers(PACKAGE / "entropy_pipeline.py", ("checked_panel_sum",)) == ["_eta_integral"]


def test_the_quadrature_check_counts_every_call_and_spelling(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text("from . import quadrature\n"
                      "from .quadrature import checked_panel_sum\n"
                      "def _eta_integral(edges):\n"
                      "    return checked_panel_sum(abs, edges, 1e-8, 0.0, 'bulk')\n"
                      "def _floor_bound(edges):\n"
                      "    tail = quadrature.checked_panel_sum(abs, edges, 1e-8, 0.0, 'floor')\n"
                      "    return tail + checked_panel_sum(abs, edges, 1e-8, 0.0, 'again')\n")
    assert _callers(source, ("checked_panel_sum",)) == ["_eta_integral", "_floor_bound",
                                                        "_floor_bound"]


def test_the_thread_check_sees_the_function_around_each_call(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text("_SET_BLAS_THREADS(1)\n"
                      "def _solve():\n"
                      "    _SET_BLAS_THREADS(max(1, 2))\n"
                      "def share():\n"
                      "    def inner():\n"
                      "        mod._SET_BLAS_THREADS(1)\n")
    assert _callers(source, ("_SET_BLAS_THREADS",)) == ["<module>", "_solve", "inner"]


def test_the_cli_imports_no_process_or_futures_machinery():
    # only a sweep with a pool needs concurrent.futures, and with it
    # multiprocessing and logging: no other run pays for their import
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    probe = ("import sys, diamond_entropy.cli\n"
             "print(sorted(name for name in ('concurrent.futures', 'multiprocessing', 'logging')"
             " if name in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"
