"""Every public name in ``src/repro`` has a caller outside the tests.

The scan takes each public top-level function and class of every module,
and each public method or property of a top-level class, and looks for
the name elsewhere:

* in ``src/`` code outside the name's own definition: a top-level name as
  any identifier token, a method or property only as an attribute access
  (``x.name``, also inside f-strings) -- strings, comments and docstrings
  do not count, so neither a lazy-export entry nor a docstring mention is
  a use, and neither is the name of another definition, a local variable
  or parameter, or a package ``__init__``'s ``from ... import``
  re-export;
* as a word anywhere in ``examples/``, ``perfbench/``, ``benchmarks/``,
  ``docs/`` or the CI workflow.

A name found nowhere else is code only tests call: delete it with its
tests, or, if the tests compare the system against it, add it to
:data:`ALLOWED` with the reason.  ``visit_*`` methods of
:class:`ast.NodeVisitor` subclasses are called by name lookup and are
exempt.

Blind spot: the scan matches names, not bindings.  A method counts as
used only through an attribute access, so a local or parameter of the
same name does not hide it (``ExperimentStore.fingerprints``,
``SimulationResult.error_rate``, ``Circuit.depth`` and
``ShuttlePath.num_junctions`` were hidden that way until the rule said
so, and were deleted).  A dead method still passes when a live attribute
of another class shares its name (``Topology.total_capacity`` and
``QCCDDevice.total_capacity`` kept each other alive that way, and the
proposers' ``spec()`` methods hid behind ``DesignPoint.spec`` and
``ProposerStrategy.spec``), and a dead top-level name passes when any
identifier shares it.
"""

import ast
import io
import re
import tokenize
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
#: Non-``src`` places whose words count as uses.
USER_PATHS = ("examples", "perfbench", "benchmarks", "docs",
              ".github/workflows/ci.yml")

#: Public names only tests use, each kept because the tests compare the
#: system against it or a command reads what it writes.
ALLOWED = {
    "Topology.all_shortest_paths":
        "the networkx route-equivalence reference",
    "QCCDDevice.with_gate":
        "the per-device reference for the batch gate fan-out",
    "result_fingerprint":
        "the bit-identity oracle of the simulator and sweep tests",
    "read_logical_batch":
        "reads a proposal batch back for the protocol's repair tests",
    "batch_from_payload":
        "rebuilds a proposal batch for the protocol's repair tests",
    "reset_checks":
        "resets the process-global --check switch between tests",
    "program_to_dict":
        "writes the program JSON that `repro check --program` reads",
}


def _definitions(tree):
    """``(qualified name, name, first line, last line)`` of each candidate."""

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name, _first_line(node), node.end_lineno
        if not isinstance(node, ast.ClassDef):
            continue
        visitor = any(getattr(base, "attr", getattr(base, "id", None))
                      == "NodeVisitor" for base in node.bases)
        for item in node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name.startswith("_") or \
                    (visitor and item.name.startswith("visit_")):
                continue
            yield (f"{node.name}.{item.name}", item.name, _first_line(item),
                   item.end_lineno)


def _first_line(node):
    return min([node.lineno] + [d.lineno for d in node.decorator_list])


def _identifier_lines(source):
    """Line numbers of each identifier token, definition names left out,
    and of each attribute access (an identifier after a ``.``).

    Returns ``(identifiers, attributes)``.  Before Python 3.12 an f-string
    is one string token, so the names in its replacement fields are read
    from its syntax tree.
    """

    lines = defaultdict(list)
    attributes = defaultdict(list)
    previous = None
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        line = token.start[0]
        if token.type == tokenize.NAME and previous not in ("def", "class"):
            lines[token.string].append(line)
            if previous == ".":
                attributes[token.string].append(line)
        elif token.type == tokenize.STRING and \
                "f" in token.string.split(token.string[-1])[0].lower():
            for node in ast.walk(ast.parse(token.string, mode="eval")):
                if isinstance(node, ast.Name):
                    lines[node.id].append(line)
                elif isinstance(node, ast.Attribute):
                    lines[node.attr].append(line)
                    attributes[node.attr].append(line)
        if token.type not in (tokenize.NL, tokenize.COMMENT):
            previous = token.string
    return lines, attributes


def _user_words():
    words = set()
    for entry in USER_PATHS:
        path = ROOT / entry
        files = [path] if path.is_file() else sorted(path.rglob("*"))
        for file in files:
            if file.is_file() and "__pycache__" not in file.parts:
                words.update(re.findall(r"\w+", file.read_text(
                    encoding="utf-8", errors="replace")))
    return words


def _reexport_lines(file, tree):
    """Lines of a package ``__init__``'s ``from ... import`` statements."""

    if file.name != "__init__.py":
        return set()
    return {line for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for line in range(node.lineno, node.end_lineno + 1)}


def test_every_public_name_has_a_caller_outside_tests():
    uses = defaultdict(list)  # name -> [(file, line)]
    accesses = defaultdict(list)  # attribute name -> [(file, line)]
    candidates = []
    for file in sorted(SRC.rglob("*.py")):
        source = file.read_text(encoding="utf-8")
        tree = ast.parse(source)
        reexports = _reexport_lines(file, tree)
        identifiers, attributes = _identifier_lines(source)
        for found, into in ((identifiers, uses), (attributes, accesses)):
            for name, lines in found.items():
                into[name].extend((file, line) for line in lines
                                  if line not in reexports)
        for qualified, name, first, last in _definitions(tree):
            candidates.append((qualified, name, file, first, last))
    words = _user_words()

    unused = sorted(
        qualified for qualified, name, file, first, last in candidates
        if name not in words and not any(
            use_file != file or not first <= line <= last
            for use_file, line in (accesses if "." in qualified
                                   else uses)[name]))
    assert [name for name in unused if name not in ALLOWED] == [], \
        "public names only tests use: delete them or add them to ALLOWED"
    assert sorted(set(ALLOWED) - set(unused)) == [], \
        "ALLOWED names that have a caller now: take them off the list"
