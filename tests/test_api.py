"""The package ships only what it runs: every public top-level function
or class in ``src/tsettopos`` is referenced somewhere outside its own
definition.  ``__init__.py`` re-exports names and does not count as a
use; test-only references belong in ``tests/oracles.py``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tsettopos"

# public names kept for callers the package does not contain yet
ALLOWED = {
    # the Fourman-Scott functor from sheaves back to T-sets (ROADMAP
    # item 1), the inverse of tset_to_presheaf
    "presheaf_to_tset",
    # separatedness, one of the two sides of the postulate (ROADMAP
    # item 1); is_sheaf decides the other
    "is_separated",
}


def _traced_names():
    """Function names in bench/spans.py's LAYERS, read from its source."""
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and \
                getattr(node.target, "id", None) == "LAYERS":
            layers = ast.literal_eval(node.value)
            return {f for fs in layers.values() for f in fs}
    raise AssertionError("bench/spans.py defines no LAYERS")


def _unreferenced():
    """(module, name) of each public top-level def or class whose name
    is loaded nowhere but inside its own definition."""
    defined = []
    users: dict[str, set] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            owner = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                owner = (path.stem, node.name)
                if not node.name.startswith("_"):
                    defined.append(owner)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    users.setdefault(sub.id, set()).add(owner)
    return [(m, n) for m, n in defined
            if not users.get(n, set()) - {(m, n)}]


def test_every_public_name_has_a_caller():
    exempt = ALLOWED | _traced_names()
    unused = [f"{m}.{n}" for m, n in _unreferenced() if n not in exempt]
    assert unused == [], "no caller in src/tsettopos: " + ", ".join(unused)


def test_exemptions_are_still_needed():
    # an allowlisted name that gains a caller leaves the list
    assert ALLOWED <= {n for _, n in _unreferenced()}
