"""Every name the package exports has a consumer.

A text scan: each name that `semigroup_lab/__init__.py` imports must appear,
outside its own `def`/`class` line, in a package module other than
`__init__`, in `scripts/`, in `bench/` or in the acceptance suite.  A name
that only its own unit tests call leaves the package.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "semigroup_lab"


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def consumer_texts():
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py"))
    files += sorted((ROOT / "bench").glob("*.py"))
    files.append(ROOT / "tests" / "test_acceptance.py")
    return [p.read_text() for p in files]


def has_consumer(name, texts):
    definition = re.compile(rf"^[ \t]*(def|class)[ \t]+{name}\b.*$", re.M)
    use = re.compile(rf"\b{name}\b")
    return any(use.search(definition.sub("", text)) for text in texts)


def test_every_exported_name_has_a_consumer():
    texts = consumer_texts()
    unused = [name for name in exported_names() if not has_consumer(name, texts)]
    assert not unused, f"exported, but nothing outside their unit tests refers to {unused}"
