"""The docs' module maps name exactly the code that exists.

README's "What is implemented" block names every subpackage of
``src/repro``; DESIGN §5's module map names every module file (a
subpackage's ``__init__.py`` is named by its ``pkg/`` line).  Neither may
name one that is gone: a deleted package otherwise lives on in both maps.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"

#: ``  pkg/`` at the block's first indentation level.
PACKAGE_LINE = re.compile(r"^  (\w+)/(?:\s|$)")
MODULE = re.compile(r"\b(\w+\.py)\b")


def subpackages() -> set[str]:
    return {path.parent.name for path in PACKAGE.glob("*/__init__.py")}


def module_files() -> set[str]:
    return {
        path.relative_to(PACKAGE).as_posix()
        for path in PACKAGE.rglob("*.py")
        if "__pycache__" not in path.parts
    }


def tree_block(doc: str, heading: str) -> list[str]:
    """The ``src/repro/`` lines of the first fenced block after ``heading``,
    up to the first line back at column 0."""
    text = (ROOT / doc).read_text()
    after = text[text.index(heading):]
    block = after.split("```", 2)[1].splitlines()
    start = block.index("src/repro/")
    lines = []
    for line in block[start + 1:]:
        if line and not line.startswith(" "):
            break
        lines.append(line)
    return lines


def test_readme_names_every_subpackage():
    lines = tree_block("README.md", "## What is implemented")
    named = [m.group(1) for line in lines if (m := PACKAGE_LINE.match(line))]
    assert len(named) == len(set(named)), "a subpackage is named twice"
    assert set(named) == subpackages()


def test_design_module_map_names_every_module():
    lines = tree_block("DESIGN.md", "## 5. Module map")
    named: set[str] = set()
    package = ""
    for line in lines:
        match = PACKAGE_LINE.match(line)
        if match:
            package = match.group(1)
            named.add(f"{package}/__init__.py")
        elif line.startswith("  ") and not line.startswith("   "):
            package = ""  # a top-level file of src/repro
        prefix = f"{package}/" if package else ""
        named |= {prefix + name for name in MODULE.findall(line)}
    assert named == module_files()
