"""README's "Package layout" table names every module of the package, so a
module added without a row, or a row left behind by a module that is gone,
fails here."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _layout_rows():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Package layout", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\| `celab\.(\w+)` \|", section, flags=re.MULTILINE))


def test_package_layout_has_a_row_per_module():
    modules = {p.stem for p in (ROOT / "src" / "celab").glob("*.py")} - {"__init__"}
    rows = _layout_rows()
    assert not modules - rows, f"modules with no row: {sorted(modules - rows)}"
    assert not rows - modules, f"rows for no module: {sorted(rows - modules)}"
