"""The README's export list names exactly the package root's public names."""

import inspect
import re
from pathlib import Path

import defaultable_hjb as dh

_README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_exports() -> set:
    """Backticked names of the bullet list under "The package root exports"."""
    text = _README.read_text()
    section = text[text.index("The package root exports"):]
    bullets = section[section.index("\n- "):]
    listing = bullets[:bullets.index("\n\n")]
    return set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", listing))


def test_readme_lists_the_root_exports():
    public = {name for name, obj in vars(dh).items()
              if not name.startswith("_") and not inspect.ismodule(obj)}
    assert _readme_exports() == public
