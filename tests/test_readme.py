"""The README's export list names exactly the package root's public names,
and its memory arithmetic is the size of the Monte Carlo noise."""

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


def test_readme_states_the_noise_bytes_per_path_step():
    # the memory arithmetic of the README is the size of the noise
    text = _README.read_text()
    stated = re.search(r"`verify`'s memory is the noise: (\d+) B per "
                       r"path-step", text)
    cfg = dh.SimConfig(n_paths=7, n_steps=3, seed=0, x0=0.06)
    noise = dh.draw_noise(cfg)
    per_path_step = (noise.z.nbytes + noise.z0.nbytes) // (7 * 3)
    assert stated is not None and int(stated.group(1)) == per_path_step
