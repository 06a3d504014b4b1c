"""The README's export list names exactly the package root's public names,
its CLI usage block exactly each subcommand's flags, and its memory
arithmetic is the size of the Monte Carlo noise."""

import argparse
import inspect
import re
from pathlib import Path

import defaultable_hjb as dh
from defaultable_hjb import cli

_README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_exports() -> set:
    """Backticked names of the bullet list under "The package root exports"."""
    text = _README.read_text()
    section = text[text.index("The package root exports"):]
    bullets = section[section.index("\n- "):]
    listing = bullets[:bullets.index("\n\n")]
    return set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", listing))


def test_readme_lists_the_root_exports():
    # dir, not vars: the assumption and Monte Carlo names are resolved on
    # first access
    public = {name for name in dir(dh) if not name.startswith("_")
              and not inspect.ismodule(getattr(dh, name))}
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


def test_readme_usage_lists_each_subcommands_flags():
    text = _README.read_text()
    block = text[text.index("```text\ndefaultable-hjb"):]
    block = block[:block.index("\n```")]
    listed = {}
    for line in block.splitlines()[1:]:
        words = line.split()
        if words[0] == "defaultable-hjb":
            command = words[1]
        listed.setdefault(command, set()).update(
            re.findall(r"--[a-z]+", line))
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    registered = {name: {o for a in p._actions for o in a.option_strings
                         if o != "-h" and o != "--help"}
                  for name, p in sub.choices.items()}
    assert listed == registered
