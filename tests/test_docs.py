"""README stays in step with the CLI, the instrument registry and the repo's files."""
import os
import re

from bnlab.diagnostics import INSTRUMENTS
from bnlab.harness.cli import _DISPATCH
from bnlab.harness.config import _ROWS, DATASET_KINDS
from bnlab.nn import NETWORK_KINDS, NORMS, PLACEMENTS
from bnlab.tensor import INIT_KINDS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = os.path.join(ROOT, "README.md")


def _section(title):
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    start = text.index(f"## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def test_cli_table_names_every_subcommand():
    rows = re.findall(r"^\| `([a-z0-9-]+)` \|", _section("CLI"), flags=re.M)
    assert sorted(rows) == sorted(_DISPATCH)


def test_diagnostics_list_names_every_instrument_with_its_columns():
    listed = dict(re.findall(r"^  - `(\w+)`: `([^`]+)`", _section("Config grammar"), flags=re.M))
    assert listed == {name: ", ".join(("step", *cols)) for name, (cols, _, _) in INSTRUMENTS.items()}


def test_enumerated_keys_list_their_allowed_values():
    listed = {key: tuple(re.findall(r"`(\w+)`", values)) for key, values in re.findall(
        r"`((?:network|dataset)\.\w+)` \(((?:`\w+`/)+`\w+`)", _section("Config grammar"))}
    assert listed == {
        "network.kind": NETWORK_KINDS,
        "network.norm": NORMS,
        "network.placement": PLACEMENTS,
        "network.init": INIT_KINDS,
        "dataset.kind": DATASET_KINDS,
    }


def test_every_backticked_config_key_exists():
    with open(README, encoding="utf-8") as fh:
        spans = re.findall(r"`([^`\n]+)`", fh.read())
    keys = {key for span in spans
            for key in re.findall(r"\b(?:network|dataset|train|rmt|noise|out)\.\w+", span)}
    keys -= {key for key in keys if key.endswith((".csv", ".json", ".cfg", ".txt"))}
    assert keys
    assert sorted(keys - set(_ROWS)) == []


def test_every_backticked_repo_path_exists():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    paths = re.findall(r"`((?:configs|scripts|src|tests|bench)/[^`\s]*)`", text)
    assert paths
    missing = [p for p in paths if not os.path.exists(os.path.join(ROOT, p))]
    assert missing == []
