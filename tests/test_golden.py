"""Report bodies against the golden files in ``tests/golden``.

Each command of the quick set runs in process and must reproduce its file:
the report without ``timing``, and the exit code.  A change that alters a
report rewrites the file with ``python tests/golden/regenerate.py`` and
names it in CHANGES.md.  The long verdicts are compared only by
``python tests/golden/regenerate.py --check --long``.
"""

import importlib.util
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


@pytest.mark.parametrize("name", list(golden.QUICK))
def test_report_matches_its_golden_body(name):
    assert golden.render(golden.run(golden.QUICK[name])) == golden.path(name).read_text()


def test_every_golden_file_belongs_to_a_command():
    assert {p.stem for p in GOLDEN.glob("*.json")} == golden.QUICK.keys() | golden.LONG.keys()
