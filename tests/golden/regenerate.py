"""Golden report bodies: rerun each command and compare, or rewrite the files.

Each ``<name>.json`` next to this script holds one command line, its exit
code and its report body without the ``timing`` field (the only part of a
report that changes between reruns):

    {"args": [...], "exit_code": 0, "report": {...}}

Usage, from the checkout (the script imports ``tautring`` from ``src``):

    python tests/golden/regenerate.py --check          # compare the quick set
    python tests/golden/regenerate.py --check --long   # compare the long verdicts
    python tests/golden/regenerate.py [--long]         # rewrite the files

``--check`` prints each command that differs from its file and exits 1 if
any does.  The quick set (``QUICK``, a few seconds, ``fm check --n 9
--mode blocks`` among them) runs in tier-1 as
``tests/test_golden.py``; the long set (``LONG``: ``xn check --n 7``,
``fm check --n 6 --mode full`` and ``fm check --n 10`` and ``--n 11 --mode
blocks``, whose pure blocks reach m = 5; 76 s on two cores with Python
3.11) runs only here, in CI as the ``long-golden`` job of
``.github/workflows/tests.yml``.  The script uses the standard library
alone, so any supported interpreter can rerun the set without pytest.
"""

import argparse
import contextlib
import io
import json
import re
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
sys.path.insert(0, str(GOLDEN.parents[1] / "src"))

from tautring import cli  # noqa: E402

README_PAYLOAD = '{"n": 3, "D": [[[1,2,3], 1]]}'


def _named(*args):
    return re.sub(r"[^A-Za-z0-9]+", "-", " ".join(args)).strip("-"), list(args)


QUICK = dict([
    *(_named("xn", "check", "--n", str(n)) for n in range(1, 7)),
    *(_named("fm", "check", "--n", str(n), "--mode", "blocks") for n in range(1, 10)),
    *(_named("fm", "check", "--n", str(n), "--mode", "full") for n in range(1, 6)),
    *(_named("bridge", "--n", str(n)) for n in range(1, 6)),
    *(_named("fm", "standard", "--n", str(n), "--degree", str(d))
      for n in (3, 4) for d in range(n + 2)),
    _named("fm", "presentation", "--n", "4"),
    _named("xn", "faber-relation"),
    _named("xn", "derive-six-point"),
    _named("xn", "six-point", "--n", "6", "--degree", "3"),
    _named("xn", "matching-gram", "--m", "3"),
    _named("hodge", "eval", "--g", "2", "--alphas", "1,1"),
    ("fm-dual-readme", ["fm", "dual", "--monomial", README_PAYLOAD]),
    # size-guard refusals, exit 3
    _named("fm", "check", "--n", "13", "--mode", "blocks"),
    _named("xn", "matching-gram", "--m", "6"),
    _named("fm", "standard", "--n", "10", "--degree", "5"),
    _named("xn", "six-point", "--n", "12", "--degree", "6"),
])

LONG = dict([
    _named("xn", "check", "--n", "7"),
    _named("fm", "check", "--n", "6", "--mode", "full"),
    *(_named("fm", "check", "--n", str(n), "--mode", "blocks") for n in (10, 11)),
])


def run(args):
    """``{"args", "exit_code", "report"}`` of one in-process CLI run, the
    report without ``timing``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            cli.main(["--format", "json", *args])
        except SystemExit as exc:
            code = exc.code
    report = json.loads(out.getvalue())
    del report["timing"]
    return {"args": args, "exit_code": code, "report": report}


def render(entry):
    """The file text of a golden entry."""
    return json.dumps(entry, indent=2, sort_keys=True) + "\n"


def path(name):
    return GOLDEN / f"{name}.json"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the files instead of rewriting them")
    parser.add_argument("--long", action="store_true",
                        help="the long verdicts instead of the quick set")
    opts = parser.parse_args(argv)
    commands = LONG if opts.long else QUICK
    differ = []
    for name, args in commands.items():
        text = render(run(args))
        if not opts.check:
            path(name).write_text(text)
        elif not path(name).exists() or path(name).read_text() != text:
            differ.append(name)
            print(f"differs: {name}: tautring {' '.join(args)}")
    print(f"{len(commands) - len(differ)} of {len(commands)} "
          f"{'match' if opts.check else 'written'}"
          f" (Python {sys.version.split()[0]})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
