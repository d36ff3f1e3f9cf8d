"""Start-up: `trop` loads numpy and each exact module only when a command
uses them, and each public name lives in the one module that lists it."""

import contextlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from tropline.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = ROOT / "tests" / "goldens"
EXAMPLE1 = str(ROOT / "tests" / "fixtures" / "example1.json")

# Modules that `import tropline.cli` loads before any command runs.
CLI_MODULES = {"tropline", "tropline.cli", "tropline.geometry", "tropline.tropical",
               "tropline.amoeba"}

# Every exact subcommand; "{out}" stands for a file the command writes.
EXACT_COMMANDS = [
    ["classify", "--p", "4", "--q", "3"],
    ["classify", "--p", "2", "--q", "1", "--json"],
    ["tropicalize", "--p", "4", "--q", "3"],
    ["tropicalize", "--p", "4", "--q", "3", "--json"],
    ["tropicalize", "--p", "4", "--q", "3", "--svg", "{out}"],
    ["building", "--p", "4", "--q", "3"],
    ["building", "--p", "4", "--q", "3", "--json"],
    ["match", "--graph", EXAMPLE1],
    ["render", "--graph", EXAMPLE1, "--svg", "{out}"],
    ["fan", "--which", "exploded"],
    ["fan", "--which", "ionel", "--svg", "{out}"],
    ["fan", "--which", "complete"],
    ["blowups"],
    ["types"],
    ["types", "--json"],
]

# Runs the [argv, file] pairs of its first argument through `cli.main` and
# prints {"results": [exit code, stdout, stderr, written file or None] per
# command, "modules": every module loaded by the end}.
RUN_COMMANDS = """
import contextlib, io, json, sys
from tropline.cli import main
results = []
for argv, out in json.loads(sys.argv[1]):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([out if a == "{out}" else a for a in argv])
    written = open(out, encoding="utf-8").read() if "{out}" in argv else None
    results.append([code, stdout.getvalue(), stderr.getvalue(), written])
print(json.dumps({"results": results, "modules": sorted(sys.modules)}))
"""


def fresh(code: str, *args: str, flags: tuple[str, ...] = ()) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that imports this checkout's
    `tropline`; it must exit 0."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths))),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def run_here(argv, out: Path) -> list:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([str(out) if a == "{out}" else a for a in argv])
    written = out.read_text(encoding="utf-8") if "{out}" in argv else None
    return [code, stdout.getvalue(), stderr.getvalue(), written]


def test_exact_commands_run_without_numpy(tmp_path):
    """With numpy unimportable, every exact subcommand exits 0 and prints
    and writes what it does in this process, where numpy is importable."""
    jobs = [[argv, str(tmp_path / f"out-{i}.svg")] for i, argv in enumerate(EXACT_COMMANDS)]
    proc = fresh("import sys; sys.modules['numpy'] = None\n" + RUN_COMMANDS, json.dumps(jobs))
    results = json.loads(proc.stdout)["results"]
    assert len(results) == len(jobs)
    for (argv, out), got in zip(jobs, results):
        expected = run_here(argv, Path(out))
        assert expected[0] == 0, argv
        assert got == expected, argv


def test_amoeba_without_numpy_exits_2_naming_numpy():
    """With numpy unimportable, `trop amoeba` exits 2 with one `error:` line
    that names numpy, not a traceback."""
    proc = fresh(
        "import sys; sys.modules['numpy'] = None\n" + RUN_COMMANDS,
        json.dumps([[["amoeba", "--p", "1", "--q", "2", "--n", "1e3,1e4"], None]]),
    )
    [[code, out, err, _]] = json.loads(proc.stdout)["results"]
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot import numpy: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, loads",
    [
        (["classify", "--p", "4", "--q", "3"], {"moduli"}),
        (["tropicalize", "--p", "4", "--q", "3"], set()),
        (["tropicalize", "--p", "4", "--q", "3", "--svg", "{out}"], {"building", "render"}),
        (["building", "--p", "4", "--q", "3"], {"building"}),
        (["match", "--graph", EXAMPLE1], {"building", "matching", "_linalg"}),
        (["render", "--graph", EXAMPLE1, "--svg", "{out}"],
         {"building", "matching", "_linalg", "render"}),
        (["fan", "--which", "ionel"], {"moduli"}),
        (["fan", "--which", "ionel", "--svg", "{out}"], {"moduli", "building", "render"}),
        (["blowups"], {"moduli"}),
        (["types"], {"moduli"}),
    ],
)
def test_command_loads_only_its_layers(tmp_path, argv, loads):
    """Each command loads the layers it uses on top of what `tropline.cli`
    loads, and never numpy."""
    proc = fresh(RUN_COMMANDS, json.dumps([[argv, str(tmp_path / "out.svg")]]))
    loaded = set(json.loads(proc.stdout)["modules"])
    assert "numpy" not in loaded
    assert {m for m in loaded if m.startswith("tropline")} == (
        CLI_MODULES | {f"tropline.{name}" for name in loads})


def test_cli_import_times_amoeba_without_numpy():
    """`import tropline.cli` imports `tropline.amoeba`, so `-X importtime`
    reports a line for it and for the package, and loads no numpy."""
    proc = fresh("import tropline.cli", flags=("-X", "importtime"))
    names = {m.group(1) for line in proc.stderr.splitlines()
             if (m := re.match(r"import time:\s+\d+ \|\s+\d+ \|\s*(\S+)$", line))}
    assert {"tropline", "tropline.amoeba"} <= names
    assert "numpy" not in names
    assert {m for m in names if m.startswith("tropline")} == CLI_MODULES


def test_trop_amoeba_loads_numpy_and_prints_golden():
    proc = fresh(
        "import contextlib, io, sys\n"
        "from tropline.cli import main\n"
        "assert 'numpy' not in sys.modules\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    code = main(['amoeba', '--p', '1', '--q', '2', '--samples', '2000',\n"
        "                 '--n', '1e3,1e4,1e6,1e8'])\n"
        "assert code == 0 and 'numpy' in sys.modules\n"
        "print(out.getvalue(), end='')\n"
    )
    assert proc.stdout == (GOLDENS / "amoeba-1-2.json").read_text()


# The modules whose `__all__` lists the package's public names.
PUBLIC_MODULES = ("geometry", "tropical", "building", "matching", "moduli", "render", "amoeba")


def test_package_names_resolve_to_their_modules():
    """Each public name is listed once, in the `__all__` of the module that
    defines it, and `import tropline` loads none of its modules."""
    owner = {}
    for module in PUBLIC_MODULES:
        mod = importlib.import_module(f"tropline.{module}")
        for name in mod.__all__:
            assert name in vars(mod), f"{mod.__name__}.__all__ lists {name!r}, which it lacks"
            value = vars(mod)[name]
            assert getattr(value, "__module__", mod.__name__) == mod.__name__, name
            assert owner.setdefault(name, module) == module, name
    proc = fresh(
        "import sys, tropline\n"
        "print(sorted(m for m in sys.modules if m.startswith('tropline.')))"
    )
    assert proc.stdout == "[]\n"
