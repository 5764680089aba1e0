#!/usr/bin/env python3
"""Digests of everything the command line prints and writes, for a
byte-for-byte comparison of two source trees:

    python tools/output_digests.py TREE SEEDS

TREE is a checkout of this repository and SEEDS a count of benchmark
seeds.  The inputs are:

* each bundled scenario with `run --svg` (plus `--mc` where it has an
  `mc` block) and with `report`;
* the curves of `perfbench/inputs.py` for seeds 1..SEEDS: `op_curves`
  with `run --svg` and `op_curves_mc` with `run --mc`, as the benchmark
  runs them;
* `run --selftest`.

Each distinct (scenario text, flags) pair prints one line: the sha256 of
the exit code, stdout, stderr and every file written, then a label.  The
commands go through TREE's own `cli.main` in-process, and `run
--selftest` in a subprocess of TREE, so two trees compare with one diff:

    diff <(python tools/output_digests.py OLD 20) <(python tools/output_digests.py NEW 20)
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile


def _digest(rc: int, out: str, err: str, files: dict[str, bytes]) -> str:
    h = hashlib.sha256(f"{rc}\0{out}\0{err}\0".encode())
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name] + b"\0")
    return h.hexdigest()


def _run(cli, text: str, flags: list[str], work: str) -> str:
    """The digest of one command on one scenario text, run in the empty
    directory work, with the paths in its output replaced by placeholders."""
    path = os.path.join(work, "in.scenario")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    out_dir = os.path.join(work, "out")
    argv = [flags[0], path, *flags[1:]]
    if flags[0] == "run":
        argv += ["-o", out_dir]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    files = {}
    if os.path.isdir(out_dir):
        for name in os.listdir(out_dir):
            with open(os.path.join(out_dir, name), "rb") as fh:
                files[name] = fh.read()

    def clean(s: str) -> str:
        return s.replace(out_dir, "<out>").replace(path, "<scenario>")

    return _digest(rc, clean(out.getvalue()), clean(err.getvalue()), files)


def _selftest(tree: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "ris_outage.cli", "run", "--selftest"],
        env=env, capture_output=True, text=True, timeout=600,
    )
    return _digest(proc.returncode, proc.stdout, proc.stderr, {})


def _cases(tree: str, seeds: int, inputs) -> list[tuple[str, str, list[str]]]:
    """(label, scenario text, flags) for each distinct text and flag set,
    in a fixed order."""
    items = []
    scenario_dir = os.path.join(tree, "scenarios")
    for name in sorted(os.listdir(scenario_dir)):
        if name.endswith(".scenario"):
            with open(os.path.join(scenario_dir, name), encoding="utf-8") as fh:
                text = fh.read()
            mc = ["--mc"] if "mc" in inputs.parse_blocks(text) else []
            items.append((name, text, ["run", *mc, "--svg"]))
            items.append((name, text, ["report"]))
    for seed in range(1, seeds + 1):
        for make, flag in ((inputs.op_curves, "--svg"), (inputs.op_curves_mc, "--mc")):
            for name, _, text in make(seed, tree):
                items.append((name, text, ["run", flag]))
    seen, distinct = set(), []
    for name, text, flags in items:
        key = (text, tuple(flags))
        if key not in seen:
            seen.add(key)
            text_id = hashlib.sha256(text.encode()).hexdigest()[:12]
            distinct.append((f"{name} {text_id} {' '.join(flags)}", text, flags))
    return distinct


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not argv[1].isdigit():
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    tree, seeds = os.path.abspath(argv[0]), int(argv[1])
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "perfbench")]
    from ris_outage import cli
    import inputs

    for label, text, flags in _cases(tree, seeds, inputs):
        with tempfile.TemporaryDirectory() as work:
            print(f"{_run(cli, text, flags, work)}  {label}", flush=True)
    print(f"{_selftest(tree)}  run --selftest")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
