"""Regenerate the fixed copies of expected CLI output under data/.

    PYTHONPATH=src python3 perfbench/make_expected.py

readme_examples.json holds every README console example (arguments and
exact stdout).  cli_expected.json holds the stdout of the deterministic
CLI jobs, recorded from the current sources.  Run this only when a change
to the output is intended; the benchmark compares byte for byte.
"""

import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"

FIXED = [["kw", "--cpn", str(n)] for n in (6, 7, 8)]
FIXED += [["-f", fmt, "voa", "lattice", "--gram", "@gram", "--point", "1,1",
           "--weight-cap", str(cap)] for cap in (6, 7, 8) for fmt in ("pretty", "json")]
FIXED += [["-f", fmt, "intersection", "--max-weight", "13"]
          for fmt in ("pretty", "json")]


def readme_examples() -> list[dict]:
    text = (ROOT / "README.md").read_text()
    examples = []
    for block in re.findall(r"```console\n(.*?)```", text, flags=re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, output = chunk.partition("\n")
            argv = shlex.split(command)
            if argv[0] != "qgenus":
                raise SystemExit(f"not a qgenus example: {command}")
            examples.append({"argv": argv[1:], "stdout": output})
    return examples


def main() -> None:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"}
    expected = {}
    with tempfile.TemporaryDirectory() as tmp:
        gram = Path(tmp) / "gram.json"
        gram.write_text("[[2, 1], [1, 2]]\n")
        env["QGENUS_CACHE_DIR"] = tmp
        for argv in FIXED:
            real = [str(gram) if a == "@gram" else a for a in argv]
            out = subprocess.run([sys.executable, "-m", "qgenus.cli", *real],
                                 env=env, capture_output=True, text=True,
                                 check=True)
            key = " ".join(a for a in argv if a not in ("--gram", "@gram"))
            expected[key] = out.stdout
    DATA.mkdir(exist_ok=True)
    (DATA / "readme_examples.json").write_text(
        json.dumps(readme_examples(), indent=1) + "\n")
    (DATA / "cli_expected.json").write_text(json.dumps(expected, indent=1) + "\n")


if __name__ == "__main__":
    main()
