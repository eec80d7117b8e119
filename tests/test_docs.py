import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def fenced_block(text, heading, language):
    """The first ``language`` fenced block after the line ``heading``."""
    after = text.split(f"\n{heading}\n", 1)[1]
    return after.split(f"```{language}\n", 1)[1].split("\n```", 1)[0]


def test_readme_library_quickstart_runs():
    """The README's quickstart runs against the package as it is, so a public-API change shows."""
    code = fenced_block((ROOT / "README.md").read_text(encoding="utf-8"),
                        "## Library quickstart", "python")
    # the source goes in as UTF-8 bytes on stdin, which an ASCII locale cannot garble
    run = subprocess.run([sys.executable, "-"], input=code.encode("utf-8"), capture_output=True,
                         cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                         timeout=120)
    assert (run.returncode, run.stderr) == (0, b"")
    assert b"\nlabel,rho,rho_filtered," in run.stdout  # through to the CSV report
