"""The README quick start: the demo data builder, then the demo pipeline."""

import os
import subprocess
import sys
from pathlib import Path

import capqa

ROOT = Path(__file__).resolve().parents[1]

QUICK_START = [
    ["scripts/make_demo_data.py", "--out-dir", "demo_data", "--seed", "3"],
    ["scripts/demo_pipeline.py", "--data-dir", "demo_data", "--work-dir", "demo_out",
     "--seed", "3"],
]


def quick_start(run_dir: Path) -> dict:
    """Run the quick start in `run_dir`; every file it leaves, by relative path."""
    run_dir.mkdir()
    env = dict(os.environ, PYTHONPATH=str(Path(capqa.__file__).resolve().parents[1]))
    for script, *argv in QUICK_START:
        proc = subprocess.run([sys.executable, str(ROOT / script), *argv], cwd=run_dir,
                              env=env, capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()
        (run_dir / f"{Path(script).stem}.stdout").write_bytes(proc.stdout)
    return {str(p.relative_to(run_dir)): p.read_bytes()
            for p in sorted(run_dir.rglob("*")) if p.is_file()}


def test_quick_start_is_published_and_reproducible(tmp_path):
    first = quick_start(tmp_path / "first")
    outputs = [name for name in first
               if name.startswith("demo_out/") and not name.endswith(".manifest.json")]
    assert len(outputs) == 7
    for name in outputs:
        assert f"{name}.manifest.json" in first
    assert quick_start(tmp_path / "second") == first
