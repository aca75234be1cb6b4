import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_demo(name, hash_seed):
    path = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p
    )
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", name)],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_ordered_fields_demo_ignores_hash_seed():
    """Demo 01 prints the same bytes whatever the string hash seed; the
    seeds 1 and 10 listed its positivity set in opposite orders when it
    printed the set in iteration order."""
    out = _run_demo("01_ordered_fields.py", "1")
    assert out == _run_demo("01_ordered_fields.py", "10")
    assert b"positivity set of x: ['sqrt(2)>0, x->0+', 'sqrt(2)<0, x->0+']" in out
