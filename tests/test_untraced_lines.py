import os
import subprocess
import sys

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "untraced_lines.py")

TOY = """\
def covered(x):
    y = x + 1
    return y


def untested(x):
    z = x * 2
    return z
"""


def test_lists_the_body_of_the_function_no_test_calls(tmp_path):
    (tmp_path / "pkg" / "toy").mkdir(parents=True)
    (tmp_path / "pkg" / "toy" / "__init__.py").write_text(TOY)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_toy.py").write_text(
        "from toy import covered\n\n\ndef test_covered():\n    assert covered(1) == 2\n")
    run = subprocess.run([sys.executable, TOOL, "--package", os.path.join("pkg", "toy"), "--",
                          "-q", "-p", "no:cacheprovider", "tests"],
                         cwd=tmp_path, env={**os.environ, "PYTHONPATH": "pkg"},
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    listed = run.stdout.split("never ran:\n")[1].splitlines()
    where = os.path.join("pkg", "toy", "__init__.py")
    assert listed == [f"{where}:7: z = x * 2", f"{where}:8: return z"]
