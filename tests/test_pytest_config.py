"""The pytest configuration reports a failing property test as a failure, not as a crash."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_failing_hypothesis_test_is_reported_not_an_internal_error(tmp_path):
    # Hypothesis's failure report imports libcst, which warns on import; `filterwarnings = error` must not
    # turn that warning into an INTERNALERROR that ends the whole session without a report.
    test_file = tmp_path / "test_throwaway.py"
    test_file.write_text(
        "from hypothesis import given, strategies as st\n"
        "\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n"
    )
    done = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), str(test_file),
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = done.stdout + done.stderr
    assert "INTERNALERROR" not in output
    assert done.returncode == 1, output
    assert "1 failed" in output and "Falsifying example" in output
