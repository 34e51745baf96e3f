"""The refusal table of `tests/refusals.py`, each case through `qcfc.cli.main` in this process.

The rows that replaced cases of `test_cli.py` run there, under those cases' ids.
"""

import pytest

from .refusals import CASES, check, in_process
from .test_cli import ROWS_RUN_HERE


@pytest.mark.parametrize(
    "case", [case for case in CASES if case.name not in ROWS_RUN_HERE], ids=lambda case: case.name
)
def test_refusal(refusal_base, tmp_path, case):
    if case.skip:
        pytest.skip(case.skip)
    check(case, in_process, refusal_base, tmp_path / "work")
