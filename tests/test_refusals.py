"""The refusal table of `tests/refusals.py`, each case through `qcfc.cli.main` in this process."""

import pytest

from .refusals import CASES, check, in_process, make_base


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    return make_base(tmp_path_factory.mktemp("refusals") / "base", in_process)


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_refusal(base, tmp_path, case):
    if case.skip:
        pytest.skip(case.skip)
    check(case, in_process, base, tmp_path / "work")
