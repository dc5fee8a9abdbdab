"""Corpus-driven acceptance tests for reprolint.

``corpus/bad/`` holds one program per finding code; each declares the exact
findings it must produce via ``# expect: RPLxxx`` header lines (one line per
expected finding).  ``corpus/clean/`` holds realistic programs that must
produce *zero* findings — the no-false-positives contract.
"""

import re
from pathlib import Path

import pytest

from repro.analysis import CODES, lint_file

CORPUS = Path(__file__).parent / "corpus"
BAD = sorted((CORPUS / "bad").glob("*.py"))
CLEAN = sorted((CORPUS / "clean").glob("*.py"))

_EXPECT = re.compile(r"^#\s*expect:\s*(RPL\d{3})\s*$", re.MULTILINE)


def expected_codes(path: Path):
    return sorted(_EXPECT.findall(path.read_text(encoding="utf-8")))


def test_corpus_is_populated():
    assert len(BAD) >= 8
    assert len(CLEAN) >= 6


def test_every_layer1_and_layer2_code_is_covered():
    covered = {code for path in BAD for code in expected_codes(path)}
    checkable = set(CODES) - {"RPL000"}  # RPL000 is tested via lint_source
    assert checkable <= covered, f"codes without a corpus program: {sorted(checkable - covered)}"


@pytest.mark.parametrize("path", BAD, ids=lambda p: p.stem)
def test_bad_program_yields_exactly_the_expected_codes(path):
    expected = expected_codes(path)
    assert expected, f"{path.name} has no '# expect:' header"
    found = sorted(f.code for f in lint_file(path))
    assert found == expected, "\n".join(
        f.render() for f in lint_file(path)
    )


@pytest.mark.parametrize("path", CLEAN, ids=lambda p: p.stem)
def test_clean_program_yields_no_findings(path):
    findings = lint_file(path)
    assert findings == [], "\n".join(f.render() for f in findings)


@pytest.mark.parametrize("path", BAD, ids=lambda p: p.stem)
def test_findings_carry_real_locations_and_registered_codes(path):
    for f in lint_file(path):
        assert f.code in CODES
        assert f.path == str(path)
        assert f.line > 0


def test_a_loop_that_lines_up_leaves_the_trailing_call_flagged():
    path = CORPUS / "bad" / "rpl101_after_while.py"
    (finding,) = lint_file(path)
    assert finding.line == len(path.read_text(encoding="utf-8").splitlines())
