"""The result records are immutable `NamedTuple`s, and the CLI's import
stays light because of it."""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from banded_darboux import (
    GeneratedInstance,
    InstanceConfig,
    OrthogonalityReport,
    PartialFactorization,
    StageVerdict,
    TheoremCertificate,
    Witness,
)
from banded_darboux.engine import StagingResult

SRC = Path(__file__).resolve().parents[1] / "src"

_WITNESS = Witness("zero", 1, 0, 1, Fraction(1, 2))
_REPORT = OrthogonalityReport(1, 3, 4, 2, (_WITNESS,))
_VERDICT = StageVerdict(0, _REPORT)
RECORDS = [
    _WITNESS,
    _REPORT,
    _VERDICT,
    StagingResult((), (), (), None),
    PartialFactorization(1, (1, 1), (("1",),), 1),
    TheoremCertificate("0" * 16, 1, 5, "0", 3, 4, (), (), (_VERDICT,), ()),
    InstanceConfig(p=2, n=14, window=8),
    GeneratedInstance(None, None, (), 0),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_no_field_of_a_record_can_be_assigned(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


def test_the_cli_import_loads_neither_dataclasses_nor_inspect():
    """A fresh `python -S`, so that no site hook imports them first."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import banded_darboux.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"
