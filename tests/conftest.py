import pytest

from qsiegel import fourier
from qsiegel.ring import GeneratorSet


@pytest.fixture(scope="session")
def gens12():
    """One shared build of every generator at grade precision 12."""
    return GeneratorSet.build(12)


@pytest.fixture
def parity_reads(monkeypatch):
    """The list of what each call of fourier._parity returns, in call order."""
    reads = []
    read = fourier._parity

    def recording(vec, mir):
        reads.append(read(vec, mir))
        return reads[-1]

    monkeypatch.setattr(fourier, "_parity", recording)
    return reads
