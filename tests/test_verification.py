import math

from lattice_akns import conserved, verification


def _nan_at(sample):
    """transfer_trace that returns NaN at one spectral sample."""
    trace = conserved.transfer_trace

    def patched(state, lam):
        return complex("nan") if lam == sample else trace(state, lam)

    return patched


def test_conservation_suite_fails_on_nan_trace_drift(monkeypatch):
    # the last sample: builtin max() would keep the earlier finite drifts
    monkeypatch.setattr(conserved, "transfer_trace", _nan_at(-0.7 + 0.3j))
    result = verification.conservation_suite(steps=5)
    assert not result.passed
    assert math.isnan(result.measured)


def test_al_conservation_suite_fails_on_nan_trace_drift(monkeypatch):
    monkeypatch.setattr(conserved, "transfer_trace", _nan_at(0.6 + 0.6j))
    result = verification.al_conservation_suite(steps=5)
    assert not result.passed
    assert math.isnan(result.measured)
