"""Tests for the terminal plotting helpers."""

import numpy as np
import pytest

from repro.errors import SignalError
from repro.textplot import cdf_plot, waveform


class TestWaveform:
    def test_panel_dimensions(self):
        panel = waveform(np.sin(np.linspace(0, 20, 300)), width=50, height=7)
        lines = panel.splitlines()
        assert len(lines) == 7
        assert all(len(line) == 50 for line in lines)

    def test_title_prepended(self):
        panel = waveform(np.ones(16), title="HRIR")
        assert panel.splitlines()[0] == "HRIR"

    def test_isolated_tap_visible(self):
        """Block-max resampling must keep a lone tap visible."""
        signal = np.zeros(1000)
        signal[500] = 1.0
        panel = waveform(signal, width=50, height=5)
        assert "█" in panel

    def test_rejects_even_height(self):
        with pytest.raises(SignalError):
            waveform(np.ones(16), height=4)


class TestCdf:
    def test_cdf_monotone_rows(self):
        text = cdf_plot(np.arange(100.0))
        bars = [line.count("█") for line in text.splitlines()]
        assert bars == sorted(bars)
