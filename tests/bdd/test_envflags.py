"""Pinning tests for the environment-knob helper ``env_flag``.

The regression guarded here: ``env_flag`` used to compare
case-sensitively, so ``REPRO_SELFCHECK=False`` (or ``OFF``, or
``" 0 "``) silently *enabled* the feature it was meant to disable.
"""

import pytest

from repro._config import env_flag


class TestEnvFlag:
    @pytest.mark.parametrize(
        "raw",
        ["0", "false", "False", "FALSE", "no", "No", "NO", "off", "OFF",
         "Off", " 0 ", "\tfalse\n", " Off "],
    )
    def test_falsy_spellings(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_X", raw)
        assert env_flag("REPRO_X", default=True) is False

    @pytest.mark.parametrize("raw", ["1", "true", "True", "yes", "on", "anything"])
    def test_truthy_spellings(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_X", raw)
        assert env_flag("REPRO_X", default=False) is True

    @pytest.mark.parametrize("default", [True, False])
    def test_unset_and_empty_yield_default(self, monkeypatch, default):
        monkeypatch.delenv("REPRO_X", raising=False)
        assert env_flag("REPRO_X", default) is default
        monkeypatch.setenv("REPRO_X", "")
        assert env_flag("REPRO_X", default) is default
        monkeypatch.setenv("REPRO_X", "   ")
        assert env_flag("REPRO_X", default) is default
