"""REPRO_WORKERS parsing: malformed values fail fast with a clear error.

Worker counts arrive through three doors — the ``workers=`` argument,
the ``REPRO_WORKERS`` environment variable, and the CLI ``--workers``
flag.  All three must reject non-integers and non-positive counts with
an error that names the offending source, *before* any expensive work
(in particular before the golden run) starts.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.faultinject.parallel import WORKERS_ENV, default_workers, resolve_workers
from repro.summarize.golden import golden_cache_stats


class TestEnvParsing:
    @pytest.mark.parametrize("raw", ["abc", "lots", "1.5", "2x", " ", "--"])
    def test_non_integer_env_rejected(self, monkeypatch, raw):
        monkeypatch.setenv(WORKERS_ENV, raw)
        with pytest.raises(ValueError, match="REPRO_WORKERS.*positive integer"):
            resolve_workers(None)
        with pytest.raises(ValueError, match="REPRO_WORKERS.*positive integer"):
            default_workers()

    @pytest.mark.parametrize("raw", ["0", "-1", "-2"])
    def test_non_positive_env_rejected(self, monkeypatch, raw):
        monkeypatch.setenv(WORKERS_ENV, raw)
        with pytest.raises(ValueError, match="REPRO_WORKERS.*positive integer"):
            resolve_workers(None)
        with pytest.raises(ValueError, match="REPRO_WORKERS.*positive integer"):
            default_workers()

    def test_error_quotes_the_offending_value(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "many")
        with pytest.raises(ValueError, match="'many'"):
            resolve_workers(None)

    def test_valid_env_accepted(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert resolve_workers(None) == 3
        assert default_workers() == 3

    def test_empty_env_means_unset(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "")
        assert resolve_workers(None) == 1
        assert default_workers() >= 1


class TestExplicitRequest:
    @pytest.mark.parametrize("requested", [0, -1, -7])
    def test_non_positive_request_rejected_not_clamped(self, requested):
        with pytest.raises(ValueError, match="workers.*positive integer"):
            resolve_workers(requested)

    def test_explicit_request_bypasses_broken_env(self, monkeypatch):
        # An explicit count wins, so a stale bad env var cannot break it.
        monkeypatch.setenv(WORKERS_ENV, "garbage")
        assert resolve_workers(2) == 2


class TestCLIPaths:
    def test_cli_rejects_zero_workers(self, capsys):
        with pytest.raises(SystemExit):
            main(["campaign", "--workers", "0", "-n", "1", "--frames", "8"])
        assert "positive integer" in capsys.readouterr().err

    def test_cli_rejects_non_integer_workers(self, capsys):
        with pytest.raises(SystemExit):
            main(["campaign", "--workers", "two", "-n", "1", "--frames", "8"])

    def test_campaign_fails_fast_on_bad_env_before_golden_run(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "not-a-count")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            main(["campaign", "-n", "2", "--frames", "8"])
        # Fail-fast contract: the golden run never started.
        assert golden_cache_stats().computes == 0

    def test_experiment_fails_fast_on_bad_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "-3")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            main(["experiment", "fig10", "--scale", "tiny"])
        assert golden_cache_stats().computes == 0


class TestBlasThreadPin:
    """The CLI pins BLAS/OpenMP to one thread unless the user chose."""

    VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

    def _env_when_numpy_loads(self, **overrides: str) -> dict[str, str | None]:
        """The thread variables as NumPy sees them when ``repro.cli`` imports it."""
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[2] / "src"
        env = {k: v for k, v in os.environ.items() if k not in self.VARS}
        env["PYTHONPATH"] = str(src)
        env.update(overrides)
        code = f"""
import json, os, sys
seen = {{}}
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.update({{v: os.environ.get(v) for v in {self.VARS!r}}})
sys.meta_path.insert(0, Spy())
import repro.cli
print(json.dumps(seen))
"""
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        return json.loads(out.stdout)

    def test_default_is_one_thread(self):
        assert self._env_when_numpy_loads() == {var: "1" for var in self.VARS}

    def test_user_value_wins(self):
        seen = self._env_when_numpy_loads(OPENBLAS_NUM_THREADS="3", OMP_NUM_THREADS="2")
        assert seen == {
            "OPENBLAS_NUM_THREADS": "3",
            "OMP_NUM_THREADS": "2",
            "MKL_NUM_THREADS": "1",
        }
