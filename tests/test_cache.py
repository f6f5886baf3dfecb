import numpy as np
import pytest

from quasilab import __version__
from quasilab.cache import ENV_VAR, cache_key, cached_eigenvalues
from quasilab.labyrinth import LabyrinthParams, axis_eigenvalues, eigs_1d_axes


class TestCacheKey:
    def test_distinct_parameters_distinct_keys(self):
        keys = {
            cache_key(1, 2.0, 64, "box0-v1", 1e-11),
            cache_key(2, 2.0, 64, "box0-v1", 1e-11),
            cache_key(1, 2.5, 64, "box0-v1", 1e-11),
            cache_key(1, 2.0, 65, "box0-v1", 1e-11),
            cache_key(1, 2.0, 64, "box1-v1", 1e-11),
            cache_key(1, 2.0, 64, "box0-v1", 1e-9),
        }
        assert len(keys) == 6

    def test_key_is_a_safe_filename(self):
        key = cache_key(1, 1.3, 257, "box0-v1", 1e-11)
        assert "/" not in key and " " not in key and key.endswith(".csv")

    def test_key_carries_the_version(self):
        key = cache_key(1, 1.3, 257, "box0-v1", 1e-11)
        assert f"_v{__version__.replace('.', 'p')}_" in key


class TestCachedEigenvalues:
    def test_disabled_without_env(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        calls = []

        def compute():
            calls.append(1)
            return np.array([1.0, 2.0])

        cached_eigenvalues("k.csv", 2, compute)
        cached_eigenvalues("k.csv", 2, compute)
        assert len(calls) == 2  # no memoisation

    def test_roundtrip_through_disk(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_VAR, str(tmp_path))
        calls = []
        values = np.array([-2.0 ** 0.5, 0.0, 2.0 ** 0.5, 1.0 / 3.0])

        def compute():
            calls.append(1)
            return values

        first = cached_eigenvalues("roundtrip.csv", 4, compute)
        second = cached_eigenvalues("roundtrip.csv", 4, compute)
        assert len(calls) == 1
        assert np.array_equal(first, np.sort(values))
        assert np.array_equal(second, np.sort(values))
        assert (tmp_path / "roundtrip.csv").exists()

    @pytest.mark.parametrize("stored", [
        "-1\n0\n",  # truncated: fewer values than the key's size
        "-1\n0\n1\n2\n",  # more values than the key's size
        "-1\n0\nnan\n",
        "-1\n0\n1e\n",  # cut inside a number
        "",
    ])
    def test_bad_file_is_recomputed_and_rewritten(self, monkeypatch, tmp_path, stored):
        monkeypatch.setenv(ENV_VAR, str(tmp_path))
        (tmp_path / "bad.csv").write_text(stored, encoding="ascii")
        values = np.array([1.0, -1.0, 0.0])
        calls = []

        def compute():
            calls.append(1)
            return values

        first = cached_eigenvalues("bad.csv", 3, compute)
        second = cached_eigenvalues("bad.csv", 3, compute)
        assert len(calls) == 1  # recomputed once, then read back from the rewritten file
        assert first.tolist() == second.tolist() == [-1.0, 0.0, 1.0]

    def test_eigs_1d_axes_uses_cache(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_VAR, str(tmp_path))
        axis_eigenvalues.cache_clear()  # a list memoised by an earlier test would skip the disk
        p = LabyrinthParams(1, 1.5, 1.5)
        e1, _ = eigs_1d_axes(p, 16)
        assert len(list(tmp_path.iterdir())) == 1  # both axes share one list
        e1_again, _ = eigs_1d_axes(p, 16)
        assert np.array_equal(e1, e1_again)
