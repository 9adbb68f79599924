"""The digest-keyed face of the result cache, and the wire digest check."""

import hashlib
import json

import pytest

from repro.serve.cluster.shard import valid_digest
from repro.sim.executor import ResultCache


def digest_of(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestValidDigest:
    def test_accepts_sha256_hex(self):
        assert valid_digest(digest_of("x"))

    @pytest.mark.parametrize(
        "bad", ["", "abc", "x" * 64, digest_of("x")[:-1], 42, None]
    )
    def test_rejects_everything_else(self, bad):
        assert not valid_digest(bad)


class TestShardStore:
    """``ResultCache.get``/``put``: the digest-keyed store behind
    ``/cluster/cache/<digest>``."""

    def test_put_get_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        digest = digest_of("a")
        cache.put(digest, {"ipc": 1.5})
        assert cache.get(digest) == {"ipc": 1.5}

    def test_missing_is_miss(self, tmp_path):
        assert ResultCache(tmp_path).get(digest_of("nope")) is None

    def test_corrupt_entry_deleted_and_missed(self, tmp_path):
        cache = ResultCache(tmp_path)
        digest = digest_of("a")
        path = cache.put(digest, {"ipc": 1.5})
        path.write_text("{torn")
        assert cache.get(digest) is None
        assert not path.exists()

    def test_schema_mismatch_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        digest = digest_of("a")
        path = cache.put(digest, {"ipc": 1.5})
        entry = json.loads(path.read_text())
        entry["schema"] = -1
        path.write_text(json.dumps(entry))
        assert cache.get(digest) is None

    def test_digest_mismatch_deleted_and_missed(self, tmp_path):
        """An entry whose recorded digest is not its file name's (a
        file copied or renamed into place) is never served."""
        cache = ResultCache(tmp_path)
        digest, other = digest_of("a"), digest_of("b")
        source = cache.put(other, {"ipc": 1.5})
        path = cache.path_for(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source.read_text())
        assert cache.get(digest) is None
        assert not path.exists()
        assert cache.get(other) == {"ipc": 1.5}
