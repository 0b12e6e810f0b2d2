import hashlib

import pytest


def _write_cache(path, lines):
    """Write `lines` as a cache body under a header that matches it."""
    body = "".join(line + "\n" for line in lines).encode()
    digest = hashlib.sha256(body).hexdigest().encode()
    path.write_bytes(b"curvelab-memo/v1 " + digest + b"\n" + body)


@pytest.fixture
def write_cache():
    return _write_cache
