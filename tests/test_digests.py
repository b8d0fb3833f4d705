"""Every output of `make_digests`'s runs has the byte count and sha256
committed in `tests/data/digests.json`.

A mismatch lists every name whose digest differs, so a log names all the
outputs that moved at once, on this host or another.  After a change that
is meant to move outputs, `python tests/make_digests.py` rewrites the file.
"""

import json

import make_digests


def test_every_output_has_its_committed_digest(tmp_path):
    want = json.loads(make_digests.DIGESTS.read_text(encoding="utf-8"))
    got = make_digests.digests(tmp_path)
    differing = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    assert not differing, f"{len(differing)} digests differ: " + ", ".join(differing)
