import json

from golden_corpus import CORPUS, digests, moved_groups


def test_golden_corpus_is_unchanged():
    """Every group of library outputs hashes as recorded; the message
    names each group that moved."""
    moved = moved_groups(json.loads(CORPUS.read_text()), digests())
    assert not moved, f"golden corpus groups moved: {', '.join(moved)}"
