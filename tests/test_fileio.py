"""Input and output helpers shared by every file kind."""

from factrail.fileio import drawn_ahead


def test_drawn_ahead_keeps_order_and_draws_a_chunk_at_a_time():
    drawn = []

    def items():
        for n in range(70):
            drawn.append(n)
            yield n

    seen = [(item, len(drawn)) for item in drawn_ahead(items())]
    assert [item for item, _ in seen] == list(range(70))
    assert [count for _, count in seen] == [32] * 32 + [64] * 32 + [70] * 6
