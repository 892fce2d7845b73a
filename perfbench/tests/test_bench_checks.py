"""The serve workloads' scorecard check against the in-process replay."""

import dataclasses

from repro.core.streaming import StreamScorecard

from serve_load import check_scorecards


def _card(**changes):
    card = StreamScorecard(
        frames_total=320, frames_processed=320, frames_dropped=0,
        batches_late=0, batches_total=20, mean_frame_latency_s=0.004,
        effective_error_pct=88.75, energy_j=0.0, wall_time_s=1.28,
        tenant="t0")
    return dataclasses.replace(card, **changes)


def test_identical_scorecards_pass_whatever_the_wall_time():
    assert check_scorecards([_card(wall_time_s=9.0,
                                   mean_frame_latency_s=0.1)],
                            [_card()]) == []


def test_tampered_scorecard_fails():
    for tamper in ({"effective_error_pct": 88.4375}, {"frames_processed": 304},
                   {"rollbacks": 1}, {"tenant": "t1"}):
        problems = check_scorecards([_card(**tamper)], [_card()])
        assert len(problems) == 1 and "t0" in problems[0]
