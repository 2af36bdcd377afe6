"""Fig. 15 — frame compression ratio at each skimming layer.

The paper reports ~10% of the frames at layer 4, rising to 100% at
layer 1.  FCR is averaged across the corpus and the monotone shape is
asserted.
"""

from __future__ import annotations

from benchmarks.conftest import save_result
from repro.evaluation.report import render_series, render_table
from repro.skimming import build_skim, fcr_by_level


def test_fig15_frame_compression_ratio(benchmark, corpus_runs, results_dir):
    run = corpus_runs[0][1]
    benchmark(build_skim, run.structure, run.events.events)

    sums = {level: 0.0 for level in (1, 2, 3, 4)}
    per_video_rows = []
    for video, run in corpus_runs:
        skim = build_skim(run.structure, run.events.events)
        fcr = fcr_by_level(skim)
        per_video_rows.append([video.title, fcr[4], fcr[3], fcr[2], fcr[1]])
        for level, value in fcr.items():
            sums[level] += value
    count = len(corpus_runs)
    averages = {level: sums[level] / count for level in sums}

    table = render_table(
        ["video", "layer 4", "layer 3", "layer 2", "layer 1"],
        per_video_rows + [["average", *(averages[level] for level in (4, 3, 2, 1))]],
        title="Fig. 15 — frame compression ratio per skimming layer",
    )
    series = render_series(
        "average FCR", [(level, averages[level]) for level in (4, 3, 2, 1)]
    )
    paper = (
        "paper: ~0.10 at layer 4 rising to 1.0 at layer 1; "
        f"measured layer 4 = {averages[4]:.3f}"
    )
    save_result(results_dir, "fig15_fcr", table + "\n\n" + series + "\n" + paper)

    assert averages[1] == 1.0
    assert averages[4] < averages[3] < averages[2] < averages[1]
    # Layer 4 lands near the paper's ~10%.
    assert averages[4] < 0.25
