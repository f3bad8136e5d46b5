"""Per-layer metrics of a traced run, named after the doatrack modules.

Timings are self time (a span's duration minus the part its child spans
cover), averaged per call over every traced phase: set-up and all traced
rounds. Counts, and ratios of counts, are those of the first traced
round, which always runs the seed's first input, so two traced runs on
one seed report the same counts. A timing of a layer that the workload
never calls reads 0, as does a ratio whose base is 0.
"""

from __future__ import annotations

from collections import Counter

from tracer import ADVERSARIES, Record


class _Totals:
    def __init__(self, records: list[Record]):
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        for rec in records:
            for s in rec.spans:
                self.self_ns[s.name] += s.self_ns
                self.calls[s.name] += 1
            self.counts.update(rec.counts)

    def ms(self, *names: str) -> float:
        calls = sum(self.calls[n] for n in names)
        return sum(self.self_ns[n] for n in names) / calls / 1e6 if calls else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(setup: Record, rounds: list[Record], overhead_ratio: float) -> dict:
    """Every per-layer metric by name, as {"value": ..., "unit": ...}."""
    t = _Totals([setup, *rounds])
    first = _Totals(rounds[:1])
    c = first.counts
    frames = {k: c[f"matching.frames.{k}"] for k in ("empty", "one_sided", "1x1", "nxm")}
    both_sides = frames["1x1"] + frames["nxm"]
    parsed = rounds[0].files_parsed if rounds else Counter()
    dist = "geometry.pairwise_angular_distance"
    values = {
        "trackers.pf_tracker.ms_per_scene": (t.ms("trackers.pf_tracker"), "ms"),
        "trackers.pf_tracker.calls": (first.calls["trackers.pf_tracker"], "count"),
        "trackers.pf_tracker.rows_out": (c["trackers.pf_tracker.rows_out"], "count"),
        "trackers.adversary.ms_per_scene": (
            t.ms(*(f"trackers.{a}" for a in ADVERSARIES)), "ms"),
        "matching.match_sequence.ms_per_scene": (t.ms("matching.match_sequence"), "ms"),
        **{f"matching.frames.{k}": (v, "count") for k, v in frames.items()},
        "matching.lsa_calls": (c["matching.lsa.calls"], "count"),
        "matching.lsa_useful_ratio": (_ratio(frames["nxm"], c["matching.lsa.calls"]), "ratio"),
        "frame_metrics.ospa_sequence.ms_per_scene": (t.ms("frame_metrics.ospa_sequence"), "ms"),
        "frame_metrics.frame_metrics_report.self_ms_per_scene": (
            t.ms("frame_metrics.frame_metrics_report"), "ms"),
        "frame_metrics.lsa_calls": (c["frame_metrics.lsa.calls"], "count"),
        "frame_metrics.lsa_useful_ratio": (
            _ratio(frames["nxm"], c["frame_metrics.lsa.calls"]), "ratio"),
        f"{dist}.calls": (c[f"{dist}.calls"], "count"),
        f"{dist}.us_per_call": (
            _ratio(t.counts[f"{dist}.ns"], t.counts[f"{dist}.calls"]) / 1e3, "us"),
        "geometry.distance_calls_per_frame": (_ratio(c[f"{dist}.calls"], both_sides), "ratio"),
        "assoc_metrics.association_scores.ms_per_scene": (
            t.ms("assoc_metrics.association_scores"), "ms"),
        "assoc_metrics.tps": (c["assoc_metrics.tps"], "count"),
        "trackmodel.read_trackset.ms_per_call": (t.ms("trackmodel.read_trackset"), "ms"),
        "trackmodel.read_trackset.calls": (first.calls["trackmodel.read_trackset"], "count"),
        "trackmodel.read_observations.ms_per_call": (t.ms("trackmodel.read_observations"), "ms"),
        "trackmodel.read_observations.calls": (
            first.calls["trackmodel.read_observations"], "count"),
        "trackmodel.write_trackset.ms_per_call": (t.ms("trackmodel.write_trackset"), "ms"),
        "trackmodel.write_observations.ms_per_call": (
            t.ms("trackmodel.write_observations"), "ms"),
        "trackmodel.bytes_read": (c["trackmodel.bytes_read"], "bytes"),
        "trackmodel.bytes_written": (c["trackmodel.bytes_written"], "bytes"),
        "trackmodel.reparse_ratio": (_ratio(sum(parsed.values()), len(parsed)), "ratio"),
        "scenesim.generate_scene.ms_per_scene": (t.ms("scenesim.generate_scene"), "ms"),
        "scenesim.simulate_observations.ms_per_scene": (
            t.ms("scenesim.simulate_observations"), "ms"),
        "scenesim.observations_per_scene": (
            _ratio(t.counts["scenesim.observations"], t.calls["scenesim.simulate_observations"]),
            "count"),
        "reporting.evaluate_scene.self_ms_per_scene": (t.ms("reporting.evaluate_scene"), "ms"),
        "reporting.aggregate_reports.ms_per_cell": (t.ms("reporting.aggregate_reports"), "ms"),
        "reporting.report_csv_rows.ms_per_cell": (t.ms("reporting.report_csv_rows"), "ms"),
        "cli.run_sweep.self_ms": (t.ms("cli.run_sweep"), "ms"),
        "cli.simulate_corpus.self_ms": (t.ms("cli.simulate_corpus"), "ms"),
        "cli.track_corpus.self_ms_per_cell": (t.ms("cli.track_corpus"), "ms"),
        "cli.evaluate_corpus.self_ms_per_cell": (t.ms("cli.evaluate_corpus"), "ms"),
        "cli.pool.starts": (c["cli.pool.starts"], "count"),
        "cli.pool.tasks": (c["cli.pool.tasks"], "count"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}

