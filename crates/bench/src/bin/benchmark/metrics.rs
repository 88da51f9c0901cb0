//! Every metric the benchmark prints: name, unit, which way is better.
//! `BENCHMARK.json` lists the same names; a test keeps the two equal.

/// An end-to-end metric and the share of the parent's median by which
/// it may get worse before a change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "frames_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "frame_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "frame_ms_p95",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "wire_bytes_per_frame",
        unit: "B",
        better: "lower",
        bound: 0.15,
    },
];

/// A per-layer metric: (name, unit, better). Layers are the crates.
pub type PerLayer = (&'static str, &'static str, &'static str);

pub const PER_LAYER: [PerLayer; 81] = [
    // Harness boundary, from /proc/self/stat and status.
    ("process.cpu_ms_per_frame", "ms", "lower"),
    ("process.sys_cpu_share", "%", "lower"),
    ("process.minor_faults_per_frame", "count", "lower"),
    ("process.peak_rss_mb", "MB", "lower"),
    ("volume.dataset.build_ms", "ms", "lower"),
    ("volume.macrocell.build_ms", "ms", "lower"),
    ("volume.partition.kd_ms", "ms", "lower"),
    ("render.accel.new_ms", "ms", "lower"),
    ("render.block.max_ms", "ms", "lower"),
    ("render.block.sum_ms", "ms", "lower"),
    ("render.pool.speedup_t2", "x", "higher"),
    ("render.block.nonblank_px", "count", "lower"),
    ("render.accel.active_fraction", "%", "lower"),
    ("render.block.sparse_sum_ms", "ms", "lower"),
    ("image.kernel.over_ns_per_px", "ns", "lower"),
    ("image.image.clone_ms", "ms", "lower"),
    ("image.kernel.scan_runs_ns_per_px", "ns", "lower"),
    ("image.rle.encode_ns_per_px", "ns", "lower"),
    ("image.checksum.fnv1a_ms", "ms", "lower"),
    ("comm.group.spawn_join_ms", "ms", "lower"),
    ("comm.endpoint.pingpong_us", "us", "lower"),
    ("comm.endpoint.bulk_mb_per_s", "MB/s", "higher"),
    ("comm.frame.encode_ms", "ms", "lower"),
    ("comm.frame.decode_ms", "ms", "lower"),
    ("comm.frame.loopback_ms", "ms", "lower"),
    ("comm.traffic.msgs_per_frame", "count", "lower"),
    ("comm.traffic.bytes_per_frame", "B", "lower"),
    ("comm.traffic.peak_pixel_buffer_bytes", "B", "lower"),
    ("core.bs.composite_ms_p50", "ms", "lower"),
    ("core.bs.comp_cpu_ms", "ms", "lower"),
    ("core.bs.sent_bytes", "B", "lower"),
    ("core.bs.msgs", "count", "lower"),
    ("core.bsbr.composite_ms_p50", "ms", "lower"),
    ("core.bsbr.comp_cpu_ms", "ms", "lower"),
    ("core.bsbr.sent_bytes", "B", "lower"),
    ("core.bsbr.msgs", "count", "lower"),
    ("core.bslc.composite_ms_p50", "ms", "lower"),
    ("core.bslc.comp_cpu_ms", "ms", "lower"),
    ("core.bslc.sent_bytes", "B", "lower"),
    ("core.bslc.msgs", "count", "lower"),
    ("core.bsbrc.composite_ms_p50", "ms", "lower"),
    ("core.bsbrc.comp_cpu_ms", "ms", "lower"),
    ("core.bsbrc.sent_bytes", "B", "lower"),
    ("core.bsbrc.msgs", "count", "lower"),
    ("core.tstream.composite_ms_p50", "ms", "lower"),
    ("core.tstream.comp_cpu_ms", "ms", "lower"),
    ("core.tstream.sent_bytes", "B", "lower"),
    ("core.tstream.msgs", "count", "lower"),
    ("core.gather.ms_p50", "ms", "lower"),
    ("core.gather.bytes", "B", "lower"),
    ("core.reference.ms", "ms", "lower"),
    ("system.experiment.prepare_ms_p50", "ms", "lower"),
    ("system.experiment.run_ms_p50", "ms", "lower"),
    ("system.experiment.run_overhead_ms", "ms", "lower"),
    ("system.stream.frame_ms_p50", "ms", "lower"),
    ("system.stream.first_tile_ms_p50", "ms", "lower"),
    ("serve.wire.encode_response_ms", "ms", "lower"),
    ("serve.wire.decode_response_ms", "ms", "lower"),
    ("serve.wire.encode_request_us", "us", "lower"),
    ("serve.wire.decode_request_us", "us", "lower"),
    ("serve.cache.frame_key_us", "us", "lower"),
    ("serve.cache.get_us", "us", "lower"),
    ("serve.cache.insert_us", "us", "lower"),
    ("serve.service.inproc_frame_ms_p50", "ms", "lower"),
    ("serve.service.wait_ms_p50", "ms", "lower"),
    ("serve.edge.overhead_ms_p50", "ms", "lower"),
    ("serve.stats.hit_rate", "%", "higher"),
    ("serve.stats.rendered_frames", "count", "lower"),
    ("serve.stats.cache_evictions", "count", "lower"),
    ("serve.stats.peak_queue_depth", "count", "lower"),
    ("serve.stats.refused", "count", "lower"),
    // Measured comp CPU over the `local` preset's modeled time, minus 1.
    ("cost.local.residual_pct_bs", "%", "lower"),
    ("cost.local.residual_pct_bsbr", "%", "lower"),
    ("cost.local.residual_pct_bslc", "%", "lower"),
    ("cost.local.residual_pct_bsbrc", "%", "lower"),
    ("budget.attributed_ms", "ms", "higher"),
    ("budget.unattributed_ms", "ms", "lower"),
    ("budget.unattributed_share", "%", "lower"),
    ("budget.trace_overhead_pct", "%", "lower"),
    ("host.cores", "count", "higher"),
    ("host.anchor_drift_pct", "%", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use vr_cost::json::{parse, Json};

    /// `BENCHMARK.json` sits at the repo root, above this package
    /// whichever manifest the test was built from.
    fn benchmark_json() -> Json {
        let mut dir = std::env::current_dir().unwrap();
        loop {
            let candidate = dir.join("BENCHMARK.json");
            if candidate.exists() {
                return parse(&std::fs::read_to_string(candidate).unwrap()).unwrap();
            }
            assert!(dir.pop(), "no BENCHMARK.json above the test's directory");
        }
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry.get(key).and_then(Json::as_str).unwrap()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let doc = benchmark_json();
        let listed = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap().to_vec();

        let end_to_end = listed("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (entry, m) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(field(entry, "name"), m.name);
            assert_eq!(field(entry, "unit"), m.unit);
            assert_eq!(field(entry, "better"), m.better);
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(m.bound));
        }

        let per_layer = listed("per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (entry, (name, unit, better)) in per_layer.iter().zip(&PER_LAYER) {
            assert_eq!(field(entry, "name"), *name);
            assert_eq!(field(entry, "unit"), *unit);
            assert_eq!(field(entry, "better"), *better);
        }

        let workloads = listed("workloads");
        assert_eq!(workloads.len(), crate::ops::WORKLOADS.len());
        for (entry, w) in workloads.iter().zip(&crate::ops::WORKLOADS) {
            assert_eq!(field(entry, "name"), w.name);
            assert_eq!(field(entry, "why"), w.why);
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        for name in &names {
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        for (_, unit, better) in &PER_LAYER {
            assert!(unit.len() <= 16 && ["lower", "higher"].contains(better));
        }
    }
}
