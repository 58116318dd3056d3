//! The benchmark's outward contracts: `BENCHMARK.json` names exactly the
//! workloads and metrics the code reports, the driver line has the shape
//! the driver parses, and the files `run` writes can be read back.

use std::path::{Path, PathBuf};
use sttcp_perf::measure::{end_to_end, per_layer, Options};
use sttcp_perf::metrics::{END_TO_END, PER_LAYER};
use sttcp_perf::report::{driver_line, read_results, write_results, write_trace};
use sttcp_perf::workloads::{WorkloadId, ALL};

fn quick(workload: WorkloadId) -> Options {
    Options { workload, seed: Some(7), seconds: 0.0, min_reps: 1, min_cycles: 1, quick: true }
}

fn tmp(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// The `"name": "…"` values of the JSON array that follows `"<key>": [`.
fn names_under(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\": [")).unwrap_or_else(|| panic!("no {key} array"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\": \"").skip(1).map(|s| s[..s.find('"').unwrap()].to_string()).collect()
}

#[test]
fn benchmark_json_names_what_the_code_reports() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
    let workloads: Vec<_> = ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names_under(&json, "workloads"), workloads);
    let e2e: Vec<_> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
    assert_eq!(names_under(&json, "end_to_end"), e2e);
    let layers: Vec<_> = PER_LAYER.iter().map(|m| m.name.to_string()).collect();
    assert_eq!(names_under(&json, "per_layer"), layers);
    for def in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", def.name, def.unit);
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        if let Some(bound) = def.bound {
            let bounded = format!("{entry}, \"better\": \"lower\", \"bound\": {bound}}}");
            assert!(json.contains(&bounded), "BENCHMARK.json lacks {bounded}");
        }
    }
    for w in ALL {
        assert!(json.contains(&format!("\"why\": \"{}\"", w.why())), "why of {}", w.name());
        assert!(w.why().len() <= 200);
        assert_eq!(WorkloadId::from_name(w.name()), Some(w));
    }
}

#[test]
fn driver_line_is_one_json_object_with_every_metric_of_the_phase() {
    let report = end_to_end(&quick(WorkloadId::BulkSttcp));
    assert!(report.correct(), "{:?}", report.failures);
    let line = driver_line(&report);
    assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {"));
    assert!(line.ends_with("}}") && !line.contains('\n'));
    for def in END_TO_END {
        assert!(line.contains(&format!("\"{}\": {{\"value\": ", def.name)), "{}", def.name);
    }
    // Host times are never zero; the counting allocator is not installed
    // in a test binary, so only the allocation metrics may read zero here.
    for (name, value) in &report.metrics {
        assert!(value.value > 0.0 || name.contains("alloc"), "{name} = {}", value.value);
    }
}

#[test]
fn results_and_trace_files_read_back() {
    let opts = quick(WorkloadId::BulkStd);
    let mut report = per_layer(&opts);
    assert!(report.correct(), "{:?}", report.failures);
    let names: Vec<_> = report.metrics.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>());
    let value = |name: &str| report.metrics.iter().find(|(n, _)| *n == name).unwrap().1.value;
    // A solo server: the sttcp spans and counters are absent, the rest is there.
    assert_eq!(value("sttcp.primary_actor_ns_per_frame"), 0.0);
    assert_eq!(value("sttcp.backup_actor_ns_per_frame"), 0.0);
    assert_eq!(value("side_bytes_per_goodput_byte"), 0.0);
    assert_eq!(value("tcpstack.retransmits_per_payload_mb"), 0.0);
    assert!(value("sttcp.solo_actor_ns_per_frame") > 0.0);
    assert!(value("netsim.self_ns_per_event") > 0.0);
    assert!(value("trace.overhead_ratio") > 0.5);

    // The trace file's aggregates equal what its own spans add up to.
    let buf = report.trace.take().expect("the traced phase keeps its last span buffer");
    let path = tmp("trace-bulk_std.json");
    write_trace(&path, "bulk_std", &buf).expect("trace file written");
    let text = std::fs::read_to_string(&path).unwrap();
    let (head, spans) = text.split_once("\"spans\":[\n").expect("spans array");
    let mut recomputed = std::collections::BTreeMap::<(usize, usize), (u64, u64)>::new();
    let mut lines = 0;
    for line in spans.lines().filter(|l| l.starts_with('[')) {
        let nums: Vec<u64> = line
            .trim_matches(|c| c == '[' || c == ']' || c == ',')
            .split(',')
            .map(|n| n.parse().unwrap())
            .collect();
        let slot = recomputed.entry((nums[0] as usize, nums[1] as usize)).or_default();
        slot.0 += 1;
        slot.1 += nums[3] - nums[2];
        lines += 1;
    }
    assert_eq!(lines, buf.spans.len());
    let actors = ["client", "primary", "backup", "solo", "switch"];
    let callbacks = ["on_start", "on_frame", "on_timer"];
    for ((actor, callback), (count, total)) in recomputed {
        let entry = format!(
            "{{\"name\":\"{}.{}\",\"count\":{count},\"total_ns\":{total}}}",
            actors[actor], callbacks[callback]
        );
        assert!(head.contains(&entry), "aggregate {entry} not in the file's header");
    }

    // The results file round-trips every value bit for bit.
    let path = tmp("results.json");
    let reports = [end_to_end(&opts), report];
    write_results(&path, &reports).expect("results file written");
    let records = read_results(&path).expect("results file read");
    let written: Vec<_> = reports.iter().flat_map(|r| r.metrics.iter()).collect();
    assert_eq!(records.len(), END_TO_END.len() + PER_LAYER.len());
    for (record, (name, value)) in records.iter().zip(written) {
        assert_eq!((record.workload.as_str(), record.metric.as_str()), ("bulk_std", *name));
        assert_eq!(record.value, *value, "{name}");
    }
}
