//! Output: the driver's one-line JSON, the human table, the results file
//! `repeat` compares, and the trace file of a traced run.
//!
//! The workspace has no JSON crate, so the writers are `format!` and the
//! one reader ([`read_results`]) understands exactly what
//! [`write_results`] writes: one flat record per line.

use crate::measure::{Report, Value};
use crate::metrics::{self, Kind};
use crate::topo::{Actor, Callback, SpanBuf};
use std::fmt::Write as _;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// A float as JSON: every digit `f64` has, and never `NaN`/`inf` (which
/// JSON cannot carry; a metric that is not finite is a benchmark bug).
fn num(v: f64) -> String {
    assert!(v.is_finite(), "a metric must be a finite number");
    format!("{v}")
}

/// The single line the acceptance driver reads from standard output:
/// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
pub fn driver_line(report: &Report) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.correct(),
        report.attempted.max(1),
        report.failed
    );
    for (i, (name, value)) in report.metrics.iter().enumerate() {
        let unit = metrics::find(name).expect("reported metrics come from the tables").unit;
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(value.value)
        );
    }
    line.push_str("}}");
    line
}

/// Every metric by name, with its unit, for people.
pub fn print_table(out: &mut impl Write, report: &Report) -> io::Result<()> {
    writeln!(
        out,
        "== {} (seed {:#x}): {} connections attempted, {} failed",
        report.workload.name(),
        report.seed,
        report.attempted,
        report.failed
    )?;
    for (name, v) in &report.metrics {
        let unit = metrics::find(name).expect("reported metrics come from the tables").unit;
        if v.n > 1 {
            writeln!(
                out,
                "  {name:<40} {:>16.6} {unit:<10} q1 {:.6} q3 {:.6} n {}",
                v.value, v.q1, v.q3, v.n
            )?;
        } else {
            writeln!(out, "  {name:<40} {:>16.6} {unit}", v.value)?;
        }
    }
    for failure in &report.failures {
        writeln!(out, "  FAILED: {failure}")?;
    }
    Ok(())
}

/// One metric of one workload, as stored in a results file.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// The value.
    pub value: Value,
}

/// Writes every metric of `reports` to `path`, a JSON array with one
/// flat object per line.
pub fn write_results(path: &Path, reports: &[Report]) -> io::Result<()> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "[")?;
    let mut first = true;
    for report in reports {
        for (name, v) in &report.metrics {
            let def = metrics::find(name).expect("reported metrics come from the tables");
            let kind = match def.kind {
                Kind::Host => "host",
                Kind::Exact => "exact",
            };
            if !first {
                writeln!(out, ",")?;
            }
            first = false;
            write!(
                out,
                "{{\"workload\":\"{}\",\"seed\":{},\"metric\":\"{name}\",\"unit\":\"{}\",\"kind\":\"{kind}\",\"value\":{},\"q1\":{},\"q3\":{},\"n\":{}}}",
                report.workload.name(),
                report.seed,
                def.unit,
                num(v.value),
                num(v.q1),
                num(v.q3),
                v.n
            )?;
        }
    }
    writeln!(out, "\n]")?;
    out.flush()
}

/// The raw text of `"key":` in a flat record line, quotes stripped.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":");
    let rest = &line[line.find(&tag)? + tag.len()..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim_matches('"'))
}

/// Reads back what [`write_results`] wrote.
pub fn read_results(path: &Path) -> io::Result<Vec<Record>> {
    let bad =
        |line: &str| io::Error::new(io::ErrorKind::InvalidData, format!("bad record: {line}"));
    let text = std::fs::read_to_string(path)?;
    let mut records = Vec::new();
    for line in text.lines().filter(|l| l.starts_with('{')) {
        let text_of = |key| field(line, key).ok_or_else(|| bad(line));
        let number = |key| text_of(key)?.parse::<f64>().map_err(|_| bad(line));
        records.push(Record {
            workload: text_of("workload")?.to_string(),
            metric: text_of("metric")?.to_string(),
            value: Value {
                value: number("value")?,
                q1: number("q1")?,
                q3: number("q3")?,
                n: number("n")? as usize,
            },
        });
    }
    Ok(records)
}

/// Writes one traced rep: the run span, the aggregates per actor ×
/// callback, and every span as `[actor, callback, start_ns, end_ns]`,
/// one per line. A span's id is its line number among the spans, from 1;
/// that is also its sequence number among the simulator's dispatches.
/// Every span's parent is the run span, id 0.
pub fn write_trace(path: &Path, workload: &str, buf: &SpanBuf) -> io::Result<()> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    let names =
        |items: &[&str]| items.iter().map(|n| format!("\"{n}\"")).collect::<Vec<_>>().join(",");
    writeln!(out, "{{\"format\":\"sttcp-perf-trace-v1\",\"workload\":\"{workload}\",")?;
    writeln!(
        out,
        "\"run_span\":{{\"id\":0,\"name\":\"run\",\"start_ns\":{},\"end_ns\":{}}},",
        buf.run_ns.0, buf.run_ns.1
    )?;
    writeln!(out, "\"actors\":[{}],", names(&Actor::ALL.map(Actor::name)))?;
    writeln!(out, "\"callbacks\":[{}],", names(&Callback::ALL.map(Callback::name)))?;
    writeln!(out, "\"aggregates\":[")?;
    let aggregates = buf.aggregates();
    let mut first = true;
    for actor in Actor::ALL {
        for callback in Callback::ALL {
            let a = aggregates[actor as usize][callback as usize];
            if a.count == 0 {
                continue;
            }
            let sep = if first { "" } else { ",\n" };
            first = false;
            write!(
                out,
                "{sep}{{\"name\":\"{}.{}\",\"count\":{},\"total_ns\":{}}}",
                actor.name(),
                callback.name(),
                a.count,
                a.total_ns
            )?;
        }
    }
    writeln!(out, "\n],")?;
    writeln!(out, "\"span_fields\":[\"actor\",\"callback\",\"start_ns\",\"end_ns\"],")?;
    writeln!(out, "\"spans\":[")?;
    for (i, s) in buf.spans.iter().enumerate() {
        let sep = if i + 1 == buf.spans.len() { "" } else { "," };
        writeln!(
            out,
            "[{},{},{},{}]{sep}",
            s.actor as u8,
            s.callback as u8,
            s.start_ns,
            s.end_ns()
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}
