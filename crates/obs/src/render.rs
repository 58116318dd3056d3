//! The three post-mortem views of a [`TraceExport`] the `sttcp-trace`
//! CLI exposes: a failover timeline with the takeover phase summary, a
//! per-connection sequence diagram, and Chrome `trace_event` JSON.

use crate::json::write_escaped;
use crate::trace::{ns_ms, Actor, TraceConn, TraceEvent, TraceExport};

/// The takeover phase instants extracted from a trace, aligned with
/// [`crate::TakeoverBreakdown`]: the `suspected`/`promoted`/`first
/// byte` events are recorded at the same call sites (and with the same
/// virtual-time clock) as the corresponding marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelinePhases {
    /// When the backup suspected the primary dead.
    pub suspected_ns: u64,
    /// Primary silence preceding suspicion (the detection phase).
    pub detection_ns: u64,
    /// When fencing was requested, if it was.
    pub fenced_ns: Option<u64>,
    /// When the backup lifted VIP suppression.
    pub promoted_ns: u64,
    /// When the first post-takeover data byte left for the client.
    pub first_byte_ns: Option<u64>,
}

impl TimelinePhases {
    /// Extracts the phases if the trace contains a takeover.
    pub fn from_export(export: &TraceExport) -> Option<TimelinePhases> {
        let mut suspected = None;
        let mut detection = 0;
        let mut fenced = None;
        let mut promoted = None;
        let mut first_byte = None;
        for e in &export.events {
            match e.event {
                TraceEvent::Suspected { silent_ns } if suspected.is_none() => {
                    suspected = Some(e.t_ns);
                    detection = silent_ns;
                }
                TraceEvent::Fence { .. } if fenced.is_none() => fenced = Some(e.t_ns),
                TraceEvent::Promoted if promoted.is_none() => promoted = Some(e.t_ns),
                TraceEvent::FirstByte { .. } if first_byte.is_none() => first_byte = Some(e.t_ns),
                _ => {}
            }
        }
        Some(TimelinePhases {
            suspected_ns: suspected?,
            detection_ns: detection,
            fenced_ns: fenced,
            promoted_ns: promoted?,
            first_byte_ns: first_byte,
        })
    }

    /// Promotion latency: suspicion → suppression lifted.
    pub fn promotion_ns(&self) -> u64 {
        self.promoted_ns.saturating_sub(self.suspected_ns)
    }

    /// Suspicion → first post-takeover byte, if one was sent.
    pub fn first_byte_latency_ns(&self) -> Option<u64> {
        Some(self.first_byte_ns?.saturating_sub(self.suspected_ns))
    }
}

/// Renders the human-readable failover timeline: every event, one per
/// line, followed by the detection → fencing → promotion → first-byte
/// phase summary when the trace contains a takeover.
pub fn render_timeline(export: &TraceExport) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "flight recorder: {} events ({} dropped)\n",
        export.events.len(),
        export.dropped
    ));
    s.push_str("     t(ms)  actor    event\n");
    for e in &export.events {
        s.push_str(&format!(
            "{:>10.3}  {:<8} {}\n",
            ns_ms(e.t_ns),
            e.actor.name(),
            e.event.describe()
        ));
    }
    if let Some(p) = TimelinePhases::from_export(export) {
        s.push('\n');
        s.push_str("takeover phases:\n");
        s.push_str(&format!(
            "  detection   {:>9.3} ms  (suspected t={:.3} ms)\n",
            ns_ms(p.detection_ns),
            ns_ms(p.suspected_ns)
        ));
        if let Some(f) = p.fenced_ns {
            s.push_str(&format!(
                "  fencing req {:>9.3} ms  (t={:.3} ms)\n",
                ns_ms(f.saturating_sub(p.suspected_ns)),
                ns_ms(f)
            ));
        }
        s.push_str(&format!(
            "  promotion   {:>9.3} ms  (unsuppressed t={:.3} ms)\n",
            ns_ms(p.promotion_ns()),
            ns_ms(p.promoted_ns)
        ));
        match p.first_byte_ns {
            Some(fb) => s.push_str(&format!(
                "  first byte  {:>9.3} ms  (t={:.3} ms)\n",
                ns_ms(p.first_byte_latency_ns().unwrap_or(0)),
                ns_ms(fb)
            )),
            None => s.push_str("  first byte        n/a  (no post-takeover data)\n"),
        }
    }
    s
}

/// Renders a per-connection text sequence diagram with one lane per
/// actor. `conn = None` keeps connection-less events (heartbeats,
/// suspicion, power) and every connection; `Some(c)` filters to events
/// attributed to `c` plus the connection-less ones.
pub fn render_sequence(export: &TraceExport, conn: Option<TraceConn>) -> String {
    const LANES: [Actor; 4] = [Actor::Client, Actor::Net, Actor::Primary, Actor::Backup];
    const W: usize = 11;
    let mut s = String::new();
    match conn {
        Some(c) => s.push_str(&format!("sequence for {c}\n")),
        None => s.push_str("sequence (all connections)\n"),
    }
    s.push_str(&format!("{:>10}  ", "t(ms)"));
    for lane in LANES {
        s.push_str(&format!("{:^W$}", lane.name()));
    }
    s.push('\n');
    for e in &export.events {
        if let (Some(want), Some(have)) = (conn, e.event.conn()) {
            if want != have {
                continue;
            }
        }
        s.push_str(&format!("{:>10.3}  ", ns_ms(e.t_ns)));
        let pos = LANES.iter().position(|&l| l == e.actor).unwrap_or(1);
        for (i, _) in LANES.iter().enumerate() {
            if i == pos {
                s.push_str(&format!("{:^W$}", marker(&e.event)));
            } else {
                s.push_str(&format!("{:^W$}", "|"));
            }
        }
        s.push_str("  ");
        s.push_str(&e.event.describe());
        s.push('\n');
    }
    s
}

fn marker(e: &TraceEvent) -> &'static str {
    match e {
        TraceEvent::SideSend { .. } => ">--side-->",
        TraceEvent::SideRecv { .. } => "<--side--<",
        TraceEvent::WireData { .. } => "~~wire~~",
        TraceEvent::Suspected { .. } => "!!",
        TraceEvent::Fence { .. } => "FENCE",
        TraceEvent::Promoted => "PROMOTE",
        TraceEvent::FirstByte { .. } => "FIRST",
        _ => "*",
    }
}

/// Renders Chrome `trace_event` JSON (open in `chrome://tracing` or
/// Perfetto): one instant event per trace event, one thread per actor.
pub fn render_chrome(export: &TraceExport) -> String {
    let mut s = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut push = |s: &mut String, item: String| {
        if !std::mem::take(&mut first) {
            s.push(',');
        }
        s.push_str(&item);
    };
    for (tid, actor) in Actor::ALL.iter().enumerate() {
        if export.events.iter().any(|e| e.actor == *actor) {
            push(
                &mut s,
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    actor.name()
                ),
            );
        }
    }
    for e in &export.events {
        let tid = Actor::ALL.iter().position(|a| *a == e.actor).unwrap_or(0);
        let mut detail = String::new();
        write_escaped(&e.event.describe(), &mut detail);
        push(
            &mut s,
            format!(
                "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"detail\":{detail}}}}}",
                e.event.kind(),
                format_us(e.t_ns),
            ),
        );
    }
    s.push_str("]}");
    s
}

/// Nanoseconds → microseconds with sub-µs precision, formatted without
/// float noise (chrome `ts` fields are microseconds).
fn format_us(t_ns: u64) -> String {
    let us = t_ns / 1_000;
    let frac = t_ns % 1_000;
    if frac == 0 {
        us.to_string()
    } else {
        format!("{us}.{frac:03}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::tests::{conn, sample_export};

    #[test]
    fn timeline_phases_align_with_events() {
        let exp = sample_export();
        let p = TimelinePhases::from_export(&exp).expect("takeover present");
        assert_eq!(p.suspected_ns, 6_000);
        assert_eq!(p.detection_ns, 150_000);
        assert_eq!(p.fenced_ns, Some(6_100));
        assert_eq!(p.promoted_ns, 6_200);
        assert_eq!(p.promotion_ns(), 200);
        assert_eq!(p.first_byte_ns, Some(7_000));
        assert_eq!(p.first_byte_latency_ns(), Some(1_000));
    }

    #[test]
    fn renderers_smoke() {
        let exp = sample_export();
        let tl = render_timeline(&exp);
        assert!(tl.contains("SUSPECTED"));
        assert!(tl.contains("takeover phases:"));
        let seq = render_sequence(&exp, Some(conn()));
        assert!(seq.contains("10.0.0.1:40000<->10.0.0.100:80"));
        let seq_all = render_sequence(&exp, None);
        assert!(seq_all.contains("heartbeat"));
        let chrome = render_chrome(&exp);
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.contains("\"thread_name\""));
        assert!(chrome.ends_with("]}"));
    }
}
