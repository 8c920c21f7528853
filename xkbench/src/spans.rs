//! The benchmark's own spans: one per call into a layer, recorded on the
//! main thread from timestamps the measurement takes anyway, kept in
//! memory and written as chrome-trace JSON when the run ends. The
//! runtime's telemetry is not consumed.

use crate::stats::now_ns;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`ROOT`].
    pub parent: u32,
    /// Spans of one round share this identifier.
    pub round: u32,
    /// Chrome-trace lane: 0 = the bench's main thread, 1 = job bodies.
    pub lane: u32,
}

#[derive(Default)]
pub struct Spans {
    /// Recording is off in untraced runs and on alternate rounds of a
    /// traced run (the difference is the tracing overhead).
    pub on: bool,
    v: Vec<Span>,
}

impl Spans {
    /// Record a finished span; returns its index for use as a parent.
    pub fn add(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        round: u32,
        lane: u32,
    ) -> u32 {
        if !self.on {
            return ROOT;
        }
        self.v.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            round,
            lane,
        });
        (self.v.len() - 1) as u32
    }

    /// Open a span whose end is not known yet ([`Spans::close`] sets it).
    pub fn open(&mut self, name: &'static str, parent: u32, round: u32) -> u32 {
        if !self.on {
            return ROOT;
        }
        let now = now_ns();
        self.add(name, now, now, parent, round, 0)
    }

    pub fn close(&mut self, idx: u32) {
        if idx != ROOT {
            self.v[idx as usize].end_ns = now_ns();
        }
    }

    pub fn len(&self) -> usize {
        self.v.len()
    }

    /// Per span name: (count, total self time in ns), where a span's self
    /// time is its duration minus the part its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut covered = vec![0u64; self.v.len()];
        for s in &self.v {
            if s.parent != ROOT {
                let p = &self.v[s.parent as usize];
                let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
                covered[s.parent as usize] += b.saturating_sub(a);
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.v.iter().zip(covered) {
            let e = out.entry(s.name).or_insert((0, 0));
            e.0 += 1;
            e.1 += (s.end_ns - s.start_ns).saturating_sub(c);
        }
        out
    }

    /// Chrome-trace ("Trace Event Format") JSON of every span.
    pub fn to_chrome_trace(&self) -> String {
        let mut s = String::with_capacity(64 + self.v.len() * 128);
        s.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (i, sp) in self.v.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let parent = if sp.parent == ROOT {
                -1
            } else {
                i64::from(sp.parent)
            };
            write!(
                s,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"round\":{}}}}}",
                sp.name,
                sp.lane,
                sp.start_ns as f64 / 1e3,
                (sp.end_ns - sp.start_ns) as f64 / 1e3,
                sp.round
            )
            .expect("write to String");
        }
        s.push_str("\n]}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut sp = Spans::default();
        assert_eq!(sp.add("off", 0, 1, ROOT, 0, 0), ROOT);
        assert_eq!(sp.len(), 0, "nothing is recorded while off");
        sp.on = true;
        let round = sp.add("round", 0, 100, ROOT, 7, 0);
        sp.add("call", 10, 40, round, 7, 0);
        sp.add("call", 50, 70, round, 7, 0);
        // A child reaching past its parent counts only for the overlap.
        sp.add("verify", 90, 120, round, 7, 0);
        let st = sp.self_times();
        assert_eq!(st["round"], (1, 100 - 30 - 20 - 10));
        assert_eq!(st["call"], (2, 50));
        assert_eq!(st["verify"], (1, 30));
        let json = sp.to_chrome_trace();
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 4);
        assert!(json.contains("\"parent\":0,\"round\":7"));
    }
}
