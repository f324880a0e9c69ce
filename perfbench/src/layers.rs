//! Per-layer metrics of a traced run, computed from the host spans the
//! benchmark recorded around each layer call, the layers' own counters,
//! and the program's virtual-time trace.
//!
//! A layer's `wall_s` is the union of its spans over all ranks: pooled
//! ranks are parked most of the time, so the per-rank sum overstates the
//! wall time many times over. `busy_s` is the rank threads' CPU time
//! inside those spans and `wait_s` the rest of their summed duration, both
//! in rank-seconds.

use std::collections::BTreeMap;

use crate::probe::Span;

/// Every per-layer metric, with its unit, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("genx.step.wall_s", "s"),
    ("genx.step.busy_s", "s"),
    ("genx.step.wait_s", "s"),
    ("genx.step.allocs", "count"),
    ("genx.snapshot.wall_s", "s"),
    ("genx.snapshot.self_s", "s"),
    ("genx.restart.wall_s", "s"),
    ("rocpanda.client.write.wall_s", "s"),
    ("rocpanda.client.write.busy_s", "s"),
    ("rocpanda.client.write.wait_s", "s"),
    ("rocpanda.client.write.allocs", "count"),
    ("rocpanda.server.run.wall_s", "s"),
    ("rocpanda.server.run.busy_s", "s"),
    ("rocpanda.server.run.wait_s", "s"),
    ("rocpanda.server.blocks_buffered", "count"),
    ("rocpanda.server.blocks_written", "count"),
    ("rocpanda.server.buffer_overflows", "count"),
    ("rocpanda.drain.bytes", "B"),
    ("rocpanda.drain.mean_latency_vs", "vs"),
    ("rocpanda.finalize_s", "s"),
    ("rochdf.read.wall_s", "s"),
    ("rochdf.read.busy_s", "s"),
    ("rochdf.read.wait_s", "s"),
    ("rochdf.read.allocs", "count"),
    ("rochdf.twophase.read.wall_s", "s"),
    ("rochdf.twophase.read.busy_s", "s"),
    ("rochdf.twophase.read.wait_s", "s"),
    ("rochdf.twophase.read.allocs", "count"),
    ("trochdf.write.wall_s", "s"),
    ("trochdf.finalize_s", "s"),
    ("rocstore.bytes_written", "B"),
    ("rocstore.write_ops", "count"),
    ("rocstore.bytes_read", "B"),
    ("rocstore.read_ops", "count"),
    ("rocstore.files_created", "count"),
    ("rocstore.read_amplification", "ratio"),
    ("rocsdf.bytes_per_payload_byte", "ratio"),
    ("rocnet.msgs_sent", "count"),
    ("rocnet.bytes_sent", "B"),
    ("rocnet.launch_s", "s"),
    ("rocmesh.generate_s", "s"),
    ("roccom.register_s", "s"),
    ("rocobs.vt.compute.union_s", "vs"),
    ("rocobs.vt.send.union_s", "vs"),
    ("rocobs.vt.recv.union_s", "vs"),
    ("rocobs.vt.probe_blocking.union_s", "vs"),
    ("rocobs.vt.probe_nonblocking.union_s", "vs"),
    ("rocobs.vt.disk_submit.union_s", "vs"),
    ("rocobs.vt.disk_write.union_s", "vs"),
    ("rocobs.vt.disk_read.union_s", "vs"),
    ("rocobs.vt.buffer_fill.union_s", "vs"),
    ("rocobs.vt.buffer_drain.union_s", "vs"),
    ("rocobs.vt.snapshot_barrier.union_s", "vs"),
    ("rocobs.vt.restart_read.union_s", "vs"),
    ("rocobs.vt.rel_retransmit.union_s", "vs"),
    ("rocobs.vt.rel_ack.union_s", "vs"),
    ("trace.overhead_frac", "ratio"),
    ("genx.vt.comp_s", "vs"),
    ("genx.vt.visible_io_s", "vs"),
    ("genx.vt.restart_s", "vs"),
    ("genx.vt.apparent_write_mb_s", "MB/s"),
];

/// Span layers reported with the full wall/busy/wait/allocs split.
const SPLIT: [&str; 5] = [
    "genx.step",
    "rocpanda.client.write",
    "rocpanda.server.run",
    "rochdf.read",
    "rochdf.twophase.read",
];

/// Span layers reported by their union only.
const WALL_ONLY: [(&str, &str); 5] = [
    ("genx.snapshot", "genx.snapshot.wall_s"),
    ("genx.restart", "genx.restart.wall_s"),
    ("trochdf.write", "trochdf.write.wall_s"),
    ("rocpanda.finalize", "rocpanda.finalize_s"),
    ("trochdf.finalize", "trochdf.finalize_s"),
];

/// Accumulates one traced run's layer metrics.
pub struct Layers {
    traced: bool,
    values: BTreeMap<String, f64>,
    pub spans: Vec<Span>,
}

impl Layers {
    pub fn new(traced: bool) -> Self {
        Layers {
            traced,
            values: BTreeMap::new(),
            spans: Vec::new(),
        }
    }

    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Add `v` to metric `name` (metrics summed over ranks or jobs).
    pub fn add(&mut self, name: &str, v: f64) {
        if self.traced {
            *self.values.entry(name.to_string()).or_default() += v;
        }
    }

    /// Add the virtual-time union of each `rocobs` category of one job.
    pub fn add_trace(&mut self, trace: &rocobs::Trace) {
        for cat in rocobs::SpanCategory::all() {
            self.add(
                &format!("rocobs.vt.{}.union_s", cat.name()),
                trace.total(cat),
            );
        }
    }

    /// Metrics in [`PER_LAYER`] order (span-derived ones computed here),
    /// and the spans themselves.
    pub fn finish(mut self) -> (Vec<(String, f64)>, Vec<Span>) {
        for layer in SPLIT {
            let spans: Vec<&Span> = self.spans.iter().filter(|s| s.name == layer).collect();
            let busy: f64 = spans.iter().map(|s| s.cpu).sum();
            let total: f64 = spans.iter().map(|s| s.end - s.start).sum();
            let allocs: u64 = spans.iter().map(|s| s.self_allocs).sum();
            let wall = union(spans.iter().copied());
            self.add(&format!("{layer}.wall_s"), wall);
            self.add(&format!("{layer}.busy_s"), busy);
            self.add(&format!("{layer}.wait_s"), (total - busy).max(0.0));
            self.add(&format!("{layer}.allocs"), allocs as f64);
        }
        for (layer, metric) in WALL_ONLY {
            let wall = union(self.spans.iter().filter(|s| s.name == layer));
            self.add(metric, wall);
        }
        let self_s = snapshot_self_time(&self.spans);
        self.add("genx.snapshot.self_s", self_s);
        let metrics = PER_LAYER
            .iter()
            .map(|(name, _)| {
                (
                    name.to_string(),
                    self.values.get(*name).copied().unwrap_or(0.0),
                )
            })
            .collect();
        (metrics, self.spans)
    }
}

/// Length of the union of the spans' `[start, end)` intervals.
pub fn union<'a>(spans: impl Iterator<Item = &'a Span>) -> f64 {
    union_len(spans.map(|s| (s.start, s.end)).collect())
}

fn union_len(mut iv: Vec<(f64, f64)>) -> f64 {
    iv.retain(|(s, e)| e > s);
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Union over ranks of each snapshot span minus the child spans it
/// encloses (the I/O module's calls): barrier wait plus roccom selection.
/// `parent` indices refer to positions in `spans`.
fn snapshot_self_time(spans: &[Span]) -> f64 {
    let mut children: BTreeMap<usize, Vec<(f64, f64)>> = BTreeMap::new();
    for c in spans {
        if let Some(p) = c.parent {
            children.entry(p).or_default().push((c.start, c.end));
        }
    }
    let mut self_iv = Vec::new();
    for (k, s) in spans.iter().enumerate() {
        if s.name != "genx.snapshot" {
            continue;
        }
        let mut kids = children.remove(&k).unwrap_or_default();
        kids.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut t = s.start;
        for (cs, ce) in kids {
            if cs > t {
                self_iv.push((t, cs));
            }
            t = t.max(ce);
        }
        if s.end > t {
            self_iv.push((t, s.end));
        }
    }
    union_len(self_iv)
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, rank: usize, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            rank,
            start,
            end,
            parent,
            cpu: 0.0,
            self_allocs: 0,
        }
    }

    #[test]
    fn union_merges_overlaps_and_skips_gaps() {
        assert_eq!(union_len(vec![(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]), 4.0);
        assert_eq!(union_len(vec![(1.0, 1.0)]), 0.0);
    }

    #[test]
    fn snapshot_self_time_excludes_children() {
        let spans = vec![
            span("genx.snapshot", 0, 0.0, 10.0, None),
            span("rocpanda.client.write", 0, 1.0, 4.0, Some(0)),
            span("rocpanda.client.write", 0, 5.0, 6.0, Some(0)),
            span("genx.snapshot", 1, 0.0, 2.0, None),
            span("rochdf.write", 1, 0.5, 1.0, Some(3)),
        ];
        // Rank 0 self: [0,1) [4,5) [6,10); rank 1 self: [0,0.5) [1,2).
        // Union: [0,2) [4,5) [6,10) = 7.
        assert_eq!(snapshot_self_time(&spans), 7.0);
    }
}
