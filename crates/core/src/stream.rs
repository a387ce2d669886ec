//! Online (streaming) variant of the pipeline.
//!
//! The batch pipeline answers "what happened over 855 days"; an SRE
//! monitor needs the same quantities *live*: coalesce errors as lines
//! arrive, keep running counts/MTBE, and track persistence quantiles in
//! constant memory (the P² estimator) — the operational deployment of the
//! paper's methodology that its Section 4.3 recommendations imply.
//!
//! [`StreamCoalescer`] is Algorithm 1 as an incremental operator: it is
//! **exactly equivalent** to the batch [`coalesce`](crate::coalesce::coalesce)
//! on a time-ordered stream (property-tested), emitting each coalesced
//! error as soon as its merge window expires.

use crate::coalesce::{CoalesceConfig, CoalescedError};
use dr_stats::{Mtbe, P2Quantile};
use dr_xid::{Duration, ErrorDetail, ErrorRecord, GpuId, Timestamp, Xid};
use std::collections::BTreeMap;

/// An episode still inside its merge window.
#[derive(Clone, Copy, Debug)]
struct OpenEpisode {
    start: Timestamp,
    last: Timestamp,
    merged: u32,
}

/// Incremental Algorithm 1.
#[derive(Clone, Debug)]
pub struct StreamCoalescer {
    cfg: CoalesceConfig,
    open: BTreeMap<(GpuId, Xid, ErrorDetail), OpenEpisode>,
    /// Latest record timestamp seen (stream clock).
    now: Option<Timestamp>,
    /// Write-only metrics; counts are flushed in bulk on [`Self::finish`]
    /// so the per-record path stays two plain integer increments.
    sink: dr_obs::MetricsSink,
    pushed: u64,
    emitted: u64,
}

impl StreamCoalescer {
    pub fn new(cfg: CoalesceConfig) -> Self {
        Self::with_metrics(cfg, dr_obs::MetricsSink::disabled())
    }

    /// A coalescer that reports record/episode counters into `sink` when
    /// the stream finishes. Emission is unaffected — the sink is
    /// write-only.
    pub fn with_metrics(cfg: CoalesceConfig, sink: dr_obs::MetricsSink) -> Self {
        StreamCoalescer {
            cfg,
            open: BTreeMap::new(),
            now: None,
            sink,
            pushed: 0,
            emitted: 0,
        }
    }

    /// Number of episodes currently open.
    pub fn open_count(&self) -> usize {
        self.open.len()
    }

    /// Feed one record (records must arrive in time order) and collect any
    /// episodes the advancing clock closed.
    ///
    /// # Panics
    /// If `rec` is older than a previously pushed record.
    pub fn push(&mut self, rec: &ErrorRecord) -> Vec<CoalescedError> {
        if let Some(now) = self.now {
            assert!(rec.at >= now, "stream must be time-ordered");
        }
        self.now = Some(rec.at);
        self.pushed += 1;
        let mut closed = self.expire(rec.at);

        let key = rec.identity();
        match self.open.get_mut(&key) {
            Some(ep)
                if rec.at - ep.last <= self.cfg.window
                    && rec.at - ep.start <= self.cfg.max_persistence =>
            {
                ep.last = rec.at;
                ep.merged += 1;
            }
            Some(ep) => {
                // Same identity, but the gap or the persistence cut-off
                // splits: close the old episode, open a new one.
                closed.push(close(key, *ep));
                *ep = OpenEpisode {
                    start: rec.at,
                    last: rec.at,
                    merged: 1,
                };
            }
            None => {
                self.open.insert(
                    key,
                    OpenEpisode {
                        start: rec.at,
                        last: rec.at,
                        merged: 1,
                    },
                );
            }
        }
        self.emitted += closed.len() as u64;
        closed
    }

    /// Advance the stream clock without a record (e.g. a timer tick),
    /// closing episodes whose windows expired.
    pub fn tick(&mut self, now: Timestamp) -> Vec<CoalescedError> {
        if let Some(cur) = self.now {
            if now < cur {
                return Vec::new();
            }
        }
        self.now = Some(now);
        let closed = self.expire(now);
        self.emitted += closed.len() as u64;
        closed
    }

    /// End of stream: close everything still open and flush counters to
    /// the metrics sink (a no-op for a disabled sink).
    pub fn finish(self) -> Vec<CoalescedError> {
        use dr_obs::{Counter, Stage};
        let mut out: Vec<CoalescedError> = self
            .open
            .into_iter()
            .map(|(key, ep)| close(key, ep))
            .collect();
        out.sort_by_key(|e| (e.start, e.gpu, e.xid));
        self.sink
            .add(Stage::Coalesce, Counter::Records, self.pushed);
        self.sink
            .add(Stage::Coalesce, Counter::Episodes, self.emitted + out.len() as u64);
        out
    }

    fn expire(&mut self, now: Timestamp) -> Vec<CoalescedError> {
        let window = self.cfg.window;
        let mut closed: Vec<CoalescedError> = Vec::new();
        self.open.retain(|key, ep| {
            if now - ep.last > window {
                closed.push(close(*key, *ep));
                false
            } else {
                true
            }
        });
        closed.sort_by_key(|e| (e.start, e.gpu, e.xid));
        closed
    }
}

/// Event-time reorder buffer in front of [`StreamCoalescer`].
///
/// A live tail interleaves per-node files, so records do not arrive
/// globally time-ordered — but [`StreamCoalescer::push`] requires a
/// monotone stream. The buffer holds records until the **watermark**
/// (latest event time seen minus an allowed lateness) passes them, then
/// releases them sorted by the total key `(at, gpu, xid, detail)`, which
/// makes the released order deterministic regardless of poll
/// interleaving. Records arriving *behind* what was already released
/// cannot be emitted without breaking monotonicity; they are counted in
/// [`WatermarkBuffer::late_dropped`] — the live session converges to the
/// batch answer exactly when that count is zero.
///
/// Purely event-time: the watermark advances only when ingested records
/// do, never from a wall clock.
#[derive(Clone, Debug)]
pub struct WatermarkBuffer {
    lateness: Duration,
    pending: Vec<ErrorRecord>,
    /// Latest event time ingested (the high watermark).
    max_seen: Option<Timestamp>,
    /// Latest event time already released downstream; releasing anything
    /// older would violate the coalescer's ordering contract.
    released: Option<Timestamp>,
    late_dropped: u64,
}

impl WatermarkBuffer {
    pub fn new(lateness: Duration) -> Self {
        WatermarkBuffer {
            lateness,
            pending: Vec::new(),
            max_seen: None,
            released: None,
            late_dropped: 0,
        }
    }

    /// Ingest one record. Records older than the released watermark are
    /// dropped (and counted) — emitting them would be out of order.
    pub fn push(&mut self, rec: ErrorRecord) {
        if let Some(released) = self.released {
            if rec.at < released {
                self.late_dropped += 1;
                return;
            }
        }
        self.max_seen = Some(self.max_seen.map_or(rec.at, |m| m.max(rec.at)));
        self.pending.push(rec);
    }

    /// Release every pending record at or behind the watermark
    /// (`max_seen − lateness`), sorted by `(at, gpu, xid, detail)`.
    pub fn drain_ready(&mut self) -> Vec<ErrorRecord> {
        let Some(max_seen) = self.max_seen else {
            return Vec::new();
        };
        let watermark = max_seen.saturating_sub(self.lateness);
        // The sort key leads with `at`, so the ready records are a sorted
        // prefix of the sorted buffer: hand that buffer out and keep only
        // the held-back tail, so no released record is copied.
        self.sort_pending();
        let ready_len = self.pending.partition_point(|r| r.at <= watermark);
        let held = self.pending.split_off(ready_len);
        let ready = std::mem::replace(&mut self.pending, held);
        self.mark_released(&ready);
        ready
    }

    /// End of stream (or a final drain): release everything pending,
    /// sorted, regardless of the watermark.
    pub fn flush(&mut self) -> Vec<ErrorRecord> {
        self.sort_pending();
        let ready = std::mem::take(&mut self.pending);
        self.mark_released(&ready);
        ready
    }

    /// Stable sort by the total key; equal keys are identical records.
    fn sort_pending(&mut self) {
        self.pending.sort_by(|a, b| {
            (a.at, a.gpu, a.xid, &a.detail).cmp(&(b.at, b.gpu, b.xid, &b.detail))
        });
    }

    fn mark_released(&mut self, ready: &[ErrorRecord]) {
        if let Some(last) = ready.last() {
            self.released = Some(self.released.map_or(last.at, |r| r.max(last.at)));
        }
    }

    /// Records dropped for arriving behind the released watermark.
    pub fn late_dropped(&self) -> u64 {
        self.late_dropped
    }

    /// Records currently held back by the watermark.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }
}

fn close((gpu, xid, detail): (GpuId, Xid, ErrorDetail), ep: OpenEpisode) -> CoalescedError {
    CoalescedError {
        gpu,
        xid,
        detail,
        start: ep.start,
        last: ep.last,
        merged: ep.merged,
    }
}

/// Constant-memory running Table 1: per-XID counts, streaming persistence
/// quantiles (P²), and live MTBE against the elapsed observation window.
#[derive(Debug)]
pub struct OnlineStats {
    node_count: u32,
    started: Option<Timestamp>,
    latest: Option<Timestamp>,
    per_xid: BTreeMap<Xid, XidOnline>,
}

#[derive(Debug)]
struct XidOnline {
    count: u64,
    persistence_sum_s: f64,
    p50: P2Quantile,
    p95: P2Quantile,
}

/// One row of the live Table 1 view.
#[derive(Clone, Copy, Debug)]
pub struct OnlineRow {
    pub xid: Xid,
    pub count: u64,
    pub mtbe_per_node_h: Option<f64>,
    pub persistence_mean_s: f64,
    pub persistence_p50_s: Option<f64>,
    pub persistence_p95_s: Option<f64>,
}

impl OnlineStats {
    pub fn new(node_count: u32) -> Self {
        OnlineStats {
            node_count: node_count.max(1),
            started: None,
            latest: None,
            per_xid: BTreeMap::new(),
        }
    }

    /// Ingest one closed episode.
    pub fn observe(&mut self, e: &CoalescedError) {
        self.started = Some(self.started.map_or(e.start, |s| s.min(e.start)));
        self.latest = Some(self.latest.map_or(e.last, |l| l.max(e.last)));
        let entry = self.per_xid.entry(e.xid).or_insert_with(|| XidOnline {
            count: 0,
            persistence_sum_s: 0.0,
            p50: P2Quantile::new(0.5),
            p95: P2Quantile::new(0.95),
        });
        let p = e.persistence().as_secs_f64();
        entry.count += 1;
        entry.persistence_sum_s += p;
        entry.p50.push(p);
        entry.p95.push(p);
    }

    /// Elapsed observation window in hours.
    pub fn observation_hours(&self) -> f64 {
        match (self.started, self.latest) {
            (Some(s), Some(l)) => (l - s).as_hours_f64(),
            _ => 0.0,
        }
    }

    /// The live Table 1 rows, in the paper's order.
    pub fn rows(&self) -> Vec<OnlineRow> {
        let hours = self.observation_hours();
        Xid::TABLE1
            .iter()
            .map(|&xid| {
                let entry = self.per_xid.get(&xid);
                let count = entry.map_or(0, |e| e.count);
                let mtbe = (count > 0 && hours > 0.0)
                    .then(|| Mtbe::new(hours.max(1e-9), self.node_count))
                    .and_then(|m| m.per_node_hours(count));
                OnlineRow {
                    xid,
                    count,
                    mtbe_per_node_h: mtbe,
                    persistence_mean_s: entry
                        .filter(|e| e.count > 0)
                        .map_or(0.0, |e| e.persistence_sum_s / e.count as f64),
                    persistence_p50_s: entry.and_then(|e| e.p50.estimate()),
                    persistence_p95_s: entry.and_then(|e| e.p95.estimate()),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coalesce::coalesce;
    use dr_xid::{Duration, NodeId};
    use proptest::prelude::*;

    fn rec(secs: f64, node: u32, xid: Xid) -> ErrorRecord {
        ErrorRecord::new(
            Timestamp::EPOCH + Duration::from_secs_f64(secs),
            GpuId::at_slot(NodeId(node), 0),
            xid,
            ErrorDetail::NONE,
        )
    }

    fn stream_all(records: &[ErrorRecord], cfg: CoalesceConfig) -> Vec<CoalescedError> {
        let mut s = StreamCoalescer::new(cfg);
        let mut out = Vec::new();
        for r in records {
            out.extend(s.push(r));
        }
        out.extend(s.finish());
        out.sort_by_key(|e| (e.start, e.gpu, e.xid));
        out
    }

    #[test]
    fn emits_episode_after_window_expires() {
        let mut s = StreamCoalescer::new(CoalesceConfig::default());
        assert!(s.push(&rec(0.0, 1, Xid::MmuError)).is_empty());
        assert!(s.push(&rec(3.0, 1, Xid::MmuError)).is_empty());
        assert_eq!(s.open_count(), 1);
        // Next record 60 s later closes the episode.
        let closed = s.push(&rec(60.0, 1, Xid::MmuError));
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].merged, 2);
        assert_eq!(closed[0].persistence().as_secs_f64(), 3.0);
        assert_eq!(s.open_count(), 1); // the new episode
    }

    #[test]
    fn tick_closes_without_new_records() {
        let mut s = StreamCoalescer::new(CoalesceConfig::default());
        s.push(&rec(0.0, 1, Xid::NvlinkError));
        assert!(s.tick(Timestamp::from_secs(3)).is_empty());
        let closed = s.tick(Timestamp::from_secs(30));
        assert_eq!(closed.len(), 1);
        assert_eq!(s.open_count(), 0);
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_order_records() {
        let mut s = StreamCoalescer::new(CoalesceConfig::default());
        s.push(&rec(10.0, 1, Xid::MmuError));
        s.push(&rec(5.0, 1, Xid::MmuError));
    }

    #[test]
    fn online_stats_tracks_counts_and_quantiles() {
        let mut o = OnlineStats::new(10);
        for k in 0..200u64 {
            let start = Timestamp::from_secs(k * 1_000);
            o.observe(&CoalescedError {
                gpu: GpuId::at_slot(NodeId(1), 0),
                xid: Xid::MmuError,
                detail: ErrorDetail::NONE,
                start,
                last: start + Duration::from_secs_f64(2.0 + (k % 5) as f64),
                merged: 2,
            });
        }
        let rows = o.rows();
        let mmu = rows.iter().find(|r| r.xid == Xid::MmuError).unwrap();
        assert_eq!(mmu.count, 200);
        assert!((mmu.persistence_mean_s - 4.0).abs() < 0.1);
        let p50 = mmu.persistence_p50_s.unwrap();
        assert!((3.0..=5.0).contains(&p50), "p50 {p50}");
        assert!(mmu.mtbe_per_node_h.unwrap() > 0.0);
        // Unseen XIDs report zero rows.
        let dbe = rows.iter().find(|r| r.xid == Xid::DoubleBitEcc).unwrap();
        assert_eq!(dbe.count, 0);
        assert!(dbe.mtbe_per_node_h.is_none());
    }

    #[test]
    fn watermark_reorders_within_lateness() {
        let mut w = WatermarkBuffer::new(Duration::from_secs(10));
        w.push(rec(5.0, 1, Xid::MmuError));
        w.push(rec(2.0, 2, Xid::MmuError)); // out of order, within lateness
        w.push(rec(30.0, 1, Xid::MmuError)); // watermark -> 20
        let ready = w.drain_ready();
        let times: Vec<f64> = ready
            .iter()
            .map(|r| (r.at - Timestamp::EPOCH).as_secs_f64())
            .collect();
        assert_eq!(times, [2.0, 5.0]);
        assert_eq!(w.pending_len(), 1); // the 30 s record waits
        assert_eq!(w.late_dropped(), 0);
    }

    #[test]
    fn watermark_drops_and_counts_records_behind_the_release_point() {
        let mut w = WatermarkBuffer::new(Duration::from_secs(1));
        w.push(rec(10.0, 1, Xid::MmuError));
        w.push(rec(100.0, 1, Xid::MmuError));
        let released = w.drain_ready();
        assert_eq!(released.len(), 1); // the 10 s record
        // 3 s is far behind the released watermark (10 s): dropped.
        w.push(rec(3.0, 2, Xid::MmuError));
        assert_eq!(w.late_dropped(), 1);
        assert_eq!(w.flush().len(), 1); // only the 100 s record remains
    }

    #[test]
    fn watermark_released_stream_is_monotone_and_coalescer_safe() {
        // Random-ish interleaving from three "files"; the released stream
        // must feed StreamCoalescer without tripping its ordering assert.
        let mut w = WatermarkBuffer::new(Duration::from_secs(60));
        let mut s = StreamCoalescer::new(CoalesceConfig::default());
        let per_node: [&[f64]; 3] = [&[0.0, 9.0, 18.0], &[3.0, 6.0, 21.0], &[1.0, 2.0, 30.0]];
        for round in 0..3 {
            for (node, times) in per_node.iter().enumerate() {
                if let Some(&t) = times.get(round) {
                    w.push(rec(t, node as u32, Xid::MmuError));
                }
            }
            for r in w.drain_ready() {
                s.push(&r);
            }
        }
        for r in w.flush() {
            s.push(&r);
        }
        assert_eq!(w.late_dropped(), 0);
        let out = s.finish();
        assert!(!out.is_empty());
    }

    proptest! {
        /// The streaming coalescer is equivalent to batch Algorithm 1 on
        /// any time-ordered stream.
        #[test]
        fn stream_equals_batch(
            mut times in prop::collection::vec(0u64..20_000, 0..300),
            nodes in prop::collection::vec(0u32..3, 0..300),
            window in 2u64..30,
        ) {
            times.sort_unstable();
            let n = times.len().min(nodes.len());
            let records: Vec<_> = (0..n)
                .map(|i| rec(times[i] as f64, nodes[i], Xid::MmuError))
                .collect();
            let cfg = CoalesceConfig::with_window_secs(window);
            let batch = coalesce(&records, cfg);
            let stream = stream_all(&records, cfg);
            prop_assert_eq!(batch, stream);
        }

        /// The watermark buffer releases exactly what filtering the
        /// arrivals by the watermark and then sorting them would, and
        /// holds back and drops the same records, over any interleaving
        /// of pushes and drains.
        #[test]
        fn watermark_releases_match_filter_then_sort(
            ops in prop::collection::vec((0u64..600, 0u32..3, 0u32..8), 0..300),
            lateness in 0u64..120,
        ) {
            let mut w = WatermarkBuffer::new(Duration::from_secs(lateness));
            let mut model: Vec<ErrorRecord> = Vec::new();
            let (mut max_seen, mut released, mut dropped) = (None, None, 0u64);
            let drain = |w: &mut WatermarkBuffer,
                         model: &mut Vec<ErrorRecord>,
                         max_seen: Option<Timestamp>,
                         released: &mut Option<Timestamp>,
                         everything: bool| {
                let mut want: Vec<ErrorRecord> = if everything {
                    std::mem::take(model)
                } else if let Some(m) = max_seen {
                    let mark = m.saturating_sub(Duration::from_secs(lateness));
                    let want = model.iter().filter(|r| r.at <= mark).copied().collect();
                    model.retain(|r| r.at > mark);
                    want
                } else {
                    Vec::new()
                };
                want.sort_by(|a, b| {
                    (a.at, a.gpu, a.xid, &a.detail).cmp(&(b.at, b.gpu, b.xid, &b.detail))
                });
                if let Some(last) = want.last() {
                    *released = Some(released.map_or(last.at, |r: Timestamp| r.max(last.at)));
                }
                let got = if everything { w.flush() } else { w.drain_ready() };
                (got, want)
            };
            for (secs, node, op) in ops {
                if op == 0 {
                    let (got, want) = drain(&mut w, &mut model, max_seen, &mut released, false);
                    prop_assert_eq!(got, want);
                    prop_assert_eq!(w.pending_len(), model.len());
                    continue;
                }
                let r = rec(secs as f64, node, Xid::MmuError);
                if released.is_some_and(|at| r.at < at) {
                    dropped += 1;
                } else {
                    max_seen = Some(max_seen.map_or(r.at, |m: Timestamp| m.max(r.at)));
                    model.push(r);
                }
                w.push(r);
            }
            prop_assert_eq!(w.late_dropped(), dropped);
            let (got, want) = drain(&mut w, &mut model, max_seen, &mut released, true);
            prop_assert_eq!(got, want);
            prop_assert_eq!(w.pending_len(), 0);
        }
    }
}
