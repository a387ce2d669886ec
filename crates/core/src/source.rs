//! Log ingestion behind one streaming abstraction.
//!
//! The paper's Stage I corpus is 202 GB of per-node syslog — far beyond
//! what any analysis host should materialize. [`LogSource`] is the
//! pipeline's ingestion seam: a pull-based iterator over per-node,
//! line-boundary-aligned chunks of roughly `target_bytes` each, arriving
//! node-major and in order within a node. The shard driver
//! ([`crate::shard::extract_source_observed`]) pulls one *wave* of
//! chunks per worker pool, extracts it, and drops the text before
//! pulling the next — peak resident log text is O(workers ×
//! target_bytes) regardless of corpus size.
//!
//! Three implementations cover every way the repo obtains logs:
//!
//! - [`InMemorySource`] — wraps an already-materialized
//!   `&[(NodeId, Vec<String>)]`; chunk boundaries reproduce
//!   [`crate::shard::plan_chunks`] exactly, so every existing in-memory
//!   entry point is a thin adapter over the streaming path.
//! - [`DirSource`] — buffered incremental reads of a log directory (one
//!   `.log` file per node), replacing whole-file `read_to_string` in
//!   `gpures analyze`.
//! - [`GeneratorSource`] — pulls rendered lines straight out of a
//!   campaign's lazy [`dr_faults::textgen`] streams, so
//!   `gpures campaign` writes a corpus it never holds.
//!
//! All three yield identical line content for identical underlying data;
//! the pipeline's results are bit-identical across sources, chunk sizes,
//! and worker counts (tier-1 tested).

use dr_faults::{CampaignOutput, NodeTextStream};
use dr_xid::{DataError, NodeId};
use std::borrow::Cow;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::thread;

/// One unit of streamed log text: a run of consecutive lines from one
/// node's log. `node` indexes the source's [`LogSource::nodes`] slice.
#[derive(Clone, Debug)]
pub struct LogChunk<'a> {
    /// Index into [`LogSource::nodes`].
    pub node: usize,
    /// The chunk's lines (no trailing newlines).
    pub lines: Cow<'a, [String]>,
    /// Byte volume as counted on disk: line bytes plus one newline each.
    pub bytes: u64,
}

/// A pull-based stream of per-node log text in line-aligned chunks.
///
/// Contract: chunks arrive node-major (all of node 0's chunks, then all
/// of node 1's, …) and in line order within a node; every line of every
/// node is yielded exactly once. `next_chunk` returns chunks of at least
/// `target_bytes` (the final chunk of a node may be smaller, and chunks
/// never split a line), then `None` when the source is exhausted.
pub trait LogSource<'a> {
    /// The node ids this source covers, in emission order. Nodes with no
    /// lines are listed but yield no chunks.
    fn nodes(&self) -> &[NodeId];

    /// Pull the next chunk of roughly `target_bytes`, or `None` at end.
    fn next_chunk(&mut self, target_bytes: u64) -> Result<Option<LogChunk<'a>>, DataError>;

    /// Total corpus size in bytes when cheaply known (sizes chunks to the
    /// worker pool); `None` for generative sources.
    fn total_bytes_hint(&self) -> Option<u64> {
        None
    }
}

/// [`LogSource`] over an already-materialized corpus. Chunks borrow the
/// underlying lines (no copy) and reproduce the boundaries
/// [`crate::shard::plan_chunks`] would plan, making the streaming path a
/// strict generalization of the in-memory one.
pub struct InMemorySource<'a> {
    logs: &'a [(NodeId, Vec<String>)],
    nodes: Vec<NodeId>,
    node: usize,
    line: usize,
}

impl<'a> InMemorySource<'a> {
    pub fn new(logs: &'a [(NodeId, Vec<String>)]) -> Self {
        InMemorySource {
            logs,
            nodes: logs.iter().map(|(n, _)| *n).collect(),
            node: 0,
            line: 0,
        }
    }
}

impl<'a> LogSource<'a> for InMemorySource<'a> {
    fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    fn next_chunk(&mut self, target_bytes: u64) -> Result<Option<LogChunk<'a>>, DataError> {
        let target = target_bytes.max(1);
        while self.node < self.logs.len() {
            let lines = &self.logs[self.node].1;
            if self.line >= lines.len() {
                self.node += 1;
                self.line = 0;
                continue;
            }
            let start = self.line;
            let mut acc = 0u64;
            while self.line < lines.len() {
                acc += lines[self.line].len() as u64 + 1;
                self.line += 1;
                if acc >= target {
                    break;
                }
            }
            return Ok(Some(LogChunk {
                node: self.node,
                lines: Cow::Borrowed(&lines[start..self.line]),
                bytes: acc,
            }));
        }
        Ok(None)
    }

    fn total_bytes_hint(&self) -> Option<u64> {
        Some(
            self.logs
                .iter()
                .flat_map(|(_, lines)| lines.iter())
                .map(|l| l.len() as u64 + 1)
                .sum(),
        )
    }
}

/// [`LogSource`] over a directory of per-node `.log` files (the layout
/// `dr_report::files::write_node_logs` produces: `<host><id>.log`, one
/// per node, sorted by path). Files are read incrementally through a
/// `BufReader` — at no point is a whole file resident.
pub struct DirSource {
    nodes: Vec<NodeId>,
    paths: Vec<PathBuf>,
    cur: usize,
    reader: Option<BufReader<File>>,
    total_bytes: u64,
}

pub(crate) fn io_err(path: &Path, e: std::io::Error) -> DataError {
    DataError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

/// Scan a directory of per-node log files: every `*.log`, sorted by
/// path, node id parsed from the digits of the file stem
/// (`gpub017.log` → 17). Returns the node ids, their paths (parallel
/// vectors), and the total on-disk byte count at scan time. Shared by
/// [`DirSource`] (one-shot batch reads) and [`crate::tail::TailSource`]
/// (live following), so both agree on which files constitute a corpus.
pub(crate) fn scan_log_dir(dir: &Path) -> Result<(Vec<NodeId>, Vec<PathBuf>, u64), DataError> {
    let entries = std::fs::read_dir(dir).map_err(|e| io_err(dir, e))?;
    let mut paths = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, e))?;
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) == Some("log") {
            paths.push(path);
        }
    }
    paths.sort();
    let mut nodes = Vec::with_capacity(paths.len());
    let mut total_bytes = 0u64;
    for path in &paths {
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or_default();
        let id = stem
            .trim_start_matches(|c: char| c.is_ascii_alphabetic())
            .parse::<u32>()
            .map_err(|e| DataError::Io {
                path: path.display().to_string(),
                message: format!("file name does not encode a node id: {e}"),
            })?;
        nodes.push(NodeId(id));
        total_bytes += std::fs::metadata(path).map_err(|e| io_err(path, e))?.len();
    }
    Ok((nodes, paths, total_bytes))
}

impl DirSource {
    /// Open a log directory: every `*.log` file, sorted by path, node id
    /// parsed from the digits of the file stem (`gpub017.log` → 17).
    pub fn open(dir: &Path) -> Result<DirSource, DataError> {
        let (nodes, paths, total_bytes) = scan_log_dir(dir)?;
        Ok(DirSource {
            nodes,
            paths,
            cur: 0,
            reader: None,
            total_bytes,
        })
    }
}

impl LogSource<'static> for DirSource {
    fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    fn next_chunk(&mut self, target_bytes: u64) -> Result<Option<LogChunk<'static>>, DataError> {
        let target = target_bytes.max(1);
        while self.cur < self.paths.len() {
            let path = &self.paths[self.cur];
            if self.reader.is_none() {
                let file = File::open(path).map_err(|e| io_err(path, e))?;
                self.reader = Some(BufReader::new(file));
            }
            let Some(reader) = self.reader.as_mut() else {
                continue;
            };
            let mut lines = Vec::new();
            let mut acc = 0u64;
            let mut eof = false;
            while acc < target {
                let mut buf = String::new();
                let n = reader.read_line(&mut buf).map_err(|e| io_err(path, e))?;
                if n == 0 {
                    eof = true;
                    break;
                }
                if buf.ends_with('\n') {
                    buf.pop();
                    if buf.ends_with('\r') {
                        buf.pop();
                    }
                }
                acc += buf.len() as u64 + 1;
                lines.push(buf);
            }
            if eof {
                self.reader = None;
            }
            if lines.is_empty() {
                // Empty file (or a final read that hit EOF immediately):
                // move on without emitting a zero-line chunk.
                if eof {
                    self.cur += 1;
                }
                continue;
            }
            let node = self.cur;
            if eof {
                self.cur += 1;
            }
            return Ok(Some(LogChunk {
                node,
                lines: Cow::Owned(lines),
                bytes: acc,
            }));
        }
        Ok(None)
    }

    fn total_bytes_hint(&self) -> Option<u64> {
        Some(self.total_bytes)
    }
}

/// [`LogSource`] that renders a campaign's syslog text on demand from
/// its lazy [`dr_faults::textgen`] streams — the corpus never exists in
/// memory. Pair with `CampaignConfig::defer_text` so the campaign skips
/// eager rendering entirely.
pub struct GeneratorSource<'a> {
    nodes: Vec<NodeId>,
    streams: Vec<NodeTextStream<'a>>,
    cur: usize,
}

impl<'a> GeneratorSource<'a> {
    /// Stream the text corpus of a finished campaign.
    pub fn from_campaign(out: &'a CampaignOutput) -> Self {
        let (nodes, streams) = out.text_streams().into_iter().unzip();
        GeneratorSource {
            nodes,
            streams,
            cur: 0,
        }
    }
}

impl<'a> LogSource<'static> for GeneratorSource<'a> {
    fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    fn next_chunk(&mut self, target_bytes: u64) -> Result<Option<LogChunk<'static>>, DataError> {
        let target = target_bytes.max(1);
        while self.cur < self.streams.len() {
            let stream = &mut self.streams[self.cur];
            let mut lines = Vec::new();
            let mut acc = 0u64;
            while acc < target {
                let Some(line) = stream.next() else { break };
                acc += line.len() as u64 + 1;
                lines.push(line);
            }
            if lines.is_empty() {
                self.cur += 1;
                continue;
            }
            return Ok(Some(LogChunk {
                node: self.cur,
                lines: Cow::Owned(lines),
                bytes: acc,
            }));
        }
        Ok(None)
    }
}

/// Drain a source into the materialized `(node, lines)` form. Nodes that
/// yielded no chunks still appear, with empty line vectors. This is the
/// batch adapter for callers that genuinely need the whole corpus (the
/// baseline differential oracle, tests).
pub fn collect_source<'s>(
    source: &mut dyn LogSource<'s>,
) -> Result<Vec<(NodeId, Vec<String>)>, DataError> {
    let mut out: Vec<(NodeId, Vec<String>)> =
        source.nodes().iter().map(|&n| (n, Vec::new())).collect();
    while let Some(chunk) = source.next_chunk(u64::MAX)? {
        let Some(slot) = out.get_mut(chunk.node) else {
            return Err(DataError::Io {
                path: format!("<stream node #{}>", chunk.node),
                message: "chunk node index out of range for the source's node list".to_string(),
            });
        };
        slot.1.extend(chunk.lines.into_owned());
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Wave prefetch: I/O-overlapped double buffering
// ---------------------------------------------------------------------------

/// One wave of chunks — what the shard driver extracts between source
/// pulls. `bytes` is the summed on-disk byte volume of the chunks.
#[derive(Debug)]
pub struct Wave<'a> {
    /// The wave's chunks, node-major and in source order.
    pub chunks: Vec<LogChunk<'a>>,
    /// Total byte volume across `chunks`.
    pub bytes: u64,
}

/// Pull one wave (chunks of ≈ `target` bytes until ≥ `budget` bytes are
/// gathered) from `source`; `None` once the source is exhausted. This is
/// the *single* definition of wave boundaries: the synchronous shard
/// driver and the [`Prefetcher`]'s I/O thread both call it, which is what
/// keeps their waves — and therefore the extracted results — bit-identical.
pub fn pull_wave<'s>(
    source: &mut dyn LogSource<'s>,
    target: u64,
    budget: u64,
) -> Result<Option<Wave<'s>>, DataError> {
    let mut chunks = Vec::new();
    let mut bytes = 0u64;
    while bytes < budget {
        let Some(chunk) = source.next_chunk(target)? else {
            break;
        };
        bytes += chunk.bytes;
        chunks.push(chunk);
    }
    if chunks.is_empty() {
        Ok(None)
    } else {
        Ok(Some(Wave { chunks, bytes }))
    }
}

/// Double-buffered wave prefetch over any [`LogSource`]: a dedicated I/O
/// thread pulls wave *N+1* while the caller's workers extract wave *N*.
///
/// The two sides meet at a rendezvous channel (`sync_channel(0)`), so the
/// producer can run at most one complete wave ahead of the consumer:
/// once wave *N+1* is assembled, `send` blocks until the consumer asks
/// for it. Peak resident log text is therefore bounded by the consumer's
/// held wave plus the producer's staged wave — ≤ 2 × the wave budget
/// (plus at most one chunk of overshoot per side, since a wave closes on
/// the first chunk that reaches the budget). The exact high-water mark is
/// tracked on a shared counter and exposed as
/// [`WaveRx::peak_resident_bytes`].
///
/// A mid-stream read failure is forwarded through the channel and
/// surfaces as `Err` from [`WaveRx::next_wave`] — never a panic — after
/// which the I/O thread exits. If the consumer stops early, dropping the
/// receiver unblocks the producer's `send` and the thread exits cleanly.
pub struct Prefetcher<'src, 's> {
    source: &'src mut (dyn LogSource<'s> + Send),
    target_bytes: u64,
    wave_budget: u64,
}

impl<'src, 's> Prefetcher<'src, 's> {
    /// Wrap `source` for prefetching with the given chunk-size target and
    /// per-wave byte budget (normally `target × workers`; see
    /// `shard::WaveConfig`).
    pub fn new(
        source: &'src mut (dyn LogSource<'s> + Send),
        target_bytes: u64,
        wave_budget: u64,
    ) -> Self {
        Prefetcher {
            source,
            target_bytes: target_bytes.max(1),
            wave_budget,
        }
    }

    /// Run `consumer` with a [`WaveRx`] yielding prefetched waves, while
    /// the I/O thread stays one wave ahead. Returns the consumer's value
    /// after the I/O thread has been joined.
    pub fn run<R>(self, consumer: impl FnOnce(&mut WaveRx<'s, '_>) -> R) -> R {
        let resident = AtomicU64::new(0);
        let high_water = AtomicU64::new(0);
        let Prefetcher {
            source,
            target_bytes,
            wave_budget,
        } = self;
        thread::scope(|scope| {
            // Capacity 0 = rendezvous: the producer parks inside `send`
            // holding exactly one finished wave. That parked wave is the
            // second buffer of the double buffer.
            let (tx, rx) = mpsc::sync_channel::<Result<Wave<'s>, DataError>>(0);
            let (resident_ref, high_ref) = (&resident, &high_water);
            scope.spawn(move || loop {
                match pull_wave(source, target_bytes, wave_budget) {
                    Ok(Some(wave)) => {
                        // Count the wave the moment its text is fully
                        // resident, before handing it over.
                        let now = resident_ref.fetch_add(wave.bytes, Ordering::SeqCst) + wave.bytes;
                        high_ref.fetch_max(now, Ordering::SeqCst);
                        if tx.send(Ok(wave)).is_err() {
                            break; // consumer hung up early
                        }
                    }
                    Ok(None) => break, // source exhausted; drop tx to signal end
                    Err(e) => {
                        let _ = tx.send(Err(e));
                        break;
                    }
                }
            });
            let mut waves = WaveRx {
                rx,
                resident: &resident,
                high_water: &high_water,
                held: 0,
            };
            consumer(&mut waves)
        })
    }
}

/// Consumer handle to a running [`Prefetcher`]: yields waves and reports
/// the resident-text high-water mark across both buffer slots.
pub struct WaveRx<'s, 'p> {
    rx: mpsc::Receiver<Result<Wave<'s>, DataError>>,
    resident: &'p AtomicU64,
    high_water: &'p AtomicU64,
    held: u64,
}

impl<'s> WaveRx<'s, '_> {
    /// Receive the next wave, blocking until the I/O thread delivers one;
    /// `None` once the source is exhausted. The previously yielded wave
    /// must be dropped before calling again (the natural shape of a
    /// `while let` loop) — its bytes are retired from the resident count
    /// here.
    pub fn next_wave(&mut self) -> Result<Option<Wave<'s>>, DataError> {
        self.resident.fetch_sub(self.held, Ordering::SeqCst);
        self.held = 0;
        match self.rx.recv() {
            // The producer dropped its sender: clean end of stream.
            Err(mpsc::RecvError) => Ok(None),
            Ok(Ok(wave)) => {
                self.held = wave.bytes;
                Ok(Some(wave))
            }
            Ok(Err(e)) => Err(e),
        }
    }

    /// High-water mark, in bytes, of log text resident across the
    /// consumer-held wave and the producer-staged wave, over the life of
    /// the prefetch so far. Bounded by 2 × wave budget (+ one chunk of
    /// overshoot per side).
    pub fn peak_resident_bytes(&self) -> u64 {
        self.high_water.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<(NodeId, Vec<String>)> {
        vec![
            (
                NodeId(1),
                vec!["alpha".to_string(), "bravo line".to_string(), "c".to_string()],
            ),
            (NodeId(2), Vec::new()),
            (NodeId(5), vec!["delta".to_string(), "echo".to_string()]),
        ]
    }

    #[test]
    fn in_memory_chunks_match_plan_chunks_boundaries() {
        let logs = corpus();
        for target in [1u64, 7, 64, u64::MAX] {
            let plan = crate::shard::plan_chunks(&logs, target);
            let mut src = InMemorySource::new(&logs);
            let mut got = Vec::new();
            while let Some(c) = src.next_chunk(target).unwrap() {
                got.push((c.node, c.lines.len(), c.bytes));
            }
            let want: Vec<_> = plan
                .iter()
                .map(|c| (c.node, c.end - c.start, c.bytes))
                .collect();
            assert_eq!(got, want, "target {target}");
        }
    }

    #[test]
    fn collect_round_trips_including_empty_nodes() {
        let logs = corpus();
        let mut src = InMemorySource::new(&logs);
        assert_eq!(collect_source(&mut src).unwrap(), logs);
    }

    /// A source that yields `good` chunks of one line each, then fails.
    struct FailingSource {
        nodes: Vec<NodeId>,
        yielded: usize,
        good: usize,
    }

    impl LogSource<'static> for FailingSource {
        fn nodes(&self) -> &[NodeId] {
            &self.nodes
        }

        fn next_chunk(&mut self, _target: u64) -> Result<Option<LogChunk<'static>>, DataError> {
            if self.yielded >= self.good {
                return Err(DataError::Io {
                    path: "<failing-source>".to_string(),
                    message: "disk read failed mid-stream".to_string(),
                });
            }
            self.yielded += 1;
            Ok(Some(LogChunk {
                node: 0,
                lines: Cow::Owned(vec!["noise line".to_string()]),
                bytes: 11,
            }))
        }

        fn total_bytes_hint(&self) -> Option<u64> {
            None
        }
    }

    #[test]
    fn prefetcher_yields_the_same_waves_as_synchronous_pulls() {
        let logs = corpus();
        let (target, budget) = (6u64, 12u64);

        let mut sync_src = InMemorySource::new(&logs);
        let mut sync_waves: Vec<(usize, u64)> = Vec::new();
        while let Some(w) = pull_wave(&mut sync_src, target, budget).unwrap() {
            sync_waves.push((w.chunks.len(), w.bytes));
        }
        assert!(sync_waves.len() > 1, "corpus must span several waves");

        let mut src = InMemorySource::new(&logs);
        let pf_waves = Prefetcher::new(&mut src, target, budget).run(|rx| {
            let mut got = Vec::new();
            while let Some(w) = rx.next_wave().unwrap() {
                got.push((w.chunks.len(), w.bytes));
            }
            got
        });
        assert_eq!(pf_waves, sync_waves, "wave boundaries must be identical");
    }

    #[test]
    fn prefetcher_on_an_empty_source_yields_nothing() {
        let logs: Vec<(NodeId, Vec<String>)> = vec![];
        let mut src = InMemorySource::new(&logs);
        let n = Prefetcher::new(&mut src, 64, 128).run(|rx| {
            let mut n = 0;
            while let Some(_w) = rx.next_wave().unwrap() {
                n += 1;
            }
            n
        });
        assert_eq!(n, 0);
    }

    #[test]
    fn prefetcher_on_a_single_chunk_source_yields_one_wave() {
        let logs = vec![(NodeId(0), vec!["only line".to_string()])];
        let mut src = InMemorySource::new(&logs);
        let waves = Prefetcher::new(&mut src, 1 << 20, 8 << 20).run(|rx| {
            let mut got = Vec::new();
            while let Some(w) = rx.next_wave().unwrap() {
                got.push(w.chunks.len());
            }
            got
        });
        assert_eq!(waves, vec![1]);
    }

    #[test]
    fn prefetcher_propagates_mid_stream_errors_without_panicking() {
        let mut src = FailingSource {
            nodes: vec![NodeId(0)],
            yielded: 0,
            good: 3,
        };
        let err = Prefetcher::new(&mut src, 11, 22).run(|rx| loop {
            match rx.next_wave() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("source must fail before exhaustion"),
                Err(e) => break e,
            }
        });
        assert!(
            err.to_string().contains("disk read failed mid-stream"),
            "error must carry the source's message, got: {err}"
        );
    }

    #[test]
    fn prefetcher_consumer_may_stop_early_without_deadlock() {
        let logs = corpus();
        let mut src = InMemorySource::new(&logs);
        // Take a single wave and return: the producer is left blocked in
        // `send`; dropping the receiver must release it so `run` joins.
        let first = Prefetcher::new(&mut src, 6, 6).run(|rx| {
            rx.next_wave().unwrap().map(|w| w.bytes)
        });
        assert!(first.is_some());
    }

    #[test]
    fn prefetcher_peak_resident_never_exceeds_two_waves() {
        let logs = corpus();
        let (target, budget) = (6u64, 12u64);
        // Chunk overshoot: a chunk closes on the line that crosses the
        // target, a wave on the chunk that crosses the budget.
        let max_line = logs
            .iter()
            .flat_map(|(_, l)| l.iter())
            .map(|l| l.len() as u64 + 1)
            .max()
            .unwrap_or(0);
        let bound = 2 * (budget + target + max_line);
        let mut src = InMemorySource::new(&logs);
        let peak = Prefetcher::new(&mut src, target, budget).run(|rx| {
            while let Some(_w) = rx.next_wave().unwrap() {}
            rx.peak_resident_bytes()
        });
        assert!(peak > 0, "high-water mark must be recorded");
        assert!(
            peak <= bound,
            "peak {peak} exceeds the double-buffer bound {bound}"
        );
    }

    #[test]
    fn chunks_are_node_major_and_line_exact() {
        let logs = corpus();
        let mut src = InMemorySource::new(&logs);
        let mut last_node = 0usize;
        let mut all: Vec<Vec<String>> = vec![Vec::new(); logs.len()];
        while let Some(c) = src.next_chunk(6).unwrap() {
            assert!(c.node >= last_node, "chunks must be node-major");
            last_node = c.node;
            all[c.node].extend(c.lines.iter().cloned());
        }
        for (i, (_, lines)) in logs.iter().enumerate() {
            assert_eq!(&all[i], lines);
        }
    }
}
