//! The traced run: a workload's pipeline in process, one worker, with a
//! span around every call into a layer's public functions.
//!
//! Spans are kept in memory and written out when the run ends. A layer's
//! self time is the summed duration of its spans minus the part their
//! child spans cover (reads made through [`Timed`] inside
//! `WatchSession::run_observed`). Layers the workload does not reach are
//! still called once, on the workload's emptied inputs, so every layer
//! reports its fixed cost and counts of 0 there.

use crate::{render_report, study_config, Workload};
use gpu_resilience::core::job_impact::{analyze_jobs, table3};
use gpu_resilience::core::shard::summarize_chunk;
use gpu_resilience::core::{
    merge_and_coalesce, write_store, CoalescedError, DirSource, LogChunk, LogSource, RecordSource,
    RecordStore, StudyConfig, StudyResults, TailSource, WatchConfig, WatchSession, WaveConfig,
};
use gpu_resilience::faults::DowntimeInterval;
use gpu_resilience::logscan::{parse_header, ExtractStats, XidExtractor};
use gpu_resilience::obs::json::Json;
use gpu_resilience::obs::MetricsSink;
use gpu_resilience::report::files::downtime_from_csv;
use gpu_resilience::slurm::{csv as jobs_csv, JobRecord};
use gpu_resilience::xid::{DataError, ErrorRecord, NodeId};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// `WatchSession::snapshot` calls timed per traced run.
const SNAPSHOT_CALLS: u32 = 1000;

/// Every timed layer, as `<module>.<what>`; the metric is `<layer>_s`
/// (`watch.snapshot` is reported per call, as `watch.snapshot_us`).
const LAYERS: [&str; 17] = [
    "source.read",
    "logscan.extract",
    "logscan.header",
    "shard.summarize",
    "shard.merge_coalesce",
    "store.write",
    "store.open",
    "store.decode",
    "slurm.jobs_parse",
    "files.downtime_parse",
    "engine.fold",
    "job_impact.join",
    "report.render",
    "tail.read",
    "watch.ingest",
    "watch.release",
    "watch.snapshot",
];

struct Span {
    layer: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
}

/// In-memory span and count recorder.
struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    counts: RefCell<BTreeMap<&'static str, f64>>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            counts: RefCell::new(BTreeMap::new()),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Record a finished span under the innermost open one.
    fn record(&self, layer: &'static str, start: f64, end: f64) -> usize {
        let parent = self.open.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            layer,
            start,
            end,
            parent,
        });
        spans.len() - 1
    }

    fn open(&self, layer: &'static str) -> usize {
        let now = self.now();
        let id = self.record(layer, now, now);
        self.open.borrow_mut().push(id);
        id
    }

    fn close_at(&self, id: usize, end: f64) {
        self.open.borrow_mut().retain(|&s| s != id);
        if let Some(s) = self.spans.borrow_mut().get_mut(id) {
            s.end = end;
        }
    }

    fn time<R>(&self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(layer);
        let r = f();
        self.close_at(id, self.now());
        r
    }

    fn add(&self, name: &'static str, v: f64) {
        *self.counts.borrow_mut().entry(name).or_insert(0.0) += v;
    }

    fn count(&self, name: &str) -> f64 {
        self.counts.borrow().get(name).copied().unwrap_or(0.0)
    }

    fn reached(&self, layer: &str) -> bool {
        self.spans.borrow().iter().any(|s| s.layer == layer)
    }

    /// Per-layer self time of the spans that ended by `until`: span
    /// durations minus their direct children's.
    fn self_times(&self, until: f64) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.borrow();
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.end <= until) {
            *out.entry(s.layer).or_insert(0.0) += s.end - s.start;
            if let Some(p) = s.parent.and_then(|p| spans.get(p)) {
                *out.entry(p.layer).or_insert(0.0) -= s.end - s.start;
            }
        }
        out
    }

    fn spans_json(&self) -> Json {
        let spans = self.spans.borrow();
        Json::Arr(
            spans
                .iter()
                .map(|s| {
                    Json::obj(vec![
                        ("layer", Json::Str(s.layer.to_string())),
                        ("start_s", Json::Num(s.start)),
                        ("end_s", Json::Num(s.end)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

/// Timing [`LogSource`] adapter: one span per `next_chunk` call.
struct Timed<'t, S> {
    inner: S,
    tracer: &'t Tracer,
    layer: &'static str,
    bytes: u64,
    chunks: u64,
    /// When the most recent read returned.
    last_read_end: f64,
}

impl<'t, S> Timed<'t, S> {
    fn new(inner: S, tracer: &'t Tracer, layer: &'static str) -> Self {
        Timed {
            inner,
            tracer,
            layer,
            bytes: 0,
            chunks: 0,
            last_read_end: 0.0,
        }
    }
}

impl<'a, S: LogSource<'a>> LogSource<'a> for Timed<'_, S> {
    fn nodes(&self) -> &[NodeId] {
        self.inner.nodes()
    }

    fn next_chunk(&mut self, target_bytes: u64) -> Result<Option<LogChunk<'a>>, DataError> {
        let chunk = self
            .tracer
            .time(self.layer, || self.inner.next_chunk(target_bytes));
        self.last_read_end = self.tracer.now();
        if let Ok(Some(c)) = &chunk {
            self.bytes += c.bytes;
            self.chunks += 1;
        }
        chunk
    }

    fn total_bytes_hint(&self) -> Option<u64> {
        self.inner.total_bytes_hint()
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Inputs shared by the analyze-shaped pipelines.
struct Tables {
    jobs: Option<Vec<JobRecord>>,
    downtime: Option<Vec<DowntimeInterval>>,
}

fn parse_tables(tr: &Tracer, dir: &Path) -> Result<Tables, String> {
    let jobs_path = dir.join("jobs.csv");
    if !jobs_path.exists() {
        return Ok(Tables {
            jobs: None,
            downtime: None,
        });
    }
    let text = read(&jobs_path)?;
    let jobs = tr
        .time("slurm.jobs_parse", || jobs_csv::from_csv(&text))
        .map_err(err)?;
    tr.add("slurm.jobs", jobs.len() as f64);
    tr.add("slurm.jobs_bytes", text.len() as f64);
    let text = read(&dir.join("downtime.csv"))?;
    let downtime = tr
        .time("files.downtime_parse", || downtime_from_csv(&text))
        .map_err(err)?;
    Ok(Tables {
        jobs: Some(jobs),
        downtime: Some(downtime),
    })
}

/// Merge, fold and join, as `PipelineBuilder` does after Stage I, with
/// the job join timed apart from the fold.
fn analyze(
    tr: &Tracer,
    per_node: Vec<Vec<ErrorRecord>>,
    tables: &Tables,
    cfg: StudyConfig,
) -> StudyResults {
    tr.add(
        "shard.records_in",
        per_node.iter().map(|r| r.len() as f64).sum(),
    );
    let coalesced: Vec<CoalescedError> = tr.time("shard.merge_coalesce", || {
        merge_and_coalesce(per_node, cfg.coalesce)
    });
    tr.add("shard.episodes_out", coalesced.len() as f64);
    let mut results = tr.time("engine.fold", || {
        StudyResults::from_coalesced(coalesced, None, tables.downtime.as_deref(), cfg)
    });
    if let Some(jobs) = &tables.jobs {
        let (ji, t3) = tr.time("job_impact.join", || {
            (
                analyze_jobs(jobs, &results.coalesced, cfg.job_impact),
                table3(jobs),
            )
        });
        results.job_impact = Some(ji);
        results.table3 = Some(t3);
    }
    results
}

/// `gpures analyze --logs [--records]`: stream, summarize, extract per
/// chunk (one extractor per node carries the year inference across its
/// chunks), optionally tee the store, then analyze.
fn text_pipeline(
    tr: &Tracer,
    dir: &Path,
    tee: bool,
    cfg: StudyConfig,
) -> Result<StudyResults, String> {
    let tables = parse_tables(tr, dir)?;
    let logs = dir.join("logs");
    let dir_source = tr
        .time("source.read", || DirSource::open(&logs))
        .map_err(err)?;
    let mut source = Timed::new(dir_source, tr, "source.read");
    let nodes = source.nodes().to_vec();
    let target = WaveConfig::for_source(&source, None).target_bytes;
    let mut extractors: Vec<XidExtractor> = nodes.iter().map(|_| XidExtractor::new()).collect();
    let mut per_node: Vec<Vec<ErrorRecord>> = vec![Vec::new(); nodes.len()];
    while let Some(chunk) = source.next_chunk(target).map_err(err)? {
        let lines = &chunk.lines;
        black_box(tr.time("shard.summarize", || summarize_chunk(lines)));
        tr.time("logscan.header", || {
            for line in lines.iter() {
                black_box(parse_header(line));
            }
        });
        let (Some(ex), Some(out)) = (extractors.get_mut(chunk.node), per_node.get_mut(chunk.node))
        else {
            return Err(format!(
                "chunk names node index {} of {}",
                chunk.node,
                nodes.len()
            ));
        };
        let recs = tr.time("logscan.extract", || {
            ex.extract_all(lines.iter().map(|s| s.as_str()))
        });
        out.extend(recs);
    }
    tr.add("source.bytes", source.bytes as f64);
    tr.add("source.chunks", source.chunks as f64);
    let mut stats = ExtractStats::default();
    for ex in &extractors {
        stats.merge(&ex.stats());
    }
    tr.add("logscan.lines", stats.lines as f64);
    tr.add("logscan.xid_lines", stats.xid_lines as f64);
    tr.add("logscan.prefilter_hits", stats.prefilter_hits as f64);
    if tee {
        let path = dir.join("trace-tee.grcs");
        let summary = tr
            .time("store.write", || write_store(&path, &nodes, &per_node))
            .map_err(err)?;
        tr.add("store.bytes_written", summary.bytes as f64);
    }
    Ok(analyze(tr, per_node, &tables, cfg))
}

/// `gpures analyze --from-records`: open, decode block by block, analyze.
fn store_pipeline(tr: &Tracer, dir: &Path, cfg: StudyConfig) -> Result<StudyResults, String> {
    let tables = parse_tables(tr, dir)?;
    let path = dir.join("store.grcs");
    let store = tr
        .time("store.open", || RecordStore::open(&path))
        .map_err(err)?;
    let mut reader = tr.time("store.open", || store.reader(&path)).map_err(err)?;
    let mut per_node: Vec<Vec<ErrorRecord>> = vec![Vec::new(); store.nodes().len()];
    while let Some(batch) = tr
        .time("store.decode", || reader.next_batch())
        .map_err(err)?
    {
        tr.add("store.records_read", batch.records.len() as f64);
        tr.add("store.blocks", 1.0);
        let Some(out) = per_node.get_mut(batch.node) else {
            return Err(format!("batch names node index {}", batch.node));
        };
        out.extend(batch.records);
    }
    Ok(analyze(tr, per_node, &tables, cfg))
}

/// `gpures watch --follow off` up to its final fold: one poll through the
/// timed tail, then drain. Ingest runs until the last read returns;
/// release is the rest of the poll plus the drain.
fn watch_session(tr: &Tracer, logs: &Path, cfg: StudyConfig) -> Result<WatchSession, String> {
    let tail = tr
        .time("tail.read", || TailSource::open(logs))
        .map_err(err)?;
    let mut source = Timed::new(tail, tr, "tail.read");
    let mut session = WatchSession::new(WatchConfig {
        study: cfg,
        ..WatchConfig::default()
    });
    let ingest = tr.open("watch.ingest");
    session
        .run_observed(&mut source, &MetricsSink::disabled())
        .map_err(err)?;
    let poll_end = tr.now();
    tr.close_at(ingest, source.last_read_end);
    tr.record("watch.release", source.last_read_end, poll_end);
    tr.time("watch.release", || session.drain());
    tr.time("watch.snapshot", || {
        for _ in 0..SNAPSHOT_CALLS {
            black_box(session.snapshot());
        }
    });
    tr.add("watch.snapshot_calls", SNAPSHOT_CALLS as f64);
    let stats = session.stats();
    tr.add("watch.episodes", stats.episodes as f64);
    tr.add("watch.alerts", session.alerts().len() as f64);
    tr.add("watch.late_dropped", stats.late_dropped as f64);
    Ok(session)
}

/// Call each layer the workload did not reach once, on the emptied
/// inputs in `empty`.
fn probe_unreached(tr: &Tracer, empty: &Path, cfg: StudyConfig) -> Result<(), String> {
    let logs = empty.join("logs");
    if !tr.reached("source.read") {
        let mut s = Timed::new(DirSource::open(&logs).map_err(err)?, tr, "source.read");
        s.next_chunk(1).map_err(err)?;
    }
    if !tr.reached("logscan.extract") {
        tr.time("logscan.extract", || {
            XidExtractor::new().extract_all(std::iter::empty())
        });
    }
    if !tr.reached("logscan.header") {
        tr.time("logscan.header", || black_box(parse_header("")));
    }
    if !tr.reached("shard.summarize") {
        tr.time("shard.summarize", || black_box(summarize_chunk(&[])));
    }
    if !tr.reached("shard.merge_coalesce") {
        tr.time("shard.merge_coalesce", || {
            merge_and_coalesce(Vec::new(), cfg.coalesce)
        });
    }
    if !tr.reached("store.write") {
        let path = empty.join("trace-write.grcs");
        tr.time("store.write", || write_store(&path, &[], &[]))
            .map_err(err)?;
    }
    if !tr.reached("store.open") || !tr.reached("store.decode") {
        let path = empty.join("store.grcs");
        let store = tr
            .time("store.open", || RecordStore::open(&path))
            .map_err(err)?;
        let mut reader = store.reader(&path).map_err(err)?;
        tr.time("store.decode", || reader.next_batch())
            .map_err(err)?;
    }
    if !tr.reached("slurm.jobs_parse") {
        let text = read(&empty.join("jobs.csv"))?;
        tr.time("slurm.jobs_parse", || jobs_csv::from_csv(&text))
            .map_err(err)?;
    }
    if !tr.reached("files.downtime_parse") {
        let text = read(&empty.join("downtime.csv"))?;
        tr.time("files.downtime_parse", || downtime_from_csv(&text))
            .map_err(err)?;
    }
    if !tr.reached("job_impact.join") {
        tr.time("job_impact.join", || analyze_jobs(&[], &[], cfg.job_impact));
    }
    if !tr.reached("watch.ingest") {
        watch_session(tr, &logs, cfg)?;
    }
    Ok(())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Run the workload traced in `dir` (as `perfbench gen` wrote it), write
/// the rendered report to `report` and the spans beside it, and return
/// the per-layer metrics.
pub fn trace(workload: Workload, dir: &Path, report: &Path) -> Result<Json, String> {
    gpu_resilience::par::set_worker_override(Some(1));
    let manifest = Json::parse(&read(&dir.join("gen.json"))?)?;
    let num = |k: &str| manifest.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let cfg = study_config(num("hours"), num("nodes") as u32);

    let tr = Tracer::new();
    let start = tr.now();
    let results = match workload {
        Workload::DenseCampaign => text_pipeline(&tr, dir, true, cfg)?,
        Workload::FleetNoisy => text_pipeline(&tr, dir, false, cfg)?,
        Workload::StoreReplay => store_pipeline(&tr, dir, cfg)?,
        Workload::WatchDrain => {
            let session = watch_session(&tr, &dir.join("logs"), cfg)?;
            tr.time("engine.fold", || {
                session.finish_observed(&MetricsSink::disabled())
            })
        }
    };
    let text = tr.time("report.render", || render_report(&results));
    let wall = tr.now() - start;
    tr.add("report.bytes", text.len() as f64);
    std::fs::write(report, &text).map_err(|e| format!("{}: {e}", report.display()))?;
    probe_unreached(&tr, &dir.join("empty"), cfg)?;

    let self_s = tr.self_times(f64::INFINITY);
    // Probe spans come after `wall`; only the workload's own time counts
    // against it.
    let attributed: f64 = tr.self_times(start + wall).values().sum();
    let spans_path = report.with_extension("spans.json");
    std::fs::write(&spans_path, tr.spans_json().render())
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;

    let mut metrics: Vec<(String, Json)> = Vec::new();
    let mut put = |name: &str, v: f64| metrics.push((name.to_string(), Json::Num(v)));
    for layer in LAYERS {
        let s = self_s.get(layer).copied().unwrap_or(0.0);
        if layer == "watch.snapshot" {
            put(
                "watch.snapshot_us",
                1e6 * ratio(s, tr.count("watch.snapshot_calls")),
            );
        } else {
            put(&format!("{layer}_s"), s);
        }
    }
    for name in [
        "source.bytes",
        "source.chunks",
        "logscan.lines",
        "logscan.xid_lines",
        "shard.records_in",
        "shard.episodes_out",
        "store.bytes_written",
        "store.records_read",
        "store.blocks",
        "slurm.jobs",
        "slurm.jobs_bytes",
        "report.bytes",
        "watch.episodes",
        "watch.alerts",
        "watch.late_dropped",
    ] {
        put(name, tr.count(name));
    }
    let (lines, xid_lines) = (tr.count("logscan.lines"), tr.count("logscan.xid_lines"));
    let extract_s = self_s.get("logscan.extract").copied().unwrap_or(0.0);
    put(
        "logscan.prefilter_hit_pct",
        100.0 * ratio(tr.count("logscan.prefilter_hits"), lines),
    );
    put("logscan.ns_per_line", 1e9 * ratio(extract_s, lines));
    put("logscan.ns_per_xid_line", 1e9 * ratio(extract_s, xid_lines));
    put(
        "shard.episodes_per_record",
        ratio(tr.count("shard.episodes_out"), tr.count("shard.records_in")),
    );
    put("trace.wall_s", wall);
    put("trace.unattributed_s", wall - attributed);
    Ok(Json::Obj(metrics))
}
