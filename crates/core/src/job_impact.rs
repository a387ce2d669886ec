//! Job-level fault analysis (Section 5, Tables 2–3, Figures 9a/9b).
//!
//! Jobs are classified **GPU-failed** when they exited non-zero and a GPU
//! error occurred on one of their allocated GPUs within a twenty-second
//! window before the failure time. Every error within the window is
//! considered responsible, and Table 2 reports, per XID, how many jobs
//! encountered the error at all versus how many died with it.

use crate::coalesce::CoalescedError;
use crate::source::io_err;
use dr_obs::{MetricsSink, Stage};
use dr_slurm::csv::{CsvError, JobsParser};
use dr_slurm::{JobRecord, JobState};
use dr_stats::{quantile_sorted, Histogram};
use dr_xid::{DataError, Duration, GpuId, Xid};
use std::collections::{BTreeMap, BTreeSet};
use std::fs::File;
use std::io::{ErrorKind, Read};
use std::path::Path;

/// One row of Table 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Table2Row {
    pub xid: Xid,
    /// Jobs that encountered this XID during their run and GPU-failed.
    pub gpu_failed_jobs: u64,
    /// Jobs that encountered this XID during their run.
    pub jobs_encountering: u64,
}

impl Table2Row {
    /// Failure probability given the XID (Table 2's last column).
    pub fn failure_probability(&self) -> f64 {
        if self.jobs_encountering == 0 {
            0.0
        } else {
            self.gpu_failed_jobs as f64 / self.jobs_encountering as f64
        }
    }
}

/// One row of Table 3 (recomputed from the accounting table).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Table3Row {
    pub min_gpus: u16,
    pub max_gpus: u16,
    pub count: u64,
    pub share: f64,
    pub elapsed_mean_min: f64,
    pub elapsed_p50_min: f64,
    pub elapsed_p99_min: f64,
    pub ml_gpu_hours_k: f64,
    pub non_ml_gpu_hours_k: f64,
}

/// Binned elapsed-time distribution for Figure 9a and error-count
/// relation for Figure 9b.
#[derive(Clone, Debug)]
pub struct ElapsedDistributions {
    /// Completed-job elapsed histogram (minutes).
    pub completed: Histogram,
    /// GPU-failed-job elapsed histogram (minutes).
    pub gpu_failed: Histogram,
    /// (elapsed minutes, errors encountered) samples for completed jobs
    /// that saw at least one error.
    pub errors_vs_duration_completed: Vec<(f64, u32)>,
    /// Same for GPU-failed jobs.
    pub errors_vs_duration_failed: Vec<(f64, u32)>,
}

/// The full Section 5 analysis output.
#[derive(Clone, Debug)]
pub struct JobImpactAnalysis {
    pub table2: Vec<Table2Row>,
    /// Total GPU-failed jobs (the paper's 4,322).
    pub gpu_failed_total: u64,
    pub completed: u64,
    pub failed_any: u64,
    pub success_rate: f64,
    /// GPU hours consumed by GPU-failed jobs (wasted compute).
    pub lost_gpu_hours: f64,
    pub distributions: ElapsedDistributions,
}

/// The ±window join described in Section 5.3.
#[derive(Clone, Copy, Debug)]
pub struct JobImpactConfig {
    /// The error-to-failure attribution window (20 s in the paper).
    pub join_window: Duration,
}

impl Default for JobImpactConfig {
    fn default() -> Self {
        JobImpactConfig {
            join_window: Duration::from_secs(20),
        }
    }
}

/// Correlate errors with jobs.
pub fn analyze_jobs(
    jobs: &[JobRecord],
    errors: &[CoalescedError],
    cfg: JobImpactConfig,
) -> JobImpactAnalysis {
    // Index: errors per GPU in input order (the finish step sorts by
    // start time). Owned copies — `CoalescedError` is `Copy` — so the
    // incremental accumulator can build the identical index one error
    // at a time without borrowing the corpus.
    let mut by_gpu: BTreeMap<GpuId, Vec<CoalescedError>> = BTreeMap::new();
    for e in errors {
        by_gpu.entry(e.gpu).or_default().push(*e);
    }
    finish_job_impact(jobs, by_gpu, cfg)
}

/// The shared back half of the job-impact join: takes the per-GPU error
/// index (arrival order — this function stable-sorts each list by start
/// time), so the batch front door above and the incremental
/// [`crate::engine::JobImpactAcc`] produce bit-identical results from
/// bit-identical state.
pub(crate) fn finish_job_impact(
    jobs: &[JobRecord],
    mut by_gpu: BTreeMap<GpuId, Vec<CoalescedError>>,
    cfg: JobImpactConfig,
) -> JobImpactAnalysis {
    for v in by_gpu.values_mut() {
        v.sort_by_key(|e| e.start);
    }

    let mut encountering: BTreeMap<Xid, BTreeSet<u64>> = BTreeMap::new();
    let mut failed_with: BTreeMap<Xid, BTreeSet<u64>> = BTreeMap::new();
    let mut gpu_failed_jobs: BTreeSet<u64> = BTreeSet::new();

    let mut completed = 0u64;
    let mut failed_any = 0u64;
    let mut lost_gpu_hours = 0.0;
    let mut dist = ElapsedDistributions {
        completed: Histogram::new(0.0, 6_000.0, 60),
        gpu_failed: Histogram::new(0.0, 6_000.0, 60),
        errors_vs_duration_completed: Vec::new(),
        errors_vs_duration_failed: Vec::new(),
    };

    for job in jobs {
        let elapsed_min = job.elapsed().as_secs_f64() / 60.0;
        let mut errors_seen = 0u32;
        let mut xids_seen: Vec<Xid> = Vec::new();
        let mut fatal_xids: Vec<Xid> = Vec::new();
        let fail_window_start = job.end.saturating_sub(cfg.join_window);

        for &g in &job.gpus {
            let Some(list) = by_gpu.get(&g) else {
                continue;
            };
            // All errors starting within [job.start, job.end].
            let lo = list.partition_point(|e| e.start < job.start);
            for e in &list[lo..] {
                if e.start > job.end {
                    break;
                }
                errors_seen += 1;
                if !xids_seen.contains(&e.xid) {
                    xids_seen.push(e.xid);
                }
                if e.start >= fail_window_start && !fatal_xids.contains(&e.xid) {
                    fatal_xids.push(e.xid);
                }
            }
        }

        for &x in &xids_seen {
            encountering.entry(x).or_default().insert(job.id);
        }

        let job_failed = job.exit_code != 0;
        // "GPU-failed": non-zero exit with an error inside the pre-failure
        // window. (The paper classifies from the accounting data alone,
        // without knowing the true cause — so user failures that happen to
        // coincide with an error are counted too, exactly as in the study.)
        let is_gpu_failed = job_failed && !fatal_xids.is_empty();
        if is_gpu_failed {
            gpu_failed_jobs.insert(job.id);
            lost_gpu_hours += job.gpu_hours();
            for &x in &fatal_xids {
                failed_with.entry(x).or_default().insert(job.id);
            }
            dist.gpu_failed.push(elapsed_min);
            if errors_seen > 0 {
                dist.errors_vs_duration_failed.push((elapsed_min, errors_seen));
            }
        } else {
            if job.state == JobState::Completed {
                completed += 1;
                dist.completed.push(elapsed_min);
                if errors_seen > 0 {
                    dist
                        .errors_vs_duration_completed
                        .push((elapsed_min, errors_seen));
                }
            }
        }
        if job_failed {
            failed_any += 1;
        }
    }

    // Table 2, ordered by GPU-failed count descending like the paper.
    let mut table2: Vec<Table2Row> = Xid::TABLE1
        .iter()
        .map(|&xid| Table2Row {
            xid,
            gpu_failed_jobs: failed_with.get(&xid).map(|s| s.len() as u64).unwrap_or(0),
            jobs_encountering: encountering.get(&xid).map(|s| s.len() as u64).unwrap_or(0),
        })
        .collect();
    table2.sort_by_key(|r| std::cmp::Reverse(r.gpu_failed_jobs));

    let total = jobs.len() as u64;
    JobImpactAnalysis {
        table2,
        gpu_failed_total: gpu_failed_jobs.len() as u64,
        completed,
        failed_any,
        success_rate: if total > 0 {
            1.0 - failed_any as f64 / total as f64
        } else {
            0.0
        },
        lost_gpu_hours,
        distributions: dist,
    }
}

/// Recompute Table 3 from the accounting table using the standard buckets.
pub fn table3(jobs: &[JobRecord]) -> Vec<Table3Row> {
    let buckets: [(u16, u16); 8] = [
        (1, 1),
        (2, 4),
        (5, 8),
        (9, 32),
        (33, 64),
        (65, 128),
        (129, 256),
        (257, u16::MAX),
    ];
    // One pass, each job into its bucket; every bucket still sums in job
    // order, so the rows do not depend on how the jobs were bucketed.
    let mut elapsed: [Vec<f64>; 8] = Default::default();
    let mut hours = [(0.0, 0.0); 8];
    for j in jobs {
        let n = j.gpu_count() as u16;
        let Some(b) = buckets.iter().position(|&(lo, hi)| lo <= n && n <= hi) else {
            continue;
        };
        elapsed[b].push(j.elapsed().as_secs_f64() / 60.0);
        let (ml_h, non_ml_h) = &mut hours[b];
        if j.ml {
            *ml_h += j.gpu_hours();
        } else {
            *non_ml_h += j.gpu_hours();
        }
    }
    let total = jobs.len().max(1) as f64;
    buckets
        .iter()
        .zip(elapsed)
        .zip(hours)
        .map(|((&(lo, hi), mut elapsed), (ml_h, non_ml_h))| {
            elapsed.sort_by(f64::total_cmp);
            let count = elapsed.len() as u64;
            let mean = if count > 0 {
                elapsed.iter().sum::<f64>() / count as f64
            } else {
                0.0
            };
            Table3Row {
                min_gpus: lo,
                max_gpus: hi,
                count,
                share: count as f64 / total,
                elapsed_mean_min: mean,
                elapsed_p50_min: quantile_sorted(&elapsed, 0.5).unwrap_or(0.0),
                elapsed_p99_min: quantile_sorted(&elapsed, 0.99).unwrap_or(0.0),
                ml_gpu_hours_k: ml_h / 1_000.0,
                non_ml_gpu_hours_k: non_ml_h / 1_000.0,
            }
        })
        .collect()
}

/// Bytes each worker parses per wave of [`load_jobs`]. Like the shard
/// planner's chunk cap, it bounds what is resident: one wave of
/// `workers` blocks plus the partial line it ends in, never the whole
/// table.
const JOBS_BLOCK: usize = 1 << 20;

/// Parse the Slurm accounting table at `path` (the [`dr_slurm::csv`]
/// format), streamed in waves of one [`JOBS_BLOCK`] per `dr-par` worker.
/// The load is the `job_impact` stage's `parse` span.
pub fn load_jobs(path: &Path, sink: &MetricsSink) -> Result<Vec<JobRecord>, DataError> {
    let _span = sink.span(Stage::JobImpact, "parse");
    let file = File::open(path).map_err(|e| io_err(path, e))?;
    read_jobs(file, path, JOBS_BLOCK, dr_par::max_workers())
}

/// [`load_jobs`] over any reader. Each wave reads `workers × block`
/// bytes, cuts them after their last newline, splits the whole lines
/// into `workers` runs and parses the runs in parallel. The runs are
/// joined in order, and the first failing run holds the table's first
/// bad line, so the jobs and the error do not depend on `block` or
/// `workers`.
fn read_jobs(
    mut r: impl Read,
    path: &Path,
    block: usize,
    workers: usize,
) -> Result<Vec<JobRecord>, DataError> {
    let workers = workers.max(1);
    let wave_bytes = block.saturating_mul(workers).max(1);
    let mut wave = Vec::with_capacity(wave_bytes);
    let mut jobs = Vec::new();
    // Lines parsed so far, the header included.
    let mut lines = 0;
    loop {
        let eof = read_block(&mut r, &mut wave, wave_bytes).map_err(|e| io_err(path, e))?;
        let whole = if eof {
            wave.len()
        } else {
            match wave.iter().rposition(|&b| b == b'\n') {
                Some(p) => p + 1,
                // One line longer than the wave: read on.
                None => continue,
            }
        };
        // A short wave (a small table, or a table's tail) is not worth a
        // thread per run: each run gets at least a sixteenth of a block.
        let parts = workers.min(1 + whole / (block / 16).max(1));
        let runs = split_lines(wave.get(..whole).unwrap_or_default(), parts);
        let first = lines == 0;
        let parsed = dr_par::par_map(&runs, |&(k, run)| {
            let mut parser = if first && k == 0 {
                JobsParser::new()
            } else {
                JobsParser::rows()
            };
            parser.feed(run)?;
            // Only the table's last run can end without a newline, and
            // no line follows it to be numbered.
            let n = parser.lines();
            parser.finish().map(|jobs| (jobs, n))
        });
        for run in parsed {
            match run {
                Ok((mut run_jobs, n)) => {
                    jobs.append(&mut run_jobs);
                    lines += n;
                }
                Err(e) => {
                    return Err(CsvError {
                        line: lines + e.line,
                        ..e
                    }
                    .into())
                }
            }
        }
        if eof {
            return Ok(jobs);
        }
        wave.drain(..whole);
    }
}

/// Append up to `n` bytes from `r` to `buf`; true when the input ended
/// first. The buffer grows 64 KiB ahead of the reads, so a short input
/// touches little memory.
fn read_block(r: &mut impl Read, buf: &mut Vec<u8>, n: usize) -> std::io::Result<bool> {
    let mut end = buf.len();
    let stop = end.saturating_add(n);
    let outcome = loop {
        if end == stop {
            break Ok(false);
        }
        buf.resize(stop.min(end + (64 << 10)), 0);
        match r.read(buf.get_mut(end..).unwrap_or_default()) {
            Ok(0) => break Ok(true),
            Ok(k) => end += k,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => break Err(e),
        }
    };
    buf.truncate(end);
    outcome
}

/// Split `text` into `parts` numbered runs of whole lines, cutting each
/// after the first newline at or past an even share. Runs may be empty;
/// the first always exists.
fn split_lines(text: &[u8], parts: usize) -> Vec<(usize, &[u8])> {
    let mut runs = Vec::with_capacity(parts);
    let mut start = 0;
    for k in 1..=parts {
        let end = if k == parts {
            text.len()
        } else {
            let at = (text.len() * k / parts).max(start);
            text.get(at..)
                .and_then(|t| t.iter().position(|&b| b == b'\n'))
                .map_or(text.len(), |p| at + p + 1)
        };
        runs.push((k - 1, text.get(start..end).unwrap_or_default()));
        start = end;
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_xid::{ErrorDetail, NodeId, Timestamp};

    fn gpu(node: u32, slot: usize) -> GpuId {
        GpuId::at_slot(NodeId(node), slot)
    }

    fn job(id: u64, g: GpuId, start_s: u64, end_s: u64, exit: i32, state: JobState) -> JobRecord {
        JobRecord {
            id,
            gpus: vec![g],
            start: Timestamp::from_secs(start_s),
            end: Timestamp::from_secs(end_s),
            state,
            exit_code: exit,
            ml: false,
        }
    }

    fn err(g: GpuId, at_s: u64, xid: Xid) -> CoalescedError {
        CoalescedError {
            gpu: g,
            xid,
            detail: ErrorDetail::NONE,
            start: Timestamp::from_secs(at_s),
            last: Timestamp::from_secs(at_s),
            merged: 1,
        }
    }

    #[test]
    fn gpu_failed_classification_needs_window_hit() {
        let g = gpu(1, 0);
        let jobs = vec![
            // Dies 5 s after the error: GPU-failed.
            job(0, g, 0, 1_005, 137, JobState::GpuFailed),
            // Error mid-run but exits cleanly much later: encountered only.
            job(1, g, 2_000, 9_000, 0, JobState::Completed),
            // Fails with no error nearby: not GPU-failed.
            job(2, g, 20_000, 21_000, 1, JobState::UserFailed),
        ];
        let errors = vec![err(g, 1_000, Xid::GspRpcTimeout), err(g, 2_500, Xid::MmuError)];
        let a = analyze_jobs(&jobs, &errors, JobImpactConfig::default());
        assert_eq!(a.gpu_failed_total, 1);
        let gsp = a.table2.iter().find(|r| r.xid == Xid::GspRpcTimeout).unwrap();
        assert_eq!(gsp.jobs_encountering, 1);
        assert_eq!(gsp.gpu_failed_jobs, 1);
        assert_eq!(gsp.failure_probability(), 1.0);
        let mmu = a.table2.iter().find(|r| r.xid == Xid::MmuError).unwrap();
        assert_eq!(mmu.jobs_encountering, 1);
        assert_eq!(mmu.gpu_failed_jobs, 0);
        assert_eq!(mmu.failure_probability(), 0.0);
    }

    #[test]
    fn error_after_job_end_is_not_encountered() {
        let g = gpu(1, 0);
        let jobs = vec![job(0, g, 0, 100, 0, JobState::Completed)];
        let errors = vec![err(g, 150, Xid::MmuError)];
        let a = analyze_jobs(&jobs, &errors, JobImpactConfig::default());
        let mmu = a.table2.iter().find(|r| r.xid == Xid::MmuError).unwrap();
        assert_eq!(mmu.jobs_encountering, 0);
    }

    #[test]
    fn multiple_errors_in_window_all_blamed() {
        let g = gpu(1, 0);
        let jobs = vec![job(0, g, 0, 1_010, 139, JobState::GpuFailed)];
        let errors = vec![
            err(g, 1_000, Xid::NvlinkError),
            err(g, 1_005, Xid::MmuError),
        ];
        let a = analyze_jobs(&jobs, &errors, JobImpactConfig::default());
        assert_eq!(a.gpu_failed_total, 1);
        for xid in [Xid::NvlinkError, Xid::MmuError] {
            let row = a.table2.iter().find(|r| r.xid == xid).unwrap();
            assert_eq!(row.gpu_failed_jobs, 1, "{xid}");
        }
    }

    #[test]
    fn coincidental_user_failure_counts_as_gpu_failed() {
        // The paper's classifier cannot see the true cause: a user failure
        // within 20 s of an unrelated error is attributed to the GPU.
        let g = gpu(1, 0);
        let jobs = vec![job(0, g, 0, 1_010, 1, JobState::UserFailed)];
        let errors = vec![err(g, 1_000, Xid::MmuError)];
        let a = analyze_jobs(&jobs, &errors, JobImpactConfig::default());
        assert_eq!(a.gpu_failed_total, 1);
    }

    #[test]
    fn success_rate_and_lost_hours() {
        let g = gpu(1, 0);
        let jobs = vec![
            job(0, g, 0, 3_600, 0, JobState::Completed),
            job(1, g, 0, 7_210, 137, JobState::GpuFailed),
        ];
        let errors = vec![err(g, 7_200, Xid::GspRpcTimeout)];
        let a = analyze_jobs(&jobs, &errors, JobImpactConfig::default());
        assert_eq!(a.completed, 1);
        assert_eq!(a.failed_any, 1);
        assert!((a.success_rate - 0.5).abs() < 1e-9);
        assert!((a.lost_gpu_hours - 7_210.0 / 3_600.0).abs() < 1e-9);
    }

    #[test]
    fn table3_buckets_and_hours() {
        let g = gpu(1, 0);
        let mut jobs = vec![
            job(0, g, 0, 3_600, 0, JobState::Completed),
            job(1, g, 0, 7_200, 0, JobState::Completed),
        ];
        jobs[1].gpus = vec![gpu(1, 0), gpu(1, 1), gpu(1, 2)];
        jobs[1].ml = true;
        let t3 = table3(&jobs);
        assert_eq!(t3[0].count, 1); // 1-GPU bucket
        assert_eq!(t3[1].count, 1); // 2-4 bucket
        assert!((t3[0].share - 0.5).abs() < 1e-9);
        assert!((t3[0].elapsed_mean_min - 60.0).abs() < 1e-9);
        assert!((t3[1].ml_gpu_hours_k - 3.0 * 2.0 / 1_000.0).abs() < 1e-9);
        assert_eq!(t3[1].non_ml_gpu_hours_k, 0.0);
        assert_eq!(t3[7].count, 0);
    }

    #[test]
    fn distributions_are_populated() {
        let g = gpu(1, 0);
        let jobs = vec![
            job(0, g, 0, 60_000, 0, JobState::Completed),
            job(1, g, 0, 1_010, 139, JobState::GpuFailed),
        ];
        let errors = vec![err(g, 1_000, Xid::NvlinkError)];
        let a = analyze_jobs(&jobs, &errors, JobImpactConfig::default());
        assert_eq!(a.distributions.completed.count(), 1);
        assert_eq!(a.distributions.gpu_failed.count(), 1);
        assert_eq!(a.distributions.errors_vs_duration_failed.len(), 1);
        // The long completed job also saw the error mid-run.
        assert_eq!(a.distributions.errors_vs_duration_completed.len(), 1);
    }

    /// The eight-scan Table 3 that [`table3`] replaced, as its oracle.
    fn table3_by_bucket_scans(jobs: &[JobRecord]) -> Vec<Table3Row> {
        let buckets: [(u16, u16); 8] = [
            (1, 1),
            (2, 4),
            (5, 8),
            (9, 32),
            (33, 64),
            (65, 128),
            (129, 256),
            (257, u16::MAX),
        ];
        let total = jobs.len().max(1) as f64;
        buckets
            .iter()
            .map(|&(lo, hi)| {
                let mut elapsed: Vec<f64> = Vec::new();
                let mut ml_h = 0.0;
                let mut non_ml_h = 0.0;
                for j in jobs {
                    let n = j.gpu_count() as u16;
                    if n < lo || n > hi {
                        continue;
                    }
                    elapsed.push(j.elapsed().as_secs_f64() / 60.0);
                    if j.ml {
                        ml_h += j.gpu_hours();
                    } else {
                        non_ml_h += j.gpu_hours();
                    }
                }
                elapsed.sort_by(f64::total_cmp);
                let count = elapsed.len() as u64;
                let mean = if count > 0 {
                    elapsed.iter().sum::<f64>() / count as f64
                } else {
                    0.0
                };
                Table3Row {
                    min_gpus: lo,
                    max_gpus: hi,
                    count,
                    share: count as f64 / total,
                    elapsed_mean_min: mean,
                    elapsed_p50_min: quantile_sorted(&elapsed, 0.5).unwrap_or(0.0),
                    elapsed_p99_min: quantile_sorted(&elapsed, 0.99).unwrap_or(0.0),
                    ml_gpu_hours_k: ml_h / 1_000.0,
                    non_ml_gpu_hours_k: non_ml_h / 1_000.0,
                }
            })
            .collect()
    }

    /// SplitMix64.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn random_jobs(seed: u64, n: usize) -> Vec<JobRecord> {
        let mut s = seed;
        (0..n as u64)
            .map(|id| {
                let start = mix(&mut s) % 1_000_000;
                let end = start + mix(&mut s) % 200_000;
                let states = [
                    JobState::Completed,
                    JobState::UserFailed,
                    JobState::GpuFailed,
                ];
                let mut j = job(
                    id,
                    gpu(0, 0),
                    start,
                    end,
                    0,
                    states[(mix(&mut s) % 3) as usize],
                );
                let sizes = [0, 1, 2, 4, 5, 8, 9, 32, 33, 64, 65, 128, 129, 256, 257, 300];
                let count = match mix(&mut s) % 4 {
                    0 => sizes[(mix(&mut s) % sizes.len() as u64) as usize],
                    _ => 1 + mix(&mut s) % 8,
                };
                j.gpus = (0..count)
                    .map(|k| gpu(k as u32 / 8, k as usize % 8))
                    .collect();
                j.ml = mix(&mut s) & 1 == 0;
                j
            })
            .collect()
    }

    #[test]
    fn single_pass_table3_is_bit_identical_to_bucket_scans() {
        for (seed, n) in [(1, 0), (2, 1), (3, 50), (4, 3_000)] {
            let jobs = random_jobs(seed, n);
            assert_eq!(
                format!("{:?}", table3(&jobs)),
                format!("{:?}", table3_by_bucket_scans(&jobs)),
                "seed {seed}"
            );
        }
    }

    /// A reader that hands out at most `step` bytes per call and fails
    /// once it has handed out `fail_at` bytes.
    struct Trickle<'a> {
        bytes: &'a [u8],
        step: usize,
        fail_at: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.fail_at == 0 {
                return Err(std::io::Error::other("device gone"));
            }
            let n = buf
                .len()
                .min(self.step)
                .min(self.bytes.len())
                .min(self.fail_at);
            let (head, rest) = self.bytes.split_at(n);
            buf[..n].copy_from_slice(head);
            self.bytes = rest;
            self.fail_at -= n;
            Ok(n)
        }
    }

    /// A small table with a CRLF line and a blank one in it.
    fn small_table() -> String {
        let mut jobs = random_jobs(9, 5);
        jobs.retain(|j| !j.gpus.is_empty());
        dr_slurm::csv::to_csv(&jobs).replacen("\n1,", "\r\n \n1,", 1)
    }

    #[test]
    fn streamed_load_matches_from_csv_at_every_block_size_and_worker_count() {
        let good = small_table();
        let lines: Vec<&str> = good.lines().collect();
        let tables = [
            good.clone(),
            good.trim_end().to_string(),
            good.replacen(",COMPLETED,", ",RUNNING,", 1),
            format!("{good}1,0,5,FAILED,1,0,\n"),
            format!(
                "{}\nx\n{}",
                lines[..lines.len() - 2].join("\n"),
                lines[lines.len() - 1]
            ),
            String::new(),
            dr_slurm::csv::HEADER.to_string(),
        ];
        for text in &tables {
            let want = dr_slurm::csv::from_csv(text).map_err(DataError::from);
            let load = |r: &mut dyn Read, block, workers| {
                let got = read_jobs(r, Path::new("jobs.csv"), block, workers);
                assert_eq!(got, want, "block {block}, {workers} workers");
            };
            for block in 1..=text.len() + 1 {
                for workers in [1, 2] {
                    load(&mut text.as_bytes(), block, workers);
                }
                // Short reads cut the waves anywhere.
                let mut trickle = Trickle {
                    bytes: text.as_bytes(),
                    step: 1 + block % 7,
                    fail_at: usize::MAX,
                };
                load(&mut trickle, block, 1);
            }
            for block in [1, 5, 64, text.len()] {
                load(&mut text.as_bytes(), block, 3);
            }
        }
    }

    #[test]
    fn a_read_error_names_the_path() {
        let text = small_table();
        let trickle = Trickle {
            bytes: text.as_bytes(),
            step: 16,
            fail_at: 40,
        };
        match read_jobs(trickle, Path::new("d/jobs.csv"), 8, 2) {
            Err(DataError::Io { path, message }) => {
                assert_eq!(path, "d/jobs.csv");
                assert!(message.contains("device gone"), "{message}");
            }
            other => panic!("expected an I/O error, got {other:?}"),
        }
    }
}
