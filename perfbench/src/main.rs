//! `perfbench` — the Rust half of the gpures benchmark.
//!
//! ```text
//! perfbench gen   --workload NAME --seed N --out DIR [--smoke]
//! perfbench trace --workload NAME --dir DIR --report FILE
//! perfbench calib --threads T --rounds R
//! ```
//!
//! `gen` writes a workload's inputs (see `gen.rs`). `trace` runs the
//! workload's pipeline in process, one worker, calling each layer's public
//! functions with a span around every call, and prints the per-layer
//! metrics as one JSON object (see `trace.rs`). `calib` runs the fixed
//! host-speed probe and prints its checksum (see `calib.rs`). `run.py`
//! drives all three and times the release `gpures` binary from outside.

mod calib;
mod gen;
mod trace;

use gpu_resilience::core::{CoalesceConfig, StudyConfig, StudyResults};
use gpu_resilience::report::{render_summary, render_table1, render_table2, render_table3};
use std::path::PathBuf;
use std::process::ExitCode;

/// The benchmark's workloads; `run.py` and `README.md` give their reasons.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    DenseCampaign,
    FleetNoisy,
    StoreReplay,
    WatchDrain,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "dense-campaign" => Workload::DenseCampaign,
            "fleet-noisy" => Workload::FleetNoisy,
            "store-replay" => Workload::StoreReplay,
            "watch-drain" => Workload::WatchDrain,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::DenseCampaign => "dense-campaign",
            Workload::FleetNoisy => "fleet-noisy",
            Workload::StoreReplay => "store-replay",
            Workload::WatchDrain => "watch-drain",
        }
    }
}

/// The study configuration `gpures analyze` and `gpures watch` build from
/// `--hours H --nodes N` at the default `--dt 5`.
pub fn study_config(hours: f64, nodes: u32) -> StudyConfig {
    StudyConfig {
        coalesce: CoalesceConfig::with_window_secs(5),
        ..StudyConfig::ampere_study()
    }
    .with_window(hours, nodes)
}

/// The stdout report `gpures analyze` and `gpures watch` print.
pub fn render_report(results: &StudyResults) -> String {
    let mut out = render_table1(results).render();
    out.push('\n');
    if let Some(ji) = &results.job_impact {
        out.push_str(&render_table2(ji).render());
        out.push('\n');
    }
    if let Some(t3) = &results.table3 {
        out.push_str(&render_table3(t3).render());
        out.push('\n');
    }
    out.push_str(&render_summary(results));
    out.push('\n');
    out
}

/// `--flag value` pairs plus bare `--smoke`.
struct Args {
    pairs: Vec<(String, String)>,
    smoke: bool,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut pairs = Vec::new();
        let mut smoke = false;
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            if flag == "--smoke" {
                smoke = true;
                continue;
            }
            let Some(name) = flag.strip_prefix("--") else {
                return Err(format!("unexpected argument {flag:?}"));
            };
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Args { pairs, smoke })
    }

    fn get(&self, name: &str) -> Result<&str, String> {
        self.pairs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| format!("missing --{name}"))
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self.get("workload")?;
        Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))
    }
}

fn run(raw: &[String]) -> Result<(), String> {
    let (cmd, rest) = raw
        .split_first()
        .ok_or("usage: perfbench gen|trace|calib --flag value ...")?;
    let args = Args::parse(rest)?;
    match cmd.as_str() {
        "gen" => {
            let seed: u64 = args
                .get("seed")?
                .parse()
                .map_err(|e| format!("--seed: {e}"))?;
            let out = PathBuf::from(args.get("out")?);
            let manifest = gen::generate(args.workload()?, seed, args.smoke, &out)?;
            println!("{}", manifest.render());
            Ok(())
        }
        "trace" => {
            let dir = PathBuf::from(args.get("dir")?);
            let report = PathBuf::from(args.get("report")?);
            let doc = trace::trace(args.workload()?, &dir, &report)?;
            println!("{}", doc.render());
            Ok(())
        }
        "calib" => {
            let number = |name: &str| -> Result<u32, String> {
                args.get(name)?
                    .parse()
                    .map_err(|e| format!("--{name}: {e}"))
            };
            let threads = number("threads")? as usize;
            println!("{}", calib::probe(threads, number("rounds")?));
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run(&raw) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
