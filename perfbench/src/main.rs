//! `perfbench` — the repository benchmark: end-to-end metrics of three
//! workloads (`serve-rw`, `adhoc-param`, `scan-quantifiers`), or, with
//! `--trace 1`, per-layer metrics from spans around each crate's public
//! calls. See `README.md` next to this package.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --server-bin PATH --out-dir DIR
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

mod check;
mod client;
mod docs;
mod embedded;
mod layers;
mod ops;
mod serve;
mod stats;

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

use check::Response;
use layers::Layers;
use stats::{median, quantile, reportable};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub server_bin: PathBuf,
    pub out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        server_bin: PathBuf::new(),
        out_dir: PathBuf::from("."),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = num(&value)?,
            "--seconds" => args.seconds = num(&value)?,
            "--trace" => args.trace = num(&value)? != 0,
            "--server-bin" => args.server_bin = PathBuf::from(value),
            "--out-dir" => args.out_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

/// Everything one run measured.
#[derive(Default)]
pub struct Run {
    pub setup_s: Vec<f64>,
    pub window_s: f64,
    pub timed_ops: u64,
    pub attempted: u64,
    pub failed: u64,
    /// (template, ms) of every query.
    pub query_ms: Vec<(usize, f64)>,
    /// (template, ms) of every query's first item.
    pub first_item_ms: Vec<(usize, f64)>,
    /// (group, ms) of every update; the group is the update's kind, and
    /// on the embedded workloads also its block (see `embedded.rs`).
    pub update_ms: Vec<(usize, f64)>,
    pub peak_rss_mb: f64,
    pub live_snapshots_end: u64,
    /// Responses compared against a reference output.
    pub checked: usize,
    /// Wall time of the reference evaluations.
    pub check_s: f64,
    /// Reasons the run is not correct besides failed ops.
    pub problems: Vec<String>,
    errors: Vec<String>,
    pub layers: Option<Layers>,
}

impl Run {
    /// Count one failed op.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(msg);
        }
    }

    /// Count every response that disagrees with its reference or with an
    /// earlier response to the same (query, state), and make sure the
    /// checker catches a corrupted reference.
    pub fn judge(&mut self, responses: &[Response], refs: &HashMap<(u64, u64), u64>) {
        let mut bad = check::mismatches(responses, refs);
        bad.extend(check::inconsistent(responses));
        bad.sort_unstable();
        bad.dedup();
        for i in bad {
            let r = responses[i];
            self.fail(format!(
                "Q{} at state {}: wrong output digest {:016x}",
                r.template + 1,
                r.state,
                r.digest
            ));
        }
        if refs.is_empty() {
            self.problems
                .push("no response was checked against a reference".to_string());
        } else if !check::corruption_is_caught(responses, refs) {
            self.problems
                .push("a corrupted reference digest went unnoticed".to_string());
        }
    }
}

/// A timing's sample count, median and p90, as a comment line.
fn describe(name: &str, samples: &[(usize, f64)]) -> String {
    let xs: Vec<f64> = samples.iter().map(|&(_, ms)| ms).collect();
    let p90 = if reportable(xs.len(), 0.9) {
        ""
    } else {
        " (p90 has fewer than 10 samples beyond it)"
    };
    format!(
        "# {name}: n={} p50={:.3} p90={:.3}{p90} floor per group={:.3?}",
        xs.len(),
        median(&xs).unwrap_or(0.0),
        quantile(&xs, 0.9).unwrap_or(0.0),
        stats::floors(samples)
    )
}

fn end_to_end(run: &Run) -> Vec<(String, f64, &'static str)> {
    let ok = 1.0 - run.failed as f64 / run.attempted.max(1) as f64;
    let geo = |xs: &[(usize, f64)]| stats::geomean_of_floors(xs).unwrap_or(0.0);
    vec![
        ("setup_s".into(), median(&run.setup_s).unwrap_or(0.0), "s"),
        ("query_floor_ms".into(), geo(&run.query_ms), "ms"),
        ("first_item_floor_ms".into(), geo(&run.first_item_ms), "ms"),
        ("update_floor_ms".into(), geo(&run.update_ms), "ms"),
        ("ok_frac".into(), ok, "frac"),
        ("peak_rss_mb".into(), run.peak_rss_mb, "MB"),
    ]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "serve-rw" => serve::run(&args),
        "adhoc-param" => embedded::run(embedded::Kind::Adhoc, &args),
        "scan-quantifiers" => embedded::run(embedded::Kind::Scan, &args),
        other => Err(format!("unknown workload `{other}`")),
    };
    let mut run = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if run.live_snapshots_end != 1 {
        run.problems.push(format!(
            "live snapshots at the end: {} (expected 1)",
            run.live_snapshots_end
        ));
    }
    println!(
        "# workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("# setups: {:?} s", run.setup_s);
    println!("{}", describe("query_ms", &run.query_ms));
    println!("{}", describe("first_item_ms", &run.first_item_ms));
    println!("{}", describe("update_ms", &run.update_ms));
    println!(
        "# timed ops={} window={:.3}s ({:.2} ops/s) references={} ({:.1}s)",
        run.timed_ops,
        run.window_s,
        run.timed_ops as f64 / run.window_s.max(1e-9),
        run.checked,
        run.check_s
    );
    for e in &run.errors {
        println!("# failure: {e}");
    }
    let untraced = end_to_end(&run);
    let metrics = match run.layers.take() {
        Some(l) => {
            if l.replay_mismatches > 0 {
                run.problems.push(format!(
                    "{} layer replays differed from the service output",
                    l.replay_mismatches
                ));
            }
            let path = args
                .out_dir
                .join(format!("spans-{}-s{}.jsonl", args.workload, args.seed));
            let tr = &l.tracer;
            match tr.write(&path) {
                Ok(()) => println!("# {} spans written to {}", tr.spans.len(), path.display()),
                Err(e) => println!("# spans not written: {e}"),
            }
            for (name, v, unit) in untraced {
                println!("# untraced-path {name}: {v} {unit}");
            }
            l.metrics()
        }
        None => untraced,
    };
    for p in &run.problems {
        println!("# problem: {p}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!(r#""{name}": {{"value": {v}, "unit": "{unit}"}}"#)
        })
        .collect();
    println!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        run.failed == 0 && run.problems.is_empty(),
        run.attempted.max(1),
        run.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
