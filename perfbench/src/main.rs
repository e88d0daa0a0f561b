//! End-to-end and per-layer benchmark of the A4A buck reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <repro|flow|verify_wide> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, runs one warm-up round
//! and then whole closed-loop rounds for `--seconds`, checks every op's
//! output against an oracle, and prints one JSON object as the last line
//! of standard output. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` runs every workload decomposed into its layers and
//! reports the per-layer metrics. See `perfbench/README.md`.

mod flow;
mod inputs;
mod measure;
mod repro;
mod wide;

use std::hash::Hasher;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use a4a_rt::hash::FxHasher;
use a4a_rt::Pool;

use inputs::Inputs;
use measure::{drive, median, peak_rss_mb, timed, HostSpeed, Layers, Metric, Recorder};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;

/// Share of a traced run's seconds given to the named workload; the
/// other two workloads split the rest, so every per-layer metric is
/// reported by every traced run.
const TRACED_OWN_SHARE: f64 = 0.5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Repro,
    Flow,
    VerifyWide,
}

const WORKLOADS: [Workload; 3] = [Workload::Repro, Workload::Flow, Workload::VerifyWide];

impl Workload {
    fn parse(name: &str) -> Result<Workload, String> {
        WORKLOADS
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload {name:?} (repro, flow, verify_wide)"))
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Repro => "repro",
            Workload::Flow => "flow",
            Workload::VerifyWide => "verify_wide",
        }
    }

    /// The prefix of the workload's per-layer metrics of its own.
    fn layer_prefix(self) -> &'static str {
        match self {
            Workload::Repro => "repro",
            Workload::Flow => "flow",
            Workload::VerifyWide => "verify",
        }
    }

    /// The workload's domain rate: its name and unit.
    fn rate(self) -> (&'static str, &'static str) {
        match self {
            Workload::Repro => ("sim_us_per_s", "us/s"),
            Workload::Flow => ("specs_per_s", "1/s"),
            Workload::VerifyWide => ("states_per_s", "1/s"),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: {what}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("must be in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args).and_then(|a| run(&a)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// The repository root: the benchmark's package lives one level below.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn run(args: &Args) -> Result<(), String> {
    // Single-threaded: at two threads on a two-core host the wide
    // verification ran ~8% slower with 3-4x the steal ticks, and the
    // sweeps gained nothing. Set before anything touches the pool.
    std::env::set_var("A4A_THREADS", "1");
    let threads = Pool::global().threads();
    if threads != 1 {
        return Err(format!("the global pool has {threads} threads, want 1"));
    }
    let root = repo_root();

    // Set-up runs SETUP_REPS times, each between two reference runs;
    // `setup_s` is the median adjusted time.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut compose = Vec::with_capacity(SETUP_REPS);
    let mut inputs: Option<Inputs> = None;
    let mut correct = true;
    let mut notes = Vec::new();
    let mut speed = HostSpeed::new();
    for _ in 0..SETUP_REPS {
        let (generated, took) = timed(|| Inputs::generate(args.seed, &root.join("results")));
        let factor = speed.factor();
        let generated = generated?;
        setups.push(took.as_secs_f64() * factor);
        compose.push(generated.compose_ms * factor);
        if let Some(first) = &inputs {
            if !first.same_as(&generated) {
                correct = false;
                notes.push("set-up is not deterministic for one seed".to_string());
            }
        }
        inputs.get_or_insert(generated);
    }
    let inputs = inputs.expect("SETUP_REPS > 0");
    let setup_s = median(&setups);
    let compose_ms = median(&compose);

    let mut meta = vec![
        ("workload", json_str(args.workload.name())),
        ("seed", args.seed.to_string()),
        ("trace", args.trace.to_string()),
        ("seconds", json_num(args.seconds)),
        ("nproc", nproc().to_string()),
        ("A4A_THREADS", json_str("1")),
        ("pool_threads", threads.to_string()),
        ("git_rev", json_str(&git_rev(&root))),
        ("source_digest", json_str(&source_digest(&root))),
        (
            "profile",
            json_str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
    ];

    let (metrics, attempted, failed) = if args.trace {
        let mut metrics = Vec::new();
        let (mut attempted, mut failed) = (0, 0);
        for w in WORKLOADS {
            let share = if w == args.workload {
                TRACED_OWN_SHARE
            } else {
                (1.0 - TRACED_OWN_SHARE) / 2.0
            };
            let (rec, layer_metrics) = traced_pass(w, &inputs, args.seconds * share, compose_ms);
            attempted += rec.attempted;
            failed += rec.failed;
            notes.extend(rec.failures.iter().cloned());
            let (rate, unit) = w.rate();
            metrics.push(Metric::new(
                &format!("{}.{rate}", w.layer_prefix()),
                rec.work_per_s(),
                unit,
            ));
            metrics.extend(layer_metrics);
            meta.push((
                w.name(),
                json_str(&format!(
                    "{} rounds, {} timed ops",
                    rec.rounds(),
                    rec.op_ms().len()
                )),
            ));
        }
        (metrics, attempted, failed)
    } else {
        let mut literals = Vec::new();
        let rec = match args.workload {
            Workload::Repro => drive(args.seconds, |rec| repro::round(&inputs.repro, rec)),
            Workload::Flow => drive(args.seconds, |rec| {
                literals.push(flow::round(&inputs.flow, rec))
            }),
            Workload::VerifyWide => drive(args.seconds, |rec| wide::round(&inputs.wide, rec)),
        };
        notes.extend(rec.failures.iter().cloned());
        if let Some(&first) = literals.first() {
            if literals.iter().any(|&l| l != first) {
                correct = false;
                notes.push(format!(
                    "circuit literals differ between rounds: {literals:?}"
                ));
            }
            meta.push(("circuit_literals", first.to_string()));
        }
        let (tail_p, tail) = rec.tail();
        let (rate, _) = args.workload.rate();
        meta.push(("rounds", rec.rounds().to_string()));
        meta.push(("raw_round_ms", json_num(rec.raw_round_ms())));
        meta.push(("host_factor", json_num(median(rec.factors()))));
        meta.push(("timed_ops", rec.op_ms().len().to_string()));
        meta.push(("tail_percentile", json_num(tail_p)));
        meta.push((rate, json_num(rec.work_per_s())));
        let metrics = vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("ops_per_s", rec.ops_per_s(), "1/s"),
            Metric::new("op_ms.p50", rec.p50(), "ms"),
            Metric::new("op_ms.tail", tail, "ms"),
            Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        ];
        (metrics, rec.attempted, rec.failed)
    };

    for m in &metrics {
        if !m.value.is_finite() {
            correct = false;
            notes.push(format!("metric {} is not finite", m.name));
        }
    }
    meta.push((
        "notes",
        format!(
            "[{}]",
            notes
                .iter()
                .map(|n| json_str(n))
                .collect::<Vec<_>>()
                .join(",")
        ),
    ));
    let meta: Vec<String> = meta
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    println!("{{\"record\":\"meta\",{}}}", meta.join(","));

    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&m.name),
                json_num(value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        correct && failed == 0,
        body.join(",")
    );
    Ok(())
}

/// One traced pass of `w` for `seconds`, with its per-layer metrics;
/// `compose_ms` is the set-up's composition time per verify_wide spec.
fn traced_pass(
    w: Workload,
    inputs: &Inputs,
    seconds: f64,
    compose_ms: f64,
) -> (Recorder, Vec<Metric>) {
    let mut per_round = Vec::new();
    let rec = drive(seconds, |rec| {
        let mut layers = Layers::default();
        match w {
            Workload::Repro => repro::traced_round(&inputs.repro, rec, &mut layers),
            Workload::Flow => flow::traced_round(&inputs.flow, rec, &mut layers),
            Workload::VerifyWide => wide::traced_round(&inputs.wide, rec, &mut layers),
        }
        // The warm-up round's layers are thrown away.
        if rec.is_timed() {
            per_round.push(layers);
        }
    });
    let mut layers = Layers::default();
    for (round, &factor) in per_round.iter().zip(rec.factors()) {
        layers.merge_scaled(round, factor);
    }
    let rounds = rec.rounds() as f64;
    let metrics = match w {
        Workload::Repro => repro::layer_metrics(&layers, rounds),
        Workload::Flow => flow::layer_metrics(&layers, rounds),
        Workload::VerifyWide => wide::layer_metrics(&layers, rec.op_ms().len() as f64, compose_ms),
    };
    (rec, metrics)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, when the tree is a git checkout.
fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "none".to_string())
}

/// A hash of the program's sources (`crates/`, `Cargo.lock`), which
/// identifies the code measured when the tree carries no git metadata.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h = FxHasher::default();
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            h.write(
                f.strip_prefix(root)
                    .unwrap_or(f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            h.write(&bytes);
        }
    }
    format!("{:016x}", h.finish())
}

/// A JSON number with every digit Rust's shortest round-trip form has.
fn json_num(v: f64) -> String {
    format!("{v}")
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
