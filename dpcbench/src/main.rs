//! `dpcbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path dpcbench/Cargo.toml -- \
//!     --workload explore-ch --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one workload (see `dpcbench/README.md`), checks its outputs and
//! prints, as the last line of standard output, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` attaches recorders and reports the
//! per-layer metrics, and also writes a Chrome trace and a per-layer table
//! under `--out` (default `.bench_out`). A provenance line precedes the
//! result. Errors exit with code 2 and print no result.

mod baseline;
mod explore;
mod layers;
mod report;
mod stream;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use dpc_datasets::DatasetKind;

use crate::layers::Tracer;
use crate::report::{json_str, provenance_json, result_line, Outcome};

/// The workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["explore-ch", "explore-rtree", "slide-1", "serve-64"];

/// How one invocation runs.
#[derive(Debug, Clone)]
pub struct Run {
    /// Seed of the workload's input generator.
    pub seed: u64,
    /// How long the measured part lasts.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Tiny inputs, for the smoke test.
    pub tiny: bool,
}

/// One workload's definition.
#[derive(Debug, Clone)]
enum Workload {
    Explore(explore::Spec),
    Stream(stream::Spec),
}

/// The workload called `name`, at full or tiny size.
fn workload(name: &str, tiny: bool) -> Option<Workload> {
    let pick = |full: usize, small: usize| if tiny { small } else { full };
    Some(match name {
        // S1 at paper size (5 000 points), CH with the registry bin width.
        "explore-ch" => Workload::Explore(explore::Spec {
            dataset: DatasetKind::S1,
            scale: if tiny { 0.04 } else { 1.0 },
            index: explore::IndexKind::Ch,
            builds: pick(3, 1),
        }),
        // Brightkite-like check-ins at scale 0.05 (19 955 points).
        "explore-rtree" => Workload::Explore(explore::Spec {
            dataset: DatasetKind::Brightkite,
            scale: if tiny { 0.001 } else { 0.05 },
            index: explore::IndexKind::RTree,
            builds: pick(50, 2),
        }),
        "slide-1" => Workload::Stream(stream::Spec {
            window: pick(4_000, 300),
            batch: 1,
            epochs: pick(500, 40),
            dc: 0.1,
            reader: false,
            ring: 64,
            setups: pick(10, 2),
        }),
        "serve-64" => Workload::Stream(stream::Spec {
            window: pick(4_000, 300),
            batch: 64,
            epochs: pick(30, 4),
            dc: 0.1,
            reader: true,
            ring: 64,
            setups: pick(10, 2),
        }),
        _ => return None,
    })
}

/// Runs workload `name` and returns its outcome, provenance first.
fn execute(name: &str, run: &Run, tracer: Option<&Tracer>) -> Result<Outcome, String> {
    let spec = workload(name, run.tiny).ok_or_else(|| {
        format!(
            "unknown workload {name:?} (one of {})",
            WORKLOADS.join(", ")
        )
    })?;
    let mut out = Outcome::default();
    out.note("workload", name);
    out.note("seed", run.seed);
    out.note("seconds", run.seconds);
    out.note("trace", u8::from(run.trace));
    out.note("size", if run.tiny { "tiny" } else { "full" });
    out.note(
        "cpus",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    out.note("rustc", command_line("rustc", &["--version"]));
    out.note(
        "git_commit",
        if Path::new(".git").exists() {
            command_line("git", &["rev-parse", "HEAD"])
        } else {
            "unknown (not a git checkout)".to_string()
        },
    );
    out.note("source_digest", source_digest());
    let pair_ns = layers::instant_pair_ns();
    out.note("instant_pair_ns", format!("{pair_ns:.1}"));
    match &spec {
        Workload::Explore(s) => explore::run(s, run, tracer, &mut out),
        Workload::Stream(s) => stream::run(s, run, tracer, &mut out),
    }
    if run.trace {
        out.metrics.insert("bench.instant_pair_ns", pair_ns);
        out.metrics.insert(
            "bench.failed_frac",
            out.failed as f64 / out.attempted.max(1) as f64,
        );
        // Seed-determined work, printed so runs can be compared exactly.
        let counters: Vec<String> = report::EXACT_COUNTERS
            .iter()
            .map(|name| format!("{name}={}", out.metrics.get(name).copied().unwrap_or(0.0)))
            .collect();
        out.note("exact_counters", counters.join(" "));
    }
    Ok(out)
}

/// A command's trimmed standard output, or why there is none.
fn command_line(program: &str, args: &[&str]) -> String {
    match Command::new(program).args(args).output() {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).trim().to_string(),
        Ok(o) => format!("unknown ({program} exited with {})", o.status),
        Err(e) => format!("unknown ({program}: {e})"),
    }
}

/// FNV-1a digest of every file under `crates/` plus the lock file, in path
/// order: identifies the measured source where no git commit is available.
fn source_digest() -> String {
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
    let mut files = vec![PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for path in &files {
        let Ok(bytes) = std::fs::read(path) else {
            continue;
        };
        for b in path.to_string_lossy().bytes().chain(bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("fnv1a:{hash:016x}")
}

/// Writes the traced run's Chrome trace and per-layer table.
fn write_trace_outputs(
    dir: &Path,
    name: &str,
    run: &Run,
    out: &Outcome,
    tracer: &Tracer,
) -> Result<(PathBuf, PathBuf), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let stem = format!("{name}-seed{}", run.seed);
    let trace = dir.join(format!("{stem}.trace.json"));
    let table = dir.join(format!("{stem}.layers.txt"));
    std::fs::write(&trace, tracer.chrome_json())
        .map_err(|e| format!("cannot write {}: {e}", trace.display()))?;
    let text = format!(
        "provenance {}\n\n{}\ndpc-obs metrics registry\n{}",
        provenance_json(&out.provenance),
        report::layer_table(out),
        tracer.metrics().render()
    );
    std::fs::write(&table, text).map_err(|e| format!("cannot write {}: {e}", table.display()))?;
    Ok((trace, table))
}

fn parse_args(args: &[String]) -> Result<(String, Run, PathBuf), String> {
    let mut workload = None;
    let mut run = Run {
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut out_dir = PathBuf::from(".bench_out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                run.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(run.seconds.is_finite() && run.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    Ok((workload, run, out_dir))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&args).and_then(|(name, run, out_dir)| {
        let tracer = run.trace.then(Tracer::new);
        let outcome = execute(&name, &run, tracer.as_ref())?;
        println!("provenance {}", provenance_json(&outcome.provenance));
        if let Some(tracer) = &tracer {
            let (trace, table) = write_trace_outputs(&out_dir, &name, &run, &outcome, tracer)?;
            println!("trace {}", json_str(&trace.display().to_string()));
            println!("layers {}", json_str(&table.display().to_string()));
        }
        result_line(&outcome, run.trace)
    });
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dpcbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{END_TO_END, EXACT_COUNTERS, PER_LAYER};

    fn tiny(seed: u64, trace: bool) -> Run {
        Run {
            seed,
            seconds: 0.2,
            trace,
            tiny: true,
        }
    }

    /// Every workload runs at tiny size in both modes, passes its own
    /// correctness gate, prints every end-to-end metric, and between them
    /// the traced runs report every per-layer metric; exact counters repeat
    /// across two traced runs of one seed.
    #[test]
    fn every_workload_emits_every_metric_at_tiny_size() {
        let mut reported = std::collections::BTreeSet::new();
        for name in WORKLOADS {
            let plain = execute(name, &tiny(5, false), None).unwrap();
            assert!(plain.correct && plain.failed == 0, "{name} untraced");
            let line = result_line(&plain, false).unwrap();
            for (metric, unit) in END_TO_END {
                let field = format!("\"{metric}\": {{\"value\": ");
                assert!(line.contains(&field), "{name} lacks {metric}");
                assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
            }

            let mut counters = Vec::new();
            for _ in 0..2 {
                let tracer = Tracer::new();
                let traced = execute(name, &tiny(5, true), Some(&tracer)).unwrap();
                assert!(traced.correct && traced.failed == 0, "{name} traced");
                assert!(result_line(&traced, true).is_ok());
                assert!(tracer.chrome_json().contains("\"traceEvents\""));
                let coverage = traced.metrics["bench.layer_coverage"];
                assert!(
                    coverage > 0.5 && coverage <= 1.0,
                    "{name} coverage {coverage}"
                );
                reported.extend(traced.metrics.keys().copied());
                counters.push(
                    EXACT_COUNTERS
                        .iter()
                        .map(|c| traced.metrics.get(c).copied().unwrap_or(0.0))
                        .collect::<Vec<_>>(),
                );
            }
            assert_eq!(counters[0], counters[1], "{name} exact counters differ");
        }
        for (metric, _) in PER_LAYER {
            assert!(reported.contains(metric), "no workload reports {metric}");
        }
    }

    #[test]
    fn unknown_workloads_and_bad_arguments_are_errors() {
        assert!(execute("nope", &tiny(1, false), None).is_err());
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(parse_args(&args(&["--seed", "1"])).is_err());
        assert!(parse_args(&args(&["--workload", "slide-1", "--trace", "2"])).is_err());
        assert!(parse_args(&args(&["--workload", "slide-1", "--seconds", "0"])).is_err());
        let (name, run, _) = parse_args(&args(&[
            "--workload",
            "slide-1",
            "--seed",
            "7",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!((name.as_str(), run.seed, run.trace), ("slide-1", 7, true));
    }
}
