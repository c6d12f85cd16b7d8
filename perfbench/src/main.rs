//! The repository's benchmark: one command that runs a workload, measures
//! it end to end (`--trace 0`) or layer by layer (`--trace 1`), checks the
//! simulated outputs and prints every metric by name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet_chat --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `fleet_chat`, `fleet_saturated`, `offline_arxiv` and
//! `kernel_hybrid` (see `perfbench/design.json` for why each was chosen
//! and which metric each layer should move). The last line of standard
//! output is the result object; the line before it describes the host.

mod kernel;
mod report;
mod serving;
mod spans;
mod timing;

use llm_serving::JsonValue;
use report::{peak_rss_mib, Outcome, END_TO_END, PER_LAYER};
use std::process::ExitCode;

/// Environment variables that change library defaults. The benchmark
/// measures the defaults, so it refuses to run with any of them set.
const REFUSED_ENV: [&str; 4] = [
    "POD_CLUSTER_THREADS",
    "POD_PRICE_CACHE",
    "POD_FULL_EVAL",
    "POD_BENCH_THREADS",
];

/// The workloads, by command-line name.
const WORKLOADS: [&str; 4] = [
    "fleet_chat",
    "fleet_saturated",
    "offline_arxiv",
    "kernel_hybrid",
];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Run one workload; returns its outcome and the cluster worker counts (in
/// effect, library default).
fn run(args: &Args) -> (Outcome, (usize, usize)) {
    let seconds = args.seconds as f64;
    let kind = match args.workload.as_str() {
        "fleet_chat" => serving::Kind::FleetChat,
        "fleet_saturated" => serving::Kind::FleetSaturated,
        "offline_arxiv" => serving::Kind::OfflineArxiv,
        _ => {
            let cases = kernel::DEFAULT_CASES;
            let out = if args.trace {
                kernel::run_per_layer(cases, args.seed, seconds)
            } else {
                kernel::run_end_to_end(cases, args.seed, seconds)
            };
            return (out, (1, 1));
        }
    };
    let requests = kind.default_requests();
    let (out, setup) = if args.trace {
        serving::run_per_layer(kind, requests, args.seed, seconds)
    } else {
        serving::run_end_to_end(kind, requests, args.seed, seconds)
    };
    (out, setup.advance_workers())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let set: Vec<&str> = REFUSED_ENV
        .iter()
        .copied()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set; the benchmark measures library defaults",
            set.join(", ")
        );
        return ExitCode::from(2);
    }

    let (mut out, (advance_workers, default_workers)) = run(&args);
    let catalogue = if args.trace {
        PER_LAYER
    } else {
        out.set("peak_rss_mib", peak_rss_mib());
        END_TO_END
    };
    for problem in &out.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let host = JsonValue::obj(vec![
        ("nproc", JsonValue::Num(nproc as f64)),
        ("advance_workers", JsonValue::Num(advance_workers as f64)),
        (
            "advance_workers_default",
            JsonValue::Num(default_workers as f64),
        ),
        ("price_cache", JsonValue::Bool(serving::price_cache())),
        ("rustc", JsonValue::str(env!("PERFBENCH_RUSTC_VERSION"))),
        ("profile", JsonValue::str(env!("PERFBENCH_PROFILE"))),
        ("workload", JsonValue::str(&args.workload)),
        ("seed", JsonValue::Num(args.seed as f64)),
        ("seconds", JsonValue::Num(args.seconds as f64)),
        ("trace", JsonValue::Bool(args.trace)),
    ]);
    println!(
        "{}",
        JsonValue::obj(vec![("host", host)]).to_string_compact()
    );
    println!("{}", out.to_json(catalogue, args.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    //! Self-tests of the benchmark itself. Run them optimized:
    //! `cargo test --release --manifest-path perfbench/Cargo.toml`.

    use super::*;
    use std::collections::BTreeSet;

    /// Simulated end-to-end metrics (everything but host time and memory).
    const SIMULATED: [&str; 6] = [
        "ttft_p50_s",
        "ttft_p99_s",
        "tbt_p50_s",
        "tbt_p99_s",
        "goodput_rpm",
        "throughput_tok_s",
    ];

    fn design() -> JsonValue {
        JsonValue::parse(include_str!("../design.json")).expect("design.json parses")
    }

    fn field<'a>(v: &'a JsonValue, key: &str) -> &'a JsonValue {
        match v {
            JsonValue::Obj(entries) => entries
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("missing key {key}")),
            _ => panic!("not an object at {key}"),
        }
    }

    fn items(v: &JsonValue) -> &[JsonValue] {
        match v {
            JsonValue::Arr(items) => items,
            _ => panic!("not an array"),
        }
    }

    fn text(v: &JsonValue) -> &str {
        match v {
            JsonValue::Str(s) => s,
            _ => panic!("not a string"),
        }
    }

    #[test]
    fn design_predicts_every_per_layer_metric() {
        let design = design();
        let end_to_end: BTreeSet<&str> = END_TO_END.iter().map(|m| m.0).collect();
        let workloads: BTreeSet<&str> = WORKLOADS.into_iter().collect();
        let described: BTreeSet<&str> = match field(&design, "workloads") {
            JsonValue::Obj(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("workloads is an object"),
        };
        assert_eq!(described, workloads);
        let mut predicted = BTreeSet::new();
        for p in items(field(&design, "predictions")) {
            predicted.insert(text(field(p, "metric")));
            let not = field(p, "not");
            let pairs = items(field(p, "moves")).iter().chain(std::iter::once(not));
            for pair in pairs {
                let pair = items(pair);
                assert!(end_to_end.contains(text(&pair[0])), "{:?}", pair);
                assert!(workloads.contains(text(&pair[1])), "{:?}", pair);
            }
        }
        let per_layer: BTreeSet<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(predicted, per_layer);
    }

    fn simulated(out: &Outcome) -> Vec<f64> {
        SIMULATED.iter().map(|m| out.metrics[m]).collect()
    }

    #[test]
    fn same_seed_repeats_and_other_seeds_differ() {
        for kind in [
            serving::Kind::FleetChat,
            serving::Kind::FleetSaturated,
            serving::Kind::OfflineArxiv,
        ] {
            let a = serving::run_end_to_end(kind, 300, 1, 0.0).0;
            let b = serving::run_end_to_end(kind, 300, 1, 0.0).0;
            assert!(a.problems.is_empty(), "{kind:?}: {:?}", a.problems);
            assert_eq!(simulated(&a), simulated(&b), "{kind:?}");
            assert_ne!(
                serving::generate(kind, 300, 1),
                serving::generate(kind, 300, 2),
                "{kind:?}"
            );
        }
        let a = kernel::run_end_to_end(2, 1, 0.0);
        let b = kernel::run_end_to_end(2, 1, 0.0);
        assert!(a.problems.is_empty(), "{:?}", a.problems);
        assert_eq!(simulated(&a), simulated(&b));
        assert_ne!(kernel::generate(2, 1), kernel::generate(2, 2));
    }

    #[test]
    fn traced_replays_reproduce_untraced_outputs() {
        for kind in [
            serving::Kind::FleetChat,
            serving::Kind::FleetSaturated,
            serving::Kind::OfflineArxiv,
        ] {
            let out = serving::run_per_layer(kind, 300, 1, 0.0).0;
            assert!(out.problems.is_empty(), "{kind:?}: {:?}", out.problems);
        }
        let out = kernel::run_per_layer(2, 1, 0.0);
        assert!(out.problems.is_empty(), "{:?}", out.problems);
    }

    #[test]
    fn saturated_fleet_is_hybrid_and_its_queue_stays_bounded() {
        let kind = serving::Kind::FleetSaturated;
        let n = kind.default_requests();
        let full = serving::run_per_layer(kind, n, 1, 0.0).0;
        assert!(full.metrics["engine.hybrid_frac"] > 0.5);
        let ttft =
            |requests| serving::run_end_to_end(kind, requests, 1, 0.0).0.metrics["ttft_p50_s"];
        let (single, double) = (ttft(n), ttft(2 * n));
        assert!(
            double <= single * 1.05,
            "TTFT p50 grew from {single} to {double}"
        );
    }
}
