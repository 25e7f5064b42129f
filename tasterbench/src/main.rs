//! End-to-end and per-layer benchmark of the Taster reproduction.
//!
//! ```text
//! cargo run --release --manifest-path tasterbench/Cargo.toml -- \
//!     --workload <tpch-shift|ingest> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! One run generates its inputs from the seed, sets the system up several
//! times (reporting the median set-up time and keeping the last system),
//! drives the workload's operation stream from one closed-loop TCP client,
//! reads peak RSS, and then audits the answers against exact references.
//! With `--trace 1` it also replays the stream in-process with spans around
//! every layer call and prints the per-layer table instead of the end-to-end
//! one. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod audit;
mod check;
mod ops;
mod stats;
mod system;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use ops::{Op, Workload};
use system::{Dataset, Outcome, Record, System};

/// The seed runs use unless `--seed` says otherwise.
const DEFAULT_SEED: u64 = 1;
/// A seed kept out of every run made while the benchmark was built and
/// tuned, so later claims can be re-checked on unseen inputs.
const HELD_OUT_SEED: u64 = 20_261_017;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Where runs keep durability directories, span files and the determinism
/// record, relative to the directory the benchmark runs in.
const STATE_DIR: &str = ".tasterbench";

/// Exit code when a run disagrees with an earlier run of the same seed, or
/// the traced replay disagrees with the TCP run.
const EXIT_NONDETERMINISM: u8 = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: tasterbench --workload <{}> [--seed <n>] [--seconds <n>] [--trace <0|1>]\n\
         seeds: default {DEFAULT_SEED}, held out {HELD_OUT_SEED}",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("tasterbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One reported metric: name, value, unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let workload = args.workload;
    let spec = workload.spec();
    let state = PathBuf::from(STATE_DIR);
    std::fs::create_dir_all(&state).map_err(|e| format!("{STATE_DIR}: {e}"))?;
    let run_dir =
        |tag: &str| state.join(format!("{}-{}-{tag}", workload.name(), std::process::id()));

    let began = Instant::now();
    let stream = ops::stream(workload, args.seed, args.seconds);
    let mut dataset = Dataset::generate(args.seed)?;
    let loaded_bytes = dataset.loaded_bytes;
    let generated_s = began.elapsed().as_secs_f64();

    // Set-up: from pre-generated batches to the warm-up reply, repeated. The
    // last set-up takes the batches themselves, so the benchmark keeps no
    // copy of the data through the timed run.
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut system: Option<System> = None;
    for k in 0..SETUP_REPEATS {
        if let Some(previous) = system.take() {
            previous.stop();
        }
        let tables = if k + 1 == SETUP_REPEATS {
            std::mem::take(&mut dataset.tables)
        } else {
            dataset.tables.clone()
        };
        let dir = run_dir(&format!("setup{k}"));
        system::remove_dir(&dir);
        let start = Instant::now();
        system = Some(System::start(tables, &spec, dir)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut system = system.ok_or("no set-up ran")?;

    // The timed run. `rss_mb` is its peak, not generation's or set-up's.
    system::reset_peak_rss()?;
    let start = Instant::now();
    let records = system.run(&stream, args.seed);
    let stream_ns = start.elapsed().as_nanos() as u64;
    let rss_mb = system::peak_rss_mb()?;
    let builds = system.engine.synopsis_builds();
    let refreshes = system.engine.synopsis_refreshes();
    let rejected = system.service.admission_stats().rejected;
    let stored_bytes = system.stored_bytes();
    let appended_bytes = system.appended_bytes;
    system.stop();

    let ran = Instant::now();
    let traced = if args.trace {
        let dataset = Dataset::generate(args.seed)?;
        Some(trace::run(
            dataset,
            args.seed,
            &spec,
            &stream,
            run_dir("traced"),
        )?)
    } else {
        None
    };
    let traced_s = ran.elapsed().as_secs_f64();

    // The audit runs after every timed metric was taken.
    let audited = Instant::now();
    let checked = audit::checked_selects(&stream, args.seed, check_limit(workload));
    let audit = audit::audit(args.seed, &stream, &records, &checked)?;
    let audit_s = audited.elapsed().as_secs_f64();

    let summary = Summary::of(&stream, &records);
    let mut report = String::new();
    let _ = writeln!(
        report,
        "workload {} seed {} seconds {} trace {}: {} operations ({} SELECTs, {} writes), {} workers",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        stream.len(),
        summary.select_ms.len(),
        summary.write_ms.len(),
        system::workers()
    );
    let fingerprint = format!(
        "selects={} approximate={} builds={} refreshes={} failed={} write_rows={} plans={:016x} checked={} correct={} cells_ok={}/{}",
        summary.select_ms.len(),
        summary.approximate,
        builds,
        refreshes,
        summary.failed,
        summary.write_rows,
        summary.plan_hash,
        audit.checked,
        audit.checked_correct,
        audit.cells_ok,
        audit.cells
    );
    let _ = writeln!(
        report,
        "phases: generate {generated_s:.2} s, {SETUP_REPEATS} set-ups {:.2} s, timed run {:.2} s, traced run {traced_s:.2} s, audit {audit_s:.2} s",
        setup_s.iter().sum::<f64>(),
        stream_ns as f64 / 1e9
    );
    let _ = writeln!(report, "counts: {fingerprint}");
    for note in &audit.notes {
        let _ = writeln!(report, "audit: {note}");
    }
    let mut nondeterministic = Vec::new();
    // Keyed by the executable too: a rebuilt program may choose differently.
    let record = state.join(format!(
        "determinism-{}-{}-{}-{:016x}.txt",
        workload.name(),
        args.seed,
        args.seconds,
        executable_hash()?
    ));
    if let Some(previous) = check_determinism(&record, &fingerprint)? {
        nondeterministic.push(format!("an earlier run of this seed counted: {previous}"));
    }

    let mut correct =
        audit.exact_mismatches == 0 && audit.write_mismatches == 0 && summary.failed == 0;
    let metrics = match &traced {
        None => {
            let n = summary.select_ms.len();
            let sorted = stats::sorted(&summary.select_ms);
            let permille = stats::tail_permille(n).ok_or("too few SELECTs for a tail")?;
            let _ = writeln!(
                report,
                "query_tail_ms is p{} of {n} SELECTs ({} beyond it); not gated (see README): \
                 query p50 {:.3} ms, write p50 {:.3} ms over {} appends and DELETEs",
                permille as f64 / 10.0,
                stats::samples_beyond(n, permille),
                stats::median(&summary.select_ms),
                stats::median(&summary.write_ms),
                summary.write_ms.len()
            );
            let select_secs = summary.select_ms.iter().sum::<f64>() / 1e3;
            let user_bytes = loaded_bytes + appended_bytes;
            vec![
                metric("setup_s", stats::median(&setup_s), "s"),
                metric("query_mean_ms", select_secs * 1e3 / n as f64, "ms"),
                metric("query_tail_ms", stats::percentile(&sorted, permille), "ms"),
                metric(
                    "goodput_qps",
                    stats::goodput_qps(summary.answered, audit.answer_ok_rate(), select_secs),
                    "1/s",
                ),
                metric("answer_ok_rate", audit.answer_ok_rate(), "ratio"),
                metric("rss_mb", rss_mb, "MB"),
                metric(
                    "stored_bytes_per_user_byte",
                    stored_bytes as f64 / user_bytes as f64,
                    "ratio",
                ),
            ]
        }
        Some(traced) => {
            for (i, (a, b)) in records.iter().zip(&traced.outcomes).enumerate() {
                let same = match (&a.outcome, b) {
                    (Outcome::Answer(x), Outcome::Answer(y)) => x.same_as(y),
                    (x, y) => x == y,
                };
                if !same && nondeterministic.len() < 5 {
                    nondeterministic
                        .push(format!("op {i}: TCP run {:?}, traced run {b:?}", a.outcome));
                }
            }
            if (traced.builds, traced.refreshes) != (builds, refreshes) {
                nondeterministic.push(format!(
                    "builds/refreshes: TCP run {builds}/{refreshes}, traced run {}/{}",
                    traced.builds, traced.refreshes
                ));
            }
            let spans = run_dir("spans").with_extension("tsv");
            traced
                .tracer
                .write(&spans)
                .map_err(|e| format!("{}: {e}", spans.display()))?;
            let _ = writeln!(
                report,
                "spans: {} written to {}; compaction rewrote {} partitions",
                traced.tracer.spans().len(),
                spans.display(),
                traced.partitions_compacted
            );
            let untraced = trace::Untraced {
                records: &records,
                rejected,
                span_cost_ns: trace::span_cost_ns(),
            };
            trace::layer_metrics(traced, &untraced, &stream)
        }
    };
    for m in &metrics {
        let _ = writeln!(report, "{:<36} {:>16.6} {}", m.name, m.value, m.unit);
        if !m.value.is_finite() {
            correct = false;
        }
    }
    print!("{report}");
    if !nondeterministic.is_empty() {
        for line in &nondeterministic {
            eprintln!("nondeterminism: {line}");
        }
        eprintln!("this run counted: {fingerprint}");
        return Ok(ExitCode::from(EXIT_NONDETERMINISM));
    }
    println!(
        "{}",
        json_line(correct, stream.len(), summary.failed, &metrics)
    );
    Ok(ExitCode::SUCCESS)
}

/// SELECTs the audit checks per run. An exact TPC-H reference costs about
/// as much as the query's exact plan (~135 ms). `tpch-shift` checks three to
/// five instances of each template; `ingest`, whose accuracy varies more
/// from seed to seed (stale synopses under appends), checks eight.
fn check_limit(workload: Workload) -> usize {
    match workload {
        Workload::TpchShift => 64,
        Workload::Ingest => 128,
    }
}

/// Compare this run's counts with the first run of the same seed in this
/// directory; record them if there was none. Returns the earlier counts on
/// a mismatch.
fn check_determinism(path: &Path, fingerprint: &str) -> Result<Option<String>, String> {
    match std::fs::read_to_string(path) {
        Ok(previous) if previous.trim() == fingerprint => Ok(None),
        Ok(previous) => Ok(Some(previous.trim().to_string())),
        Err(_) => {
            std::fs::write(path, format!("{fingerprint}\n"))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            Ok(None)
        }
    }
}

/// FNV-1a hash of this executable's bytes.
fn executable_hash() -> Result<u64, String> {
    let path = std::env::current_exe().map_err(|e| e.to_string())?;
    let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(fnv1a(0xcbf2_9ce4_8422_2325, &bytes))
}

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// Per-run figures taken from the TCP run's records.
struct Summary {
    select_ms: Vec<f64>,
    write_ms: Vec<f64>,
    answered: usize,
    approximate: usize,
    failed: usize,
    write_rows: usize,
    plan_hash: u64,
}

impl Summary {
    fn of(stream: &[Op], records: &[Record]) -> Self {
        let mut s = Summary {
            select_ms: Vec::new(),
            write_ms: Vec::new(),
            answered: 0,
            approximate: 0,
            failed: 0,
            write_rows: 0,
            plan_hash: 0xcbf2_9ce4_8422_2325,
        };
        for (op, record) in stream.iter().zip(records) {
            let ms = record.latency_ns as f64 / 1e6;
            match op {
                Op::Select { .. } => s.select_ms.push(ms),
                Op::Delete { .. } | Op::Append { .. } => s.write_ms.push(ms),
                Op::Compact => {}
            }
            match &record.outcome {
                Outcome::Answer(answer) => {
                    s.answered += 1;
                    s.approximate += usize::from(answer.approximate);
                    // Every chosen plan, in order.
                    s.plan_hash = fnv1a(s.plan_hash, answer.plan.as_bytes());
                    s.plan_hash = fnv1a(s.plan_hash, &[u8::from(answer.approximate)]);
                }
                Outcome::Rows(rows) => s.write_rows += rows,
                Outcome::Failed(_) => s.failed += 1,
            }
        }
        s
    }
}

fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite number as JSON (shortest round-trip digits); non-finite values,
/// which JSON cannot carry, print as 0 and mark the run incorrect.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}
