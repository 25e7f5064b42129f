//! The traced run: the same seeded operation stream replayed in-process
//! through each layer's public entry points, with a span around every call.
//!
//! It calls `TasterEngine::execute_sql` directly — what the service worker
//! calls — so its answers must equal the TCP run's, and the per-query
//! difference between the two latencies is the server's overhead. Spans are
//! kept in memory and written out when the run ends; the per-layer table is
//! derived from them and from the counters the program reports. The tracer's
//! own cost is measured apart, on a scratch tracer (see [`span_cost_ns`]).

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

use taster_engine::{parse_statement, Statement};

use crate::check::Answer;
use crate::ops::{Op, Spec};
use crate::stats::median;
use crate::system::{self, growth_batch, Dataset, Outcome, Record, WARMUP_SQL};
use crate::{metric, Metric};

/// One timed interval of the traced run.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of the operation it belongs to (`None` for set-up).
    pub op: Option<usize>,
    /// Layer and entry point, e.g. `taster.execute_sql`.
    pub name: &'static str,
    /// The span that caused it.
    pub parent: Option<usize>,
    /// Nanoseconds since the run began.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its id.
    fn open(&mut self, op: Option<usize>, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            op,
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) -> u64 {
        self.spans[id].end_ns = self.now();
        self.spans[id].ns()
    }

    /// All spans in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans as tab-separated lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "span\tparent\top\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{}\t{}",
                opt(s.parent),
                opt(s.op),
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-SELECT counters the program reports in its result.
#[derive(Debug, Clone, Copy)]
pub struct SelectFacts {
    pub parse_ns: u64,
    pub execute_ns: u64,
    pub planning_ns: u64,
    pub exec_ns: u64,
    pub base_rows: usize,
    pub synopsis_rows: usize,
    pub partitions_scanned: usize,
    pub partitions_pruned: usize,
    pub bytes_materialized: usize,
    pub created: bool,
    pub reused: bool,
}

/// Everything the traced run measured.
pub struct Traced {
    pub tracer: Tracer,
    /// Outcome per operation, comparable with the TCP run's.
    pub outcomes: Vec<Outcome>,
    /// Root-span duration per operation.
    pub op_ns: Vec<u64>,
    pub selects: Vec<Option<SelectFacts>>,
    pub load_ns: u64,
    pub stats_cold_ns: u64,
    pub store_bytes_peak: usize,
    pub builds: u64,
    pub refreshes: u64,
    pub partitions_compacted: usize,
    pub rows_compacted: usize,
    pub wal_growth_bytes: u64,
    pub appended_bytes: usize,
    pub dead_row_ratio: f64,
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Replay `stream`, generated from `seed`, in-process on a fresh system
/// built from `dataset`.
pub fn run(
    dataset: Dataset,
    seed: u64,
    spec: &Spec,
    stream: &[Op],
    dir: PathBuf,
) -> Result<Traced, String> {
    let mut traced = Traced {
        tracer: Tracer::new(),
        outcomes: Vec::with_capacity(stream.len()),
        op_ns: Vec::with_capacity(stream.len()),
        selects: Vec::with_capacity(stream.len()),
        load_ns: 0,
        stats_cold_ns: 0,
        store_bytes_peak: 0,
        builds: 0,
        refreshes: 0,
        partitions_compacted: 0,
        rows_compacted: 0,
        wal_growth_bytes: 0,
        appended_bytes: 0,
        dead_row_ratio: 0.0,
    };
    let t = &mut traced.tracer;

    let span = t.open(None, "storage.load", None);
    let catalog = system::load(dataset.tables)?;
    traced.load_ns = t.close(span);
    let lineitem = system::lineitem(&catalog)?;
    let span = t.open(None, "taster.open", None);
    let engine = system::open_engine(catalog.clone(), spec, &dir)?;
    t.close(span);
    let span = t.open(None, "storage.stats", None);
    lineitem.stats();
    traced.stats_cold_ns = t.close(span);
    let span = t.open(None, "taster.execute_sql", None);
    engine
        .execute_sql(WARMUP_SQL)
        .map_err(|e| format!("warm-up: {e}"))?;
    t.close(span);

    let wal = dir.join("wal.log");
    for (i, op) in stream.iter().enumerate() {
        let mut facts = None;
        let root = t.open(Some(i), op_name(op), None);
        let outcome = match op {
            Op::Select { sql, .. } => {
                let span = t.open(Some(i), "engine.parse", Some(root));
                let parsed = parse_statement(sql);
                let parse_ns = t.close(span);
                parsed.map_err(|e| format!("{sql}: {e}"))?;
                let span = t.open(Some(i), "taster.execute_sql", Some(root));
                let result = engine.execute_sql(sql);
                let execute_ns = t.close(span);
                match result {
                    Ok(r) => {
                        let m = &r.result.metrics;
                        facts = Some(SelectFacts {
                            parse_ns,
                            execute_ns,
                            planning_ns: r.planning_ns as u64,
                            exec_ns: m.wall_time_ns as u64,
                            base_rows: m.base_rows_scanned,
                            synopsis_rows: m.warehouse_rows_read + m.buffer_rows_read,
                            partitions_scanned: m.partitions_scanned,
                            partitions_pruned: m.partitions_pruned,
                            bytes_materialized: m.bytes_materialized,
                            created: !r.created_synopses.is_empty(),
                            reused: !r.reused_synopses.is_empty(),
                        });
                        Outcome::Answer(Answer::from_result(
                            &r.result,
                            r.approximate,
                            &r.plan_description,
                        ))
                    }
                    Err(e) => Outcome::Failed(e.to_string()),
                }
            }
            Op::Delete { sql, .. } => {
                let span = t.open(Some(i), "engine.parse", Some(root));
                let parsed = parse_statement(sql);
                t.close(span);
                let Ok(Statement::Delete(delete)) = parsed else {
                    return Err(format!("not a DELETE: {sql}"));
                };
                let span = t.open(Some(i), "taster.delete_where", Some(root));
                let result = engine.delete_where(&delete.table, &delete.predicates);
                t.close(span);
                match result {
                    Ok(report) => Outcome::Rows(report.rows_affected),
                    Err(e) => Outcome::Failed(e.to_string()),
                }
            }
            Op::Append { batch, rows } => {
                let batch = growth_batch(seed, *batch, *rows);
                let wal_before = file_len(&wal);
                let span = t.open(Some(i), "storage.append", Some(root));
                let result = lineitem.append(&batch);
                t.close(span);
                traced.wal_growth_bytes += file_len(&wal).saturating_sub(wal_before);
                match result {
                    Ok(report) => {
                        traced.appended_bytes += batch.size_bytes();
                        Outcome::Rows(report.rows)
                    }
                    Err(e) => Outcome::Failed(e.to_string()),
                }
            }
            Op::Compact => {
                let span = t.open(Some(i), "taster.compact_now", Some(root));
                let result = engine.compact_now();
                t.close(span);
                match result {
                    Ok(reports) => {
                        for (_, r) in &reports {
                            traced.partitions_compacted += r.partitions_compacted;
                            traced.rows_compacted += r.rows_dropped;
                        }
                        Outcome::Rows(reports.iter().map(|(_, r)| r.rows_dropped).sum())
                    }
                    Err(e) => Outcome::Failed(e.to_string()),
                }
            }
        };
        traced.op_ns.push(t.close(root));
        let usage = engine.store().usage();
        traced.store_bytes_peak = traced
            .store_bytes_peak
            .max(usage.buffer_bytes + usage.warehouse_bytes);
        traced.outcomes.push(outcome);
        traced.selects.push(facts);
    }
    traced.builds = engine.synopsis_builds();
    traced.refreshes = engine.synopsis_refreshes();
    traced.dead_row_ratio = lineitem.deleted_rows() as f64 / lineitem.num_rows().max(1) as f64;
    drop(engine);
    system::remove_dir(&dir);
    Ok(traced)
}

fn op_name(op: &Op) -> &'static str {
    match op {
        Op::Select { .. } => "op.select",
        Op::Delete { .. } => "op.delete",
        Op::Append { .. } => "op.append",
        Op::Compact => "op.compact",
    }
}

/// Nanoseconds one span (an open and a close) costs the traced run: the
/// median over five rounds of timing many open/close pairs on a scratch
/// tracer.
pub fn span_cost_ns() -> f64 {
    const PAIRS: usize = 100_000;
    let rounds: Vec<f64> = (0..5)
        .map(|_| {
            let mut t = Tracer::new();
            let start = Instant::now();
            for k in 0..PAIRS {
                let id = t.open(Some(k), "trace.calibrate", None);
                t.close(id);
            }
            start.elapsed().as_nanos() as f64 / PAIRS as f64
        })
        .collect();
    median(&rounds)
}

/// Inputs of the per-layer table measured outside the traced replay.
pub struct Untraced<'a> {
    /// The TCP run's records, index-aligned with the traced outcomes.
    pub records: &'a [Record],
    /// `AdmissionStats::rejected` of the TCP run's service.
    pub rejected: u64,
    /// What one span costs, from [`span_cost_ns`].
    pub span_cost_ns: f64,
}

/// Derive the per-layer table.
pub fn layer_metrics(traced: &Traced, untraced: &Untraced<'_>, stream: &[Op]) -> Vec<Metric> {
    let facts: Vec<&SelectFacts> = traced.selects.iter().flatten().collect();
    let n = facts.len().max(1) as f64;
    let ms = |ns: u64| ns as f64 / 1e6;
    let p50_ms = |ns: Vec<u64>| median(&ns.iter().map(|&v| ms(v)).collect::<Vec<_>>());
    let span_ns = |name: &str| -> Vec<u64> {
        traced
            .tracer
            .spans()
            .iter()
            .filter(|s| s.op.is_some() && s.name == name)
            .map(Span::ns)
            .collect()
    };

    let overhead: Vec<f64> = stream
        .iter()
        .enumerate()
        .filter(|(_, op)| !op.is_write())
        .map(|(i, _)| ms(untraced.records[i].latency_ns) - ms(traced.op_ns[i]))
        .collect();
    let post_exec_ns: u64 = facts
        .iter()
        .map(|f| {
            f.execute_ns
                .saturating_sub(f.planning_ns + f.exec_ns + f.parse_ns)
        })
        .sum();
    let scanned: usize = facts.iter().map(|f| f.partitions_scanned).sum();
    let pruned: usize = facts.iter().map(|f| f.partitions_pruned).sum();
    let using = facts.iter().filter(|f| f.created || f.reused).count();
    let reusing = facts.iter().filter(|f| f.reused).count();
    let build_exec: Vec<u64> = facts
        .iter()
        .filter(|f| f.created)
        .map(|f| f.exec_ns)
        .collect();
    let compact_ns: u64 = span_ns("taster.compact_now").iter().sum();
    let stream_spans = traced
        .tracer
        .spans()
        .iter()
        .filter(|s| s.op.is_some())
        .count();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    vec![
        metric("server.overhead_p50_ms", median(&overhead), "ms"),
        metric("server.rejected", untraced.rejected as f64, "count"),
        metric(
            "engine.parse_p50_us",
            median(
                &facts
                    .iter()
                    .map(|f| f.parse_ns as f64 / 1e3)
                    .collect::<Vec<_>>(),
            ),
            "us",
        ),
        metric(
            "engine.exec_p50_ms",
            p50_ms(facts.iter().map(|f| f.exec_ns).collect()),
            "ms",
        ),
        metric(
            "engine.exec_total_s",
            facts.iter().map(|f| f.exec_ns).sum::<u64>() as f64 / 1e9,
            "s",
        ),
        metric(
            "engine.base_rows_per_query",
            facts.iter().map(|f| f.base_rows).sum::<usize>() as f64 / n,
            "rows",
        ),
        metric(
            "engine.synopsis_rows_per_query",
            facts.iter().map(|f| f.synopsis_rows).sum::<usize>() as f64 / n,
            "rows",
        ),
        metric(
            "engine.pruned_partition_ratio",
            ratio(pruned as f64, (pruned + scanned) as f64),
            "ratio",
        ),
        metric(
            "taster.plan_p50_ms",
            p50_ms(facts.iter().map(|f| f.planning_ns).collect()),
            "ms",
        ),
        metric(
            "taster.plan_total_s",
            facts.iter().map(|f| f.planning_ns).sum::<u64>() as f64 / 1e9,
            "s",
        ),
        metric("taster.post_exec_total_s", post_exec_ns as f64 / 1e9, "s"),
        metric("taster.builds", traced.builds as f64, "count"),
        metric(
            "taster.reuse_ratio",
            ratio(reusing as f64, using as f64),
            "ratio",
        ),
        metric("taster.refreshes", traced.refreshes as f64, "count"),
        metric(
            "taster.store_bytes_peak",
            traced.store_bytes_peak as f64,
            "bytes",
        ),
        metric(
            "taster.delete_p50_ms",
            p50_ms(span_ns("taster.delete_where")),
            "ms",
        ),
        metric("taster.compact_s", compact_ns as f64 / 1e9, "s"),
        metric(
            "taster.compact_rows_dropped",
            traced.rows_compacted as f64,
            "count",
        ),
        metric(
            "synopses.bytes_materialized",
            facts.iter().map(|f| f.bytes_materialized).sum::<usize>() as f64,
            "bytes",
        ),
        metric("synopses.build_exec_p50_ms", p50_ms(build_exec), "ms"),
        metric("storage.load_s", traced.load_ns as f64 / 1e9, "s"),
        metric("storage.stats_cold_ms", ms(traced.stats_cold_ns), "ms"),
        metric(
            "storage.append_p50_ms",
            p50_ms(span_ns("storage.append")),
            "ms",
        ),
        metric(
            "storage.wal_bytes_per_append_byte",
            ratio(traced.wal_growth_bytes as f64, traced.appended_bytes as f64),
            "ratio",
        ),
        metric("storage.dead_row_ratio", traced.dead_row_ratio, "ratio"),
        metric(
            "trace.overhead_ms_per_op",
            untraced.span_cost_ns * stream_spans as f64 / 1e6 / stream.len().max(1) as f64,
            "ms",
        ),
        metric("trace.spans", traced.tracer.spans().len() as f64, "count"),
    ]
}
