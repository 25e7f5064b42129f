//! The system under test: data set, set-up, and the timed run over TCP.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use taster_core::{TasterConfig, TasterEngine};
use taster_server::{Client, Response, ServiceConfig, SessionService, TcpServer};
use taster_storage::{Catalog, RecordBatch, Table};
use taster_workloads::tpch;

use crate::check::Answer;
use crate::ops::{self, Op, Spec};

/// The query whose reply ends set-up. It also pays the lazy first-query
/// statistics build, which belongs to set-up, not to the timed run.
pub const WARMUP_SQL: &str = "SELECT COUNT(*) FROM lineitem";
/// Tenant of the benchmark's one client.
const TENANT: &str = "bench";

/// Pre-generated tables as plain batches. Generating them is the
/// benchmark's own work and is never timed.
pub struct Dataset {
    /// `(table, rows, partitions)` in catalog order.
    pub tables: Vec<(String, RecordBatch, usize)>,
    /// Bytes of the loaded tables.
    pub loaded_bytes: usize,
}

impl Dataset {
    /// Generate the data set of `seed`.
    pub fn generate(seed: u64) -> Result<Self, String> {
        let catalog = tpch::generate(ops::scale(seed));
        let mut tables = Vec::new();
        for name in catalog.table_names() {
            let table = catalog.table(&name).map_err(|e| e.to_string())?;
            let batch = table.to_batch().map_err(|e| e.to_string())?;
            // Hand the program plain columns, as a loader would: dictionary
            // encoding at partition seal is the program's work.
            let plain = RecordBatch::try_new(
                batch.schema().clone(),
                batch.columns().iter().map(|c| c.decode_dict()).collect(),
            )
            .map_err(|e| e.to_string())?;
            tables.push((name, plain, table.num_partitions()));
        }
        let loaded_bytes = tables.iter().map(|(_, b, _)| b.size_bytes()).sum();
        Ok(Self {
            tables,
            loaded_bytes,
        })
    }
}

/// The growth batch an [`Op::Append`] of `seed`'s stream appends. Each is
/// generated just before it is appended, untimed, so the benchmark holds at
/// most one at a time.
pub fn growth_batch(seed: u64, batch: u64, rows: usize) -> RecordBatch {
    tpch::lineitem_growth_batch(&ops::scale(seed), rows, batch)
}

/// Load `tables` into a fresh catalog, unindexed: the storage layer's share
/// of set-up.
pub fn load(tables: Vec<(String, RecordBatch, usize)>) -> Result<Arc<Catalog>, String> {
    let catalog = Catalog::new();
    for (name, batch, partitions) in tables {
        let table = Table::from_batch(name, batch, partitions).map_err(|e| e.to_string())?;
        catalog.register(table);
    }
    Ok(Arc::new(catalog))
}

/// The `lineitem` table of `catalog`.
pub fn lineitem(catalog: &Catalog) -> Result<Arc<Table>, String> {
    catalog.table("lineitem").map_err(|e| e.to_string())
}

/// Open the engine the workload runs on, durably under `dir` if the
/// workload asks for it.
pub fn open_engine(catalog: Arc<Catalog>, spec: &Spec, dir: &Path) -> Result<TasterEngine, String> {
    let config =
        TasterConfig::with_budget_fraction(catalog.total_size_bytes(), spec.budget_fraction);
    if spec.durable {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        TasterEngine::open_durable(catalog, config, dir).map_err(|e| e.to_string())
    } else {
        Ok(TasterEngine::new(catalog, config))
    }
}

/// Service workers: one per core.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A running system: engine behind a session service and a TCP server, and
/// the benchmark's one connected client.
pub struct System {
    catalog: Arc<Catalog>,
    lineitem: Arc<Table>,
    pub engine: Arc<TasterEngine>,
    pub service: Arc<SessionService>,
    server: TcpServer,
    client: Client,
    /// Durability directory (removed on [`stop`](Self::stop)).
    dir: PathBuf,
    /// Bytes of the growth batches [`run`](Self::run) appended.
    pub appended_bytes: usize,
}

impl System {
    /// Set up from pre-generated tables until the warm-up query's reply
    /// arrives. This is what `setup_s` times.
    pub fn start(
        tables: Vec<(String, RecordBatch, usize)>,
        spec: &Spec,
        dir: PathBuf,
    ) -> Result<Self, String> {
        let catalog = load(tables)?;
        let lineitem = lineitem(&catalog)?;
        let engine = Arc::new(open_engine(catalog.clone(), spec, &dir)?);
        let service = SessionService::start(
            Arc::clone(&engine),
            ServiceConfig {
                workers: workers(),
                ..ServiceConfig::default()
            },
        );
        let server =
            TcpServer::bind(Arc::clone(&service), "127.0.0.1:0").map_err(|e| e.to_string())?;
        let mut client = Client::connect(server.local_addr(), TENANT).map_err(|e| e.to_string())?;
        match client.query(WARMUP_SQL, false) {
            Ok(Response::Reply(_)) => {}
            other => return Err(format!("warm-up query failed: {other:?}")),
        }
        Ok(Self {
            catalog,
            lineitem,
            engine,
            service,
            server,
            client,
            dir,
            appended_bytes: 0,
        })
    }

    /// Hang up, stop the server and the workers, and remove the durability
    /// directory.
    pub fn stop(self) {
        drop(self.client);
        self.server.stop();
        self.service.shutdown();
        drop(self.engine);
        remove_dir(&self.dir);
    }

    /// Run `stream`, generated from `seed`, from the one closed-loop client:
    /// each operation is sent after the previous one completed.
    pub fn run(&mut self, stream: &[Op], seed: u64) -> Vec<Record> {
        let mut records = Vec::with_capacity(stream.len());
        for op in stream {
            let (outcome, latency_ns) = match op {
                Op::Select { sql, .. } => timed(|| match self.client.query(sql, false) {
                    Ok(Response::Reply(reply)) => Outcome::Answer(Answer::from_reply(&reply)),
                    other => Outcome::Failed(format!("{other:?}")),
                }),
                Op::Delete { sql, .. } => timed(|| match self.client.query(sql, false) {
                    Ok(Response::Reply(reply)) => Outcome::Rows(reply.rows),
                    other => Outcome::Failed(format!("{other:?}")),
                }),
                Op::Append { batch, rows } => {
                    let batch = growth_batch(seed, *batch, *rows);
                    let done = timed(|| match self.lineitem.append(&batch) {
                        Ok(report) => Outcome::Rows(report.rows),
                        Err(e) => Outcome::Failed(e.to_string()),
                    });
                    if matches!(done.0, Outcome::Rows(_)) {
                        self.appended_bytes += batch.size_bytes();
                    }
                    done
                }
                Op::Compact => timed(|| match self.engine.compact_now() {
                    Ok(reports) => Outcome::Rows(reports.iter().map(|(_, r)| r.rows_dropped).sum()),
                    Err(e) => Outcome::Failed(e.to_string()),
                }),
            };
            records.push(Record {
                latency_ns,
                outcome,
            });
        }
        records
    }

    /// Bytes the program holds for the data: tables, indexes, synopses, and
    /// the durability files.
    pub fn stored_bytes(&self) -> usize {
        let tables: usize = self
            .catalog
            .table_names()
            .iter()
            .filter_map(|name| self.catalog.table(name).ok())
            .map(|t| {
                let snapshot = t.snapshot();
                snapshot.size_bytes() + snapshot.index_size_bytes()
            })
            .sum();
        let usage = self.engine.store().usage();
        tables + usage.buffer_bytes + usage.warehouse_bytes + dir_bytes(&self.dir)
    }
}

/// `f`'s result and its wall time in nanoseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_nanos() as u64)
}

/// What one operation returned.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A SELECT's answer.
    Answer(Answer),
    /// Rows a write deleted, appended, or dropped by compaction.
    Rows(usize),
    /// An error or a rejection.
    Failed(String),
}

/// One operation's client-observed latency and outcome.
#[derive(Debug, Clone)]
pub struct Record {
    pub latency_ns: u64,
    pub outcome: Outcome,
}

/// Total size of the regular files directly under `dir` (0 if it is absent).
pub fn dir_bytes(dir: &Path) -> usize {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len() as usize)
                .sum()
        })
        .unwrap_or(0)
}

/// Remove `dir` and everything under it, if present.
pub fn remove_dir(dir: &Path) {
    if dir.exists() {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Reset this process's peak resident set size to its current size, so the
/// next [`peak_rss_mb`] covers only what follows.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("/proc/self/clear_refs: {e}"))
}

/// Peak resident set size of this process since start or the last
/// [`reset_peak_rss`], in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
