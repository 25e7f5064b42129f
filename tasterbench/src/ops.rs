//! The two workloads and the seeded operation stream each one runs.
//!
//! `tpch-shift` is the Fig. 6 epoch sequence alone. `ingest` runs the same
//! query generator with writes interleaved at fixed query counts: appends of
//! `lineitem` growth batches, DELETEs, and compaction sweeps. The stream
//! depends on the seed and on the run length alone, so one seed always
//! replays the same operations and the program's plan choices (builds,
//! refreshes, approximate/exact split) can be compared exactly across runs.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use taster_workloads::tpch;

/// `lineitem` rows of every workload's data set (≈17.5 MB over five tables).
pub const LINEITEM_ROWS: usize = 200_000;
/// Partitions of the `lineitem` and `orders` tables.
pub const PARTITIONS: usize = 16;
/// The generator's supplier cardinality at [`LINEITEM_ROWS`] (TPC-H ratios,
/// see `taster_workloads::tpch`).
const SUPPLIERS: i64 = (LINEITEM_ROWS / 600) as i64;

/// `ingest` appends a growth batch before every `APPEND_EVERY`-th SELECT...
const APPEND_EVERY: usize = 5;
/// ...of 1% of the loaded `lineitem` rows.
const APPEND_ROWS: usize = LINEITEM_ROWS / 100;
/// `ingest` deletes one supplier's rows (about 0.3%) before every
/// `DELETE_EVERY`-th SELECT.
const DELETE_EVERY: usize = 20;
/// The column `ingest`'s DELETEs match on.
pub const DELETE_COLUMN: &str = "l_suppkey";
/// `ingest` runs a compaction sweep before every `COMPACT_EVERY`-th SELECT.
const COMPACT_EVERY: usize = 50;

/// The data scale every workload loads for `seed`.
pub fn scale(seed: u64) -> tpch::TpchScale {
    tpch::TpchScale {
        lineitem_rows: LINEITEM_ROWS,
        partitions: PARTITIONS,
        seed,
    }
}

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 6 epoch shifts under a 20% synopsis budget: every shift evicts
    /// and rebuilds, so execution and synopsis builds dominate.
    TpchShift,
    /// The `tpch-shift` query generator under a 50% budget on a durable engine,
    /// with appends, DELETEs and compactions next to the reads.
    Ingest,
}

/// How a workload sizes its run and its engine.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// SELECTs per second of `--seconds`, calibrated so a run measures about
    /// that long on a 2-core host. The count is fixed by the arguments, not
    /// by the clock, so a seed's operation stream never depends on speed.
    pub selects_per_second: f64,
    /// Synopsis storage budget as a fraction of the loaded data.
    pub budget_fraction: f64,
    /// Whether the engine logs to a WAL and checkpoints to disk.
    pub durable: bool,
}

impl Workload {
    /// Every workload the binary runs.
    pub const ALL: [Workload; 2] = [Workload::TpchShift, Workload::Ingest];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TpchShift => "tpch-shift",
            Workload::Ingest => "ingest",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's run length and engine sizing.
    pub fn spec(self) -> Spec {
        match self {
            Workload::TpchShift => Spec {
                selects_per_second: 10.0,
                budget_fraction: 0.2,
                durable: false,
            },
            Workload::Ingest => Spec {
                selects_per_second: 16.0,
                budget_fraction: 0.5,
                durable: true,
            },
        }
    }
}

/// One operation of a stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A SELECT, an instance of the named Fig. 6 TPC-H template, sent over
    /// the wire.
    Select { template: &'static str, sql: String },
    /// `DELETE FROM lineitem WHERE l_suppkey = <key>`, sent over the wire.
    Delete { sql: String, key: i64 },
    /// `Table::append` of growth batch number `batch` to `lineitem`.
    Append { batch: u64, rows: usize },
    /// `TasterEngine::compact_now`.
    Compact,
}

impl Op {
    /// `true` for operations that change the data.
    pub fn is_write(&self) -> bool {
        !matches!(self, Op::Select { .. })
    }
}

/// SELECTs in a run of `seconds`.
pub fn select_count(workload: Workload, seconds: u64) -> usize {
    let n = (workload.spec().selects_per_second * seconds as f64).round() as usize;
    // At least one per epoch, so every Fig. 6 epoch runs.
    n.max(4)
}

/// The operation stream of `workload` for `seed` and a run of `seconds`.
pub fn stream(workload: Workload, seed: u64, seconds: u64) -> Vec<Op> {
    let selects = template_selects(select_count(workload, seconds), seed);
    match workload {
        Workload::TpchShift => selects,
        Workload::Ingest => with_writes(selects, seed),
    }
}

/// `selects` with `ingest`'s writes interleaved. Write parameters draw from
/// their own generator, so the SELECTs do not depend on the writes.
fn with_writes(selects: Vec<Op>, seed: u64) -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5752_4954_4553);
    let mut ops = Vec::with_capacity(selects.len() * 5 / 4);
    let mut batch = 0u64;
    for (i, select) in selects.into_iter().enumerate() {
        if i > 0 && i % COMPACT_EVERY == 0 {
            ops.push(Op::Compact);
        }
        if i > 0 && i % APPEND_EVERY == 0 {
            batch += 1;
            ops.push(Op::Append {
                batch,
                rows: APPEND_ROWS,
            });
        }
        if i > 0 && i % DELETE_EVERY == 0 {
            let key = rng.random_range(0..SUPPLIERS);
            ops.push(Op::Delete {
                sql: format!("DELETE FROM lineitem WHERE {DELETE_COLUMN} = {key}"),
                key,
            });
        }
        ops.push(select);
    }
    ops
}

/// `n` SELECTs of the Fig. 6 epochs, `n / 4` per epoch. Within an epoch
/// every template runs equally often, in a seeded order: the seed varies the
/// data, the predicate values and the order, not the template mix, which
/// would otherwise move every latency figure from one seed to the next.
fn template_selects(n: usize, seed: u64) -> Vec<Op> {
    let workload = tpch::workload();
    let epochs = tpch::fig6_epochs();
    let per_epoch = n.div_ceil(epochs.len());
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(per_epoch * epochs.len());
    for epoch in &epochs {
        let mut deck: Vec<&'static str> = (0..per_epoch).map(|j| epoch[j % epoch.len()]).collect();
        deck.shuffle(&mut rng);
        for id in deck {
            let template = workload
                .template(id)
                .expect("the Fig. 6 epochs name known templates");
            out.push(Op::Select {
                template: id,
                sql: template.instantiate(&mut rng),
            });
        }
    }
    out.truncate(n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_always_produces_the_same_stream() {
        for w in Workload::ALL {
            let a = stream(w, 7, 3);
            assert_eq!(a, stream(w, 7, 3), "{}", w.name());
            assert_ne!(a, stream(w, 8, 3), "{}", w.name());
        }
    }

    #[test]
    fn tpch_shift_only_reads() {
        let ops = stream(Workload::TpchShift, 3, 20);
        assert_eq!(ops.len(), select_count(Workload::TpchShift, 20));
        assert!(ops.iter().all(|op| !op.is_write()));
    }

    #[test]
    fn ingest_writes_land_at_fixed_select_counts() {
        let ops = stream(Workload::Ingest, 3, 4);
        let n = select_count(Workload::Ingest, 4);
        let count = |f: fn(&Op) -> bool| ops.iter().filter(|op| f(op)).count();
        assert_eq!(count(|op| matches!(op, Op::Select { .. })), n);
        assert_eq!(
            count(|op| matches!(op, Op::Append { .. })),
            (n - 1) / APPEND_EVERY
        );
        assert_eq!(
            count(|op| matches!(op, Op::Delete { .. })),
            (n - 1) / DELETE_EVERY
        );
        assert_eq!(
            count(|op| matches!(op, Op::Compact)),
            (n - 1) / COMPACT_EVERY
        );
        // The stream starts with a read: the first write follows
        // `APPEND_EVERY` SELECTs.
        assert!(!ops[0].is_write());
        let first_write = ops.iter().position(Op::is_write).unwrap();
        assert_eq!(first_write, APPEND_EVERY);
        // The SELECTs are `tpch-shift`'s.
        let selects: Vec<Op> = ops.into_iter().filter(|op| !op.is_write()).collect();
        assert_eq!(selects, template_selects(n, 3));
    }

    fn count(ops: &[Op], id: &str) -> usize {
        ops.iter()
            .filter(|op| matches!(op, Op::Select { template, .. } if *template == id))
            .count()
    }

    #[test]
    fn every_template_of_an_epoch_runs_equally_often() {
        let ops = template_selects(240, 5);
        for epoch in tpch::fig6_epochs() {
            let counts: Vec<usize> = epoch.iter().map(|id| count(&ops, id)).collect();
            let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
            assert!(max - min <= 1, "{epoch:?}: {counts:?}");
        }
        // Epochs run in order: the first 60 SELECTs are the first epoch's.
        let first = tpch::fig6_epochs()[0].clone();
        assert!(ops[..60]
            .iter()
            .all(|op| matches!(op, Op::Select { template, .. } if first.contains(template))));
    }
}
