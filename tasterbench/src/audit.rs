//! The answer audit, run after the timed run and outside every timed metric.
//!
//! It regenerates the catalog from the seed, replays the operation stream's
//! writes on it, and computes exact references for a seeded subset of the
//! SELECTs with `parse_query(..).to_exact_plan(..)` and `physical::execute`,
//! at the point in the stream where each SELECT ran.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use taster_core::TasterConfig;
use taster_engine::{parse_query, physical, ExecutionContext};
use taster_storage::Table;
use taster_workloads::tpch;

use crate::check::{self, groups_of};
use crate::ops::{self, Op, DELETE_COLUMN};
use crate::system::{growth_batch, Outcome, Record};

/// What the audit found.
#[derive(Debug, Clone, Default)]
pub struct Audit {
    /// SELECTs checked against an exact reference.
    pub checked: usize,
    /// Checked SELECTs whose answer was correct as a whole.
    pub checked_correct: usize,
    /// Reference cells of the checked SELECTs.
    pub cells: usize,
    /// Reference cells answered within the requested error.
    pub cells_ok: usize,
    /// Exact answers that differ from the reference.
    pub exact_mismatches: usize,
    /// Writes whose reported row count differs from the reference's.
    pub write_mismatches: usize,
    /// First few disagreements, for the report.
    pub notes: Vec<String>,
}

impl Audit {
    /// Share of reference cells answered within the requested error.
    pub fn answer_ok_rate(&self) -> f64 {
        if self.cells == 0 {
            return 0.0;
        }
        self.cells_ok as f64 / self.cells as f64
    }

    fn note(&mut self, message: String) {
        if self.notes.len() < 5 {
            self.notes.push(message);
        }
    }
}

/// Indices into `stream` of the SELECTs to check: about `limit`, drawn by
/// the seed from every template in proportion to its share of the stream,
/// so each run checks the same mix.
pub fn checked_selects(stream: &[Op], seed: u64, limit: usize) -> Vec<usize> {
    let mut strata: Vec<(&str, Vec<usize>)> = Vec::new();
    for (i, op) in stream.iter().enumerate() {
        if let Op::Select { template, .. } = op {
            match strata.iter_mut().find(|(t, _)| t == template) {
                Some((_, indices)) => indices.push(i),
                None => strata.push((template, vec![i])),
            }
        }
    }
    let total: usize = strata.iter().map(|(_, indices)| indices.len()).sum();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x0041_5544_4954);
    let mut chosen = Vec::new();
    for (_, mut indices) in strata {
        let take = (limit * indices.len() / total.max(1)).clamp(1, indices.len());
        indices.shuffle(&mut rng);
        chosen.extend_from_slice(&indices[..take]);
    }
    chosen.sort_unstable();
    chosen
}

/// Audit `records` (the outcomes of `stream`) for `seed`, checking the
/// SELECTs at `checked` indices.
pub fn audit(
    seed: u64,
    stream: &[Op],
    records: &[Record],
    checked: &[usize],
) -> Result<Audit, String> {
    let catalog = tpch::generate(ops::scale(seed));
    let lineitem = catalog.table("lineitem").map_err(|e| e.to_string())?;
    let dead_fraction = TasterConfig::default().compact_dead_fraction;
    let mut audit = Audit::default();
    let mut next_check = checked.iter().peekable();
    for (i, (op, record)) in stream.iter().zip(records).enumerate() {
        match op {
            Op::Append { batch, rows } => {
                let report = lineitem
                    .append(&growth_batch(seed, *batch, *rows))
                    .map_err(|e| e.to_string())?;
                expect_rows(&mut audit, i, &record.outcome, report.rows);
            }
            Op::Delete { key, .. } => {
                let deleted = delete_matching(&lineitem, DELETE_COLUMN, *key)?;
                expect_rows(&mut audit, i, &record.outcome, deleted);
            }
            Op::Compact => {
                // Compaction never changes an answer; it is replayed so the
                // reference's physical layout follows the program's.
                lineitem.compact(dead_fraction).map_err(|e| e.to_string())?;
            }
            Op::Select { sql, .. } => {
                if next_check.peek() != Some(&&i) {
                    continue;
                }
                next_check.next();
                let query = parse_query(sql).map_err(|e| format!("{sql}: {e}"))?;
                let plan = query
                    .to_exact_plan(&catalog)
                    .map_err(|e| format!("{sql}: {e}"))?;
                let truth = physical::execute(&plan, &ExecutionContext::new(catalog.clone()))
                    .map_err(|e| format!("{sql}: {e}"))?;
                let answer = match &record.outcome {
                    Outcome::Answer(a) => Some(a),
                    _ => None,
                };
                let spec = query.accuracy();
                let tally = check::check(answer, &groups_of(&truth), spec.relative_error);
                audit.checked += 1;
                audit.checked_correct += usize::from(tally.correct(spec.confidence));
                audit.cells += tally.cells;
                audit.cells_ok += tally.ok;
                if tally.exact_mismatch {
                    audit.exact_mismatches += 1;
                    audit.note(format!(
                        "op {i}: exact answer differs from the reference: {sql}"
                    ));
                } else if !tally.correct(spec.confidence) {
                    audit.note(format!(
                        "op {i}: {}/{} cells within {}% ({}): {sql}",
                        tally.ok,
                        tally.cells,
                        spec.relative_error * 100.0,
                        answer.map_or("failed", |a| a.plan.as_str())
                    ));
                }
            }
        }
    }
    Ok(audit)
}

fn expect_rows(audit: &mut Audit, i: usize, outcome: &Outcome, expected: usize) {
    if *outcome != Outcome::Rows(expected) {
        audit.write_mismatches += 1;
        audit.note(format!(
            "op {i}: write returned {outcome:?}, reference {expected} rows"
        ));
    }
}

/// Tombstone every live row of `table` whose `column` equals `key`, by
/// physical position; returns the rows newly deleted.
fn delete_matching(table: &Table, column: &str, key: i64) -> Result<usize, String> {
    let snapshot = table.snapshot();
    let mut positions = Vec::new();
    let mut offset = 0;
    for partition in snapshot.partitions() {
        let values = partition
            .column_by_name(column)
            .map_err(|e| e.to_string())?;
        positions.extend(
            values
                .iter_values()
                .enumerate()
                .filter(|(_, v)| v.as_i64() == Some(key))
                .map(|(row, _)| offset + row),
        );
        offset += partition.num_rows();
    }
    // Already-tombstoned positions are skipped by the table itself.
    let report = table.delete_rows(&positions).map_err(|e| e.to_string())?;
    Ok(report.rows_deleted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{stream, Workload};

    #[test]
    fn checks_every_template_in_proportion() {
        // 320 SELECTs, 80 per epoch: the first epoch's three templates run
        // 26 or 27 times each, the other twelve 20 times.
        let ops = stream(Workload::Ingest, 3, 20);
        let chosen = checked_selects(&ops, 3, 64);
        let template = |i: &usize| match &ops[*i] {
            Op::Select { template, .. } => *template,
            other => panic!("checked a write: {other:?}"),
        };
        let mut per_template = std::collections::BTreeMap::new();
        for i in &chosen {
            *per_template.entry(template(i)).or_insert(0) += 1;
        }
        assert_eq!(per_template.len(), 15);
        // Each template's share of the 64 checks, rounded down.
        for (id, n) in &per_template {
            let share = if ["q6", "q14", "q17"].contains(id) {
                5
            } else {
                4
            };
            assert_eq!(*n, share, "{id}: {per_template:?}");
        }
        assert_eq!(chosen, checked_selects(&ops, 3, 64));
        // A stream no longer than the limit is checked whole.
        let short = stream(Workload::TpchShift, 3, 4);
        assert_eq!(checked_selects(&short, 3, 100).len(), short.len());
    }
}
