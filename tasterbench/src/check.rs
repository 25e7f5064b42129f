//! The cell-level answer checker.
//!
//! An answer is audited against an exact reference, cell by cell: one cell
//! per (reference group, aggregate). An approximate cell is OK when it lies
//! within the query's requested relative error of the truth; an exact cell
//! must match to float tolerance. Missing groups and failed queries count as
//! misses, so a query that returns nothing cannot look accurate.

use taster_engine::QueryResult;
use taster_server::proto::QueryReply;

/// Relative tolerance for exact answers: aggregation order may differ
/// between plans, nothing else may.
const EXACT_TOLERANCE: f64 = 1e-9;

/// One answer, in the shape both the wire and the engine can produce:
/// stringified group keys and one point estimate per aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// Whether a synopsis participated (the reply's own flag).
    pub approximate: bool,
    /// The plan the tuner chose.
    pub plan: String,
    /// `(group key, aggregate estimates)` per output group.
    pub groups: Vec<(Vec<String>, Vec<f64>)>,
}

impl Answer {
    /// The answer a wire reply carries.
    pub fn from_reply(reply: &QueryReply) -> Self {
        Self {
            approximate: reply.approximate,
            plan: reply.plan.clone(),
            groups: reply
                .groups
                .iter()
                .map(|g| (g.key.clone(), g.aggregates.iter().map(|a| a.0).collect()))
                .collect(),
        }
    }

    /// The answer an in-process execution produced.
    pub fn from_result(result: &QueryResult, approximate: bool, plan: &str) -> Self {
        Self {
            approximate,
            plan: plan.to_string(),
            groups: groups_of(result),
        }
    }

    /// `true` when `other` is the same answer: same plan, flag and groups,
    /// with estimates equal to float tolerance.
    pub fn same_as(&self, other: &Answer) -> bool {
        self.approximate == other.approximate
            && self.plan == other.plan
            && self.groups.len() == other.groups.len()
            && self.groups.iter().zip(&other.groups).all(|(a, b)| {
                a.0 == b.0
                    && a.1.len() == b.1.len()
                    && a.1.iter().zip(&b.1).all(|(x, y)| within_tolerance(*x, *y))
            })
    }
}

/// The groups of an exact reference result, keyed like a wire reply.
pub fn groups_of(result: &QueryResult) -> Vec<(Vec<String>, Vec<f64>)> {
    result
        .groups
        .iter()
        .map(|g| {
            (
                g.key.iter().map(|v| v.to_string()).collect(),
                g.aggregates.iter().map(|a| a.value).collect(),
            )
        })
        .collect()
}

fn within_tolerance(value: f64, truth: f64) -> bool {
    (value - truth).abs() <= EXACT_TOLERANCE * truth.abs().max(1.0)
}

/// What checking one answer found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Reference cells.
    pub cells: usize,
    /// Reference cells answered within the requested error.
    pub ok: usize,
    /// Answer groups the reference does not have.
    pub extra_groups: usize,
    /// An exact answer that differs from the reference: a correctness
    /// failure, not an accuracy miss.
    pub exact_mismatch: bool,
}

impl Tally {
    /// Whether the answer as a whole is correct: an exact answer matches
    /// the reference; an approximate one has at least the `confidence` share
    /// of its reference cells within the requested error, and no groups
    /// where the reference has none.
    pub fn correct(&self, confidence: f64) -> bool {
        if self.exact_mismatch {
            return false;
        }
        if self.cells == 0 {
            return self.extra_groups == 0;
        }
        self.ok as f64 >= confidence * self.cells as f64 - 1e-9
    }
}

/// Check `answer` (`None` for a failed query) against the exact reference
/// `truth`, at the query's requested `relative_error`.
pub fn check(
    answer: Option<&Answer>,
    truth: &[(Vec<String>, Vec<f64>)],
    relative_error: f64,
) -> Tally {
    let cells = truth.iter().map(|(_, aggs)| aggs.len()).sum();
    let Some(answer) = answer else {
        return Tally {
            cells,
            ..Tally::default()
        };
    };
    let mut tally = Tally {
        cells,
        ..Tally::default()
    };
    let extra = answer
        .groups
        .iter()
        .filter(|(key, _)| !truth.iter().any(|(k, _)| k == key))
        .count();
    tally.extra_groups = extra;
    for (key, truths) in truth {
        let found = answer.groups.iter().find(|(k, _)| k == key);
        for (j, &t) in truths.iter().enumerate() {
            let value = found.and_then(|(_, values)| values.get(j).copied());
            let ok = match value {
                None => false,
                Some(v) if !answer.approximate => within_tolerance(v, t),
                Some(v) if t == 0.0 => v.abs() <= EXACT_TOLERANCE,
                Some(v) => (v - t).abs() <= relative_error * t.abs(),
            };
            tally.ok += usize::from(ok);
        }
    }
    tally.exact_mismatch = !answer.approximate && (tally.ok < tally.cells || extra > 0);
    tally
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group(key: &str, values: &[f64]) -> (Vec<String>, Vec<f64>) {
        (vec![key.to_string()], values.to_vec())
    }

    fn answer(approximate: bool, groups: Vec<(Vec<String>, Vec<f64>)>) -> Answer {
        Answer {
            approximate,
            plan: "p".into(),
            groups,
        }
    }

    fn truth() -> Vec<(Vec<String>, Vec<f64>)> {
        vec![group("A", &[100.0, 10.0]), group("B", &[200.0, 20.0])]
    }

    #[test]
    fn right_approximate_answer_passes_every_cell() {
        let a = answer(
            true,
            vec![group("A", &[95.0, 10.9]), group("B", &[219.0, 18.5])],
        );
        let t = check(Some(&a), &truth(), 0.10);
        assert_eq!((t.cells, t.ok, t.extra_groups), (4, 4, 0));
        assert!(!t.exact_mismatch);
        assert!(t.correct(0.95));
    }

    #[test]
    fn wrong_cells_are_misses() {
        // 89 is 11% off, 25 is 25% off.
        let a = answer(
            true,
            vec![group("A", &[89.0, 10.0]), group("B", &[200.0, 25.0])],
        );
        let t = check(Some(&a), &truth(), 0.10);
        assert_eq!((t.cells, t.ok), (4, 2));
        assert!(!t.correct(0.95));
        // A looser requested error accepts both.
        assert_eq!(check(Some(&a), &truth(), 0.25).ok, 4);
    }

    #[test]
    fn missing_groups_and_empty_answers_are_misses() {
        let a = answer(true, vec![group("A", &[100.0, 10.0])]);
        let t = check(Some(&a), &truth(), 0.10);
        assert_eq!((t.cells, t.ok), (4, 2));
        let empty = answer(true, vec![]);
        let t = check(Some(&empty), &truth(), 0.10);
        assert_eq!((t.cells, t.ok), (4, 0));
        assert!(!t.correct(0.95));
        // A failed query misses every cell too.
        let t = check(None, &truth(), 0.10);
        assert_eq!((t.cells, t.ok), (4, 0));
    }

    #[test]
    fn extra_groups_are_counted_but_are_not_cells() {
        let a = answer(
            true,
            vec![
                group("A", &[100.0, 10.0]),
                group("B", &[200.0, 20.0]),
                group("C", &[1.0, 1.0]),
            ],
        );
        let t = check(Some(&a), &truth(), 0.10);
        assert_eq!((t.cells, t.ok, t.extra_groups), (4, 4, 1));
        // Against an empty reference, any group makes the answer wrong.
        let t = check(Some(&a), &[], 0.10);
        assert_eq!(t.cells, 0);
        assert!(!t.correct(0.95));
        assert!(check(Some(&answer(true, vec![])), &[], 0.10).correct(0.95));
    }

    #[test]
    fn exact_answers_must_match_to_float_tolerance() {
        let close = answer(
            false,
            vec![
                group("A", &[100.0 + 1e-8, 10.0]),
                group("B", &[200.0, 20.0]),
            ],
        );
        let t = check(Some(&close), &truth(), 0.10);
        assert_eq!(t.ok, 4);
        assert!(!t.exact_mismatch);
        // Within the requested 10%, but an exact plan promised the truth.
        let off = answer(
            false,
            vec![group("A", &[101.0, 10.0]), group("B", &[200.0, 20.0])],
        );
        let t = check(Some(&off), &truth(), 0.10);
        assert_eq!(t.ok, 3);
        assert!(t.exact_mismatch);
        assert!(!t.correct(0.95));
    }

    #[test]
    fn zero_truth_needs_a_zero_estimate() {
        let truth = vec![group("A", &[0.0])];
        assert_eq!(
            check(Some(&answer(true, vec![group("A", &[0.0])])), &truth, 0.1).ok,
            1
        );
        assert_eq!(
            check(Some(&answer(true, vec![group("A", &[0.5])])), &truth, 0.1).ok,
            0
        );
    }

    #[test]
    fn confidence_share_decides_whole_answer_correctness() {
        // 20 cells, 19 within the error: correct at 95%, not at 99%.
        let truth: Vec<_> = (0..20).map(|i| group(&i.to_string(), &[10.0])).collect();
        let mut groups = truth.clone();
        groups[0].1[0] = 50.0;
        let t = check(Some(&answer(true, groups)), &truth, 0.10);
        assert_eq!((t.cells, t.ok), (20, 19));
        assert!(t.correct(0.95));
        assert!(!t.correct(0.99));
    }

    #[test]
    fn same_as_compares_plan_flag_keys_and_values() {
        let a = answer(true, truth());
        assert!(a.same_as(&answer(true, truth())));
        assert!(!a.same_as(&answer(false, truth())));
        let mut b = answer(true, truth());
        b.groups[1].1[1] = 21.0;
        assert!(!a.same_as(&b));
    }
}
