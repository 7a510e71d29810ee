//! The output check: after a replay, a fixed set of reads runs through the
//! workload's own connector and must return what the same reads return on
//! an independently built oracle — a store bulk-loaded with the whole
//! dataset (`Store::load_full`), which never runs the write pipeline.

use snb_core::update::UpdateOp;
use snb_core::SnbResult;
use snb_driver::connector::{anchor_person, OpOutcome};
use snb_driver::{Connector, Operation, WorkItem};
use snb_params::Bindings;
use snb_queries::params::ShortQuery;

/// Q1–Q14 over the first curated binding of each, then S1–S7 anchored at
/// Q1's person and at the first message `conn`'s complex reads surface.
/// Those seeds are part of every compared outcome, so a SUT that surfaces
/// a wrong message fails the check before S4–S7 matter.
pub fn check_ops(bindings: &Bindings, conn: &dyn Connector) -> SnbResult<Vec<Operation>> {
    let mut ops: Vec<Operation> =
        (1..=14).map(|q| Operation::Complex(bindings.get(q, 0).clone())).collect();
    let person = anchor_person(bindings.get(1, 0)).expect("every complex read has an anchor");
    let mut message = None;
    for op in &ops {
        message = message.or(conn.execute(op)?.seed_message);
    }
    let message = message.ok_or_else(|| {
        snb_core::SnbError::Config("no check read surfaced a message to anchor S4-S7".into())
    })?;
    ops.extend(
        [
            ShortQuery::S1(person),
            ShortQuery::S2(person),
            ShortQuery::S3(person),
            ShortQuery::S4(message),
            ShortQuery::S5(message),
            ShortQuery::S6(message),
            ShortQuery::S7(message),
        ]
        .map(Operation::Short),
    );
    Ok(ops)
}

pub fn run_checks(conn: &dyn Connector, ops: &[Operation]) -> SnbResult<Vec<OpOutcome>> {
    ops.iter().map(|op| conn.execute(op)).collect()
}

/// Every outcome must match the oracle's in rows and walk seeds.
pub fn compare(ops: &[Operation], sut: &[OpOutcome], oracle: &[OpOutcome]) -> Result<(), String> {
    if sut.len() != oracle.len() || ops.len() != oracle.len() {
        return Err(format!(
            "{} check outcomes against {} oracle outcomes",
            sut.len(),
            oracle.len()
        ));
    }
    let mut errors = Vec::new();
    for ((op, got), want) in ops.iter().zip(sut).zip(oracle) {
        let same = got.rows == want.rows
            && got.seed_person == want.seed_person
            && got.seed_message == want.seed_message;
        if !same {
            errors.push(format!("{:?}: got {got:?}, oracle {want:?}", op.kind()));
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(format!("output check failed:\n  {}", errors.join("\n  ")))
    }
}

/// Commits the SUT must report after replaying `items`: one per update,
/// except that a sharded SUT applies the replicated updates (AddPerson,
/// AddFriendship) on every shard.
pub fn expected_commits(items: &[WorkItem], shards: u32) -> u64 {
    items
        .iter()
        .map(|w| match &w.op {
            Operation::Update(UpdateOp::AddPerson(_) | UpdateOp::AddFriendship(_)) => shards as u64,
            Operation::Update(_) => 1,
            _ => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use snb_datagen::{generate, GeneratorConfig};
    use snb_driver::{run, updates_only, DriverConfig, StoreConnector};
    use snb_queries::Engine;
    use snb_store::Store;
    use std::sync::Arc;

    /// Returns what the wrapped connector returns, except one more row for
    /// Q5 — the smallest wrong answer a SUT could give.
    struct OffByOne(StoreConnector);

    impl Connector for OffByOne {
        fn execute(&self, op: &Operation) -> SnbResult<OpOutcome> {
            let mut out = self.0.execute(op)?;
            if matches!(op, Operation::Complex(q) if q.number() == 5) {
                out.rows += 1;
            }
            Ok(out)
        }
    }

    #[test]
    fn check_accepts_a_replayed_store_and_rejects_a_perturbed_outcome() {
        let ds = generate(GeneratorConfig::with_persons(200).activity(0.3)).unwrap();
        let bindings = snb_params::curated_bindings(&ds, 4);

        let oracle_store = Arc::new(Store::new());
        oracle_store.load_full(&ds);
        let oracle = StoreConnector::new(oracle_store, Engine::Intended);
        let ops = check_ops(&bindings, &oracle).unwrap();
        assert_eq!(ops.len(), 21);
        let want = run_checks(&oracle, &ops).unwrap();

        // The SUT reaches the same state the other way: bulk load up to
        // the split, then the update stream through the write pipeline.
        let store = Arc::new(Store::new());
        store.bulk_load(&ds);
        let sut = StoreConnector::new(Arc::clone(&store), Engine::Intended);
        let items = updates_only(&ds);
        let report =
            run(&items, &sut, &DriverConfig { partitions: 2, ..Default::default() }).unwrap();
        let commits = report
            .connector_counters
            .iter()
            .find(|(n, _)| n == "store.txn.commits")
            .map(|&(_, v)| v)
            .unwrap();
        assert_eq!(commits, expected_commits(&items, 1));

        let got = run_checks(&sut, &ops).unwrap();
        compare(&ops, &got, &want).unwrap();

        let perturbed = run_checks(&OffByOne(sut), &ops).unwrap();
        let err = compare(&ops, &perturbed, &want).unwrap_err();
        assert!(err.contains("Complex(5)"), "{err}");
        assert_eq!(err.lines().count(), 2, "only Q5 differs: {err}");
    }

    #[test]
    fn sharded_commits_count_replicated_updates_once_per_shard() {
        let ds = generate(GeneratorConfig::with_persons(150).activity(0.3)).unwrap();
        let items = updates_only(&ds);
        let replicated = items
            .iter()
            .filter(|w| {
                matches!(
                    w.op,
                    Operation::Update(UpdateOp::AddPerson(_) | UpdateOp::AddFriendship(_))
                )
            })
            .count() as u64;
        assert!(replicated > 0);
        let n = items.len() as u64;
        assert_eq!(expected_commits(&items, 1), n);
        assert_eq!(expected_commits(&items, 3), n + 2 * replicated);
    }
}
