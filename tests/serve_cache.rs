//! Cached-result fidelity (PR 3): a cache hit is *bit-identical* to a
//! cold recomputation — field norms down to the f64 bit pattern, the
//! transcript digest, and the checkpoint byte stream — including after
//! the serving session has been poisoned and rebuilt in between.

use cca_serve::{Artifacts, FaultSpec, Fleet, FleetConfig, IgnitionSpec, JobOutcome, RdSpec};
use std::rc::Rc;

/// The single-pool deployment: one shard of `sessions` slots.
fn one_shard(sessions: usize) -> Fleet {
    Fleet::new(FleetConfig {
        shards: 1,
        sessions_per_shard: sessions,
        ..FleetConfig::default()
    })
}

/// Norms as (name, raw f64 bits) — the strictest possible comparison.
fn norm_bits(a: &Artifacts) -> Vec<(String, u64)> {
    a.norms
        .iter()
        .map(|(n, v)| (n.clone(), v.to_bits()))
        .collect()
}

#[test]
fn cache_hit_is_bit_identical_even_after_a_poisoned_session() {
    let mut server = one_shard(1);

    // Cold run of a reaction-diffusion job with a checkpoint artifact.
    let mut job = RdSpec {
        nx: 8,
        with_chemistry: true,
        ..RdSpec::default()
    }
    .job();
    job.want_checkpoint = true;

    let cold_id = server.submit(job.clone()).expect("admission-clean job");
    server.run_until_idle();
    let cold = match server.outcome(cold_id).expect("cold run must resolve") {
        JobOutcome::Completed { artifacts, .. } => artifacts.clone(),
        other => panic!("expected completion, got {}", other.tag()),
    };
    assert!(
        cold.checkpoint.as_ref().is_some_and(|c| !c.is_empty()),
        "requested checkpoint must be present and non-empty"
    );

    // Poison the pool's only session: a fault-injected job that panics on
    // every attempt until the retry budget is exhausted.
    let mut bomb = IgnitionSpec {
        t0: 1100.0,
        ..IgnitionSpec::default()
    }
    .job();
    bomb.fault = FaultSpec {
        fail_attempts: 8,
        panic_at_step: 1,
        ..FaultSpec::default()
    };
    let bomb_id = server.submit(bomb).expect("fault job is admission-clean");
    server.run_until_idle();
    assert!(
        matches!(server.outcome(bomb_id), Some(JobOutcome::Failed { .. })),
        "the bomb must fail terminally"
    );
    let s = server.stats();
    assert!(s.poisonings >= 1, "the bomb must poison the session");
    assert_eq!(
        s.shards[0].slots[0].epoch, s.poisonings,
        "each poisoning rebuilds the slot"
    );

    // Resubmit the original job: answered from the cache, bit-identical,
    // untouched by the poisoning in between.
    let warm_id = server.submit(job.clone()).expect("resubmission accepted");
    let warm = match server
        .outcome(warm_id)
        .expect("cache hit resolves at submit")
    {
        JobOutcome::Cached { artifacts, .. } => artifacts.clone(),
        other => panic!("expected cache hit, got {}", other.tag()),
    };
    assert_eq!(norm_bits(&warm), norm_bits(&cold));
    assert_eq!(warm.transcript_digest, cold.transcript_digest);
    assert_eq!(warm.checkpoint, cold.checkpoint);
    assert_eq!(warm.steps, cold.steps);

    // A fresh fleet recomputing from scratch reproduces the exact same
    // bits — the cache returns precisely what a cold run would.
    let mut fresh = one_shard(2);
    let fresh_id = fresh.submit(job).expect("admission-clean job");
    fresh.run_until_idle();
    match fresh.outcome(fresh_id).expect("fresh run must resolve") {
        JobOutcome::Completed { artifacts, .. } => {
            assert_eq!(norm_bits(artifacts), norm_bits(&cold));
            assert_eq!(artifacts.transcript_digest, cold.transcript_digest);
            assert_eq!(artifacts.checkpoint, cold.checkpoint);
        }
        other => panic!("expected completion, got {}", other.tag()),
    }
}

#[test]
fn coalesced_duplicates_share_the_primary_result() {
    let mut server = one_shard(1);
    let job = IgnitionSpec {
        t0: 1050.0,
        ..IgnitionSpec::default()
    }
    .job();
    let primary = server.submit(job.clone()).expect("primary accepted");
    let follower = server.submit(job).expect("duplicate coalesces");
    assert_eq!(server.stats().coalesced, 1);
    server.run_until_idle();

    let JobOutcome::Completed { artifacts: pa, .. } =
        server.outcome(primary).expect("primary resolves")
    else {
        panic!("primary must complete")
    };
    let JobOutcome::Cached { artifacts: fa, .. } =
        server.outcome(follower).expect("follower resolves")
    else {
        panic!("follower must be answered from the cache")
    };
    // Not just equal — literally the same artifact object.
    assert!(Rc::ptr_eq(pa, fa));
}
