//! The bounded admission queue: ordered by the caller's scheduling key
//! (FIFO by sequence number as the last tiebreak), with per-entry
//! `ready_at` ticks so retried jobs back off without wall-clock
//! sleeps. Capacity is a hard bound — a full queue rejects with a
//! retry-after hint rather than growing without limit (backpressure).

use crate::job::{JobId, JobKey, SimJob};
use crate::session::CancelToken;

/// One queued submission.
#[derive(Clone)]
pub(crate) struct Entry {
    /// Fleet-assigned submission id.
    pub id: JobId,
    /// Monotone submission sequence — the FIFO tiebreaker.
    pub seq: u64,
    /// Content hash of the job.
    pub key: JobKey,
    /// The job itself.
    pub job: SimJob,
    /// Virtual tick at which the job was submitted.
    pub submit_tick: u64,
    /// Earliest virtual tick at which the entry may be dispatched
    /// (later than `submit_tick` only for retry backoff).
    pub ready_at: u64,
    /// Attempts already spent (0 for a fresh submission).
    pub attempts: u32,
    /// Cooperative cancellation token shared with the client handle.
    pub token: CancelToken,
}

/// Why a push was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct QueueFull {
    /// Queue depth at the time of the refusal (== capacity).
    pub depth: usize,
}

/// Bounded priority + FIFO queue over virtual ticks.
pub(crate) struct JobQueue {
    capacity: usize,
    entries: Vec<Entry>,
}

impl JobQueue {
    pub fn new(capacity: usize) -> Self {
        JobQueue {
            capacity: capacity.max(1),
            entries: Vec::new(),
        }
    }

    pub fn depth(&self) -> usize {
        self.entries.len()
    }

    pub fn push(&mut self, entry: Entry) -> Result<(), QueueFull> {
        if self.entries.len() >= self.capacity {
            return Err(QueueFull {
                depth: self.entries.len(),
            });
        }
        self.entries.push(entry);
        Ok(())
    }

    /// Remove and return the dispatchable entry at `clock`: among entries
    /// with `ready_at <= clock`, the one maximizing `key` (the fleet's
    /// tenant-aware scheduling key). The caller's key must be a total
    /// order (include the sequence number) for determinism.
    pub fn pop_ready_by<K: Ord>(&mut self, clock: u64, key: impl Fn(&Entry) -> K) -> Option<Entry> {
        let idx = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.ready_at <= clock)
            .max_by_key(|(_, e)| key(e))
            .map(|(i, _)| i)?;
        Some(self.entries.remove(idx))
    }

    /// Entries dispatchable at `clock` (the steal-balance signal).
    pub fn ready_count(&self, clock: u64) -> usize {
        self.entries.iter().filter(|e| e.ready_at <= clock).count()
    }

    /// Earliest `ready_at` strictly after `clock` — the backoff edge the
    /// fleet scheduler fast-forwards to when nothing is ready yet.
    pub fn next_ready_after(&self, clock: u64) -> Option<u64> {
        self.entries
            .iter()
            .map(|e| e.ready_at)
            .filter(|t| *t > clock)
            .min()
    }

    /// Push that bypasses the capacity bound — for *internal* re-queues
    /// only (retry backoff, preemption continuations, stolen entries).
    /// Client backpressure is enforced at submission; work the fleet has
    /// already accepted is never dropped for lack of a slot.
    pub fn push_internal(&mut self, entry: Entry) {
        self.entries.push(entry);
    }

    /// Remove a queued entry by id (client-side cancellation).
    pub fn remove_by_id(&mut self, id: JobId) -> Option<Entry> {
        let idx = self.entries.iter().position(|e| e.id == id)?;
        Some(self.entries.remove(idx))
    }

    /// Is a primary for `key` currently queued?
    pub fn contains_key(&self, key: JobKey) -> bool {
        self.entries.iter().any(|e| e.key == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{FaultSpec, WorkloadKind};

    fn entry(id: u64, seq: u64, priority: u8, ready_at: u64) -> Entry {
        let job = SimJob {
            kind: WorkloadKind::Ignition0d,
            script: format!("instantiate X x{id}"),
            overrides: vec![],
            priority,
            step_budget: None,
            want_checkpoint: false,
            fault: FaultSpec::default(),
            distributed: None,
            restore: None,
            tenant: 0,
            deadline: None,
            ckpt_interval: 0,
            on_late: crate::cost::LatePolicy::Reject,
        };
        Entry {
            id,
            seq,
            key: job.key(),
            job,
            submit_tick: 0,
            ready_at,
            attempts: 0,
            token: CancelToken::new(),
        }
    }

    /// Plain priority-then-FIFO selection.
    fn pop(q: &mut JobQueue, clock: u64) -> Option<Entry> {
        q.pop_ready_by(clock, |e| (e.job.priority, std::cmp::Reverse(e.seq)))
    }

    #[test]
    fn fifo_within_priority_and_priority_wins() {
        let mut q = JobQueue::new(8);
        q.push(entry(1, 1, 0, 0)).unwrap();
        q.push(entry(2, 2, 0, 0)).unwrap();
        q.push(entry(3, 3, 5, 0)).unwrap();
        assert_eq!(pop(&mut q, 0).unwrap().id, 3); // priority first
        assert_eq!(pop(&mut q, 0).unwrap().id, 1); // then FIFO
        assert_eq!(pop(&mut q, 0).unwrap().id, 2);
        assert!(pop(&mut q, 0).is_none());
    }

    #[test]
    fn backoff_entries_wait_for_their_tick() {
        let mut q = JobQueue::new(8);
        q.push(entry(1, 1, 0, 10)).unwrap();
        assert!(pop(&mut q, 5).is_none());
        assert_eq!(q.next_ready_after(5), Some(10));
        assert_eq!(pop(&mut q, 10).unwrap().id, 1);
    }

    #[test]
    fn capacity_is_a_hard_bound() {
        let mut q = JobQueue::new(2);
        q.push(entry(1, 1, 0, 0)).unwrap();
        q.push(entry(2, 2, 0, 0)).unwrap();
        let err = q.push(entry(3, 3, 0, 0)).unwrap_err();
        assert_eq!(err.depth, 2);
        pop(&mut q, 0).unwrap();
        q.push(entry(3, 4, 0, 0)).unwrap();
    }
}
