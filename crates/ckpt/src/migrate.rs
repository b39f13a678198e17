//! Cross-shard migration of preempted jobs: the handoff ticket a serving
//! fleet staples to checkpoint bytes that travel between shards.
//!
//! When a work-stealing scheduler moves a preempted job, the committed
//! [`crate::ComponentSet`] bytes are the *entire* migrated state. The
//! source shard seals a [`HandoffTicket`] over them (length, content
//! checksum, committed step count); the destination verifies the ticket
//! before enqueueing the continuation. The ticket makes corruption in
//! flight a typed, attributable error *before* any session time is spent
//! on a doomed restore — the same fail-closed discipline the restore
//! path itself applies — and carries the provenance (source/destination
//! shard) that migration accounting and trace audits report.

use crate::component::ComponentSet;
use crate::set::CkptError;
use cca_mesh::wire::{fnv1a64, FNV1A_INIT};

/// Sealed summary of one checkpoint-set handoff between shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HandoffTicket {
    /// Shard the preempted job yielded on.
    pub from_shard: usize,
    /// Shard the continuation resumes on.
    pub to_shard: usize,
    /// Absolute macro steps the migrated set covers.
    pub committed_steps: u64,
    /// Serialized set length, bytes (the migration-volume figure).
    pub bytes_len: usize,
    /// FNV-1a over the serialized set.
    pub checksum: u64,
}

impl HandoffTicket {
    /// Seal a ticket over `set_bytes`. Fails if the bytes are not a
    /// valid component set — a shard must never ship state it could not
    /// itself restore.
    pub fn seal(from_shard: usize, to_shard: usize, set_bytes: &[u8]) -> Result<Self, CkptError> {
        let set = ComponentSet::from_bytes(set_bytes)?;
        Ok(HandoffTicket {
            from_shard,
            to_shard,
            committed_steps: set.steps_done,
            bytes_len: set_bytes.len(),
            checksum: fnv1a64(FNV1A_INIT, set_bytes),
        })
    }

    /// Verify `set_bytes` on the destination side: length and content
    /// checksum must match the sealed ticket, and the bytes must still
    /// parse as a component set.
    pub fn verify(&self, set_bytes: &[u8]) -> Result<ComponentSet, CkptError> {
        if set_bytes.len() != self.bytes_len {
            return Err(CkptError::Corrupt(format!(
                "handoff length mismatch: ticket {} bytes, payload {} bytes",
                self.bytes_len,
                set_bytes.len()
            )));
        }
        let computed = fnv1a64(FNV1A_INIT, set_bytes);
        if computed != self.checksum {
            return Err(CkptError::Corrupt(format!(
                "handoff checksum mismatch: ticket {:016x}, payload {computed:016x}",
                self.checksum
            )));
        }
        let set = ComponentSet::from_bytes(set_bytes)?;
        if set.steps_done != self.committed_steps {
            return Err(CkptError::Incompatible(format!(
                "handoff step mismatch: ticket says {} committed steps, set says {}",
                self.committed_steps, set.steps_done
            )));
        }
        Ok(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set_bytes() -> Vec<u8> {
        ComponentSet {
            config_hash: 0xfeed,
            steps_done: 6,
            parts: vec![("grace".into(), vec![1, 2, 3, 4, 5])],
        }
        .to_bytes()
    }

    #[test]
    fn seal_and_verify_roundtrip() {
        let bytes = set_bytes();
        let ticket = HandoffTicket::seal(0, 3, &bytes).expect("valid set seals");
        assert_eq!(ticket.committed_steps, 6);
        assert_eq!(ticket.bytes_len, bytes.len());
        let set = ticket.verify(&bytes).expect("clean handoff verifies");
        assert_eq!(set.config_hash, 0xfeed);
    }

    #[test]
    fn corruption_in_flight_is_detected() {
        let bytes = set_bytes();
        let ticket = HandoffTicket::seal(1, 2, &bytes).expect("valid set seals");
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        assert!(ticket.verify(&flipped).is_err(), "bit flip must be caught");
        let truncated = &bytes[..bytes.len() - 1];
        assert!(ticket.verify(truncated).is_err(), "length gate");
    }

    #[test]
    fn garbage_never_seals() {
        assert!(HandoffTicket::seal(0, 1, &[0xde, 0xad, 0xbe, 0xef]).is_err());
    }
}
