//! Component-state checkpoint sets: the single-process counterpart of
//! the distributed [`crate::set::CheckpointSet`], used by the serving
//! layer to preempt and migrate long jobs. Instead of handing clients a
//! raw `CheckpointPort::save_bytes` blob, the server wraps every named
//! component blob in a versioned container with per-part and whole-set
//! checksums plus the same RNG-free configuration hash the distributed
//! sets carry — so a resume against the wrong job, a truncated transfer,
//! or a flipped bit is a typed error before any session time is spent.

use crate::set::CkptError;
use cca_mesh::wire::{self, Reader};

const MAGIC: &[u8; 4] = b"CCKC";
const VERSION: u32 = 1;

/// A checkpoint of one job's component state: named blobs plus identity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ComponentSet {
    /// RNG-free hash of the physics-bearing job configuration (step
    /// counts excluded, so a shorter resume leg still matches).
    pub config_hash: u64,
    /// Macro steps the checkpointed run had completed.
    pub steps_done: u64,
    /// Named component blobs, e.g. `("grace", CheckpointPort bytes)`.
    pub parts: Vec<(String, Vec<u8>)>,
}

impl ComponentSet {
    /// Serialize, with per-part and trailer checksums. Byte-stable.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        wire::put_header(&mut out, MAGIC, VERSION);
        wire::put_u64(&mut out, self.config_hash);
        wire::put_u64(&mut out, self.steps_done);
        wire::put_parts(&mut out, &self.parts);
        wire::seal(&mut out, 0);
        out
    }

    /// Parse and integrity-check a serialized component set.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, CkptError> {
        let mut r = Reader::sealed(buf, "component set")?;
        r.header(MAGIC, VERSION)?;
        let set = ComponentSet {
            config_hash: r.u64()?,
            steps_done: r.u64()?,
            parts: r.parts()?,
        };
        r.finish("the last part")?;
        Ok(set)
    }

    /// The blob of the named part, if present.
    pub fn part(&self, name: &str) -> Option<&[u8]> {
        wire::part(&self.parts, name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ComponentSet {
        ComponentSet {
            config_hash: 0xdead_beef_1234_5678,
            steps_done: 17,
            parts: vec![
                ("grace".into(), vec![1, 2, 3, 4, 5]),
                ("integrator".into(), vec![]),
            ],
        }
    }

    #[test]
    fn roundtrip_is_exact() {
        let set = sample();
        let bytes = set.to_bytes();
        assert_eq!(bytes, set.to_bytes(), "serialization must be byte-stable");
        let back = ComponentSet::from_bytes(&bytes).unwrap();
        assert_eq!(back, set);
        assert_eq!(back.part("grace"), Some(&[1u8, 2, 3, 4, 5][..]));
        assert_eq!(back.part("nope"), None);
    }
}
