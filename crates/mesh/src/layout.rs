//! Kernel layout and tiling parameters behind the padded
//! structure-of-arrays patch layout ([`crate::data::PatchData`]) and the
//! banded stencil/flux sweeps (DESIGN.md §13). Nothing here is
//! process-wide state: the pitch quantum is a constant and the band
//! height is an explicit argument of each kernel call.
//!
//! * **pitch quantum** — row pitches are rounded up to a multiple of
//!   [`DEFAULT_PITCH_QUANTUM`] `f64`s, so every row of every variable
//!   plane starts at an element offset that is a multiple of the quantum
//!   (64 bytes: one cache line). Padding changes *addresses only*: every
//!   value-carrying loop iterates dense rows, so results are
//!   bit-identical at any quantum.
//! * **tile rows** — stencil and flux sweeps can block their j-loop into
//!   bands of this many rows; `0` is one band over the whole patch.
//!   Banding reorders only whole-cell units of work whose arithmetic is
//!   cell-independent, so it is bit-identical (see [`KernelConfig`]).
//!   Production runs [`KernelConfig::UNTILED`]; a band height is passed
//!   only by the wall-clock probes and the bit-identity tests.

/// Row-pitch quantum in `f64` elements (64 bytes) of every patch
/// [`crate::data::PatchData::new`] allocates. Measured, not modeled: the
/// dense layout (quantum 1) costs the `fleet_mixed` benchmark workload
/// 2.00–2.02 s → 2.09–2.11 s wall (7/7 alternating pairs) and is flat on
/// the other workloads, so padding pays and has one good value.
pub const DEFAULT_PITCH_QUANTUM: usize = 8;

/// Band height in rows the wall-clock probes time the diffusion sweep
/// at. No production sweep is banded: at this height `diffusion_uniform`
/// ran ≈ 7.5 % slower than untiled, because each 16-row band recomputes
/// its 2 halo rows of transport properties (EXPERIMENTS.md).
pub const DEFAULT_TILE_ROWS: usize = 16;

/// Round `n` up to a multiple of `quantum` (≥ 1 enforced).
pub fn pad_to_quantum(n: usize, quantum: usize) -> usize {
    let q = quantum.max(1);
    n.div_ceil(q) * q
}

/// The band height a kernel call should sweep with, taken by value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelConfig {
    /// j-loop tile height in rows; `0` = untiled single band.
    pub tile_rows: usize,
}

impl KernelConfig {
    /// One band over the whole patch: what production passes, and the
    /// reference the banded configurations are bit-compared against.
    pub const UNTILED: KernelConfig = KernelConfig { tile_rows: 0 };

    /// A banded configuration (same bits as [`KernelConfig::UNTILED`]).
    pub fn tiled(rows: usize) -> Self {
        KernelConfig { tile_rows: rows }
    }

    /// Band height in rows for a sweep over `ny` rows: the tile height,
    /// or the whole sweep when untiled.
    pub fn band_rows(&self, ny: usize) -> usize {
        if self.tile_rows == 0 {
            ny.max(1)
        } else {
            self.tile_rows
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pad_rounds_up_to_quantum() {
        assert_eq!(pad_to_quantum(1, 8), 8);
        assert_eq!(pad_to_quantum(8, 8), 8);
        assert_eq!(pad_to_quantum(9, 8), 16);
        assert_eq!(pad_to_quantum(20, 1), 20);
        assert_eq!(pad_to_quantum(0, 4), 0);
        // Degenerate quantum clamps to 1 instead of dividing by zero.
        assert_eq!(pad_to_quantum(7, 0), 7);
    }

    #[test]
    fn band_rows_covers_untiled_and_tiled() {
        assert_eq!(KernelConfig::UNTILED.band_rows(40), 40);
        assert_eq!(KernelConfig::tiled(16).band_rows(40), 16);
        assert_eq!(KernelConfig::UNTILED.band_rows(0), 1);
    }
}
