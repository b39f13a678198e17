//! `cca-hydro-solver` — 2D compressible Euler equations with interface
//! tracking, solved by a finite-volume Godunov method: the numerical core
//! behind the shock-interface assembly of paper §4.3.
//!
//! Conserved state `U = {ρ, ρu, ρv, ρE, ρζ}` (Eq. 4 of the paper), ideal
//! gas `p = (γ−1)(ρE − ½ρ(u²+v²))`, and a tracking function ζ advected
//! with the flow to mark the Air/Freon interface.
//!
//! Pieces, each mirrored by a paper component:
//!
//! * [`muscl`] — slope-limited construction of left/right interface states
//!   (the `States` component);
//! * [`riemann`] — the exact ideal-gas Riemann solver sampled at the cell
//!   interface (the `GodunovFlux` component);
//! * [`efm`] — Pullin's Equilibrium Flux Method, a more diffusive
//!   gas-kinetic flux that stays stable for strong shocks (the `EFMFlux`
//!   component, swapped in for Mach ≳ 3.5);
//! * [`state`] — primitive/conserved conversions and wave speeds (the
//!   `CharacteristicQuantities` component);
//! * [`diag`] — vorticity/circulation diagnostics behind Fig. 7's
//!   interfacial circulation convergence study.

pub mod diag;
pub mod efm;
pub mod erf;
pub mod limiter;
pub mod muscl;
pub mod riemann;
pub mod state;

pub use efm::EfmFlux;
pub use limiter::Limiter;
pub use muscl::{max_wave_speed, FluxScheme};
pub use riemann::GodunovFlux;
pub use state::{cons_to_prim, prim_to_cons, Prim, NVARS};
