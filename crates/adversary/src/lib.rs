//! # multihonest-adversary
//!
//! The settlement game and the optimal online adversary `A*` — Sections
//! 2.2 and 6.5 of *Consistency of Proof-of-Stake Blockchains with
//! Concurrent Honest Slot Leaders* (Kiayias, Quader, Russell; ICDCS 2020).
//!
//! * [`game`] — the `(D, T; s, k)`-settlement game: a challenger plays the
//!   honest longest-chain rule while a pluggable [`game::GameAdversary`]
//!   chooses honest tie-breaks, multiplicities for multiply honest slots,
//!   and arbitrary fork augmentations;
//! * [`astar`] — the optimal online adversary of Figure 4, which builds a
//!   **canonical fork**: one that simultaneously maximises the relative
//!   margin `µ_x(y)` for *every* prefix decomposition `w = xy`
//!   (Theorem 6), verified against the Theorem 5 recurrences by
//!   [`astar::is_canonical`];
//! * [`montecarlo`] — parallel Monte-Carlo estimation of settlement, UVP
//!   and Catalan statistics over sampled characteristic strings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod astar;
pub mod game;
pub mod montecarlo;

pub use crate::astar::{is_canonical, AstarBuilder, OptimalAdversary};
pub use crate::game::{GameAdversary, NoopAdversary, RandomAdversary, SettlementGame};
pub use crate::montecarlo::{CanonicalMonteCarlo, CanonicalSummary, MonteCarlo};
