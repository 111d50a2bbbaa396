//! # ezp-chan — lock-free SPSC/MPMC channels with configurable wait policies
//!
//! EASYPAP's runtime moves work between threads in four places: the
//! streaming frame driver hands finished frames to the presenter, the
//! serve daemon queues admitted jobs per tenant, MPI ranks exchange
//! messages through mailboxes, and the monitor harvests trace events
//! from workers. This crate gives all four one audited channel
//! substrate instead of four ad-hoc hand-offs:
//!
//! * [`ring`] — the FastFlow-style bounded lock-free SPSC ring: two
//!   cache-padded monotone cursors over a power-of-two slot array, one
//!   release/acquire pair per direction. This is the crate's single
//!   sanctioned `unsafe` island (the workspace's third, next to
//!   `ezp-sched`'s `pool` and `img_cell`); every `unsafe` block carries
//!   a `SAFETY:` argument and every non-SeqCst atomic an `ORDERING:`
//!   justification, both enforced by `ezp-lint`.
//! * [`spsc`] — the raw endpoints over one ring: fastest path, role
//!   uniqueness enforced by `&mut self` on non-`Clone` endpoints.
//! * [`mpmc`] — MPMC composed from one SPSC lane per producer with
//!   claim-flag role migration: per-producer FIFO, clonable receivers,
//!   and an unbounded "mailbox" mode whose sends never block. Its
//!   [`MpmcSender`]/[`MpmcReceiver`] endpoints take `&self` and are
//!   what all four consumers hold, as concrete types.
//!
//! The ring is the only transport. `std::sync::mpsc` survives only as
//! the baseline the `chan` bench (`crates/bench/benches/chan.rs`)
//! measures the ring against.
//!
//! How endpoints wait is a [`WaitPolicy`]: yield, or spin-then-park on
//! `ezp_core::park::ParkLot`. The stream path (`--wait-policy` with
//! `--stream`) and `easypap serve --wait-policy` expose it; the monitor
//! and the MPI mailboxes always park. Every channel counts
//! sends/recvs/full-stalls/empty-stalls ([`ChanStats`]), which
//! consumers forward as `RuntimeEvent::ChanOps` plus backpressure idle
//! attribution into the unified report.
//!
//! The ring protocol itself is modeled step-by-step in
//! `ezp_sched::vexec::virtual_chan` and swept by every `ezp-check`
//! schedule-strategy family; the real-thread adversarial battery lives
//! in this crate's `tests/`.

#![warn(missing_docs)]
// `unsafe_code` is deliberately NOT denied: the SPSC ring slots are a
// sanctioned unsafe island (see the crate docs above). `ring.rs` holds
// the cell accesses; `spsc.rs`/`mpmc.rs` hold the role-contract call
// sites. Each carries a `SAFETY:` argument, enforced by `ezp-lint`'s
// `unsafe-needs-safety` rule.
#![deny(unsafe_op_in_unsafe_fn)]

mod errors;
pub mod mpmc;
pub(crate) mod ring;
pub mod spsc;
mod stats;
mod wait;

pub use errors::{RecvError, SendError, TryRecvError, TrySendError};
pub use ezp_core::{ChanTuning, WaitPolicy};
pub use mpmc::{mpmc, mpmc_unbounded, MpmcReceiver, MpmcSender};
pub use spsc::{spsc, spsc_from_index, SpscReceiver, SpscSender};
pub use stats::ChanStats;
