//! In-repo test infrastructure for a hermetic workspace.
//!
//! The workspace builds with **zero external dependencies**; this crate
//! supplies the test machinery that used to come from crates.io:
//!
//! * [`mod@gen`] + [`runner`] — a deterministic property-testing
//!   mini-harness replacing `proptest`. Generators draw from a seeded,
//!   tape-recording [`TestRng`] (built on the same SplitMix64 used by
//!   `prix-datagen`), so every failure reduces to a single replayable
//!   `u64` seed, and shrinking operates on the recorded choice sequence —
//!   which means *every* generator shrinks for free, including closures.
//! * [`fault`] — a power-loss simulator behind the storage layer's
//!   `RawStore` trait: seeded kill points, short/torn writes, dropped
//!   fsyncs, post-crash disk-image reconstruction for the crash
//!   recovery harness, and a `SegmentEnv` of such stores for the
//!   segment lifecycle.
//!
//! # Writing a property test
//!
//! ```
//! use prix_testkit::{check, from_fn, Config};
//!
//! let pairs = from_fn(|rng| {
//!     let a = rng.below(100);
//!     let b = rng.range(a, a + 10);
//!     (a, b)
//! });
//! check("b is never below a", &Config::default(), &pairs, |&(a, b)| {
//!     if b >= a { Ok(()) } else { Err(format!("{b} < {a}")) }
//! });
//! ```
//!
//! # Pinning a regression seed
//!
//! When a property fails, the panic message prints the case seed, e.g.
//! `seed 0x1F2E3D4C5B6A7988`. Pin it forever as a named test:
//!
//! ```ignore
//! #[test]
//! fn regression_seed_1f2e3d4c() {
//!     prix_testkit::replay(0x1F2E3D4C5B6A7988, &my_gen(), my_property);
//! }
//! ```
//!
//! Replaying a seed regenerates the *identical* input (generation is a
//! pure function of the seed) and re-checks the property.

pub mod fault;
pub mod gen;
pub mod rng;
pub mod runner;

pub use fault::{FaultInjector, FaultKind, FaultSegEnv, FaultStore};
pub use gen::{
    bools, from_fn, one_of, option_of, u64_in, u8_in, usize_in, vec_of, Generator, Weighted,
};
pub use rng::TestRng;
pub use runner::{check, generate_with_seed, replay, Config};
