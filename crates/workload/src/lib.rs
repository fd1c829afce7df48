//! TPC-C-style workload for the SIAS evaluation.
//!
//! The paper evaluates with DBT2, the open-source TPC-C implementation,
//! at varying warehouse scales. This crate rebuilds that harness:
//!
//! * [`schema`] — the nine TPC-C tables with compact fixed layouts;
//! * [`keys`] — composite-key packing into the engines' `u64` keys;
//! * [`random`] — uniform + NURand skew, and the splitmix64 stream of
//!   the seeded harnesses;
//! * [`config`] — scale parameters (warehouses, scaled cardinalities);
//! * [`loader`] — initial population;
//! * [`txns`] — the five transaction profiles at the standard mix;
//! * [`driver`] — the multi-terminal discrete-event driver reporting
//!   NOTPM and response times;
//! * [`check`] — TPC-C consistency conditions plus a black-box
//!   SI-anomaly and durability checker;
//! * [`chaos`] — deterministic fault-injection harness: one seeded
//!   session over tagged keys per [`Scenario`] (crash sweep, bit rot plus
//!   scrub, GC crash point, write skew, full WAL quota), with the history
//!   fed to the checker and one gate per scenario;
//! * [`threaded`] — real OS-thread driver over one shared engine,
//!   measuring wall-clock multi-core throughput and producing merged
//!   checker-compatible histories.
//!
//! Everything is generic over [`sias_txn::MvccEngine`], so SIAS and the
//! SI baseline run byte-identical logical work.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod check;
pub mod config;
pub mod driver;
pub mod keys;
pub mod loader;
pub mod random;
pub mod schema;
pub mod threaded;
pub mod txns;

pub use chaos::{ChaosConfig, ChaosReport, Scenario};
pub use check::{
    check_anomalies, check_consistency, check_durability, check_serializability, DurabilityInput,
    History, Violation, WriteTag,
};
pub use config::{Tables, TpccConfig};
pub use driver::{run_benchmark, BenchResult, DriverConfig};
pub use loader::load;
pub use threaded::{
    drive_threaded, drive_threaded_with_maintenance, fill_sias_version_order, ThreadedConfig,
    ThreadedRun,
};
pub use txns::{run_txn, Outcome, TxnKind};
