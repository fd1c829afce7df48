//! Transaction management for the SIAS reproduction.
//!
//! Snapshot Isolation needs four pieces of machinery, shared unchanged by
//! the SIAS engine and the SI baseline (the paper changes *where
//! visibility information lives*, not the SI algorithm itself):
//!
//! * [`clog`] — the commit log recording the final status of every
//!   transaction (PostgreSQL's pg_clog);
//! * [`snapshot`] — the transaction-private view: own xid plus the set of
//!   transactions concurrently in progress at start
//!   (`tx_concurrent` in Algorithm 1);
//! * [`manager`] — xid allocation, begin/commit/abort, active-set
//!   tracking;
//! * [`locks`] — tuple-granularity transaction locks implementing the
//!   **first-updater-wins** rule of §4.2.2 ("Our implementation in
//!   PostgreSQL uses transaction locks, which deliver the desired
//!   functionality").
//!
//! It also defines [`engine::MvccEngine`], the interface both storage
//! engines implement and the TPC-C workload drives.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clog;
pub mod engine;
pub mod locks;
pub mod manager;
pub mod metrics;
pub mod snapshot;
pub mod ssi;

pub use clog::{Clog, TxnStatus};
pub use engine::MvccEngine;
pub use locks::{LockOutcome, LockTable};
pub use manager::{TransactionManager, Txn};
pub use metrics::{AdmissionMetrics, EngineMetrics};
pub use snapshot::{Snapshot, VisibilityMemo};
pub use ssi::{SsiState, SsiVerdict};
