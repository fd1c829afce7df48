//! Admission control & backpressure for transaction begins.
//!
//! Under overload an append-only engine fails in a characteristic way:
//! the WAL force queue grows, the buffer pool fills with dirty append
//! pages faster than the background writer drains them, and every
//! admitted transaction makes the queues longer for all the others —
//! goodput collapses while p99 explodes. The admission gate bounds the
//! *number of transactions in flight* instead, using three pressure
//! signals that together cover the resource axes a transaction consumes:
//!
//! * **active transactions** — CPU / lock-table pressure;
//! * **WAL backlog bytes** (appended but not yet durable) — log-device
//!   pressure, the group-commit queue length in bytes;
//! * **buffer-pool dirty ratio** — memory pressure and checkpoint debt.
//!
//! Two admission disciplines share the same signals:
//!
//! * [`AdmissionGate::admit_blocking`] (used by `begin`) **delays** the
//!   caller in short parks until pressure clears or the delay budget is
//!   spent, then admits anyway — backpressure, never refusal, so the
//!   plain `MvccEngine::begin` signature stays infallible;
//! * [`AdmissionGate::try_admit`] (used by `try_begin`) **sheds**: after
//!   the same bounded wait it returns a typed
//!   [`SiasError::Overloaded`] carrying a retry-after hint sized to the
//!   configured delay budget, so clients can back off instead of piling
//!   onto a saturated stack.
//!
//! The gate itself is engine-agnostic: callers pass a closure producing
//! the current [`PressureSignals`], so tests can drive it with synthetic
//! load and the engine wires it to the live stack.

use std::time::Duration;

use parking_lot::RwLock;
use sias_common::{SiasError, SiasResult};
use sias_obs::{FlightRecorder, SpanName};
use sias_txn::AdmissionMetrics;

/// Limits and timing knobs of the admission gate. A limit of `0` means
/// "unbounded" for that signal; with all limits 0 (or `enabled` false)
/// the gate admits everything without probing.
#[derive(Clone, Debug)]
pub struct AdmissionConfig {
    /// Master switch; `false` short-circuits every admit to Ok.
    pub enabled: bool,
    /// Maximum concurrently active transactions (0 = unbounded).
    pub max_active_txns: u64,
    /// Maximum WAL backlog (appended-not-yet-durable bytes; 0 = unbounded).
    pub max_wal_backlog_bytes: u64,
    /// Maximum buffer-pool dirty ratio in percent (0 = unbounded).
    pub max_dirty_pct: u64,
    /// Total delay budget a begin may be parked for before it is
    /// admitted anyway (blocking path) or shed (try path).
    pub max_delay: Duration,
    /// Park quantum between pressure re-probes.
    pub delay_tick: Duration,
}

impl Default for AdmissionConfig {
    /// Disabled: existing callers see no behavior change until a
    /// deployment opts in via [`AdmissionGate::set_config`].
    fn default() -> Self {
        AdmissionConfig {
            enabled: false,
            max_active_txns: 0,
            max_wal_backlog_bytes: 0,
            max_dirty_pct: 0,
            max_delay: Duration::from_millis(50),
            delay_tick: Duration::from_millis(1),
        }
    }
}

impl AdmissionConfig {
    /// An enabled profile with limits sized for the in-memory test
    /// stacks: 256 active transactions, 4 MiB of WAL backlog, 80% dirty.
    pub fn enabled_default() -> Self {
        AdmissionConfig {
            enabled: true,
            max_active_txns: 256,
            max_wal_backlog_bytes: 4 << 20,
            max_dirty_pct: 80,
            ..AdmissionConfig::default()
        }
    }
}

/// A point-in-time reading of the three pressure signals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PressureSignals {
    /// Currently active (begun, not yet committed/aborted) transactions.
    pub active_txns: u64,
    /// WAL bytes appended but not yet durable (group-commit queue).
    pub wal_backlog_bytes: u64,
    /// Dirty buffer-pool frames as a percentage of all frames.
    pub dirty_pct: u64,
}

/// Bitmask encoding of which signals are over their limit, exported via
/// the `core.admission.pressure` gauge (0 = no pressure).
const PRESSURE_TXNS: i64 = 1;
const PRESSURE_WAL: i64 = 2;
const PRESSURE_DIRTY: i64 = 4;

/// The admission gate. One per engine; shared by every session thread.
pub struct AdmissionGate {
    cfg: RwLock<AdmissionConfig>,
    /// The `core.admission.*` counters, gauge and histogram.
    metrics: AdmissionMetrics,
}

impl AdmissionGate {
    /// Builds a gate reporting into the engine's shared admission
    /// metrics ([`sias_txn::EngineMetrics::admission`]), initially
    /// disabled.
    pub fn new(metrics: AdmissionMetrics) -> Self {
        AdmissionGate { cfg: RwLock::new(AdmissionConfig::default()), metrics }
    }

    /// Replaces the gate's limits (benches flip the gate on/off and the
    /// emergency path can tighten limits at runtime).
    pub fn set_config(&self, cfg: AdmissionConfig) {
        *self.cfg.write() = cfg;
    }

    /// The current limits.
    pub fn config(&self) -> AdmissionConfig {
        self.cfg.read().clone()
    }

    /// Whether the gate is enabled with at least one live limit.
    pub fn is_active(&self) -> bool {
        let c = self.cfg.read();
        c.enabled && (c.max_active_txns > 0 || c.max_wal_backlog_bytes > 0 || c.max_dirty_pct > 0)
    }

    /// Evaluates `s` against `cfg`; returns the over-limit bitmask.
    fn over_mask(cfg: &AdmissionConfig, s: &PressureSignals) -> i64 {
        let mut mask = 0;
        if cfg.max_active_txns > 0 && s.active_txns >= cfg.max_active_txns {
            mask |= PRESSURE_TXNS;
        }
        if cfg.max_wal_backlog_bytes > 0 && s.wal_backlog_bytes >= cfg.max_wal_backlog_bytes {
            mask |= PRESSURE_WAL;
        }
        if cfg.max_dirty_pct > 0 && s.dirty_pct >= cfg.max_dirty_pct {
            mask |= PRESSURE_DIRTY;
        }
        mask
    }

    /// Parks the caller while any signal is over limit, up to the delay
    /// budget; admits in every case. Returns the time spent parked.
    ///
    /// The delay is the backpressure mechanism: under sustained overload
    /// every begin pays up to `max_delay`, which caps the *arrival rate*
    /// into the engine at `threads / max_delay` without ever turning the
    /// infallible `begin` path into an error path.
    pub fn admit_blocking(
        &self,
        tracer: &FlightRecorder,
        mut probe: impl FnMut() -> PressureSignals,
    ) -> Duration {
        let cfg = self.cfg.read().clone();
        if !cfg.enabled {
            self.metrics.admitted.inc();
            return Duration::ZERO;
        }
        let waited = self.wait_for_clearance(&cfg, tracer, &mut probe);
        self.metrics.admitted.inc();
        waited
    }

    /// Single-shot admission for load-shedding callers: waits like the
    /// blocking path, but if pressure has not cleared when the delay
    /// budget runs out the begin is **refused** with
    /// [`SiasError::Overloaded`] instead of admitted.
    pub fn try_admit(
        &self,
        tracer: &FlightRecorder,
        mut probe: impl FnMut() -> PressureSignals,
    ) -> SiasResult<Duration> {
        let cfg = self.cfg.read().clone();
        if !cfg.enabled {
            self.metrics.admitted.inc();
            return Ok(Duration::ZERO);
        }
        let waited = self.wait_for_clearance(&cfg, tracer, &mut probe);
        let mask = Self::over_mask(&cfg, &probe());
        self.metrics.pressure.set(mask);
        if mask != 0 {
            self.metrics.shed.inc();
            tracer.instant(SpanName::AdmissionShed, 0, mask as u64);
            // Advise the client to stay away for one full delay budget:
            // anything shorter and the retry lands in the same overload
            // window that shed it.
            let retry_after_ms = (cfg.max_delay.as_millis() as u64).max(1);
            return Err(SiasError::Overloaded { retry_after_ms });
        }
        self.metrics.admitted.inc();
        Ok(waited)
    }

    /// Shared park loop: probes, parks `delay_tick` at a time while over
    /// limit, gives up once `max_delay` is spent. Publishes the pressure
    /// gauge on every probe; the `admission.delay` span, whose clock
    /// also bounds the wait, records the total parked time.
    fn wait_for_clearance(
        &self,
        cfg: &AdmissionConfig,
        tracer: &FlightRecorder,
        probe: &mut impl FnMut() -> PressureSignals,
    ) -> Duration {
        let mask = Self::over_mask(cfg, &probe());
        self.metrics.pressure.set(mask);
        if mask == 0 {
            return Duration::ZERO;
        }
        let mut span = tracer.span(SpanName::AdmissionDelay);
        let mut ticks = 0u64;
        loop {
            let elapsed = span.elapsed();
            if elapsed >= cfg.max_delay {
                break;
            }
            std::thread::sleep(cfg.delay_tick.min(cfg.max_delay - elapsed));
            ticks += 1;
            let mask = Self::over_mask(cfg, &probe());
            self.metrics.pressure.set(mask);
            if mask == 0 {
                break;
            }
        }
        span.set_arg(ticks);
        self.metrics.delayed.inc();
        span.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sias_obs::Registry;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Instant;

    fn gate(cfg: AdmissionConfig) -> (AdmissionGate, Arc<Registry>, Arc<FlightRecorder>) {
        let obs = Registry::new_shared();
        let g = AdmissionGate::new(sias_txn::EngineMetrics::register(&obs).admission);
        g.set_config(cfg);
        let tracer = Arc::clone(obs.tracer());
        (g, obs, tracer)
    }

    #[test]
    fn disabled_gate_admits_without_probing() {
        let (g, _obs, tr) = gate(AdmissionConfig::default());
        let waited = g.admit_blocking(&tr, || panic!("disabled gate must not probe"));
        assert_eq!(waited, Duration::ZERO);
        assert_eq!(g.metrics.admitted.get(), 1);
        assert!(g.try_admit(&tr, || panic!("disabled gate must not probe")).is_ok());
    }

    #[test]
    fn under_pressure_blocking_path_delays_then_admits() {
        let cfg = AdmissionConfig {
            enabled: true,
            max_active_txns: 4,
            max_delay: Duration::from_millis(20),
            delay_tick: Duration::from_millis(1),
            ..AdmissionConfig::default()
        };
        let (g, obs, tr) = gate(cfg);
        // Pressure never clears: the begin must still be admitted after
        // roughly the delay budget — backpressure, not refusal.
        let start = Instant::now();
        let waited =
            g.admit_blocking(&tr, || PressureSignals { active_txns: 10, ..Default::default() });
        assert!(waited >= Duration::from_millis(15), "parked {waited:?}");
        assert!(start.elapsed() < Duration::from_millis(500));
        assert_eq!(g.metrics.admitted.get(), 1);
        assert_eq!(g.metrics.delayed.get(), 1);
        assert_eq!(g.metrics.pressure.get(), 1); // txns bit
        let snap = obs.snapshot();
        let delay = snap.histogram("span.admission.delay").unwrap();
        assert_eq!(delay.count, 1, "the span records the park");
        assert!(delay.sum >= waited.as_nanos() as u64);
    }

    #[test]
    fn pressure_clearing_mid_wait_admits_early() {
        let cfg = AdmissionConfig {
            enabled: true,
            max_active_txns: 4,
            max_delay: Duration::from_secs(5),
            delay_tick: Duration::from_millis(1),
            ..AdmissionConfig::default()
        };
        let (g, _obs, tr) = gate(cfg);
        let probes = AtomicU64::new(0);
        let waited = g.admit_blocking(&tr, || {
            let n = probes.fetch_add(1, Ordering::Relaxed);
            PressureSignals { active_txns: if n < 3 { 10 } else { 0 }, ..Default::default() }
        });
        // Cleared after ~3 ticks — nowhere near the 5 s budget.
        assert!(waited < Duration::from_secs(1), "parked {waited:?}");
        assert_eq!(g.metrics.pressure.get(), 0);
    }

    #[test]
    fn try_admit_sheds_with_typed_retry_after() {
        let cfg = AdmissionConfig {
            enabled: true,
            max_wal_backlog_bytes: 1024,
            max_delay: Duration::from_millis(10),
            delay_tick: Duration::from_millis(1),
            ..AdmissionConfig::default()
        };
        let (g, _obs, tr) = gate(cfg);
        let err = g
            .try_admit(&tr, || PressureSignals { wal_backlog_bytes: 4096, ..Default::default() })
            .unwrap_err();
        match err {
            SiasError::Overloaded { retry_after_ms } => assert!(retry_after_ms >= 10),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert!(err.is_retryable_overload());
        assert_eq!(g.metrics.shed.get(), 1);
        assert_eq!(g.metrics.admitted.get(), 0);
        assert_eq!(g.metrics.pressure.get(), 2); // wal bit
    }

    #[test]
    fn all_three_signals_set_their_bits() {
        let cfg = AdmissionConfig {
            enabled: true,
            max_active_txns: 1,
            max_wal_backlog_bytes: 1,
            max_dirty_pct: 1,
            max_delay: Duration::from_millis(2),
            delay_tick: Duration::from_millis(1),
        };
        let (g, _obs, tr) = gate(cfg);
        let _ = g.try_admit(&tr, || PressureSignals {
            active_txns: 5,
            wal_backlog_bytes: 5,
            dirty_pct: 5,
        });
        assert_eq!(g.metrics.pressure.get(), 7);
        assert_eq!(g.metrics.shed.get(), 1);
    }
}
