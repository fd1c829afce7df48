//! RAID-0 (stripe) over N devices.
//!
//! The paper's testbeds use software stripe sets of two and six SSDs
//! (§5, Figures 5 and 6). Striping is page-granular: logical page `l`
//! lives on member `l % n` at member-local address `l / n`, so both
//! sequential appends and scattered reads fan out across all members.
//! Members may be simulated drives or real files
//! ([`FileDevice::open_stripe`](super::FileDevice::open_stripe)); the
//! stripe forwards the fallible calls, TRIM and the durability barrier
//! to whichever member owns the page.

use sias_common::SiasResult;

use super::{Device, DeviceCounters, DeviceEnv, DeviceRef, DeviceStats};

/// A stripe set over homogeneous member devices.
pub struct Raid0 {
    members: Vec<DeviceRef>,
    /// The set every member counts into.
    counters: DeviceCounters,
}

impl Raid0 {
    /// Builds a stripe of `width` members. `member(i, env_i)` makes
    /// member `i` on `env_i`: `env` with `device_id` advanced by `i`, so
    /// every member shares `env`'s clock, trace and counters and the
    /// stripe's [`Device::stats`] is one read of `env.counters`. Panics
    /// when `width` is zero.
    pub fn new(
        width: usize,
        env: &DeviceEnv,
        mut member: impl FnMut(usize, DeviceEnv) -> SiasResult<DeviceRef>,
    ) -> SiasResult<Self> {
        assert!(width > 0, "RAID-0 needs at least one member");
        let members = (0..width)
            .map(|i| {
                member(
                    i,
                    DeviceEnv { device_id: env.device_id.wrapping_add(i as u16), ..env.clone() },
                )
            })
            .collect::<SiasResult<_>>()?;
        Ok(Raid0 { members, counters: env.counters.clone() })
    }

    /// Number of member devices.
    pub fn width(&self) -> usize {
        self.members.len()
    }

    #[inline]
    fn route(&self, lba: u64) -> (usize, u64) {
        let n = self.members.len() as u64;
        ((lba % n) as usize, lba / n)
    }
}

impl Device for Raid0 {
    fn read_page(&self, lba: u64, buf: &mut [u8]) {
        let (m, mlba) = self.route(lba);
        self.members[m].read_page(mlba, buf);
    }

    fn write_page(&self, lba: u64, data: &[u8], sync: bool) {
        let (m, mlba) = self.route(lba);
        self.members[m].write_page(mlba, data, sync);
    }

    fn peek_page(&self, lba: u64, buf: &mut [u8]) {
        let (m, mlba) = self.route(lba);
        self.members[m].peek_page(mlba, buf);
    }

    fn capacity_pages(&self) -> u64 {
        let n = self.members.len() as u64;
        self.members.iter().map(|m| m.capacity_pages()).min().unwrap_or(0) * n
    }

    fn try_read_page(&self, lba: u64, buf: &mut [u8]) -> SiasResult<()> {
        let (m, mlba) = self.route(lba);
        self.members[m].try_read_page(mlba, buf)
    }

    fn try_write_page(&self, lba: u64, data: &[u8], sync: bool) -> SiasResult<()> {
        let (m, mlba) = self.route(lba);
        self.members[m].try_write_page(mlba, data, sync)
    }

    fn trim(&self, lba: u64) {
        let (m, mlba) = self.route(lba);
        self.members[m].trim(mlba);
    }

    fn flush(&self) -> SiasResult<()> {
        for m in &self.members {
            m.flush()?;
        }
        Ok(())
    }

    fn stats(&self) -> DeviceStats {
        self.counters.read()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{FlashConfig, FlashDevice};
    use sias_common::PAGE_SIZE;
    use std::sync::Arc;

    fn raid(n: usize) -> (Raid0, DeviceEnv) {
        let env = DeviceEnv::fresh();
        let flash = FlashConfig { capacity_pages: 4096, ..Default::default() };
        let r = Raid0::new(n, &env, |_, e| Ok(Arc::new(FlashDevice::new(flash, e)) as DeviceRef));
        (r.unwrap(), env)
    }

    #[test]
    fn roundtrip_across_members() {
        let (r, _env) = raid(3);
        for lba in 0..30u64 {
            let img = vec![lba as u8; PAGE_SIZE];
            r.write_page(lba, &img, true);
        }
        let mut buf = vec![0u8; PAGE_SIZE];
        for lba in 0..30u64 {
            r.read_page(lba, &mut buf);
            assert_eq!(buf[0], lba as u8);
        }
    }

    #[test]
    fn stripe_balances_sequential_io() {
        let (r, env) = raid(4);
        env.trace.enable();
        let img = vec![1u8; PAGE_SIZE];
        for lba in 0..400u64 {
            r.write_page(lba, &img, false);
        }
        let mut per_member = [0u32; 4];
        for e in env.trace.events() {
            per_member[e.device as usize] += e.pages;
        }
        assert_eq!(per_member, [100; 4]);
    }

    #[test]
    fn capacity_is_sum_of_members() {
        let (r, _env) = raid(6);
        assert_eq!(r.capacity_pages(), 6 * 4096);
    }

    #[test]
    fn members_share_one_counter_set() {
        let (r, env) = raid(2);
        let img = vec![0u8; PAGE_SIZE];
        for lba in 0..10 {
            r.write_page(lba, &img, true);
        }
        assert_eq!(r.stats().host_write_pages, 10);
        assert_eq!(env.counters.read(), r.stats(), "the stripe total is the shared set");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// route() is a bijection: distinct logical pages map to
            /// distinct (member, offset) slots and back.
            #[test]
            fn route_is_a_bijection(width in 1usize..7, lbas in proptest::collection::vec(0u64..4096, 1..64)) {
                let (r, _env) = raid(width);
                let n = width as u64;
                let mut slots = std::collections::BTreeMap::new();
                for &lba in &lbas {
                    let (m, mlba) = r.route(lba);
                    prop_assert!(m < width);
                    // Invert: member-local slot back to the logical page.
                    prop_assert_eq!(mlba * n + m as u64, lba);
                    // Injective: a slot is only ever claimed by one page.
                    if let Some(prev) = slots.insert((m, mlba), lba) {
                        prop_assert_eq!(prev, lba, "slot ({}, {}) double-mapped", m, mlba);
                    }
                }
            }
        }
    }

    #[test]
    fn wider_raid_finishes_backlogged_writes_sooner() {
        // Async writes pile onto member channels; a later sync read on the
        // same member must wait. Wider stripes spread the backlog.
        let run = |n: usize| {
            let (r, env) = raid(n);
            let img = vec![0u8; PAGE_SIZE];
            for lba in 0..200u64 {
                r.write_page(lba, &img, false);
            }
            // Sync read that lands behind the backlog of member 0.
            let mut buf = vec![0u8; PAGE_SIZE];
            r.read_page(0, &mut buf);
            env.clock.now_us()
        };
        let t2 = run(2);
        let t6 = run(6);
        assert!(t6 < t2, "six-way stripe should absorb the backlog faster: {t6} vs {t2}");
    }
}
