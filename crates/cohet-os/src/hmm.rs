//! Heterogeneous memory management: device notifier chains.
//!
//! Paper §III-C2: "When the unified page table is about to be updated due
//! to page migration or swapping, HMM invokes the registered driver
//! callback. The driver then temporarily blocks the device from accessing
//! the affected page-table entries, allowing HMM to safely perform the
//! update and trigger the IOMMU invalidation process. ... Once the
//! invalidation has been completed, HMM notifies the driver to resume
//! device address translation."

use crate::vma::VirtAddr;
use sim_core::Tick;
use std::fmt;

/// Driver callbacks a device registers with HMM.
pub trait MmNotifier {
    /// Human-readable device name for diagnostics.
    fn name(&self) -> &str;
    /// Invalidate any device-cached translation for the page at `va`
    /// (forwarded to the device ATC per the ATS protocol).
    fn invalidate_page(&mut self, va: VirtAddr);
    /// Block device translation while the table is updated.
    fn block(&mut self) {}
    /// Resume device translation.
    fn resume(&mut self) {}
}

/// Identifies a registered device instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeviceInstance(usize);

/// Timing of the update/invalidate handshake.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct HmmCost {
    /// Driver block + resume overhead.
    pub block_resume: Tick,
    /// Per-device ATC invalidation round trip.
    pub invalidation: Tick,
}

impl Default for HmmCost {
    fn default() -> Self {
        HmmCost {
            block_resume: Tick::from_ns(300),
            invalidation: Tick::from_ns(500),
        }
    }
}

/// The HMM core: a notifier chain over registered device instances.
pub struct Hmm {
    devices: Vec<Box<dyn MmNotifier>>,
    cost: HmmCost,
    updates: u64,
    invalidations: u64,
}

impl Hmm {
    /// Creates an HMM core with the given handshake costs.
    pub(crate) fn new(cost: HmmCost) -> Self {
        Hmm {
            devices: Vec::new(),
            cost,
            updates: 0,
            invalidations: 0,
        }
    }

    /// Registers a device instance (the driver's HMM registration during
    /// probe); returns its handle.
    pub fn register(&mut self, dev: Box<dyn MmNotifier>) -> DeviceInstance {
        self.devices.push(dev);
        DeviceInstance(self.devices.len() - 1)
    }

    /// Performs a protected page-table update for the page at `va`:
    /// blocks every device, runs `update`, invalidates device ATCs, then
    /// resumes. Returns the handshake cost.
    pub(crate) fn update_page(&mut self, va: VirtAddr, update: impl FnOnce()) -> Tick {
        self.updates += 1;
        for d in &mut self.devices {
            d.block();
        }
        update();
        let mut cost = self.cost.block_resume;
        for d in &mut self.devices {
            d.invalidate_page(va);
            self.invalidations += 1;
            cost += self.cost.invalidation;
        }
        for d in &mut self.devices {
            d.resume();
        }
        cost
    }

    /// ATC invalidations issued.
    #[cfg(test)]
    pub(crate) fn invalidations(&self) -> u64 {
        self.invalidations
    }
}

impl fmt::Debug for Hmm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Hmm")
            .field(
                "devices",
                &self
                    .devices
                    .iter()
                    .map(|d| d.name().to_owned())
                    .collect::<Vec<_>>(),
            )
            .field("updates", &self.updates)
            .field("invalidations", &self.invalidations)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[derive(Debug, Default)]
    struct Log {
        events: Vec<String>,
    }

    struct Dev {
        name: String,
        log: Rc<RefCell<Log>>,
    }

    impl MmNotifier for Dev {
        fn name(&self) -> &str {
            &self.name
        }
        fn invalidate_page(&mut self, va: VirtAddr) {
            self.log
                .borrow_mut()
                .events
                .push(format!("{}:inv:{va}", self.name));
        }
        fn block(&mut self) {
            self.log
                .borrow_mut()
                .events
                .push(format!("{}:block", self.name));
        }
        fn resume(&mut self) {
            self.log
                .borrow_mut()
                .events
                .push(format!("{}:resume", self.name));
        }
    }

    #[test]
    fn handshake_order_block_update_invalidate_resume() {
        let log = Rc::new(RefCell::new(Log::default()));
        let mut hmm = Hmm::new(HmmCost::default());
        hmm.register(Box::new(Dev {
            name: "nic".into(),
            log: log.clone(),
        }));
        let updated = Rc::new(RefCell::new(false));
        let u2 = updated.clone();
        let l2 = log.clone();
        hmm.update_page(VirtAddr::new(0x1000), move || {
            *u2.borrow_mut() = true;
            l2.borrow_mut().events.push("update".into());
        });
        assert!(*updated.borrow());
        let ev = log.borrow().events.clone();
        assert_eq!(
            ev,
            vec!["nic:block", "update", "nic:inv:0x1000", "nic:resume"]
        );
    }

    #[test]
    fn cost_scales_with_devices() {
        let log = Rc::new(RefCell::new(Log::default()));
        let mut hmm = Hmm::new(HmmCost::default());
        for i in 0..3 {
            hmm.register(Box::new(Dev {
                name: format!("dev{i}"),
                log: log.clone(),
            }));
        }
        let c = hmm.update_page(VirtAddr::new(0x2000), || {});
        let expect = HmmCost::default().block_resume + HmmCost::default().invalidation * 3;
        assert_eq!(c, expect);
        assert_eq!(hmm.invalidations(), 3);
        assert_eq!(hmm.updates, 1);
        assert_eq!(hmm.devices.len(), 3);
    }
}
