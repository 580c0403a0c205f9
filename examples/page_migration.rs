//! Page migration with ATC invalidation (paper §III-C2 and §VIII).
//!
//! A page first-touched by the CPU is migrated to the XPU's node after
//! the adaptive policy sees the XPU dominating its accesses. The HMM
//! handshake blocks the device, updates the unified page table,
//! invalidates the device ATC, and resumes — exactly the sequence the
//! paper describes.
//!
//! Run with: `cargo run --example page_migration`

use cohet_os::migration::{migrate_page, AdaptivePolicy, MigrationCost};
use cohet_os::{AccessKind, Accessor, NumaTopology, Process, VirtAddr};
use simcxl_mem::{AddrRange, PhysAddr};

struct AtcShim;

impl cohet_os::hmm::MmNotifier for AtcShim {
    fn name(&self) -> &str {
        "cxl-xpu0"
    }
    fn invalidate_page(&mut self, va: VirtAddr) {
        println!("  [driver] ATC invalidation for page {va}");
    }
    fn block(&mut self) {
        println!("  [driver] blocking device translation");
    }
    fn resume(&mut self) {
        println!("  [driver] resuming device translation");
    }
}

fn main() {
    let mut topo = NumaTopology::new(4096);
    let cpu = topo.add_node(AddrRange::new(PhysAddr::new(0), 64 << 20));
    let xpu = topo.add_node(AddrRange::new(PhysAddr::new(1 << 30), 64 << 20));
    let mut proc = Process::new(topo);
    proc.hmm_mut().register(Box::new(AtcShim));

    let buf = proc.malloc(4096).unwrap();
    // CPU first touch: frame lands on the CPU node.
    let r = proc
        .access(Accessor::Cpu(cpu), buf, AccessKind::Write)
        .unwrap();
    println!("first touch by CPU -> frame on {}", r.node);

    // The XPU then hammers the page.
    let mut policy = AdaptivePolicy::new(2);
    policy.record(buf, cpu);
    for _ in 0..8 {
        proc.access(Accessor::Xpu(xpu), buf, AccessKind::Read)
            .unwrap();
        policy.record(buf, xpu);
    }

    if let Some(target) = policy.recommend(buf, cpu) {
        println!("policy: migrate page to {target}");
        let cost = migrate_page(&mut proc, buf, target, MigrationCost::default()).unwrap();
        policy.reset_page(buf);
        println!("migration completed in {cost}");
    }

    let after = proc
        .access(Accessor::Xpu(xpu), buf, AccessKind::Read)
        .unwrap();
    println!(
        "page now on {} (no refault: {})",
        after.node, !after.faulted
    );
    assert_eq!(after.node, xpu);
}
