//! The Cohet framework: coherent CPU/XPU pools over one page table.

use crate::profile::DeviceProfile;
use crate::topo::TopologySpec;
use cohet_os::{AccessKind, Accessor, NodeId, NumaTopology, OsError, Process, VirtAddr};
use sim_core::Tick;
use simcxl_coherence::prelude::*;
use simcxl_coherence::AtomicKind;
use simcxl_cxl::{Atc, AtcConfig, IommuConfig};
use simcxl_mem::{AddrRange, DramConfig, DramKind, MemoryInterface, PhysAddr};
use simcxl_workloads::scenario::{self, ScenarioOutcome, ScenarioSpec};
use std::fmt;

/// Errors surfaced by the framework.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CohetError {
    /// An OS-level fault (segfault, protection, OOM, bad free).
    Os(OsError),
    /// Kernel launch named a nonexistent XPU.
    NoSuchXpu(usize),
}

impl fmt::Display for CohetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CohetError::Os(e) => write!(f, "{e}"),
            CohetError::NoSuchXpu(i) => write!(f, "no such XPU: {i}"),
        }
    }
}

impl std::error::Error for CohetError {}

impl From<OsError> for CohetError {
    fn from(e: OsError) -> Self {
        CohetError::Os(e)
    }
}

/// Builder-produced system description.
#[derive(Debug, Clone)]
pub struct CohetSystem {
    profile: DeviceProfile,
    xpus: usize,
    host_mem: u64,
    xpu_mem: u64,
    expander_mem: Option<u64>,
    topo: TopologySpec,
    fault: Option<FaultPlan>,
}

/// Builder for [`CohetSystem`].
///
/// The directory layout is declared with one
/// [`topology`](Self::topology) call taking a [`TopologySpec`].
#[derive(Debug, Clone)]
pub struct CohetSystemBuilder {
    profile: DeviceProfile,
    xpus: usize,
    host_mem: u64,
    xpu_mem: u64,
    expander_mem: Option<u64>,
    topo: TopologySpec,
    fault: Option<FaultPlan>,
}

impl Default for CohetSystemBuilder {
    fn default() -> Self {
        CohetSystemBuilder {
            profile: DeviceProfile::fpga_400mhz(),
            xpus: 1,
            host_mem: 256 << 20,
            xpu_mem: 256 << 20,
            expander_mem: None,
            topo: TopologySpec::SingleHome,
            fault: None,
        }
    }
}

impl CohetSystemBuilder {
    /// Selects the calibrated device profile (default: FPGA@400MHz).
    pub fn profile(mut self, p: DeviceProfile) -> Self {
        self.profile = p;
        self
    }

    /// Number of XPUs (CXL type-2 accelerators; default 1).
    pub fn xpus(mut self, n: usize) -> Self {
        assert!(n >= 1, "need at least one XPU");
        self.xpus = n;
        self
    }

    /// Host memory size in bytes.
    pub fn host_memory(mut self, bytes: u64) -> Self {
        self.host_mem = bytes;
        self
    }

    /// Per-XPU device memory size in bytes.
    pub fn xpu_memory(mut self, bytes: u64) -> Self {
        self.xpu_mem = bytes;
        self
    }

    /// Attaches a CXL Type-3 memory expander of the given size, exposed
    /// to the OS as a CPU-less NUMA node (paper §IV-B3).
    pub fn expander_memory(mut self, bytes: u64) -> Self {
        assert!(bytes > 0, "empty expander");
        self.expander_mem = Some(bytes);
        self
    }

    /// Declares the directory topology in one shot (default:
    /// [`TopologySpec::SingleHome`]). The spec states the whole layout
    /// explicitly — host-home count, stride, weights, and what an
    /// attached expander does — instead of spreading it across three
    /// knobs; see [`TopologySpec`] for the variant-by-variant expander
    /// behavior.
    ///
    /// ```
    /// use cohet::prelude::*;
    /// use cohet::TopologySpec;
    ///
    /// // Two host homes splitting the stripes 3:1, plus a 64 MB
    /// // expander that joins the stripe at a capacity-derived
    /// // auto-weight of 64 MB / (256 MB / 4) = 1.
    /// let proc = CohetSystem::builder()
    ///     .topology(TopologySpec::Weighted {
    ///         weights: vec![3, 1],
    ///         stride: 4096,
    ///     })
    ///     .expander_memory(64 << 20)
    ///     .build()
    ///     .spawn_process();
    /// assert_eq!(proc.engine().num_homes(), 3);
    /// assert_eq!(proc.engine().topology().home_weights(), vec![3, 1, 1]);
    /// ```
    ///
    /// # Panics
    ///
    /// Spawning a process or scenario panics on invalid spec parameters
    /// (see [`TopologySpec`]).
    pub fn topology(mut self, spec: TopologySpec) -> Self {
        self.topo = spec;
        self
    }

    /// Arms a deterministic [`FaultPlan`] on the coherence engine:
    /// every process or scenario this system spawns runs with the
    /// plan's timed link-degradation / slow-port / stall-port windows
    /// active (see `simcxl_coherence::fault`). Same plan + same seed →
    /// bit-identical results.
    ///
    /// ```
    /// use cohet::prelude::*;
    /// use sim_core::Tick;
    ///
    /// let plan = FaultPlan::new(7).with(
    ///     Tick::ZERO,
    ///     Tick::from_us(50),
    ///     FaultKind::LinkDegrade {
    ///         home: None,
    ///         max_retries: 3,
    ///         backoff: Tick::from_ns(60),
    ///     },
    /// );
    /// let mut proc = CohetSystem::builder()
    ///     .fault_plan(plan)
    ///     .build()
    ///     .spawn_process();
    /// let x = proc.malloc(64)?;
    /// proc.write_u64(x, 7)?;
    /// assert_eq!(proc.read_u64(x)?, 7); // slower, never wrong
    /// # Ok::<(), cohet::CohetError>(())
    /// ```
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Finishes the description.
    pub fn build(self) -> CohetSystem {
        CohetSystem {
            profile: self.profile,
            xpus: self.xpus,
            host_mem: self.host_mem,
            xpu_mem: self.xpu_mem,
            expander_mem: self.expander_mem,
            topo: self.topo,
            fault: self.fault,
        }
    }
}

impl CohetSystem {
    /// Starts building a system.
    pub fn builder() -> CohetSystemBuilder {
        CohetSystemBuilder::default()
    }

    /// Builds the physical memory fabric shared by
    /// [`spawn_process`](Self::spawn_process) and
    /// [`run_scenario`](Self::run_scenario): host memory at 0, each
    /// XPU's memory after it, then the expander.
    pub(crate) fn fabric(&self) -> Fabric {
        let mut numa = NumaTopology::new(cohet_os::PAGE_SIZE);
        let cpu_node = numa.add_node(AddrRange::new(PhysAddr::new(0), self.host_mem));
        let mut mi = MemoryInterface::new();
        mi.add_memory(
            AddrRange::new(PhysAddr::new(0), self.host_mem),
            DramConfig::preset(DramKind::Ddr5_4400),
            Tick::ZERO,
        );
        let mut xpu_nodes = Vec::new();
        let mut base = self.host_mem.next_power_of_two().max(1 << 30);
        for _ in 0..self.xpus {
            let range = AddrRange::new(PhysAddr::new(base), self.xpu_mem);
            xpu_nodes.push(numa.add_node(range));
            mi.add_memory(
                range,
                DramConfig::preset(DramKind::Ddr5_4400),
                self.profile.hmc.link.latency,
            );
            base += self.xpu_mem.next_power_of_two();
        }
        let mut expander_node = None;
        let mut expander_range = None;
        if let Some(bytes) = self.expander_mem {
            // The Type-3 expander: a CPU-less node behind the CXL.mem
            // link (the paper's Samsung device appears the same way).
            let range = AddrRange::new(PhysAddr::new(base), bytes);
            expander_node = Some(numa.add_node(range));
            expander_range = Some(range);
            let cfg = simcxl_cxl::CxlMemConfig::expander_default();
            mi.add_memory(range, cfg.dram.clone(), cfg.link_latency);
        }
        Fabric {
            numa,
            mi,
            cpu_node,
            xpu_nodes,
            expander_node,
            expander_range,
        }
    }

    /// Builds the coherence engine over an already-constructed fabric.
    pub(crate) fn build_engine(
        &self,
        mi: MemoryInterface,
        expander_range: Option<AddrRange>,
    ) -> ProtocolEngine {
        let topology = self.topo.resolve(self.host_mem, expander_range);
        let mut builder = ProtocolEngine::builder()
            .home(self.profile.home.clone())
            .memory(mi)
            .topology(topology);
        if let Some(plan) = &self.fault {
            builder = builder.fault_plan(plan.clone());
        }
        builder.build()
    }

    /// Instantiates the runtime (OS + coherence engine + devices) and
    /// spawns the single simulated process over it.
    pub fn spawn_process(&self) -> CohetProcess {
        let fabric = self.fabric();
        let mut engine = self.build_engine(fabric.mi, fabric.expander_range);
        let cpu_agent = engine.add_cache(CacheConfig::cpu_l1());
        let xpu_agents: Vec<AgentId> = (0..self.xpus)
            .map(|_| engine.add_cache(self.profile.hmc.clone()))
            .collect();
        let atcs = (0..self.xpus)
            .map(|_| Atc::new(AtcConfig::default(), IommuConfig::default()))
            .collect();
        CohetProcess {
            os: Process::new(fabric.numa),
            engine,
            cpu_agent,
            cpu_node: fabric.cpu_node,
            xpu_agents,
            xpu_nodes: fabric.xpu_nodes,
            atcs,
            clock: Tick::ZERO,
        }
    }

    /// Runs a declarative client [`scenario`] on this system: same
    /// memory fabric, directory topology, and fault plan as
    /// [`spawn_process`](Self::spawn_process),
    /// but driven batch-style by `spec.agents` cache agents multiplexing
    /// the scenario's logical client population. The key table occupies
    /// host memory from physical address 0.
    ///
    /// ```
    /// use cohet::prelude::*;
    /// use cohet::TopologySpec;
    /// use simcxl_workloads::scenario;
    ///
    /// let mut spec = scenario::ramp_then_burst(2_000, 42);
    /// let out = CohetSystem::builder()
    ///     .topology(TopologySpec::Interleaved {
    ///         homes: 2,
    ///         stride: 4096,
    ///     })
    ///     .build()
    ///     .run_scenario(&spec);
    /// assert_eq!(out.completed, 2_000);
    /// assert_eq!(out.phases.len(), 3);
    /// // Same spec, same system: bit-identical rerun.
    /// spec.name = "rerun".into();
    /// # let sys = CohetSystem::builder()
    /// #     .topology(TopologySpec::Interleaved { homes: 2, stride: 4096 })
    /// #     .build();
    /// # assert_eq!(sys.run_scenario(&spec).checksum, out.checksum);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics on an invalid spec, or if the spec's hash table does not
    /// fit in host memory.
    pub fn run_scenario(&self, spec: &ScenarioSpec) -> ScenarioOutcome {
        let fabric = self.fabric();
        let mut engine = self.build_engine(fabric.mi, fabric.expander_range);
        assert!(
            spec.buckets * 64 <= self.host_mem,
            "scenario table ({} buckets) exceeds host memory",
            spec.buckets
        );
        let agents: Vec<AgentId> = (0..spec.agents)
            .map(|_| engine.add_cache(CacheConfig::cpu_l1()))
            .collect();
        scenario::run(spec, &mut engine, &agents, PhysAddr::new(0))
    }
}

/// The physical memory map [`CohetSystem::fabric`] produces.
pub(crate) struct Fabric {
    pub(crate) numa: NumaTopology,
    pub(crate) mi: MemoryInterface,
    pub(crate) cpu_node: NodeId,
    pub(crate) xpu_nodes: Vec<NodeId>,
    pub(crate) expander_node: Option<NodeId>,
    pub(crate) expander_range: Option<AddrRange>,
}

/// Kernel-side memory context handed to XPU kernels: coherent
/// loads/stores on the *same* virtual addresses the CPU uses.
pub struct KernelCtx<'a> {
    proc: &'a mut CohetProcess,
    xpu: usize,
}

impl KernelCtx<'_> {
    /// Coherent 8-byte load from a virtual address.
    ///
    /// # Errors
    ///
    /// Any [`CohetError`] the access raises (fault handling included).
    pub fn load(&mut self, va: VirtAddr) -> Result<u64, CohetError> {
        self.proc.xpu_access(self.xpu, va, MemOp::Load)
    }

    /// Coherent 8-byte store.
    ///
    /// # Errors
    ///
    /// Any [`CohetError`] the access raises.
    pub fn store(&mut self, va: VirtAddr, value: u64) -> Result<(), CohetError> {
        self.proc.xpu_access(self.xpu, va, MemOp::Store { value })?;
        Ok(())
    }

    /// Atomic fetch-add on shared memory (decentralized
    /// synchronization, paper §III-B S3).
    ///
    /// # Errors
    ///
    /// Any [`CohetError`] the access raises.
    pub fn fetch_add(&mut self, va: VirtAddr, delta: u64) -> Result<u64, CohetError> {
        self.proc.xpu_access(
            self.xpu,
            va,
            MemOp::Rmw {
                kind: AtomicKind::FetchAdd,
                operand: delta,
                operand2: 0,
            },
        )
    }
}

/// A running Cohet process: one unified page table shared by CPU and
/// XPU threads, standard `malloc`, coherent access everywhere.
pub struct CohetProcess {
    os: Process,
    engine: ProtocolEngine,
    cpu_agent: AgentId,
    cpu_node: NodeId,
    xpu_agents: Vec<AgentId>,
    xpu_nodes: Vec<NodeId>,
    atcs: Vec<Atc>,
    clock: Tick,
}

impl CohetProcess {
    /// Standard `malloc`: reserves virtual space; physical frames appear
    /// on first touch on the toucher's NUMA node.
    ///
    /// # Errors
    ///
    /// Propagates OS allocation errors.
    pub fn malloc(&mut self, len: u64) -> Result<VirtAddr, CohetError> {
        Ok(self.os.malloc(len)?)
    }

    /// Standard `free`.
    ///
    /// # Errors
    ///
    /// [`CohetError::Os`] on an invalid pointer.
    pub fn free(&mut self, ptr: VirtAddr) -> Result<(), CohetError> {
        Ok(self.os.free(ptr)?)
    }

    /// CPU 8-byte store through the coherent hierarchy.
    ///
    /// # Errors
    ///
    /// Any [`CohetError`] the access raises.
    pub fn write_u64(&mut self, va: VirtAddr, value: u64) -> Result<(), CohetError> {
        self.cpu_access(va, MemOp::Store { value })?;
        Ok(())
    }

    /// CPU 8-byte load.
    ///
    /// # Errors
    ///
    /// Any [`CohetError`] the access raises.
    pub fn read_u64(&mut self, va: VirtAddr) -> Result<u64, CohetError> {
        self.cpu_access(va, MemOp::Load)
    }

    /// CPU atomic fetch-add; returns the previous value.
    ///
    /// # Errors
    ///
    /// Any [`CohetError`] the access raises.
    pub fn fetch_add(&mut self, va: VirtAddr, delta: u64) -> Result<u64, CohetError> {
        self.cpu_access(
            va,
            MemOp::Rmw {
                kind: AtomicKind::FetchAdd,
                operand: delta,
                operand2: 0,
            },
        )
    }

    /// Launches `kernel` on XPU `xpu` over `work_items` items and waits
    /// for completion (`clEnqueueNDRangeKernel` + `clFinish` in Fig. 4c).
    ///
    /// # Errors
    ///
    /// [`CohetError::NoSuchXpu`] or any error the kernel returns.
    pub fn launch_kernel(
        &mut self,
        xpu: usize,
        work_items: u64,
        kernel: impl Fn(&mut KernelCtx<'_>, u64) -> Result<(), CohetError>,
    ) -> Result<(), CohetError> {
        if xpu >= self.xpu_agents.len() {
            return Err(CohetError::NoSuchXpu(xpu));
        }
        for i in 0..work_items {
            let mut ctx = KernelCtx { proc: self, xpu };
            kernel(&mut ctx, i)?;
        }
        Ok(())
    }

    /// Elapsed simulated time.
    pub fn elapsed(&self) -> Tick {
        self.clock.max(self.engine.now())
    }

    /// OS-level statistics (faults etc.).
    pub fn os_stats(&self) -> cohet_os::process::ProcessStats {
        self.os.stats()
    }

    /// XPU ATC statistics.
    ///
    /// # Panics
    ///
    /// Panics if `xpu` is out of range.
    pub fn atc_stats(&self, xpu: usize) -> (u64, u64) {
        (self.atcs[xpu].hits(), self.atcs[xpu].misses())
    }

    /// The underlying protocol engine (inspection).
    pub fn engine(&self) -> &ProtocolEngine {
        &self.engine
    }

    fn cpu_access(&mut self, va: VirtAddr, op: MemOp) -> Result<u64, CohetError> {
        let kind = access_kind(op);
        let r = self.os.access(Accessor::Cpu(self.cpu_node), va, kind)?;
        Ok(self.issue(self.cpu_agent, op, r.pa))
    }

    fn xpu_access(&mut self, xpu: usize, va: VirtAddr, op: MemOp) -> Result<u64, CohetError> {
        let kind = access_kind(op);
        // Device-side translation: ATC first, IOMMU walk + (if needed)
        // fault on miss.
        let node = self.xpu_nodes[xpu];
        let page = va.page(cohet_os::PAGE_SIZE);
        let resolved = self.os.access(Accessor::Xpu(node), va, kind)?;
        let now = self.clock.max(self.engine.now());
        let (_, t_done) = self.atcs[xpu].translate(now, page.raw(), |_vpn| {
            resolved.pa.page(cohet_os::PAGE_SIZE).raw()
        });
        self.clock = t_done;
        Ok(self.issue(self.xpu_agents[xpu], op, resolved.pa))
    }

    fn issue(&mut self, agent: AgentId, op: MemOp, pa: PhysAddr) -> u64 {
        let at = self.clock.max(self.engine.now());
        let req = self.engine.issue(agent, op, pa, at);
        let done = self.engine.run_to_quiescence();
        let c = done
            .into_iter()
            .find(|c| c.req == req)
            .expect("request completed");
        self.clock = c.done;
        c.value
    }
}

impl fmt::Debug for CohetProcess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CohetProcess")
            .field("xpus", &self.xpu_agents.len())
            .field("elapsed", &self.elapsed())
            .field("os", &self.os)
            .finish()
    }
}

fn access_kind(op: MemOp) -> AccessKind {
    if op.needs_ownership() || matches!(op, MemOp::NcPush { .. }) {
        AccessKind::Write
    } else {
        AccessKind::Read
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proc() -> CohetProcess {
        CohetSystem::builder().build().spawn_process()
    }

    #[test]
    fn malloc_write_read_round_trip() {
        let mut p = proc();
        let ptr = p.malloc(4096).unwrap();
        p.write_u64(ptr, 0xdead).unwrap();
        assert_eq!(p.read_u64(ptr).unwrap(), 0xdead);
        assert_eq!(p.os_stats().minor_faults, 1);
        p.free(ptr).unwrap();
    }

    #[test]
    fn cpu_and_xpu_share_pointers() {
        let mut p = proc();
        let ptr = p.malloc(64).unwrap();
        p.write_u64(ptr, 41).unwrap();
        // XPU increments through the same virtual address.
        p.launch_kernel(0, 1, move |ctx, _| {
            let v = ctx.load(ptr)?;
            ctx.store(ptr, v + 1)
        })
        .unwrap();
        assert_eq!(p.read_u64(ptr).unwrap(), 42);
    }

    #[test]
    fn xpu_first_touch_lands_on_xpu_node() {
        let mut p = proc();
        let ptr = p.malloc(4096).unwrap();
        p.launch_kernel(0, 1, move |ctx, _| ctx.store(ptr, 5))
            .unwrap();
        // The frame must live on the XPU node (node 1).
        let pa = p.os.translate(ptr).unwrap();
        assert!(pa.raw() >= 1 << 30, "frame {pa} not in XPU memory");
        // And the CPU can read it coherently.
        assert_eq!(p.read_u64(ptr).unwrap(), 5);
    }

    #[test]
    fn atomics_are_coherent_across_pools() {
        let mut p = proc();
        let ctr = p.malloc(8).unwrap();
        p.write_u64(ctr, 0).unwrap();
        for _ in 0..10 {
            p.fetch_add(ctr, 1).unwrap();
            p.launch_kernel(0, 1, move |ctx, _| {
                ctx.fetch_add(ctr, 1)?;
                Ok(())
            })
            .unwrap();
        }
        assert_eq!(p.read_u64(ctr).unwrap(), 20);
    }

    #[test]
    fn atc_caches_translations() {
        let mut p = proc();
        let ptr = p.malloc(4096).unwrap();
        p.launch_kernel(0, 16, move |ctx, i| ctx.store(ptr + i * 8, i))
            .unwrap();
        let (hits, misses) = p.atc_stats(0);
        assert_eq!(misses, 1, "one walk for the page");
        assert_eq!(hits, 15);
    }

    #[test]
    fn expander_extends_capacity() {
        // Tiny host memory + an expander: spills land on the expander.
        let mut p = CohetSystem::builder()
            .host_memory(64 * 1024)
            .xpu_memory(64 * 1024)
            .expander_memory(8 << 20)
            .build()
            .spawn_process();
        // Fill host + XPU memory (32 frames), then keep going: spills
        // land on the CPU-less expander node.
        let buf = p.malloc(64 << 20).unwrap();
        for i in 0..64u64 {
            p.write_u64(buf + i * 4096, i).unwrap();
        }
        assert!(
            p.os_stats().minor_faults == 64,
            "every page faulted exactly once"
        );
        for i in 0..64u64 {
            assert_eq!(p.read_u64(buf + i * 4096).unwrap(), i);
        }
    }

    #[test]
    fn multihome_system_stays_coherent() {
        let mut p = CohetSystem::builder()
            .topology(TopologySpec::Interleaved {
                homes: 2,
                stride: 4096,
            })
            .build()
            .spawn_process();
        assert_eq!(p.engine().num_homes(), 2);
        let buf = p.malloc(16 * 4096).unwrap();
        // Touch pages that land on both homes and read them back
        // coherently from CPU and XPU sides.
        for i in 0..16u64 {
            p.write_u64(buf + i * 4096, i).unwrap();
        }
        p.launch_kernel(0, 16, move |ctx, i| {
            let v = ctx.load(buf + i * 4096)?;
            ctx.store(buf + i * 4096, v * 10)
        })
        .unwrap();
        for i in 0..16u64 {
            assert_eq!(p.read_u64(buf + i * 4096).unwrap(), i * 10);
        }
        // Both host homes must have seen directory traffic.
        let view = p.engine().home_stats_view();
        let (s0, s1) = (view.get(HomeId(0)).unwrap(), view.get(HomeId(1)).unwrap());
        assert!(s0.requests > 0 && s1.requests > 0, "{s0:?} vs {s1:?}");
        p.engine().verify_invariants();
    }

    #[test]
    fn expander_gets_its_own_home_node() {
        let mut p = CohetSystem::builder()
            .topology(TopologySpec::Interleaved {
                homes: 2,
                stride: cohet_os::PAGE_SIZE,
            })
            .expander_memory(8 << 20)
            .build()
            .spawn_process();
        // Two host homes + one expander home.
        assert_eq!(p.engine().num_homes(), 3);
        let buf = p.malloc(4096).unwrap();
        p.write_u64(buf, 77).unwrap();
        // Migrate the page onto the expander (NUMA node 2, after the CPU
        // and the one XPU): subsequent accesses are homed at the
        // expander's own agent.
        let cost = cohet_os::migration::MigrationCost::default();
        cohet_os::migration::migrate_page(&mut p.os, buf, NodeId(2), cost).unwrap();
        p.write_u64(buf, 78).unwrap();
        assert_eq!(p.read_u64(buf).unwrap(), 78);
        let pa = p.os.translate(buf).unwrap();
        assert_eq!(p.engine().topology().home_for(pa), HomeId(2));
        assert!(
            p.engine()
                .home_stats_view()
                .get(HomeId(2))
                .unwrap()
                .requests
                > 0
        );
        p.engine().verify_invariants();
    }

    #[test]
    fn single_home_with_expander_keeps_legacy_shape() {
        let p = CohetSystem::builder()
            .expander_memory(8 << 20)
            .build()
            .spawn_process();
        assert_eq!(p.engine().num_homes(), 1);
    }

    #[test]
    fn kernel_on_missing_xpu_fails() {
        let mut p = proc();
        let e = p.launch_kernel(5, 1, |_, _| Ok(())).unwrap_err();
        assert_eq!(e, CohetError::NoSuchXpu(5));
    }

    #[test]
    fn segfault_propagates() {
        let mut p = proc();
        let e = p.read_u64(VirtAddr::new(0x10)).unwrap_err();
        assert!(matches!(e, CohetError::Os(OsError::Segfault(_))));
    }

    #[test]
    fn weighted_homes_stripe_proportionally() {
        let p = CohetSystem::builder()
            .topology(TopologySpec::Weighted {
                weights: vec![3, 1],
                stride: cohet_os::PAGE_SIZE,
            })
            .build()
            .spawn_process();
        let topo = p.engine().topology();
        assert_eq!(p.engine().num_homes(), 2);
        assert_eq!(topo.home_weights(), vec![3, 1]);
    }

    #[test]
    fn weighted_expander_auto_weight_tracks_capacity() {
        // 256 MB host split 1:1 over two homes (128 MB per weight unit);
        // a 128 MB expander should auto-weight to exactly 1 unit and a
        // 512 MB one to 4.
        let spec = TopologySpec::Weighted {
            weights: vec![1, 1],
            stride: cohet_os::PAGE_SIZE,
        };
        let small = CohetSystem::builder()
            .topology(spec.clone())
            .host_memory(256 << 20)
            .expander_memory(128 << 20)
            .build()
            .spawn_process();
        assert_eq!(small.engine().topology().home_weights(), vec![1, 1, 1]);
        let big = CohetSystem::builder()
            .topology(spec)
            .host_memory(256 << 20)
            .expander_memory(512 << 20)
            .build()
            .spawn_process();
        assert_eq!(big.engine().topology().home_weights(), vec![1, 1, 4]);
    }

    #[test]
    fn capacity_weighted_spec_derives_weights_from_pools() {
        let p = CohetSystem::builder()
            .topology(TopologySpec::CapacityWeighted {
                stride: cohet_os::PAGE_SIZE,
            })
            .host_memory(256 << 20)
            .expander_memory(128 << 20)
            .build()
            .spawn_process();
        assert_eq!(p.engine().num_homes(), 2);
        assert_eq!(p.engine().topology().home_weights(), vec![2, 1]);
        // Without an expander there is only one pool: single home.
        let solo = CohetSystem::builder()
            .topology(TopologySpec::CapacityWeighted {
                stride: cohet_os::PAGE_SIZE,
            })
            .build()
            .spawn_process();
        assert_eq!(solo.engine().num_homes(), 1);
    }

    #[test]
    fn time_advances_monotonically() {
        let mut p = proc();
        let ptr = p.malloc(64).unwrap();
        let t0 = p.elapsed();
        p.write_u64(ptr, 1).unwrap();
        let t1 = p.elapsed();
        p.read_u64(ptr).unwrap();
        let t2 = p.elapsed();
        assert!(t0 < t1 && t1 < t2);
    }
}
