//! The whole-GPU engine.
//!
//! [`Gpu`] owns the SMs, the clock domain, the two NoC subnets, the
//! memory system, and the block scheduler, and advances them in lockstep
//! one core cycle at a time. Kernels are launched into streams
//! (cudaStream-style multiprogramming, §2.1): kernels in the same stream
//! serialise, kernels in different streams run concurrently — which is
//! how the trojan and the spy co-exist on the GPU.

use crate::block_sched::PlacementPolicy;
use crate::clock::ClockDomain;
use crate::kernel::{KernelProgram, Recorder};
use crate::sm::Sm;
use gnc_common::hash::FastHashMap;
use gnc_common::ids::{BlockId, KernelId, SmId, StreamId};
use gnc_common::telemetry::{NullProbe, Probe};
use gnc_common::{ConfigError, Cycle, GpuConfig};
use gnc_mem::subsystem::MemorySubsystem;
use gnc_noc::event::{ComponentId, EventCalendar, NextEvent, Wake};
use gnc_noc::fabric::{ReplyFabric, RequestFabric};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// GPUs constructed process-wide (the bench harness's trial counter).
static GPUS_BUILT: AtomicU64 = AtomicU64::new(0);

/// In-place [`Gpu::reset`]s performed process-wide. Together with
/// [`GPUS_BUILT`] this accounts for every trial: pooled trials reset,
/// unpooled (or shape-mismatched) trials build.
static GPUS_RESET: AtomicU64 = AtomicU64::new(0);

/// Total GPU instances constructed by this process so far. Each
/// experiment trial needs a post-construction machine, so builds plus
/// [`gpus_reset`] resets form a trial counter for throughput reporting.
pub fn gpus_built() -> u64 {
    GPUS_BUILT.load(Ordering::Relaxed)
}

/// Total in-place [`Gpu::reset`] calls so far (trials that reused a
/// pooled machine instead of constructing one).
pub fn gpus_reset() -> u64 {
    GPUS_RESET.load(Ordering::Relaxed)
}

/// [`EventCalendar`] component ids used by the engine. The lifecycle,
/// the two subnets, and the memory system are coarse components; every
/// SM schedules individually (replies wake exactly one SM, and in a
/// memory-bound phase most SMs sleep in `WaitMem` with nothing to do).
const LIFECYCLE: ComponentId = 0;
const REQ_FABRIC: ComponentId = 1;
const REPLY_FABRIC: ComponentId = 2;
const MEM: ComponentId = 3;
const SM_BASE: ComponentId = 4;

/// Why a run loop stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// Everything launched has finished and the fabrics are drained.
    Idle {
        /// Cycle at which the GPU went idle.
        at: Cycle,
    },
    /// The cycle budget was exhausted first.
    Timeout {
        /// Cycle at which the run gave up.
        at: Cycle,
    },
}

impl RunOutcome {
    /// The cycle the loop stopped at.
    pub fn cycle(self) -> Cycle {
        match self {
            RunOutcome::Idle { at } | RunOutcome::Timeout { at } => at,
        }
    }

    /// Whether the GPU reached idle.
    pub fn is_idle(self) -> bool {
        matches!(self, RunOutcome::Idle { .. })
    }
}

/// Lifetime bookkeeping of one launched kernel.
struct KernelState {
    program: Box<dyn KernelProgram>,
    stream: StreamId,
    started: bool,
    pending_blocks: VecDeque<BlockId>,
    active_blocks: usize,
    finished_blocks: usize,
    start_cycle: Option<Cycle>,
    end_cycle: Option<Cycle>,
    block_spans: Vec<BlockSpan>,
    /// `block → index into block_spans`, so retirement does not scan the
    /// span list (blocks are placed at most once per kernel).
    span_index: FastHashMap<BlockId, usize>,
}

/// Placement and lifetime of one thread block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSpan {
    /// The block.
    pub block: BlockId,
    /// SM it ran on.
    pub sm: SmId,
    /// Cycle it was placed.
    pub placed_at: Cycle,
    /// Cycle it finished, if it has.
    pub finished_at: Option<Cycle>,
}

/// The simulated GPU.
///
/// The probe parameter `P` selects the telemetry sink. The default
/// [`NullProbe`] compiles every hook to a no-op (`P::ENABLED` is a
/// `const false`, so even the hooks' argument construction folds away);
/// [`with_probe`](Gpu::with_probe) swaps in a live collector such as
/// [`gnc_common::telemetry::Collector`].
pub struct Gpu<P: Probe = NullProbe> {
    cfg: GpuConfig,
    clock: ClockDomain,
    sms: Vec<Sm>,
    request_fabric: RequestFabric,
    reply_fabric: ReplyFabric,
    mem: MemorySubsystem,
    policy: PlacementPolicy,
    kernels: Vec<KernelState>,
    recorder: Recorder,
    now: Cycle,
    fault: Option<std::sync::Arc<gnc_common::fault::FaultPlan>>,
    /// Selects the never-park reference drive (see
    /// [`set_never_park`](Self::set_never_park)).
    #[cfg(any(test, feature = "reference"))]
    never_park: bool,
    /// Indices of SMs with resident blocks, rebuilt on placement and
    /// retirement. A block stays resident until every request it issued
    /// has drained, so this list bounds which SMs can tick to an effect
    /// or receive replies.
    active_sms: Vec<usize>,
    /// Scratch list of SMs ticked in the current cycle (reused across
    /// cycles to avoid per-cycle allocation); only these SMs can hold
    /// newly finished blocks, so retirement scans just them.
    ticked_sms: Vec<usize>,
    /// The run loop's event calendar, owned by the machine so repeated
    /// runs reuse one allocation instead of rebuilding it per run.
    run_cal: EventCalendar,
    probe: P,
}

impl<P: Probe> fmt::Debug for Gpu<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Gpu")
            .field("config", &self.cfg.name)
            .field("now", &self.now)
            .field("kernels", &self.kernels.len())
            .finish_non_exhaustive()
    }
}

impl Gpu {
    /// Builds a GPU from `cfg` with clock seed 0.
    ///
    /// # Errors
    ///
    /// Returns the validation error when `cfg` is inconsistent.
    pub fn new(cfg: GpuConfig) -> Result<Self, ConfigError> {
        Self::with_clock_seed(cfg, 0)
    }

    /// Builds a GPU with an explicit clock-domain seed (distinct seeds
    /// model distinct boot epochs; Fig 6 is one such draw).
    ///
    /// # Errors
    ///
    /// Returns the validation error when `cfg` is inconsistent.
    pub fn with_clock_seed(cfg: GpuConfig, clock_seed: u64) -> Result<Self, ConfigError> {
        cfg.validate()?;
        GPUS_BUILT.fetch_add(1, Ordering::Relaxed);
        let clock = ClockDomain::new(&cfg, clock_seed);
        let sms: Vec<Sm> = (0..cfg.num_sms())
            .map(|s| Sm::new(SmId::new(s), &cfg))
            .collect();
        let run_cal = EventCalendar::new(SM_BASE as usize + sms.len());
        let request_fabric = RequestFabric::new(&cfg);
        let reply_fabric = ReplyFabric::new(&cfg);
        let mem = MemorySubsystem::new(&cfg);
        let policy = PlacementPolicy::new(&cfg);
        Ok(Self {
            cfg,
            clock,
            sms,
            request_fabric,
            reply_fabric,
            mem,
            policy,
            kernels: Vec::new(),
            recorder: Recorder::new(),
            now: 0,
            fault: None,
            #[cfg(any(test, feature = "reference"))]
            never_park: false,
            active_sms: Vec::new(),
            ticked_sms: Vec::new(),
            run_cal,
            probe: NullProbe,
        })
    }

    /// Builds a GPU with a fault-injection plan wired into every
    /// fault-capable subsystem: the NoC muxes of both subnets
    /// (background-traffic bursts), the clock domain (drift and
    /// glitches), the measurement path (sample jitter / drop /
    /// duplication), and the L2 slices (hot-spot stalls).
    ///
    /// The plan is seeded and order-independent, so two GPUs built with
    /// the same configuration, seeds, and workload behave bit-identically.
    ///
    /// # Errors
    ///
    /// Returns the validation error when `cfg` is inconsistent.
    pub fn with_faults(
        cfg: GpuConfig,
        clock_seed: u64,
        plan: std::sync::Arc<gnc_common::fault::FaultPlan>,
    ) -> Result<Self, ConfigError> {
        let mut gpu = Self::with_clock_seed(cfg, clock_seed)?;
        gpu.clock.set_fault_plan(std::sync::Arc::clone(&plan));
        gpu.request_fabric.set_fault_plan(&plan);
        gpu.reply_fabric.set_fault_plan(&plan);
        gpu.mem.set_fault_plan(&plan);
        gpu.recorder.set_fault_plan(std::sync::Arc::clone(&plan));
        gpu.fault = Some(plan);
        Ok(gpu)
    }
}

impl<P: Probe> Gpu<P> {
    /// Rebuilds this GPU with `probe` as its telemetry sink, preserving
    /// all simulation state. Typically called right after construction:
    /// `Gpu::new(cfg)?.with_probe(Collector::for_config(&cfg))`.
    pub fn with_probe<Q: Probe>(self, probe: Q) -> Gpu<Q> {
        Gpu {
            cfg: self.cfg,
            clock: self.clock,
            sms: self.sms,
            request_fabric: self.request_fabric,
            reply_fabric: self.reply_fabric,
            mem: self.mem,
            policy: self.policy,
            kernels: self.kernels,
            recorder: self.recorder,
            now: self.now,
            fault: self.fault,
            #[cfg(any(test, feature = "reference"))]
            never_park: self.never_park,
            active_sms: self.active_sms,
            ticked_sms: self.ticked_sms,
            run_cal: self.run_cal,
            probe,
        }
    }

    /// The attached telemetry probe.
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// Mutable access to the telemetry probe (e.g. to finalise or drain
    /// a collector between experiment phases).
    pub fn probe_mut(&mut self) -> &mut P {
        &mut self.probe
    }

    /// Consumes the GPU and returns its probe (to harvest a collector
    /// after a run).
    pub fn into_probe(self) -> P {
        self.probe
    }

    /// The fault plan wired into this GPU, if any.
    pub fn fault_plan(&self) -> Option<&std::sync::Arc<gnc_common::fault::FaultPlan>> {
        self.fault.as_ref()
    }

    /// Restores this machine to the state [`Gpu::with_clock_seed`] would
    /// have produced for `(same config, clock_seed)` — in place, reusing
    /// every allocation (SM queues, fabric arenas, L2 sets, MSHR maps,
    /// calendars). Clears kernels, records, and all in-flight state;
    /// redraws the clock epochs from `clock_seed`; and detaches any
    /// fault plan (and, in test builds, the never-park reference drive),
    /// exactly as a fresh build does. The telemetry probe is **not**
    /// touched — callers pooling probed machines reset or harvest it
    /// themselves.
    ///
    /// A reset machine is observationally identical to a fresh one: the
    /// `reset_reuse_is_bit_identical_to_fresh_build` fidelity test pins
    /// byte-identical traces, records, and stats.
    pub fn reset(&mut self, clock_seed: u64) {
        GPUS_RESET.fetch_add(1, Ordering::Relaxed);
        self.clock.reset(&self.cfg, clock_seed);
        for sm in &mut self.sms {
            sm.reset();
        }
        self.request_fabric.reset();
        self.reply_fabric.reset();
        self.mem.reset();
        self.kernels.clear();
        self.recorder.reset();
        self.now = 0;
        self.fault = None;
        #[cfg(any(test, feature = "reference"))]
        {
            self.never_park = false;
        }
        self.active_sms.clear();
        self.ticked_sms.clear();
        self.run_cal.reset();
    }

    /// [`reset`](Self::reset) followed by wiring `plan` into every
    /// fault-capable subsystem — the in-place counterpart of
    /// [`Gpu::with_faults`].
    pub fn reset_with_faults(
        &mut self,
        clock_seed: u64,
        plan: std::sync::Arc<gnc_common::fault::FaultPlan>,
    ) {
        self.reset(clock_seed);
        self.clock.set_fault_plan(std::sync::Arc::clone(&plan));
        self.request_fabric.set_fault_plan(&plan);
        self.reply_fabric.set_fault_plan(&plan);
        self.mem.set_fault_plan(&plan);
        self.recorder.set_fault_plan(std::sync::Arc::clone(&plan));
        self.fault = Some(plan);
    }

    /// The configuration this GPU was built from.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Number of SMs.
    pub fn num_sms(&self) -> usize {
        self.sms.len()
    }

    /// Current simulation cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The clock domain (for analysis; programs read it via the context).
    pub fn clock(&self) -> &ClockDomain {
        &self.clock
    }

    /// The instrumentation records collected so far.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Clears collected records (between experiment phases).
    pub fn clear_records(&mut self) {
        self.recorder.clear();
    }

    /// Warms `lines` cache lines starting at `base` into L2, as the
    /// paper's kernels do before timing anything (§4.2).
    pub fn preload_range(&mut self, base: u64, lines: u64) {
        self.mem.preload_range(base, lines);
    }

    /// Read access to the memory system (stats, residency checks).
    pub fn memory(&self) -> &MemorySubsystem {
        &self.mem
    }

    /// Read access to the request fabric (utilisation stats).
    pub fn request_fabric(&self) -> &RequestFabric {
        &self.request_fabric
    }

    /// Packets injected by `sm` so far.
    pub fn injected_packets(&self, sm: SmId) -> u64 {
        self.sms[sm.index()].injected_packets()
    }

    /// Launches `kernel` into `stream`; kernels in one stream serialise,
    /// kernels in different streams run concurrently.
    pub fn launch(&mut self, kernel: Box<dyn KernelProgram>, stream: StreamId) -> KernelId {
        let id = KernelId::new(self.kernels.len());
        let pending = (0..kernel.num_blocks()).map(BlockId::new).collect();
        self.kernels.push(KernelState {
            program: kernel,
            stream,
            started: false,
            pending_blocks: pending,
            active_blocks: 0,
            finished_blocks: 0,
            start_cycle: None,
            end_cycle: None,
            block_spans: Vec::new(),
            span_index: FastHashMap::default(),
        });
        id
    }

    /// Drives this machine by the never-park reference policy: before
    /// every cycle the run calendar is seeded afresh, exactly as a run
    /// of one cycle starts (the lifecycle, each subnet with packets in
    /// flight and every SM with resident blocks busy), so no component
    /// stays parked and no cycle is jumped. The fidelity tests compare
    /// the calendar engine against it. Compiled only for tests and
    /// under the `reference` feature.
    #[cfg(any(test, feature = "reference"))]
    pub fn set_never_park(&mut self, on: bool) {
        self.never_park = on;
    }

    /// Whether `kernel` has completed all blocks.
    pub fn kernel_finished(&self, kernel: KernelId) -> bool {
        self.kernels[kernel.index()].end_cycle.is_some()
    }

    /// `(start, end)` cycles of `kernel`: start = first block placed,
    /// end = last block finished. `None` until started / finished.
    pub fn kernel_span(&self, kernel: KernelId) -> (Option<Cycle>, Option<Cycle>) {
        let k = &self.kernels[kernel.index()];
        (k.start_cycle, k.end_cycle)
    }

    /// Placement and lifetime of each block of `kernel`, in placement
    /// order.
    pub fn block_spans(&self, kernel: KernelId) -> &[BlockSpan] {
        &self.kernels[kernel.index()].block_spans
    }

    fn start_eligible_kernels(&mut self) {
        for i in 0..self.kernels.len() {
            if self.kernels[i].started {
                continue;
            }
            let stream = self.kernels[i].stream;
            let blocked = self.kernels[..i]
                .iter()
                .any(|k| k.stream == stream && k.end_cycle.is_none());
            if !blocked {
                self.kernels[i].started = true;
            }
        }
    }

    /// Whether `sm` can take a block of the kernel running in `stream`
    /// under the configured scheduler policy.
    fn sm_has_room(&self, sm: SmId, stream: StreamId) -> bool {
        if self.sms[sm.index()].resident_blocks() >= self.cfg.max_blocks_per_sm {
            return false;
        }
        match self.cfg.scheduler {
            gnc_common::config::SchedulerPolicy::PaperInterleaved => true,
            gnc_common::config::SchedulerPolicy::StreamIsolated => {
                // §6 partitioning: no TPC may host blocks of two streams.
                let tpc = self.cfg.tpc_of_sm(sm);
                self.cfg.sms_of_tpc(tpc).iter().all(|&other| {
                    self.sms[other.index()]
                        .resident_kernels()
                        .all(|k| self.kernels[k.index()].stream == stream)
                })
            }
        }
    }

    fn rebuild_active_sms(&mut self) {
        self.active_sms.clear();
        self.active_sms.extend(
            self.sms
                .iter()
                .enumerate()
                .filter(|(_, sm)| sm.resident_blocks() > 0)
                .map(|(i, _)| i),
        );
    }

    /// Greedily places pending blocks; returns whether any block was
    /// placed (the active-SM list was rebuilt).
    fn place_blocks(&mut self) -> bool {
        let mut placed = false;
        // Launch-order priority, §4.3 SM visitation order, capacity from
        // the config. Placement is greedy each cycle.
        for ki in 0..self.kernels.len() {
            if !self.kernels[ki].started {
                continue;
            }
            let stream = self.kernels[ki].stream;
            while !self.kernels[ki].pending_blocks.is_empty() {
                let Some(sm) = self.policy.next_free(|sm| self.sm_has_room(sm, stream)) else {
                    break; // no SM fits this kernel; try the next kernel
                };
                let block = self.kernels[ki]
                    .pending_blocks
                    .pop_front()
                    .expect("nonempty checked");
                let kernel_id = KernelId::new(ki);
                let warps = (0..self.kernels[ki].program.warps_per_block())
                    .map(|w| {
                        self.kernels[ki]
                            .program
                            .create_warp(block, gnc_common::ids::WarpId::new(w))
                    })
                    .collect();
                self.sms[sm.index()].place_block(kernel_id, block, warps);
                placed = true;
                let k = &mut self.kernels[ki];
                k.active_blocks += 1;
                k.start_cycle.get_or_insert(self.now);
                k.span_index.insert(block, k.block_spans.len());
                k.block_spans.push(BlockSpan {
                    block,
                    sm,
                    placed_at: self.now,
                    finished_at: None,
                });
            }
        }
        if placed {
            self.rebuild_active_sms();
        }
        placed
    }

    /// Collects finished blocks from the SMs ticked this cycle into the
    /// kernel ledgers; returns whether any block retired (kernel
    /// lifecycles may have advanced and the active-SM list was rebuilt).
    /// A block's done-ness changes only while its SM executes (every
    /// reply delivery also wakes the SM into the same cycle's execute
    /// phase), so un-ticked SMs hold no newly finished blocks.
    fn retire_blocks(&mut self) -> bool {
        let mut retired = false;
        for &sm_idx in &self.ticked_sms {
            for (kernel, block) in self.sms[sm_idx].take_finished_blocks() {
                retired = true;
                let k = &mut self.kernels[kernel.index()];
                k.active_blocks -= 1;
                k.finished_blocks += 1;
                if let Some(span) = k
                    .span_index
                    .get(&block)
                    .map(|&i| &mut k.block_spans[i])
                    .filter(|s| s.finished_at.is_none())
                {
                    span.finished_at = Some(self.now);
                }
                if k.finished_blocks == k.program.num_blocks() {
                    k.end_cycle = Some(self.now);
                }
            }
        }
        if retired {
            self.rebuild_active_sms();
        }
        retired
    }

    /// Advances the GPU one core cycle. The phases run in a fixed order
    /// — kernel lifecycle (start, placement), reply delivery, SM
    /// execute, request subnet (and arrivals into L2), memory, reply
    /// drain into the reply subnet, reply subnet, block retirement —
    /// and each runs only when its component is due in `cal`. Due-ness
    /// is maintained by pushes:
    ///
    /// * **Processing-time reschedules.** Every due component is
    ///   rescheduled from its fresh [`NextEvent`] report after its
    ///   phase, even when the phase's work gate (an in-flight counter)
    ///   was false.
    /// * **Same-cycle handoffs.** A phase that hands work to a *later*
    ///   phase of the same cycle marks the receiver due before its
    ///   due-check runs: placement and delivery wake SMs, an SM
    ///   injecting grows the request fabric's in-flight counter, the
    ///   reply drain grows the reply fabric's.
    /// * **Cross-cycle notifies.** A phase that hands work *backwards*
    ///   — retirement freeing SM room or ending a stream predecessor —
    ///   marks the receiver (the lifecycle) busy for the next cycle.
    ///
    /// Every skipped phase is provably a no-op — the component's own
    /// claim, which the conservation asserts check and the
    /// `simulator_fidelity` equality tests pin against the never-park
    /// reference (this same step with everything re-seeded busy before
    /// every cycle, see `set_never_park`). Fault injection needs no
    /// global override: fault decisions are pure functions of
    /// `(seed, site, window)`, components with pending work report
    /// `Busy` (re-evaluating their draws every cycle), and clock-wait
    /// wake estimates are clamped to [`ClockDomain::stable_until`].
    fn step(&mut self, cal: &mut EventCalendar) {
        let now = self.now;
        // Promote arrived wake-ups into the busy set once: for the rest
        // of the cycle "due" and "busy" coincide, so the phases below
        // read busy bits instead of comparing schedules.
        cal.promote_due(now);
        // 0. Kernel lifecycle. Placement can only make progress when
        // launch()/retirement re-wakes it: an unstarted kernel becomes
        // eligible when its stream predecessor retires its last block,
        // and a placement-blocked block fits only after a retire frees
        // SM room. So after one greedy pass the lifecycle sleeps.
        if cal.is_due(LIFECYCLE, now) {
            self.start_eligible_kernels();
            if self.place_blocks() {
                // Newly placed blocks execute this very cycle; the
                // active list was just rebuilt, so wake every member.
                for &sm_idx in &self.active_sms {
                    cal.make_busy(SM_BASE + sm_idx as ComponentId);
                }
            }
            cal.reschedule(LIFECYCLE, NextEvent::Idle);
        }
        // 1. Deliver replies that arrived at the SMs; each delivery
        // wakes its SM for the execute phase below.
        let mut delivered = false;
        if cal.is_due(REPLY_FABRIC, now) && self.reply_fabric.in_flight() > 0 {
            let Self {
                reply_fabric,
                sms,
                probe,
                ..
            } = self;
            reply_fabric.deliver_ready(now, |sm_idx, p| {
                if P::ENABLED {
                    probe.packet_delivered(now, sm_idx);
                }
                sms[sm_idx].on_reply_probed(&p, now, probe);
                cal.make_busy(SM_BASE + sm_idx as ComponentId);
                delivered = true;
            });
        }
        // 2. Due SMs execute and enqueue requests.
        let rf_before = self.request_fabric.in_flight();
        let mut sm_worked = delivered;
        self.ticked_sms.clear();
        for w in 0..cal.busy_words().len() {
            // Snapshot one word: a reschedule may clear the visited bit,
            // and nothing wakes an SM mid-phase.
            let mut bits = cal.busy_words()[w];
            if w == 0 {
                bits &= !((1u64 << SM_BASE) - 1);
            }
            while bits != 0 {
                let comp = (w * 64) as ComponentId + bits.trailing_zeros() as ComponentId;
                bits &= bits - 1;
                let sm_idx = (comp - SM_BASE) as usize;
                self.sms[sm_idx].tick_probed(
                    now,
                    &self.clock,
                    &mut self.request_fabric,
                    &mut self.recorder,
                    &mut self.probe,
                );
                sm_worked = true;
                self.ticked_sms.push(sm_idx);
                cal.reschedule_near(comp, self.sms[sm_idx].next_event(now, &self.clock), now);
            }
        }
        // 3. Request subnet moves (also due when an SM just injected).
        let req_due = cal.is_due(REQ_FABRIC, now) || self.request_fabric.in_flight() > rf_before;
        if req_due {
            if self.request_fabric.in_flight() > 0 {
                self.request_fabric.tick_probed(now, &mut self.probe);
                // 4. Requests arriving at slices enter the L2 pipelines
                // (push_request moves the memory wake cycle earlier).
                let Self {
                    request_fabric,
                    mem,
                    ..
                } = self;
                request_fabric.drain_arrivals(now, |p| mem.push_request(p, now));
            }
            cal.reschedule_near(
                REQ_FABRIC,
                if self.request_fabric.in_flight() == 0 {
                    NextEvent::Idle
                } else {
                    self.request_fabric.next_event()
                },
                now,
            );
        }
        // 5. Memory system advances (gated internally on its per-slice
        // wake cycles, so this is one counter compare when quiet).
        self.mem.tick_probed(now, &mut self.probe);
        // 6. Ready replies enter the reply subnet (gated internally on
        // the subsystem's reply counter). The memory system's calendar
        // entry is refreshed unconditionally: pushes in phase 4 and the
        // drain both move it, and the reschedule is O(1) when unchanged.
        let rp_before = self.reply_fabric.in_flight();
        self.mem
            .drain_replies_probed(&mut self.reply_fabric, &mut self.probe);
        cal.reschedule_near(MEM, self.mem.next_event(), now);
        // 7. Reply subnet moves (also due when a reply just injected).
        let rep_due = cal.is_due(REPLY_FABRIC, now) || self.reply_fabric.in_flight() > rp_before;
        if rep_due {
            if self.reply_fabric.in_flight() > 0 {
                self.reply_fabric.tick_probed(now, &mut self.probe);
            }
            cal.reschedule_near(
                REPLY_FABRIC,
                if self.reply_fabric.in_flight() == 0 {
                    NextEvent::Idle
                } else {
                    self.reply_fabric.next_event()
                },
                now,
            );
        }
        // 8. Retire finished blocks. Block done-ness only changes when
        // a reply lands or an SM executes, so an all-quiet cycle skips
        // the scan. Retirement re-wakes the lifecycle (stream
        // successors, blocked placements) and parks SMs that just went
        // empty — their stale wake-ups must not keep the machine awake.
        if sm_worked && self.retire_blocks() {
            cal.make_busy(LIFECYCLE);
            for (i, sm) in self.sms.iter().enumerate() {
                if sm.resident_blocks() == 0 {
                    cal.reschedule(SM_BASE + i as ComponentId, NextEvent::Idle);
                }
            }
        }
        self.now += 1;
    }

    /// Runs for exactly `cycles` cycles, whether or not the machine goes
    /// idle on the way. Cycles in which nothing is due are jumped, as in
    /// [`run_until_idle`](Self::run_until_idle).
    pub fn run_for(&mut self, cycles: Cycle) {
        self.run(cycles, false);
    }

    /// Runs until every launched kernel has finished and all queues have
    /// drained, or until `max_cycles` more cycles have elapsed.
    pub fn run_until_idle(&mut self, max_cycles: Cycle) -> RunOutcome {
        self.run(max_cycles, true)
    }

    /// The run loop behind [`run_for`](Self::run_for) and
    /// [`run_until_idle`](Self::run_until_idle): runs up to `cycles`
    /// cycles, stopping early at idle when `stop_at_idle`. It is driven
    /// by an [`EventCalendar`]: components push their next wake-up on
    /// state change, [`step`](Self::step) runs the phases of due
    /// components, and when nothing is due the loop jumps straight to
    /// the earliest scheduled wake-up — no polling, no detection lag.
    fn run(&mut self, cycles: Cycle, stop_at_idle: bool) -> RunOutcome {
        let deadline = self.now + cycles;
        // Watchdog cadence: the supervisor's deadline/cancel check is an
        // atomic load behind a TLS lookup — cheap, but not free enough
        // for every cycle. Every 4096 loop iterations keeps the check in
        // the microsecond range while bounding how long a runaway trial
        // can overshoot its deadline.
        const CHECKPOINT_MASK: u64 = 4096 - 1;
        let mut iterations: u64 = 0;
        // The owned calendar is re-seeded per run, which keeps it
        // correct across kernel launches between runs. It is moved out
        // for the duration because `step` needs it alongside `&mut self`
        // (the sentinel left behind is allocation-free).
        let mut cal = std::mem::replace(&mut self.run_cal, EventCalendar::new(0));
        if cal.num_components() != SM_BASE as usize + self.sms.len() {
            // A panic unwound past a previous run and the sentinel stuck
            // around; rebuild once rather than index out of bounds.
            cal = EventCalendar::new(SM_BASE as usize + self.sms.len());
        }
        self.seed_calendar(&mut cal);
        let early = loop {
            if self.now >= deadline {
                break None;
            }
            iterations += 1;
            if iterations & CHECKPOINT_MASK == 0 {
                gnc_common::supervise::checkpoint();
            }
            if stop_at_idle && self.is_idle() {
                break Some(RunOutcome::Idle { at: self.now });
            }
            // The reference starts every cycle as a one-cycle run would;
            // the busy lifecycle makes the wake below `Now`.
            #[cfg(any(test, feature = "reference"))]
            if self.never_park {
                self.seed_calendar(&mut cal);
            }
            match cal.next_wake() {
                // A busy component needs this very cycle.
                Wake::Now => {}
                Wake::At(at) => {
                    // Jump straight to the next scheduled wake-up
                    // (never past the deadline; `at <= now` means "due
                    // this cycle"). Cycles in between are provably
                    // no-ops for every component.
                    if at >= deadline {
                        self.now = deadline;
                        break None;
                    }
                    if at > self.now {
                        self.now = at;
                    }
                }
                // Nothing will ever wake by itself: every remaining
                // cycle is a no-op, so burn them at once.
                Wake::Never => {
                    self.now = deadline;
                    break None;
                }
            }
            self.step(&mut cal);
        };
        self.run_cal = cal;
        early.unwrap_or_else(|| self.timeout_or_idle())
    }

    /// Clears `cal` and marks busy everything that may hold work, as at
    /// the start of every run: the lifecycle, each subnet with packets
    /// in flight, and the SMs with resident blocks; the memory system is
    /// scheduled from its own report. Quiescent components park
    /// themselves with their first reschedule.
    fn seed_calendar(&mut self, cal: &mut EventCalendar) {
        cal.reset();
        cal.make_busy(LIFECYCLE);
        if self.request_fabric.in_flight() > 0 {
            cal.make_busy(REQ_FABRIC);
        }
        if self.reply_fabric.in_flight() > 0 {
            cal.make_busy(REPLY_FABRIC);
        }
        cal.reschedule(MEM, self.mem.next_event());
        for &sm_idx in &self.active_sms {
            cal.make_busy(SM_BASE + sm_idx as ComponentId);
        }
    }

    /// The outcome of a run that reached its deadline. A run cut short
    /// first reports the burst-fault cycles its ejection ports served
    /// before the deadline (they count the rest when they forward).
    fn timeout_or_idle(&mut self) -> RunOutcome {
        if self.is_idle() {
            RunOutcome::Idle { at: self.now }
        } else {
            self.reply_fabric.settle_faults(self.now);
            RunOutcome::Timeout { at: self.now }
        }
    }

    /// True when all kernels finished and no packet is in flight.
    pub fn is_idle(&self) -> bool {
        self.kernels.iter().all(|k| k.end_cycle.is_some())
            && self.request_fabric.is_drained()
            && self.reply_fabric.is_drained()
            && self.mem.is_drained()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{AccessKind, WarpContext, WarpProgram, WarpStep};
    use gnc_common::ids::WarpId;

    /// Kernel whose warps issue `batches` waited write batches on the
    /// selected SM only (Algorithm 1 shape: gate on %smid) and record
    /// per-batch latency, then finish.
    struct SmidGatedWriter {
        blocks: usize,
        target_sms: Vec<usize>,
        batches: u32,
    }

    struct GatedWarp {
        target_sms: Vec<usize>,
        batches: u32,
        issued: u32,
        decided: bool,
        active: bool,
        base: u64,
    }

    impl WarpProgram for GatedWarp {
        fn step(&mut self, ctx: &WarpContext) -> WarpStep {
            if !self.decided {
                self.decided = true;
                self.active = self.target_sms.contains(&ctx.sm.index());
            }
            if !self.active || self.issued >= self.batches {
                return WarpStep::Finish;
            }
            self.issued += 1;
            let base = self.base;
            self.base += 32 * 128;
            WarpStep::Memory {
                kind: AccessKind::Write,
                addrs: (0..32u64).map(|i| base + i * 128).collect(),
                wait: true,
            }
        }
    }

    impl crate::kernel::KernelProgram for SmidGatedWriter {
        fn name(&self) -> &str {
            "smid-gated-writer"
        }
        fn num_blocks(&self) -> usize {
            self.blocks
        }
        fn warps_per_block(&self) -> usize {
            1
        }
        fn create_warp(&self, block: BlockId, _warp: WarpId) -> Box<dyn WarpProgram> {
            Box::new(GatedWarp {
                target_sms: self.target_sms.clone(),
                batches: self.batches,
                issued: 0,
                decided: false,
                active: false,
                base: 0x100000 * (block.index() as u64 + 1),
            })
        }
    }

    #[test]
    fn gpu_builds_and_idles_immediately() {
        let mut gpu = Gpu::new(GpuConfig::volta_v100()).expect("valid config");
        assert!(gpu.is_idle());
        let outcome = gpu.run_until_idle(10);
        assert!(outcome.is_idle());
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cfg = GpuConfig::volta_v100();
        cfg.noc.subnets = 1;
        assert!(Gpu::new(cfg).is_err());
    }

    #[test]
    fn single_kernel_runs_to_completion() {
        let mut gpu = Gpu::new(GpuConfig::volta_v100()).expect("valid config");
        gpu.preload_range(0, 40 * 48);
        let k = gpu.launch(
            Box::new(SmidGatedWriter {
                blocks: 80,
                target_sms: vec![0],
                batches: 4,
            }),
            StreamId::new(0),
        );
        let outcome = gpu.run_until_idle(100_000);
        assert!(outcome.is_idle(), "run timed out: {outcome:?}");
        assert!(gpu.kernel_finished(k));
        let (start, end) = gpu.kernel_span(k);
        assert!(start.unwrap() < end.unwrap());
        // 80 blocks placed on 80 distinct SMs.
        let sms: std::collections::HashSet<SmId> =
            gpu.block_spans(k).iter().map(|s| s.sm).collect();
        assert_eq!(sms.len(), 80);
    }

    #[test]
    fn blocks_place_in_policy_order() {
        let mut gpu = Gpu::new(GpuConfig::volta_v100()).expect("valid config");
        let k = gpu.launch(
            Box::new(SmidGatedWriter {
                blocks: 40,
                target_sms: vec![],
                batches: 0,
            }),
            StreamId::new(0),
        );
        gpu.run_until_idle(10_000);
        let spans = gpu.block_spans(k);
        assert_eq!(spans.len(), 40);
        // 40 blocks land on one SM per TPC, all first-siblings.
        let tpcs: std::collections::HashSet<usize> =
            spans.iter().map(|s| s.sm.index() / 2).collect();
        assert_eq!(tpcs.len(), 40);
        assert!(spans.iter().all(|s| s.sm.index() % 2 == 0));
    }

    #[test]
    fn two_streams_colocate_on_tpc_siblings() {
        // §4.3's headline: 40 sender blocks then 40 receiver blocks give
        // one of each per TPC.
        let mut gpu = Gpu::new(GpuConfig::volta_v100()).expect("valid config");
        let sender = gpu.launch(
            Box::new(SmidGatedWriter {
                blocks: 40,
                target_sms: vec![],
                batches: 0,
            }),
            StreamId::new(0),
        );
        let receiver = gpu.launch(
            Box::new(SmidGatedWriter {
                blocks: 40,
                target_sms: vec![],
                batches: 0,
            }),
            StreamId::new(1),
        );
        // Run one cycle so both kernels place before any block finishes.
        gpu.run_for(1);
        let sender_sms: Vec<usize> = gpu
            .block_spans(sender)
            .iter()
            .map(|s| s.sm.index())
            .collect();
        let receiver_sms: Vec<usize> = gpu
            .block_spans(receiver)
            .iter()
            .map(|s| s.sm.index())
            .collect();
        assert_eq!(sender_sms.len(), 40);
        assert_eq!(receiver_sms.len(), 40);
        for (s, r) in sender_sms.iter().zip(&receiver_sms) {
            assert_eq!(s / 2, r / 2, "sender {s} and receiver {r} not TPC-siblings");
            assert_ne!(s, r);
        }
        gpu.run_until_idle(10_000);
    }

    #[test]
    fn same_stream_kernels_serialise() {
        let mut gpu = Gpu::new(GpuConfig::volta_v100()).expect("valid config");
        gpu.preload_range(0, 40 * 48);
        let a = gpu.launch(
            Box::new(SmidGatedWriter {
                blocks: 80,
                target_sms: vec![0],
                batches: 2,
            }),
            StreamId::new(0),
        );
        let b = gpu.launch(
            Box::new(SmidGatedWriter {
                blocks: 80,
                target_sms: vec![0],
                batches: 2,
            }),
            StreamId::new(0),
        );
        assert!(gpu.run_until_idle(200_000).is_idle());
        let (_, a_end) = gpu.kernel_span(a);
        let (b_start, _) = gpu.kernel_span(b);
        assert!(
            b_start.unwrap() >= a_end.unwrap(),
            "second kernel must start after the first ends in one stream"
        );
    }

    #[test]
    fn different_stream_kernels_overlap() {
        let mut cfg = GpuConfig::volta_v100();
        cfg.max_blocks_per_sm = 2; // room for both kernels everywhere
        let mut gpu = Gpu::new(cfg).expect("valid config");
        gpu.preload_range(0, 40 * 48);
        let a = gpu.launch(
            Box::new(SmidGatedWriter {
                blocks: 80,
                target_sms: vec![0],
                batches: 8,
            }),
            StreamId::new(0),
        );
        let b = gpu.launch(
            Box::new(SmidGatedWriter {
                blocks: 80,
                target_sms: vec![1],
                batches: 8,
            }),
            StreamId::new(1),
        );
        assert!(gpu.run_until_idle(300_000).is_idle());
        let (a_start, a_end) = gpu.kernel_span(a);
        let (b_start, b_end) = gpu.kernel_span(b);
        let overlap = b_start.unwrap() < a_end.unwrap() && a_start.unwrap() < b_end.unwrap();
        assert!(overlap, "stream concurrency must overlap kernels");
    }

    #[test]
    fn stream_isolated_scheduler_keeps_tpcs_single_stream() {
        let mut cfg = GpuConfig::volta_v100();
        cfg.scheduler = gnc_common::config::SchedulerPolicy::StreamIsolated;
        let mut gpu = Gpu::new(cfg.clone()).expect("valid config");
        let mk = |batches| {
            Box::new(SmidGatedWriter {
                blocks: 40,
                target_sms: vec![0],
                batches,
            })
        };
        gpu.preload_range(0, 40 * 48);
        let a = gpu.launch(mk(6), StreamId::new(0));
        let b = gpu.launch(mk(6), StreamId::new(1));
        gpu.run_for(1);
        // Every placed block's TPC must be exclusive to one stream.
        let a_tpcs: std::collections::HashSet<usize> = gpu
            .block_spans(a)
            .iter()
            .map(|s| s.sm.index() / 2)
            .collect();
        let b_tpcs: std::collections::HashSet<usize> = gpu
            .block_spans(b)
            .iter()
            .map(|s| s.sm.index() / 2)
            .collect();
        assert!(
            a_tpcs.is_disjoint(&b_tpcs),
            "streams share TPCs under isolation: {:?}",
            a_tpcs.intersection(&b_tpcs).collect::<Vec<_>>()
        );
        assert!(gpu.run_until_idle(200_000).is_idle());
    }

    /// Kernel whose warps align to a 512-cycle clock slot, then issue a
    /// waited read batch and record its latency and the clock, `rounds`
    /// times: the receiver's shape (§4.4).
    struct SlotReader {
        blocks: usize,
        rounds: u32,
    }

    struct SlotReaderWarp {
        rounds: u32,
        stage: u8,
        base: u64,
    }

    impl WarpProgram for SlotReaderWarp {
        fn step(&mut self, ctx: &WarpContext) -> WarpStep {
            self.stage = (self.stage + 1) % 4;
            match self.stage {
                1 if self.rounds == 0 => WarpStep::Finish,
                1 => {
                    self.rounds -= 1;
                    WarpStep::UntilClock {
                        mask: 511,
                        target: (ctx.sm.index() as u32 * 37) & 511,
                    }
                }
                2 => {
                    self.base += 8 * 128;
                    WarpStep::Memory {
                        kind: AccessKind::Read,
                        addrs: (0..8u64).map(|i| self.base + i * 128).collect(),
                        wait: true,
                    }
                }
                3 => WarpStep::Record {
                    tag: 1,
                    value: ctx.last_mem_latency,
                },
                _ => WarpStep::Record {
                    tag: 2,
                    value: u64::from(ctx.clock32),
                },
            }
        }
    }

    impl crate::kernel::KernelProgram for SlotReader {
        fn name(&self) -> &str {
            "slot-reader"
        }
        fn num_blocks(&self) -> usize {
            self.blocks
        }
        fn warps_per_block(&self) -> usize {
            1
        }
        fn create_warp(&self, block: BlockId, _warp: WarpId) -> Box<dyn WarpProgram> {
            Box::new(SlotReaderWarp {
                rounds: self.rounds,
                stage: 0,
                base: 0x100000 * (block.index() as u64 + 1),
            })
        }
    }

    /// `run_for` jumps dead cycles and settles fault statistics where it
    /// stops, yet a machine driven by `run_for` chunks of mixed sizes
    /// and then `run_until_idle` must match the reference — the same
    /// machine driven one cycle per run (and the never-park flag, which
    /// must be that same drive) — in records, cycle counts, kernel and
    /// block spans, and fault statistics. One chunk stops with replies
    /// in flight and one runs on past the cycle the machine went idle.
    #[test]
    fn run_for_chunks_match_one_cycle_runs_under_faults() {
        use crate::workloads::ComputeKernel;
        use gnc_common::fault::{FaultConfig, FaultPlan};

        #[derive(Clone, Copy, PartialEq)]
        enum Drive {
            Calendar,
            NeverPark,
            OneCycleRuns,
        }
        let run = |drive: Drive| {
            let plan = FaultPlan::new(
                FaultConfig::parse("severe@3,clock_glitch_rate=0.2").expect("spec parses"),
            );
            let mut gpu = Gpu::with_faults(GpuConfig::volta_v100(), 5, plan).expect("valid config");
            gpu.set_never_park(drive == Drive::NeverPark);
            let advance = |gpu: &mut Gpu, cycles: Cycle| {
                if drive == Drive::OneCycleRuns {
                    for _ in 0..cycles {
                        gpu.run_for(1);
                    }
                } else {
                    gpu.run_for(cycles);
                }
            };
            let first = gpu.launch(
                Box::new(SlotReader {
                    blocks: 6,
                    rounds: 4,
                }),
                StreamId::new(0),
            );
            gpu.launch(Box::new(ComputeKernel::new(4, 2, 700)), StreamId::new(1));
            let mut replies_in_flight_at_a_stop = false;
            for chunk in [1, 3, 150, 1, 40, 997, 64, 2_000] {
                advance(&mut gpu, chunk);
                replies_in_flight_at_a_stop |= gpu.reply_fabric.in_flight() > 0;
            }
            assert!(replies_in_flight_at_a_stop, "no chunk stopped mid-reply");
            assert!(gpu.is_idle(), "the last chunk must run on past idle");
            let second = gpu.launch(
                Box::new(SlotReader {
                    blocks: 3,
                    rounds: 2,
                }),
                StreamId::new(0),
            );
            advance(&mut gpu, 700);
            if drive == Drive::OneCycleRuns {
                while !gpu.is_idle() {
                    gpu.run_for(1);
                }
            } else {
                assert!(gpu.run_until_idle(100_000).is_idle());
            }
            let stats = gpu.fault_plan().expect("plan attached").stats();
            (
                gpu.recorder().records().to_vec(),
                gpu.now(),
                [first, second].map(|k| (gpu.kernel_span(k), gpu.block_spans(k).to_vec())),
                stats,
            )
        };
        let calendar = run(Drive::Calendar);
        assert!(calendar.3.noc_burst_cycles > 0 && calendar.3.glitched_clock_reads > 0);
        assert_eq!(calendar, run(Drive::NeverPark), "never-park drive diverges");
        assert_eq!(calendar, run(Drive::OneCycleRuns), "one-cycle runs diverge");
    }

    #[test]
    fn run_until_idle_times_out_gracefully() {
        let mut gpu = Gpu::new(GpuConfig::volta_v100()).expect("valid config");
        gpu.launch(
            Box::new(SmidGatedWriter {
                blocks: 80,
                target_sms: vec![0],
                batches: 1000,
            }),
            StreamId::new(0),
        );
        let outcome = gpu.run_until_idle(100);
        assert!(matches!(outcome, RunOutcome::Timeout { .. }));
        assert_eq!(outcome.cycle(), 100);
    }
}
