//! Zero-overhead-when-off telemetry for the simulator.
//!
//! The covert channel is *read off* microarchitectural state — who held
//! which mux slot, when — so debugging the channel (or calibrating the
//! noise models) needs the same observability a production traffic
//! generator would have: per-component counters, windowed time series,
//! and an event trace. This module provides them behind a statically
//! erased seam:
//!
//! * [`Probe`] — the hook trait. Every method has an inlined no-op
//!   default body, and the associated `ENABLED` constant lets hot paths
//!   skip argument construction entirely (`if P::ENABLED { .. }`).
//! * [`NullProbe`] — the zero-sized off switch. Monomorphising the
//!   engine against it produces the exact same machine code as having no
//!   telemetry at all, which is what pins the bit-identity and overhead
//!   gates.
//! * [`Collector`] — the on switch: counts mux grants/denials per input,
//!   queue-depth high-water marks, crossbar port flits, L2 hits/misses
//!   and MSHR occupancy, DRAM bank busy time, per-SM stall reasons, an
//!   SM×slice traffic matrix, windowed time series, and a bounded
//!   packet-forward trace exportable as JSONL or Chrome `trace_event`
//!   JSON.
//!
//! Components report themselves by a stable [`Component`] label passed
//! by the caller (the fabrics know which mux is which), so the muxes
//! themselves stay label-free.

use crate::{Cycle, GpuConfig};
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;

/// Which kind of shared NoC component an event happened at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
#[serde(rename_all = "snake_case")]
pub enum ComponentKind {
    /// 2:1 SM→TPC request mux.
    TpcMux,
    /// 7:1 TPC→GPC request mux (with speedup).
    GpcReqMux,
    /// One crossbar output port (GPCs → one L2 slice).
    XbarOut,
    /// Per-GPC reply channel (L2 slices → GPC).
    GpcReplyMux,
    /// Per-SM ejection port on the reply subnet.
    SmEjector,
}

impl ComponentKind {
    /// Short stable label for reports and traces.
    pub fn label(self) -> &'static str {
        match self {
            ComponentKind::TpcMux => "tpc_mux",
            ComponentKind::GpcReqMux => "gpc_req_mux",
            ComponentKind::XbarOut => "xbar_out",
            ComponentKind::GpcReplyMux => "gpc_reply_mux",
            ComponentKind::SmEjector => "sm_ejector",
        }
    }
}

/// A stable identity for one shared component instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub struct Component {
    /// The component class.
    pub kind: ComponentKind,
    /// Instance index within the class (TPC id, GPC id, slice id, SM id).
    pub index: usize,
}

impl Component {
    /// The TPC request mux of TPC `t`.
    pub fn tpc_mux(t: usize) -> Self {
        Self {
            kind: ComponentKind::TpcMux,
            index: t,
        }
    }

    /// The GPC request mux of GPC `g`.
    pub fn gpc_req_mux(g: usize) -> Self {
        Self {
            kind: ComponentKind::GpcReqMux,
            index: g,
        }
    }

    /// The crossbar output port feeding L2 slice `s`.
    pub fn xbar_out(s: usize) -> Self {
        Self {
            kind: ComponentKind::XbarOut,
            index: s,
        }
    }

    /// The reply channel of GPC `g`.
    pub fn gpc_reply_mux(g: usize) -> Self {
        Self {
            kind: ComponentKind::GpcReplyMux,
            index: g,
        }
    }

    /// The ejection port of SM `s`.
    pub fn sm_ejector(s: usize) -> Self {
        Self {
            kind: ComponentKind::SmEjector,
            index: s,
        }
    }

    /// `kind[index]`, e.g. `tpc_mux[3]`.
    pub fn label(self) -> String {
        format!("{}[{}]", self.kind.label(), self.index)
    }
}

/// Why a warp spent cycles blocked (per-SM stall breakdown).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
#[serde(rename_all = "snake_case")]
pub enum StallReason {
    /// Waiting for all replies of a waited memory batch.
    WaitMem,
    /// Fire-and-forget stream throttled at its outstanding cap.
    Throttled,
    /// Explicit sleep.
    Sleep,
    /// Spinning on a clock-alignment target.
    WaitClock,
}

impl StallReason {
    /// Dense index for table storage.
    pub fn index(self) -> usize {
        match self {
            StallReason::WaitMem => 0,
            StallReason::Throttled => 1,
            StallReason::Sleep => 2,
            StallReason::WaitClock => 3,
        }
    }

    /// All reasons in [`index`](Self::index) order.
    pub const ALL: [StallReason; 4] = [
        StallReason::WaitMem,
        StallReason::Throttled,
        StallReason::Sleep,
        StallReason::WaitClock,
    ];

    /// Short stable label.
    pub fn label(self) -> &'static str {
        match self {
            StallReason::WaitMem => "wait_mem",
            StallReason::Throttled => "throttled",
            StallReason::Sleep => "sleep",
            StallReason::WaitClock => "wait_clock",
        }
    }
}

/// The telemetry hook set. Every method defaults to an inlined no-op, so
/// a `Probe`-generic code path monomorphised against [`NullProbe`]
/// compiles to exactly the probe-free machine code.
///
/// Hooks must never influence simulation behaviour — they observe.
pub trait Probe {
    /// Whether this probe records anything. Hot paths may use this to
    /// skip *argument construction* for expensive hooks:
    /// `if P::ENABLED { probe.packet_forwarded(..) }`.
    const ENABLED: bool = false;

    /// One output flit slot granted to `input` at `comp`.
    #[inline]
    fn flit_granted(&mut self, _now: Cycle, _comp: Component, _input: usize) {}

    /// A packet fully crossed `comp` and entered its output pipeline.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn packet_forwarded(
        &mut self,
        _now: Cycle,
        _comp: Component,
        _input: usize,
        _packet: u64,
        _sm: usize,
        _slice: usize,
        _flits: u32,
    ) {
    }

    /// A push into `comp`'s `input` queue was refused (backpressure).
    #[inline]
    fn push_denied(&mut self, _comp: Component, _input: usize) {}

    /// `comp`'s `input` queue reached `depth` packets after a push.
    #[inline]
    fn queue_depth(&mut self, _comp: Component, _input: usize, _depth: usize) {}

    /// SM `sm` injected a request packet bound for L2 slice `slice`.
    #[inline]
    fn packet_injected(&mut self, _now: Cycle, _sm: usize, _slice: usize) {}

    /// A reply packet was delivered back to SM `sm`.
    #[inline]
    fn packet_delivered(&mut self, _now: Cycle, _sm: usize) {}

    /// L2 slice `slice` completed a lookup (`hit` or miss).
    #[inline]
    fn l2_access(&mut self, _now: Cycle, _slice: usize, _hit: bool) {}

    /// L2 slice `slice`'s MSHR file holds `occupied` entries.
    #[inline]
    fn mshr_occupancy(&mut self, _slice: usize, _occupied: usize) {}

    /// DRAM controller `mc` serviced an access on `bank` busy over
    /// `[start, done)` core cycles.
    #[inline]
    fn dram_access(
        &mut self,
        _now: Cycle,
        _mc: usize,
        _bank: usize,
        _start: Cycle,
        _done: Cycle,
        _row_hit: bool,
    ) {
    }

    /// A warp on SM `sm` just left a blocked state it sat in for
    /// `cycles` cycles.
    #[inline]
    fn sm_stall(&mut self, _sm: usize, _reason: StallReason, _cycles: Cycle) {}
}

/// The statically-free off switch: a zero-sized probe whose hooks all
/// inline to nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullProbe;

impl Probe for NullProbe {}

/// Per-component mux counters.
#[derive(Debug, Clone, Default)]
struct MuxTelemetry {
    grants: Vec<u64>,
    denials: Vec<u64>,
    queue_hwm: Vec<usize>,
    forwarded_packets: u64,
    forwarded_flits: u64,
}

fn slot<T: Default + Clone>(v: &mut Vec<T>, i: usize) -> &mut T {
    if v.len() <= i {
        v.resize(i + 1, T::default());
    }
    &mut v[i]
}

/// Per-L2-slice counters.
#[derive(Debug, Clone, Copy, Default)]
struct L2Telemetry {
    hits: u64,
    misses: u64,
    mshr_hwm: usize,
}

/// Per-DRAM-bank counters.
#[derive(Debug, Clone, Copy, Default)]
struct DramBankTelemetry {
    accesses: u64,
    row_hits: u64,
    busy_cycles: Cycle,
}

/// One sample of the windowed time series.
#[derive(Debug, Clone, Copy, Default, Serialize)]
struct WindowSample {
    injected: u64,
    delivered: u64,
    l2_hits: u64,
    l2_misses: u64,
    mux_flits: u64,
}

/// One recorded packet-forward event (flit-resolution occupancy of a
/// shared component: `dur` is the packet's flit count, i.e. the number
/// of output slots it consumed).
#[derive(Debug, Clone, Copy)]
struct TraceEvent {
    cycle: Cycle,
    flits: u32,
    comp: Component,
    input: usize,
    packet: u64,
    sm: usize,
    slice: usize,
}

/// The recording probe.
///
/// Build one with [`Collector::for_config`], run any workload on a
/// `Gpu<Collector>` (see `Gpu::with_probe`), then pull a serialisable
/// [`TelemetryReport`] or export the trace.
#[derive(Debug)]
pub struct Collector {
    num_sms: usize,
    num_slices: usize,
    window_cycles: Cycle,
    trace_capacity: usize,
    muxes: BTreeMap<Component, MuxTelemetry>,
    /// Packets injected per (SM, slice) pair, row-major by SM.
    sm_slice: Vec<u64>,
    injected: u64,
    delivered: u64,
    l2: Vec<L2Telemetry>,
    dram: BTreeMap<(usize, usize), DramBankTelemetry>,
    /// `stalls[sm][reason]` in cycles.
    stalls: Vec<[u64; 4]>,
    windows: BTreeMap<u64, WindowSample>,
    trace: Vec<TraceEvent>,
    trace_dropped: u64,
    last_cycle: Cycle,
}

impl Collector {
    /// Default window length in cycles for the time series.
    pub const DEFAULT_WINDOW_CYCLES: Cycle = 4096;
    /// Default cap on retained trace events.
    pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

    /// A collector sized for `cfg`'s SM and slice counts.
    pub fn for_config(cfg: &GpuConfig) -> Self {
        Self::new(cfg.num_sms(), cfg.mem.num_l2_slices)
    }

    /// A collector for `num_sms` SMs and `num_slices` L2 slices.
    pub fn new(num_sms: usize, num_slices: usize) -> Self {
        Self {
            num_sms,
            num_slices,
            window_cycles: Self::DEFAULT_WINDOW_CYCLES,
            trace_capacity: Self::DEFAULT_TRACE_CAPACITY,
            muxes: BTreeMap::new(),
            sm_slice: vec![0; num_sms * num_slices],
            injected: 0,
            delivered: 0,
            l2: vec![L2Telemetry::default(); num_slices],
            dram: BTreeMap::new(),
            stalls: vec![[0; 4]; num_sms],
            windows: BTreeMap::new(),
            trace: Vec::new(),
            trace_dropped: 0,
            last_cycle: 0,
        }
    }

    /// Sets the time-series window length (cycles per bucket).
    #[must_use]
    pub fn with_window(mut self, cycles: Cycle) -> Self {
        self.window_cycles = cycles.max(1);
        self
    }

    /// Sets the maximum retained trace events (0 disables the trace).
    #[must_use]
    pub fn with_trace_capacity(mut self, events: usize) -> Self {
        self.trace_capacity = events;
        self
    }

    fn window(&mut self, now: Cycle) -> &mut WindowSample {
        self.last_cycle = self.last_cycle.max(now);
        let idx = now / self.window_cycles;
        self.windows.entry(idx).or_default()
    }

    /// Packets injected but not yet delivered (0 at quiesce).
    pub fn in_flight(&self) -> u64 {
        self.injected - self.delivered
    }

    /// Total packets injected by all SMs.
    pub fn packets_injected(&self) -> u64 {
        self.injected
    }

    /// Total reply packets delivered back to SMs.
    pub fn packets_delivered(&self) -> u64 {
        self.delivered
    }

    /// `(grants summed over inputs, flits of forwarded packets)` for the
    /// component, if it saw traffic. Conservation: equal at quiesce.
    pub fn mux_flit_balance(&self, comp: Component) -> Option<(u64, u64)> {
        self.muxes
            .get(&comp)
            .map(|m| (m.grants.iter().sum(), m.forwarded_flits))
    }

    /// Components that recorded at least one event.
    pub fn components(&self) -> impl Iterator<Item = Component> + '_ {
        self.muxes.keys().copied()
    }

    /// `(hits, misses)` recorded for L2 slice `slice`.
    pub fn l2_hit_miss(&self, slice: usize) -> (u64, u64) {
        let t = self.l2[slice];
        (t.hits, t.misses)
    }

    /// Builds the serialisable summary report.
    pub fn report(&self) -> TelemetryReport {
        let cycles = self.last_cycle + 1;
        let components = self
            .muxes
            .iter()
            .map(|(&comp, m)| ComponentReport {
                kind: comp.kind,
                index: comp.index,
                grants: m.grants.clone(),
                denials: m.denials.clone(),
                queue_high_water: m.queue_hwm.clone(),
                forwarded_packets: m.forwarded_packets,
                forwarded_flits: m.forwarded_flits,
                flits_per_kcycle: m.grants.iter().sum::<u64>() as f64 * 1000.0 / cycles as f64,
            })
            .collect();
        let l2 = self
            .l2
            .iter()
            .enumerate()
            .filter(|(_, t)| t.hits + t.misses > 0 || t.mshr_hwm > 0)
            .map(|(s, t)| L2SliceReport {
                slice: s,
                hits: t.hits,
                misses: t.misses,
                mshr_high_water: t.mshr_hwm,
            })
            .collect();
        let dram = self
            .dram
            .iter()
            .map(|(&(mc, bank), t)| DramBankReport {
                mc,
                bank,
                accesses: t.accesses,
                row_hits: t.row_hits,
                busy_cycles: t.busy_cycles,
            })
            .collect();
        let sm_stalls = self
            .stalls
            .iter()
            .enumerate()
            .filter(|(_, s)| s.iter().any(|&c| c > 0))
            .map(|(sm, s)| SmStallReport {
                sm,
                wait_mem: s[StallReason::WaitMem.index()],
                throttled: s[StallReason::Throttled.index()],
                sleep: s[StallReason::Sleep.index()],
                wait_clock: s[StallReason::WaitClock.index()],
            })
            .collect();
        let windows = self
            .windows
            .iter()
            .map(|(&idx, w)| WindowReport {
                start_cycle: idx * self.window_cycles,
                injected: w.injected,
                delivered: w.delivered,
                l2_hits: w.l2_hits,
                l2_misses: w.l2_misses,
                mux_flits: w.mux_flits,
            })
            .collect();
        TelemetryReport {
            cycles,
            window_cycles: self.window_cycles,
            packets_injected: self.injected,
            packets_delivered: self.delivered,
            components,
            sm_slice: SmSliceMatrix {
                num_sms: self.num_sms,
                num_slices: self.num_slices,
                packets: self.sm_slice.clone(),
            },
            l2,
            dram,
            sm_stalls,
            windows,
            trace_events: self.trace.len(),
            trace_dropped: self.trace_dropped,
        }
    }

    /// Writes the packet-forward trace as JSON Lines, one event per line.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn write_trace_jsonl<W: io::Write>(&self, w: &mut W) -> io::Result<()> {
        for e in &self.trace {
            writeln!(
                w,
                "{{\"cycle\":{},\"flits\":{},\"component\":\"{}\",\"input\":{},\"packet\":{},\"sm\":{},\"slice\":{}}}",
                e.cycle,
                e.flits,
                e.comp.label(),
                e.input,
                e.packet,
                e.sm,
                e.slice
            )?;
        }
        Ok(())
    }

    /// Writes the packet-forward trace in Chrome `trace_event` JSON
    /// (load in `chrome://tracing` or <https://ui.perfetto.dev>). One
    /// complete (`"ph":"X"`) event per forwarded packet: `ts` is the
    /// completion cycle (as microseconds), `dur` the flit count, one
    /// process row per component instance, one thread row per input.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn write_chrome_trace<W: io::Write>(&self, w: &mut W) -> io::Result<()> {
        let pids: BTreeMap<Component, usize> = self
            .muxes
            .keys()
            .enumerate()
            .map(|(i, &c)| (c, i + 1))
            .collect();
        write!(w, "{{\"traceEvents\":[")?;
        let mut first = true;
        for (&comp, &pid) in &pids {
            if !first {
                write!(w, ",")?;
            }
            first = false;
            write!(
                w,
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":\"{}\"}}}}",
                comp.label()
            )?;
        }
        for e in &self.trace {
            let pid = pids.get(&e.comp).copied().unwrap_or(0);
            if !first {
                write!(w, ",")?;
            }
            first = false;
            write!(
                w,
                "{{\"name\":\"pkt {} sm{} slice{}\",\"cat\":\"{}\",\"ph\":\"X\",\
                 \"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\
                 \"args\":{{\"sm\":{},\"slice\":{},\"flits\":{}}}}}",
                e.packet,
                e.sm,
                e.slice,
                e.comp.kind.label(),
                e.cycle,
                e.flits.max(1),
                pid,
                e.input,
                e.sm,
                e.slice,
                e.flits
            )?;
        }
        writeln!(w, "]}}")
    }
}

impl Probe for Collector {
    const ENABLED: bool = true;

    fn flit_granted(&mut self, now: Cycle, comp: Component, input: usize) {
        *slot(&mut self.muxes.entry(comp).or_default().grants, input) += 1;
        self.window(now).mux_flits += 1;
    }

    fn packet_forwarded(
        &mut self,
        now: Cycle,
        comp: Component,
        input: usize,
        packet: u64,
        sm: usize,
        slice: usize,
        flits: u32,
    ) {
        self.last_cycle = self.last_cycle.max(now);
        let m = self.muxes.entry(comp).or_default();
        m.forwarded_packets += 1;
        m.forwarded_flits += u64::from(flits);
        if self.trace.len() < self.trace_capacity {
            self.trace.push(TraceEvent {
                cycle: now,
                flits,
                comp,
                input,
                packet,
                sm,
                slice,
            });
        } else {
            self.trace_dropped += 1;
        }
    }

    fn push_denied(&mut self, comp: Component, input: usize) {
        *slot(&mut self.muxes.entry(comp).or_default().denials, input) += 1;
    }

    fn queue_depth(&mut self, comp: Component, input: usize, depth: usize) {
        let hwm = slot(&mut self.muxes.entry(comp).or_default().queue_hwm, input);
        *hwm = (*hwm).max(depth);
    }

    fn packet_injected(&mut self, now: Cycle, sm: usize, slice: usize) {
        self.injected += 1;
        self.sm_slice[sm * self.num_slices + slice] += 1;
        self.window(now).injected += 1;
    }

    fn packet_delivered(&mut self, now: Cycle, sm: usize) {
        let _ = sm;
        self.delivered += 1;
        self.window(now).delivered += 1;
    }

    fn l2_access(&mut self, now: Cycle, slice: usize, hit: bool) {
        if hit {
            self.l2[slice].hits += 1;
            self.window(now).l2_hits += 1;
        } else {
            self.l2[slice].misses += 1;
            self.window(now).l2_misses += 1;
        }
    }

    fn mshr_occupancy(&mut self, slice: usize, occupied: usize) {
        let t = &mut self.l2[slice];
        t.mshr_hwm = t.mshr_hwm.max(occupied);
    }

    fn dram_access(
        &mut self,
        now: Cycle,
        mc: usize,
        bank: usize,
        start: Cycle,
        done: Cycle,
        row_hit: bool,
    ) {
        self.last_cycle = self.last_cycle.max(now);
        let t = self.dram.entry((mc, bank)).or_default();
        t.accesses += 1;
        t.row_hits += u64::from(row_hit);
        t.busy_cycles += done.saturating_sub(start);
    }

    fn sm_stall(&mut self, sm: usize, reason: StallReason, cycles: Cycle) {
        self.stalls[sm][reason.index()] += cycles;
    }
}

/// Counters for one component instance.
#[derive(Debug, Clone, Serialize)]
pub struct ComponentReport {
    /// The component class.
    pub kind: ComponentKind,
    /// Instance index within the class.
    pub index: usize,
    /// Flit slots granted per input.
    pub grants: Vec<u64>,
    /// Refused pushes per input (backpressure events).
    pub denials: Vec<u64>,
    /// Deepest observed queue per input.
    pub queue_high_water: Vec<usize>,
    /// Packets fully forwarded.
    pub forwarded_packets: u64,
    /// Flits of those packets (conservation: equals total grants).
    pub forwarded_flits: u64,
    /// Mean channel load in flits per thousand cycles.
    pub flits_per_kcycle: f64,
}

/// Per-slice L2 counters.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct L2SliceReport {
    /// Slice index.
    pub slice: usize,
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses (MSHR allocations).
    pub misses: u64,
    /// Deepest observed MSHR occupancy.
    pub mshr_high_water: usize,
}

/// Per-bank DRAM counters.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct DramBankReport {
    /// Memory-controller index.
    pub mc: usize,
    /// Bank index within the controller.
    pub bank: usize,
    /// Accesses serviced.
    pub accesses: u64,
    /// Accesses that hit an open row.
    pub row_hits: u64,
    /// Core cycles the bank was busy servicing them.
    pub busy_cycles: Cycle,
}

/// Per-SM blocked-cycle breakdown.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct SmStallReport {
    /// SM index.
    pub sm: usize,
    /// Cycles blocked on waited memory batches.
    pub wait_mem: u64,
    /// Cycles throttled at the outstanding cap.
    pub throttled: u64,
    /// Cycles in explicit sleeps.
    pub sleep: u64,
    /// Cycles spinning on clock alignment.
    pub wait_clock: u64,
}

/// One bucket of the windowed time series.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct WindowReport {
    /// First cycle covered by this bucket.
    pub start_cycle: Cycle,
    /// Packets injected during the bucket.
    pub injected: u64,
    /// Packets delivered during the bucket.
    pub delivered: u64,
    /// L2 hits during the bucket.
    pub l2_hits: u64,
    /// L2 misses during the bucket.
    pub l2_misses: u64,
    /// Mux flit grants during the bucket.
    pub mux_flits: u64,
}

/// The SM×slice traffic matrix, row-major by SM.
#[derive(Debug, Clone, Serialize)]
pub struct SmSliceMatrix {
    /// Number of rows.
    pub num_sms: usize,
    /// Number of columns.
    pub num_slices: usize,
    /// `packets[sm * num_slices + slice]` requests injected.
    pub packets: Vec<u64>,
}

impl SmSliceMatrix {
    /// Packets SM `sm` sent to `slice`.
    pub fn at(&self, sm: usize, slice: usize) -> u64 {
        self.packets[sm * self.num_slices + slice]
    }
}

/// The full serialisable telemetry summary.
#[derive(Debug, Clone, Serialize)]
pub struct TelemetryReport {
    /// Cycles covered (last observed cycle + 1).
    pub cycles: Cycle,
    /// Time-series bucket length.
    pub window_cycles: Cycle,
    /// Total packets injected by SMs.
    pub packets_injected: u64,
    /// Total replies delivered to SMs.
    pub packets_delivered: u64,
    /// Per-component counters (only components that saw traffic).
    pub components: Vec<ComponentReport>,
    /// SM×slice request matrix (the contention heatmap's data).
    pub sm_slice: SmSliceMatrix,
    /// Per-slice L2 counters.
    pub l2: Vec<L2SliceReport>,
    /// Per-bank DRAM counters.
    pub dram: Vec<DramBankReport>,
    /// Per-SM stall breakdown.
    pub sm_stalls: Vec<SmStallReport>,
    /// Windowed time series.
    pub windows: Vec<WindowReport>,
    /// Trace events retained.
    pub trace_events: usize,
    /// Trace events dropped at the capacity cap.
    pub trace_dropped: u64,
}

impl TelemetryReport {
    /// Renders the SM×slice contention heatmap as ASCII art: one row per
    /// SM with traffic, one column per L2 slice, glyph scaled to that
    /// cell's share of the busiest cell.
    pub fn heatmap_ascii(&self) -> String {
        const RAMP: &[u8] = b" .:-=+*#%@";
        let m = &self.sm_slice;
        let max = m.packets.iter().copied().max().unwrap_or(0);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "SM x slice request heatmap ({} packets, max cell {}):",
            self.packets_injected, max
        );
        if max == 0 {
            let _ = writeln!(out, "  (no traffic recorded)");
            return out;
        }
        let _ = writeln!(out, "        slice 0..{}", m.num_slices - 1);
        for sm in 0..m.num_sms {
            let row = &m.packets[sm * m.num_slices..(sm + 1) * m.num_slices];
            if row.iter().all(|&v| v == 0) {
                continue;
            }
            let cells: String = row
                .iter()
                .map(|&v| {
                    let idx = (v * (RAMP.len() as u64 - 1)).div_ceil(max) as usize;
                    RAMP[idx.min(RAMP.len() - 1)] as char
                })
                .collect();
            let _ = writeln!(out, "  SM{sm:<3} |{cells}|");
        }
        out
    }

    /// Renders the channel-utilization table: per component instance
    /// with traffic, its flit load, grant/denial counts, and queue
    /// high-water mark.
    pub fn utilization_table_ascii(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "channel utilization over {} cycles:\n  {:<18} {:>10} {:>8} {:>8} {:>9} {:>6}",
            self.cycles, "component", "flits", "packets", "denied", "flits/kc", "q-hwm"
        );
        for c in &self.components {
            let _ = writeln!(
                out,
                "  {:<18} {:>10} {:>8} {:>8} {:>9.1} {:>6}",
                format!("{}[{}]", c.kind.label(), c.index),
                c.grants.iter().sum::<u64>(),
                c.forwarded_packets,
                c.denials.iter().sum::<u64>(),
                c.flits_per_kcycle,
                c.queue_high_water.iter().copied().max().unwrap_or(0)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_probe_is_zero_sized_and_disabled() {
        assert_eq!(std::mem::size_of::<NullProbe>(), 0);
        const { assert!(!<NullProbe as Probe>::ENABLED) };
        const { assert!(<Collector as Probe>::ENABLED) };
    }

    #[test]
    fn collector_counts_and_conserves() {
        let mut c = Collector::new(2, 2);
        let comp = Component::tpc_mux(0);
        for _ in 0..5 {
            c.flit_granted(10, comp, 1);
        }
        c.packet_forwarded(10, comp, 1, 42, 0, 1, 5);
        c.packet_injected(3, 0, 1);
        c.packet_delivered(80, 0);
        c.l2_access(40, 1, true);
        c.l2_access(41, 1, false);
        c.sm_stall(0, StallReason::WaitMem, 30);
        assert_eq!(c.mux_flit_balance(comp), Some((5, 5)));
        assert_eq!(c.in_flight(), 0);
        assert_eq!(c.l2_hit_miss(1), (1, 1));
        let report = c.report();
        assert_eq!(report.packets_injected, 1);
        assert_eq!(report.sm_slice.at(0, 1), 1);
        assert_eq!(report.sm_stalls[0].wait_mem, 30);
        assert_eq!(report.trace_events, 1);
        assert!(report.heatmap_ascii().contains("SM0"));
        assert!(report.utilization_table_ascii().contains("tpc_mux[0]"));
    }

    #[test]
    fn trace_capacity_caps_and_counts_drops() {
        let mut c = Collector::new(1, 1).with_trace_capacity(2);
        let comp = Component::xbar_out(0);
        for i in 0..5 {
            c.packet_forwarded(i, comp, 0, i, 0, 0, 1);
        }
        let report = c.report();
        assert_eq!(report.trace_events, 2);
        assert_eq!(report.trace_dropped, 3);
    }

    #[test]
    fn trace_exports_are_well_formed() {
        let mut c = Collector::new(1, 1);
        c.flit_granted(7, Component::tpc_mux(3), 0);
        c.packet_forwarded(7, Component::tpc_mux(3), 0, 9, 0, 0, 2);
        let mut jsonl = Vec::new();
        c.write_trace_jsonl(&mut jsonl).unwrap();
        let line = String::from_utf8(jsonl).unwrap();
        assert!(line.contains("\"component\":\"tpc_mux[3]\""));
        let mut chrome = Vec::new();
        c.write_chrome_trace(&mut chrome).unwrap();
        let body = String::from_utf8(chrome).unwrap();
        assert!(body.starts_with("{\"traceEvents\":["));
        assert!(body.contains("\"ph\":\"X\""));
        assert!(body.trim_end().ends_with("]}"));
    }

    #[test]
    fn windows_bucket_by_cycle() {
        let mut c = Collector::new(1, 1).with_window(100);
        c.packet_injected(5, 0, 0);
        c.packet_injected(150, 0, 0);
        c.packet_injected(199, 0, 0);
        let report = c.report();
        assert_eq!(report.windows.len(), 2);
        assert_eq!(report.windows[0].start_cycle, 0);
        assert_eq!(report.windows[0].injected, 1);
        assert_eq!(report.windows[1].start_cycle, 100);
        assert_eq!(report.windows[1].injected, 2);
    }
}
