//! Mux arbitration policies (§2.3, §6).
//!
//! The covert channel exists because the baseline round-robin arbiter is
//! *locally fair*: a lone requester receives the full channel bandwidth,
//! so the receiver can observe whether the sender is competing. §6
//! evaluates three alternatives; all four are implemented here behind the
//! [`Arbiter`] trait and are selectable per
//! [`gnc_common::config::Arbitration`].

use gnc_common::config::Arbitration;
use gnc_common::Cycle;

/// Metadata about the head flit available at one mux input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArbHead {
    /// Cycle at which the head packet entered this subnet (age-based
    /// arbitration keys on this).
    pub age: Cycle,
    /// Coarse arbitration group of the head packet (one group per warp
    /// memory instruction; CRR grants a whole group consecutively).
    pub group: u64,
}

/// One-flit-slot arbitration decision.
///
/// The mux calls [`Arbiter::grant`] once per flit slot of output
/// bandwidth per cycle. `global_slot` is `cycle * bandwidth + slot`, a
/// monotonically increasing slot counter that strict round-robin uses for
/// time-division ownership. `heads[i]` is `Some` when input `i` has a
/// flit ready to transmit.
///
/// Implementations must be deterministic: the simulator's reproducibility
/// depends on it.
pub trait Arbiter: std::fmt::Debug + Send {
    /// Chooses the input that transmits in this flit slot, or `None` if
    /// the slot goes unused (all inputs idle, or — under strict RR — the
    /// slot's owner is idle).
    fn grant(&mut self, global_slot: u64, heads: &[Option<ArbHead>]) -> Option<usize>;
}

/// Creates the arbiter implementing `policy`.
pub fn make_arbiter(policy: Arbitration) -> Box<dyn Arbiter> {
    match policy {
        Arbitration::RoundRobin => Box::new(RoundRobinArbiter::new()),
        Arbitration::CoarseRoundRobin => Box::new(CoarseRoundRobinArbiter::new()),
        Arbitration::StrictRoundRobin => Box::new(StrictRoundRobinArbiter::new()),
        Arbitration::AgeBased => Box::new(AgeBasedArbiter::new()),
    }
}

/// Locally-fair round-robin (the baseline the paper attacks).
///
/// Scans inputs starting after the last grantee and grants the first one
/// with a flit ready; a lone requester therefore receives the entire
/// channel bandwidth, which is exactly the property the covert channel
/// measures.
#[derive(Debug, Clone, Default)]
pub struct RoundRobinArbiter {
    next: usize,
}

impl RoundRobinArbiter {
    /// Creates the arbiter with its pointer at input 0.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Arbiter for RoundRobinArbiter {
    fn grant(&mut self, _global_slot: u64, heads: &[Option<ArbHead>]) -> Option<usize> {
        let n = heads.len();
        // Scan next..n then 0..next: division-free cyclic order.
        for i in (self.next..n).chain(0..self.next) {
            if heads[i].is_some() {
                self.next = if i + 1 == n { 0 } else { i + 1 };
                return Some(i);
            }
        }
        None
    }
}

/// Coarse-grain round-robin (§6, "CRR"): per-warp-group arbitration.
///
/// Once an input wins, it keeps the grant while its head packets belong
/// to the same group (the packets of one warp instruction), amortising
/// arbitration — "network coalescing". §6 shows this does **not** remove
/// the covert channel, because the total flit count on the channel is
/// unchanged.
#[derive(Debug, Clone, Default)]
pub struct CoarseRoundRobinArbiter {
    next: usize,
    current: Option<(usize, u64)>,
}

impl CoarseRoundRobinArbiter {
    /// Creates the arbiter with no group in progress.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Arbiter for CoarseRoundRobinArbiter {
    fn grant(&mut self, _global_slot: u64, heads: &[Option<ArbHead>]) -> Option<usize> {
        if let Some((input, group)) = self.current {
            match heads.get(input).copied().flatten() {
                Some(head) if head.group == group => return Some(input),
                _ => self.current = None,
            }
        }
        let n = heads.len();
        for i in (self.next..n).chain(0..self.next) {
            if let Some(head) = heads[i] {
                self.next = if i + 1 == n { 0 } else { i + 1 };
                self.current = Some((i, head.group));
                return Some(i);
            }
        }
        None
    }
}

/// Strict round-robin (§6, "SRR"): time-division multiplexing.
///
/// Flit slot `s` belongs to input `s mod n` whether or not that input has
/// anything to send. An idle owner's slot is *wasted*, never granted to
/// another input, so no input can observe another's demand — the paper's
/// effective countermeasure.
#[derive(Debug, Clone, Default)]
pub struct StrictRoundRobinArbiter;

impl StrictRoundRobinArbiter {
    /// Creates the arbiter.
    pub fn new() -> Self {
        Self
    }
}

impl Arbiter for StrictRoundRobinArbiter {
    fn grant(&mut self, global_slot: u64, heads: &[Option<ArbHead>]) -> Option<usize> {
        let owner = (global_slot % heads.len() as u64) as usize;
        heads[owner].map(|_| owner)
    }
}

/// Globally-fair age-based arbitration [Abts & Weisser 2007].
///
/// Grants the input whose head packet is oldest. §6 argues this does not
/// mitigate the channel (contending requests are generated at similar
/// times, so local contention persists); it is included so the claim can
/// be tested.
#[derive(Debug, Clone, Default)]
pub struct AgeBasedArbiter;

impl AgeBasedArbiter {
    /// Creates the arbiter.
    pub fn new() -> Self {
        Self
    }
}

impl Arbiter for AgeBasedArbiter {
    fn grant(&mut self, _global_slot: u64, heads: &[Option<ArbHead>]) -> Option<usize> {
        heads
            .iter()
            .enumerate()
            .filter_map(|(i, h)| h.map(|h| (i, h.age)))
            .min_by_key(|&(i, age)| (age, i))
            .map(|(i, _)| i)
    }
}

/// Dense occupancy bitmask over a fixed index range.
///
/// One bit per slot. Inside the mux it tracks which input queues hold a
/// head flit, replacing the `&[Option<ArbHead>]` slice on the per-flit
/// hot path: a round-robin grant is a rotate-and-count-zeros instead of
/// an `Option` walk. The fabrics and the memory subsystem reuse it to
/// track which of their components are busy, so the per-cycle loops
/// walk only live components (in index order — identical visit order to
/// a full scan that skips idle entries) instead of scanning every
/// busy counter.
#[derive(Debug, Clone)]
pub struct OccupancyMask {
    words: Vec<u64>,
    len: usize,
}

impl OccupancyMask {
    /// Creates an all-clear mask over `len` slots.
    #[must_use]
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64).max(1)],
            len,
        }
    }

    /// Number of slots covered (set or not).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no bit is set.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    #[inline]
    pub fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    #[inline]
    pub fn clear(&mut self, i: usize) {
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    #[inline]
    #[must_use]
    pub fn get(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 != 0
    }

    /// Clears every bit without reallocating — the in-place reset used
    /// by [`Gpu::reset`]-style machine reuse (word count and `len` are
    /// config-derived, so they survive the reset).
    #[inline]
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// The raw words, low bit = slot 0. Drain loops that clear bits as
    /// they visit copy one word at a time from this slice: the copy is a
    /// snapshot, so clearing an already-visited bit cannot perturb the
    /// walk, and no bit can be *set* mid-drain (draining only empties).
    #[inline]
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Iterates set bits in ascending index order.
    #[inline]
    pub fn iter_set(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &bits)| {
            std::iter::successors(if bits == 0 { None } else { Some(bits) }, |&b| {
                let rest = b & (b - 1);
                if rest == 0 {
                    None
                } else {
                    Some(rest)
                }
            })
            .map(move |b| w * 64 + b.trailing_zeros() as usize)
        })
    }

    /// Lowest set bit at index `from` or above, if any.
    #[inline]
    pub fn first_at_or_after(&self, from: usize) -> Option<usize> {
        let mut word = from / 64;
        if word >= self.words.len() {
            return None;
        }
        let masked = self.words[word] & (!0u64 << (from % 64));
        if masked != 0 {
            return Some(word * 64 + masked.trailing_zeros() as usize);
        }
        word += 1;
        while word < self.words.len() {
            if self.words[word] != 0 {
                return Some(word * 64 + self.words[word].trailing_zeros() as usize);
            }
            word += 1;
        }
        None
    }

    /// First set bit in cyclic scan order starting at `from`: the lowest
    /// bit at or above `from`, else the lowest set bit overall. Matches
    /// the `(next..n).chain(0..next)` walk of [`RoundRobinArbiter`].
    #[inline]
    pub fn first_cyclic(&self, from: usize) -> Option<usize> {
        self.first_at_or_after(from)
            .or_else(|| self.first_at_or_after(0))
    }

    /// Whether bit `i` is set and is the *only* set bit — the lone-
    /// occupant test behind the closed-form grant runs.
    #[inline]
    #[must_use]
    pub fn is_lone(&self, i: usize) -> bool {
        let bit_word = i / 64;
        let bit = 1u64 << (i % 64);
        self.words
            .iter()
            .enumerate()
            .all(|(w, &word)| word == if w == bit_word { bit } else { 0 })
    }
}

/// A batched arbitration decision from [`InlineArbiter::grant_run`]:
/// `winner` transmits `flits` of the next `slots` consecutive flit
/// slots (under strict RR, `slots` also covers the idle-owner slots
/// wasted before and between the winner's turns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GrantRun {
    pub winner: usize,
    pub flits: u32,
    pub slots: u32,
}

/// Unboxed arbitration state driving the mask-based grant path.
///
/// Decision-for-decision identical to the boxed [`Arbiter`]
/// implementations above (the `simulator_fidelity` bit-identity tests
/// and the policy equivalence tests below depend on it); the enum
/// dispatch replaces a virtual call per flit slot, and the occupancy
/// mask plus SoA head columns replace the `Option<ArbHead>` slice.
#[derive(Debug, Clone)]
pub(crate) enum InlineArbiter {
    RoundRobin {
        next: usize,
    },
    CoarseRoundRobin {
        next: usize,
        current: Option<(usize, u64)>,
    },
    StrictRoundRobin,
    AgeBased,
}

impl InlineArbiter {
    pub(crate) fn new(policy: Arbitration) -> Self {
        match policy {
            Arbitration::RoundRobin => InlineArbiter::RoundRobin { next: 0 },
            Arbitration::CoarseRoundRobin => InlineArbiter::CoarseRoundRobin {
                next: 0,
                current: None,
            },
            Arbitration::StrictRoundRobin => InlineArbiter::StrictRoundRobin,
            Arbitration::AgeBased => InlineArbiter::AgeBased,
        }
    }

    /// Restores the arbiter to its just-constructed state in place
    /// (pointer at input 0, no group in progress). The policy variant is
    /// config-derived and retained.
    pub(crate) fn reset(&mut self) {
        match self {
            InlineArbiter::RoundRobin { next } => *next = 0,
            InlineArbiter::CoarseRoundRobin { next, current } => {
                *next = 0;
                *current = None;
            }
            InlineArbiter::StrictRoundRobin | InlineArbiter::AgeBased => {}
        }
    }

    /// Chooses the input transmitting in this flit slot (see
    /// [`Arbiter::grant`] for the contract). `head_age` / `head_group`
    /// are only read at indices whose occupancy bit is set.
    ///
    /// The hot path no longer calls this — [`grant_run`](Self::grant_run)
    /// batches whole runs of slots — but it stays as the per-flit
    /// reference the equivalence tests replay against.
    #[inline]
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn grant(
        &mut self,
        global_slot: u64,
        occ: &OccupancyMask,
        head_age: &[Cycle],
        head_group: &[u64],
    ) -> Option<usize> {
        match self {
            InlineArbiter::RoundRobin { next } => {
                let i = occ.first_cyclic(*next)?;
                *next = if i + 1 == occ.len() { 0 } else { i + 1 };
                Some(i)
            }
            InlineArbiter::CoarseRoundRobin { next, current } => {
                if let Some((input, group)) = *current {
                    if occ.get(input) && head_group[input] == group {
                        return Some(input);
                    }
                    *current = None;
                }
                let i = occ.first_cyclic(*next)?;
                *next = if i + 1 == occ.len() { 0 } else { i + 1 };
                *current = Some((i, head_group[i]));
                Some(i)
            }
            InlineArbiter::StrictRoundRobin => {
                let owner = (global_slot % occ.len() as u64) as usize;
                occ.get(owner).then_some(owner)
            }
            InlineArbiter::AgeBased => {
                // Ascending-index scan keeping the strict minimum matches
                // the boxed arbiter's (age, index) tie-break.
                let mut best: Option<usize> = None;
                let mut probe = occ.first_at_or_after(0);
                while let Some(i) = probe {
                    if best.is_none_or(|b| head_age[i] < head_age[b]) {
                        best = Some(i);
                    }
                    probe = occ.first_at_or_after(i + 1);
                }
                best
            }
        }
    }

    /// Batched grant: decides the winner of the flit slot `global_slot`
    /// and how many of the next `avail` slots it keeps winning, assuming
    /// the occupancy and head columns stay fixed for the whole run. The
    /// caller guarantees that by capping the run at the winner's
    /// remaining head flits (`flits <= head_remaining[winner]`), so no
    /// head can change before the run's last slot.
    ///
    /// Calling [`grant`](Self::grant) `slots` times instead would grant
    /// `winner` in exactly `flits` of those slots (wasting the rest,
    /// which only strict RR ever does) and leave the arbiter in the same
    /// state this call leaves it in — the decision-identity contract the
    /// `batched_grants_match_per_flit_loop` property test pins.
    ///
    /// Returns `None` when none of the next `avail` slots can grant
    /// (idle mask, or no strict-RR owner is occupied in range); the
    /// caller treats that as the rest of the cycle going unused.
    ///
    /// `avail` must be at least 1.
    #[inline(always)]
    pub(crate) fn grant_run(
        &mut self,
        global_slot: u64,
        avail: u32,
        occ: &OccupancyMask,
        head_remaining: &[u32],
        head_age: &[Cycle],
        head_group: &[u64],
    ) -> Option<GrantRun> {
        match self {
            InlineArbiter::RoundRobin { next } => {
                let w = occ.first_cyclic(*next)?;
                *next = if w + 1 == occ.len() { 0 } else { w + 1 };
                // A lone occupant keeps winning every slot (the paper's
                // §2.3 full-bandwidth property); under competition the
                // pointer moves on after one flit. Only pay for the
                // loneliness scan when a longer run is even possible.
                let flits = if avail > 1 && head_remaining[w] > 1 && occ.is_lone(w) {
                    avail.min(head_remaining[w])
                } else {
                    1
                };
                Some(GrantRun {
                    winner: w,
                    flits,
                    slots: flits,
                })
            }
            InlineArbiter::CoarseRoundRobin { next, current } => {
                // CRR holds the grant while the winner's head group is
                // unchanged, so a whole head batches even under
                // competition. Re-granting per flit would take the
                // `current` fast path every time and never touch `next`.
                if let Some((input, group)) = *current {
                    if occ.get(input) && head_group[input] == group {
                        let flits = avail.min(head_remaining[input]);
                        return Some(GrantRun {
                            winner: input,
                            flits,
                            slots: flits,
                        });
                    }
                    *current = None;
                }
                let w = occ.first_cyclic(*next)?;
                *next = if w + 1 == occ.len() { 0 } else { w + 1 };
                *current = Some((w, head_group[w]));
                let flits = avail.min(head_remaining[w]);
                Some(GrantRun {
                    winner: w,
                    flits,
                    slots: flits,
                })
            }
            InlineArbiter::StrictRoundRobin => {
                // Slot ownership is pure modular arithmetic: slot `s`
                // belongs to input `s % n`. Find the first occupied
                // owner at or after this slot's owner in cyclic order.
                let n = occ.len();
                let owner = (global_slot % n as u64) as usize;
                let w = occ.first_cyclic(owner)?;
                let dist = u32::try_from(if w >= owner { w - owner } else { w + n - owner })
                    .expect("mux input counts fit u32");
                if dist >= avail {
                    return None;
                }
                let n32 = u32::try_from(n).expect("mux input counts fit u32");
                // The scan is only worth it when the winner could own a
                // second in-range slot and has a second flit to send.
                if head_remaining[w] > 1 && avail - dist > n32 && occ.is_lone(w) {
                    // The winner owns every n-th slot; idle owners'
                    // slots between them are wasted, never re-granted.
                    let possible = 1 + (avail - dist - 1) / n32;
                    let flits = possible.min(head_remaining[w]);
                    Some(GrantRun {
                        winner: w,
                        flits,
                        slots: dist + (flits - 1) * n32 + 1,
                    })
                } else {
                    Some(GrantRun {
                        winner: w,
                        flits: 1,
                        slots: dist + 1,
                    })
                }
            }
            InlineArbiter::AgeBased => {
                // The (age, index) argmin over fixed heads is the same
                // every slot — ties included — so the winner's whole
                // head batches.
                let mut best: Option<usize> = None;
                let mut probe = occ.first_at_or_after(0);
                while let Some(i) = probe {
                    if best.is_none_or(|b| head_age[i] < head_age[b]) {
                        best = Some(i);
                    }
                    probe = occ.first_at_or_after(i + 1);
                }
                let w = best?;
                let flits = avail.min(head_remaining[w]);
                Some(GrantRun {
                    winner: w,
                    flits,
                    slots: flits,
                })
            }
        }
    }

    /// Applies the state transition of granting `winner` while it is the
    /// only occupied input with head group `group` — what a cross-cycle
    /// grant run replays each cycle instead of calling
    /// [`grant_run`](Self::grant_run): RR re-arms its scan pointer past
    /// the winner; CRR locks onto the winner's current group (re-arming
    /// the pointer only on a group change, exactly like the per-flit
    /// scan). Strict RR never sustains a cross-cycle run and age-based
    /// arbitration is stateless.
    #[inline]
    pub(crate) fn note_uncontested_grant(&mut self, winner: usize, group: u64, n: usize) {
        match self {
            InlineArbiter::RoundRobin { next } => {
                *next = if winner + 1 == n { 0 } else { winner + 1 };
            }
            InlineArbiter::CoarseRoundRobin { next, current } => {
                if *current != Some((winner, group)) {
                    *next = if winner + 1 == n { 0 } else { winner + 1 };
                    *current = Some((winner, group));
                }
            }
            InlineArbiter::StrictRoundRobin | InlineArbiter::AgeBased => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn head(age: Cycle, group: u64) -> Option<ArbHead> {
        Some(ArbHead { age, group })
    }

    #[test]
    fn rr_alternates_between_two_busy_inputs() {
        let mut arb = RoundRobinArbiter::new();
        let heads = [head(0, 0), head(0, 1)];
        let grants: Vec<usize> = (0..6).map(|s| arb.grant(s, &heads).unwrap()).collect();
        assert_eq!(grants, vec![0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn rr_gives_lone_requester_full_bandwidth() {
        let mut arb = RoundRobinArbiter::new();
        let heads = [None, head(0, 1), None];
        for s in 0..8 {
            assert_eq!(arb.grant(s, &heads), Some(1));
        }
    }

    #[test]
    fn rr_returns_none_when_idle() {
        let mut arb = RoundRobinArbiter::new();
        assert_eq!(arb.grant(0, &[None, None]), None);
    }

    #[test]
    fn rr_pointer_resumes_after_gap() {
        let mut arb = RoundRobinArbiter::new();
        let busy = [head(0, 0), head(0, 1), head(0, 2)];
        assert_eq!(arb.grant(0, &busy), Some(0));
        // Input 1 goes idle; scan should continue to 2, not restart at 0.
        assert_eq!(arb.grant(1, &[head(0, 0), None, head(0, 2)]), Some(2));
        assert_eq!(arb.grant(2, &busy), Some(0));
    }

    #[test]
    fn srr_wastes_idle_owner_slots() {
        let mut arb = StrictRoundRobinArbiter::new();
        // Only input 1 is busy; it still only gets its own slots.
        let heads = [None, head(0, 0)];
        let grants: Vec<Option<usize>> = (0..6).map(|s| arb.grant(s, &heads)).collect();
        assert_eq!(grants, vec![None, Some(1), None, Some(1), None, Some(1)]);
    }

    #[test]
    fn srr_partitions_fairly_under_load() {
        let mut arb = StrictRoundRobinArbiter::new();
        let heads = [head(0, 0), head(0, 1), head(0, 2)];
        let mut counts = [0usize; 3];
        for s in 0..300 {
            counts[arb.grant(s, &heads).unwrap()] += 1;
        }
        assert_eq!(counts, [100, 100, 100]);
    }

    #[test]
    fn crr_holds_grant_within_a_group() {
        let mut arb = CoarseRoundRobinArbiter::new();
        // Input 0 transmits group 7 for several slots even though input 1
        // is waiting.
        let both = [head(0, 7), head(0, 9)];
        assert_eq!(arb.grant(0, &both), Some(0));
        assert_eq!(arb.grant(1, &both), Some(0));
        assert_eq!(arb.grant(2, &both), Some(0));
        // Input 0's group changes → grant moves to input 1.
        let switched = [head(5, 8), head(0, 9)];
        assert_eq!(arb.grant(3, &switched), Some(1));
        assert_eq!(arb.grant(4, &switched), Some(1));
    }

    #[test]
    fn crr_releases_grant_when_input_drains() {
        let mut arb = CoarseRoundRobinArbiter::new();
        assert_eq!(arb.grant(0, &[head(0, 7), head(0, 9)]), Some(0));
        // Input 0 empties: grant must fall through to input 1.
        assert_eq!(arb.grant(1, &[None, head(0, 9)]), Some(1));
    }

    #[test]
    fn age_based_prefers_oldest() {
        let mut arb = AgeBasedArbiter::new();
        assert_eq!(
            arb.grant(0, &[head(10, 0), head(3, 1), head(7, 2)]),
            Some(1)
        );
        // Tie breaks to the lower index.
        assert_eq!(arb.grant(1, &[head(5, 0), head(5, 1)]), Some(0));
        assert_eq!(arb.grant(2, &[None, None]), None);
    }

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn inline_arbiter_matches_boxed_for_all_policies() {
        // The mux's hot path uses InlineArbiter; the boxed trait objects
        // remain the specification. Drive both with the same churning
        // head pattern and require identical grants — including across
        // the 64-bit word boundary of the occupancy mask (n = 70).
        for policy in Arbitration::ALL {
            for n in [1usize, 2, 7, 48, 70] {
                let mut rng: u64 = 0x9E37_79B9_7F4A_7C15 ^ n as u64;
                let mut boxed = make_arbiter(policy);
                let mut inline = InlineArbiter::new(policy);
                let mut heads: Vec<Option<ArbHead>> = vec![None; n];
                let mut occ = OccupancyMask::new(n);
                let mut head_age = vec![0u64; n];
                let mut head_group = vec![0u64; n];
                for slot in 0..2000u64 {
                    for _ in 0..3 {
                        let i = (xorshift(&mut rng) % n as u64) as usize;
                        if xorshift(&mut rng).is_multiple_of(3) {
                            heads[i] = None;
                            occ.clear(i);
                        } else {
                            let age = xorshift(&mut rng) % 16;
                            let group = xorshift(&mut rng) % 4;
                            heads[i] = head(age, group);
                            occ.set(i);
                            head_age[i] = age;
                            head_group[i] = group;
                        }
                    }
                    assert_eq!(
                        boxed.grant(slot, &heads),
                        inline.grant(slot, &occ, &head_age, &head_group),
                        "{policy:?}/{n} inputs diverged at slot {slot}: {heads:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn occupancy_mask_cyclic_scan() {
        let mut occ = OccupancyMask::new(70);
        assert_eq!(occ.first_cyclic(0), None);
        occ.set(3);
        occ.set(65);
        assert_eq!(occ.first_at_or_after(0), Some(3));
        assert_eq!(occ.first_at_or_after(4), Some(65));
        assert_eq!(occ.first_at_or_after(66), None);
        assert_eq!(occ.first_cyclic(66), Some(3));
        assert_eq!(occ.first_cyclic(64), Some(65));
        assert!(occ.get(65));
        occ.clear(65);
        assert!(!occ.get(65));
        assert_eq!(occ.first_cyclic(4), Some(3));
    }

    #[test]
    fn factory_builds_every_policy() {
        for policy in Arbitration::ALL {
            let mut arb = make_arbiter(policy);
            // Smoke: a lone busy input is granted eventually within one
            // round of slots.
            let heads = [head(0, 0), None];
            let granted = (0..2).any(|s| arb.grant(s, &heads) == Some(0));
            assert!(granted, "{policy:?} never granted the busy input");
        }
    }

    /// Mux-shaped state for driving the two grant engines side by side:
    /// occupancy + head columns, with randomized head installs and a
    /// random chance of a queued successor on completion.
    struct Muxlet {
        arb: InlineArbiter,
        occ: OccupancyMask,
        head_remaining: Vec<u32>,
        head_age: Vec<Cycle>,
        head_group: Vec<u64>,
        rng: u64,
    }

    impl Muxlet {
        fn new(policy: Arbitration, n: usize, seed: u64) -> Self {
            Self {
                arb: InlineArbiter::new(policy),
                occ: OccupancyMask::new(n),
                head_remaining: vec![0; n],
                head_age: vec![0; n],
                head_group: vec![0; n],
                rng: seed,
            }
        }

        fn install_head(&mut self, i: usize) {
            let r = xorshift(&mut self.rng);
            self.occ.set(i);
            self.head_remaining[i] = 1 + (r % 7) as u32;
            self.head_age[i] = (r >> 8) % 16;
            self.head_group[i] = (r >> 16) % 4;
        }

        /// New arrivals at idle inputs, drawn once per cycle.
        fn refill(&mut self) {
            for i in 0..self.head_remaining.len() {
                if !self.occ.get(i) && xorshift(&mut self.rng).is_multiple_of(4) {
                    self.install_head(i);
                }
            }
        }

        /// The head just drained: half the time another packet was queued
        /// behind it (mid-cycle head change), otherwise the input idles.
        fn on_complete(&mut self, i: usize) {
            if xorshift(&mut self.rng).is_multiple_of(2) {
                self.install_head(i);
            } else {
                self.occ.clear(i);
            }
        }

        fn is_idle(&self) -> bool {
            self.occ.first_at_or_after(0).is_none()
        }

        /// The reference engine: one `grant` call per flit slot.
        fn tick_per_flit(
            &mut self,
            now: u64,
            bandwidth: u32,
            budget: u32,
            grants: &mut Vec<usize>,
        ) {
            for flit_slot in 0..budget {
                if self.is_idle() {
                    break;
                }
                let gs = now * u64::from(bandwidth) + u64::from(flit_slot);
                let Some(w) = self
                    .arb
                    .grant(gs, &self.occ, &self.head_age, &self.head_group)
                else {
                    continue;
                };
                grants.push(w);
                self.head_remaining[w] -= 1;
                if self.head_remaining[w] == 0 {
                    self.on_complete(w);
                }
            }
        }

        /// The batched engine: closed-form runs via `grant_run`.
        fn tick_batched(&mut self, now: u64, bandwidth: u32, budget: u32, grants: &mut Vec<usize>) {
            let slot_base = now * u64::from(bandwidth);
            let mut used = 0u32;
            while used < budget {
                if self.is_idle() {
                    break;
                }
                let Some(run) = self.arb.grant_run(
                    slot_base + u64::from(used),
                    budget - used,
                    &self.occ,
                    &self.head_remaining,
                    &self.head_age,
                    &self.head_group,
                ) else {
                    break;
                };
                for _ in 0..run.flits {
                    grants.push(run.winner);
                }
                self.head_remaining[run.winner] -= run.flits;
                used += run.slots;
                if self.head_remaining[run.winner] == 0 {
                    self.on_complete(run.winner);
                }
            }
        }
    }

    #[test]
    fn grant_run_matches_per_flit_grant() {
        // The batched engine's contract: identical granted-flit sequence
        // and identical end state to calling `grant` once per slot, under
        // every policy, input count, bandwidth, random head churn,
        // mid-cycle head exhaustion, and fault-stolen slots (budget <
        // bandwidth). The muxlets share RNG seeds, so their random draws
        // stay aligned exactly as long as the grant sequences agree.
        for policy in Arbitration::ALL {
            for n in [1usize, 2, 7, 48, 70] {
                for bandwidth in [1u32, 3, 6] {
                    let seed = 0xDEAD_BEEF ^ ((n as u64) << 8) ^ u64::from(bandwidth);
                    let mut a = Muxlet::new(policy, n, seed);
                    let mut b = Muxlet::new(policy, n, seed);
                    let mut rng_budget = seed.rotate_left(17);
                    for now in 0..600u64 {
                        a.refill();
                        b.refill();
                        // Fault bursts steal slots off the top of a cycle.
                        let steal = (xorshift(&mut rng_budget) % u64::from(bandwidth + 1)) as u32;
                        let budget = bandwidth - steal;
                        if budget == 0 {
                            continue;
                        }
                        let mut grants_a = Vec::new();
                        let mut grants_b = Vec::new();
                        a.tick_per_flit(now, bandwidth, budget, &mut grants_a);
                        b.tick_batched(now, bandwidth, budget, &mut grants_b);
                        assert_eq!(
                            grants_a, grants_b,
                            "{policy:?}/{n} inputs/bw {bandwidth} diverged at cycle {now}"
                        );
                        assert_eq!(a.head_remaining, b.head_remaining);
                        assert_eq!(
                            format!("{:?}", a.arb),
                            format!("{:?}", b.arb),
                            "{policy:?}/{n}/bw {bandwidth}: arbiter state diverged at {now}"
                        );
                    }
                }
            }
        }
    }
}
